"""The three sweeps against the exact reach of their butterflies.

A program with signature 1..n (or n..1) is a routing of one butterfly,
which has one path from each input to each output.  So `forward_program`,
`compose_forward_program` and `backward_restricted_program` must each
succeed on exactly the mappings (or ranges) that some program with their
signature computes, and every program they return must perform its
mapping.  `census.signature_reach` gives that set exactly, from digit
arithmetic and none of the package's kernels.

At 2^2 each direction reaches 144 of the 256 mappings, and every input
and range is checked; at 2^3 each reaches 1032256 of 16777216, and
seeded mappings are.  Needs numpy; runs without pytest too:

    PYTHONPATH=src python tests/test_sweep_census.py
"""

import functools

import numpy as np

import census
from insitu.blockseq import compose_forward_program
from insitu.core import Alphabet, InSituError, Mapping, execute_all
from insitu.factor import backward_restricted_program, forward_program
from insitu.rng import SplitMix64

REACH_2_2 = 144  # mappings of 2^2 that a program with signature 1,2 (or 2,1) computes
REACH_2_3 = 1032256  # mappings of 2^3 that one with signature 1,2,3 (or 3,2,1) computes


@functools.cache
def reach(s, n, signature):
    return census.signature_reach(s, n, signature)


def swept(build, *args):
    """The program `build` returns, or None when its sweep meets a conflict."""
    try:
        return build(*args)
    except InSituError as exc:
        assert "must become both" in str(exc), exc
        return None


def compose_identity(e):
    # the identity as a head with signature 1..n, the shape the paper composes with
    return compose_forward_program(e, forward_program(Mapping.identity(e.alphabet)))


@functools.cache
def range_reach(s, n, lo, hi):
    """placed[c]: whether some mapping in the n..1 reach has, on [lo, hi],
    the images coded c base s^n."""
    size = s ** n
    width = size ** (hi - lo + 1)
    placed = np.zeros(width, bool)
    placed[np.flatnonzero(reach(s, n, tuple(range(n, 0, -1)))) // size ** lo % width] = True
    return placed


def check_mapping(a, code, images):
    """Each sweep succeeds exactly on its reach, with a program that
    performs the mapping; returns how many succeeded."""
    n = a.n
    up, down = reach(a.s, n, tuple(range(1, n + 1))), reach(a.s, n, tuple(range(n, 0, -1)))
    e = Mapping(a, images)
    count = 0
    for build, inside in ((forward_program, up), (compose_identity, up),
                          (lambda e: backward_restricted_program(e, 0, a.size - 1), down)):
        p = swept(build, e)
        assert (p is not None) == inside[code], (build, images)
        if p is not None:
            assert execute_all(p).images == images
            count += 1
    return count


def check_range(a, images, lo, hi):
    p = swept(backward_restricted_program, Mapping(a, images), lo, hi)
    code = sum(y * a.size ** x for x, y in enumerate(images[lo:hi + 1]))
    assert (p is not None) == range_reach(a.s, a.n, lo, hi)[code], (images, lo, hi)
    if p is not None:
        assert execute_all(p).images[lo:hi + 1] == images[lo:hi + 1]


def test_reach_sizes_at_2_2():
    # the 1,2,1 and 2,1,2 networks route every mapping of 2^2
    for sig in ((1, 2, 1), (2, 1, 2)):
        sizes = [np.count_nonzero(reach(2, 2, sig[:k])) for k in (1, 2, 3)]
        assert sizes == [16, REACH_2_2, 256], sig


def test_each_sweep_routes_exactly_its_reach_at_2_2():
    a = Alphabet(2, 2)
    every = census.digits(np.arange(a.size ** a.size), a.size, a.size).tolist()
    successes = 0
    for code, images in enumerate(every):
        images = tuple(images)
        successes += check_mapping(a, code, images)
        for lo in range(a.size):
            for hi in range(lo, a.size):
                check_range(a, images, lo, hi)
    assert successes == 3 * REACH_2_2


def test_each_sweep_agrees_with_its_reach_at_2_3():
    a = Alphabet(2, 3)
    up, down = reach(2, 3, (1, 2, 3)), reach(2, 3, (3, 2, 1))
    assert np.count_nonzero(up) == np.count_nonzero(down) == REACH_2_3
    # uniform draws land in each reach about 6% of the time, so as many
    # again are drawn from each reach
    rng = SplitMix64(29)
    inside_up, inside_down = np.flatnonzero(up), np.flatnonzero(down)
    codes = [rng.below(up.size) for _ in range(6000)]
    codes += [int(inside_up[rng.below(inside_up.size)]) for _ in range(2000)]
    codes += [int(inside_down[rng.below(inside_down.size)]) for _ in range(2000)]
    successes = 0
    for code in codes:
        images = tuple(census.digits(code, a.size, a.size).tolist())
        successes += check_mapping(a, code, images)
        lo = rng.below(a.size)
        check_range(a, images, lo, lo + rng.below(a.size - lo))
    assert successes > 6000


if __name__ == "__main__":
    census.run(globals())
