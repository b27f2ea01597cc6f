"""An exact census of boolean bijection lengths, and compiled lengths
measured against exact ones.

Every step of a program that computes a bijection is itself a bijection:
a step that sends two indices to one merges them for good.  A bijective
boolean step on component i is x_i := x_i XOR h(the other components),
so a breadth-first search from the identity (`census.mapping_bfs`) over
the n * (2^(2^(n-1)) - 1) such steps with h != 0 gives the exact fewest
steps of every bijection of 2^n at once.

At n = 3 the search reaches all 40320 bijections, and 2304 of them need
2n - 1 = 5 steps, so the bound is tight there.  `route_bijection`
always emits 5 steps, so it is optimal on exactly those 2304.  The same
search over every step gives the exact lengths of all 256 mappings of
2^2; `min_length_bfs` must match them, and the tests pin how far above
them each table compiler lands.  Needs numpy; runs without pytest too:

    PYTHONPATH=src python tests/test_bijective_census.py
"""

import collections
import functools
import math

import numpy as np

import census
from insitu.benes import route_bijection
from insitu.core import Alphabet, Assignment, Mapping, execute_all, step_images
from insitu.oracle import COMPILERS, full_universe, min_length_bfs
from insitu.rng import SplitMix64

# n: bijections of 2^n with exact length 0, 1, 2, ...
BIJECTIVE_CENSUS = {
    2: (1, 6, 13, 4),
    3: (1, 45, 1011, 11063, 25896, 2304),
}
# all 256 mappings of 2^2 with exact length 0, 1, 2, ...
MAPPING_CENSUS = (1, 30, 173, 52)
# the mappings of 2^3 with exact length 0, 1, 2 and 3, of 16777216
MAPPING_LEVELS_2_3 = (1, 765, 101715, 3777895)
# compiled length minus exact length: how many inputs of 2^2 land at each
# excess, over all 256 mappings for the general methods and over the 24
# bijections for benes
EXCESS = {
    "general4-sorted": {2: 52, 3: 173, 4: 30, 5: 1},
    "general4-flex": {2: 52, 3: 173, 4: 30, 5: 1},
    "general5": {3: 52, 4: 173, 5: 30, 6: 1},
    "benes": {0: 4, 1: 13, 2: 6, 3: 1},
}


def flip_steps(n):
    """Every bijective boolean step but the identity over 2^n:
    x_i := x_i XOR h(the other n - 1 bits) for each i and each h != 0."""
    size = 1 << n
    out = []
    for i in range(1, n + 1):
        # rest[v]: the bits of v other than bit i, packed, the argument of h
        rest = [v & ((1 << (i - 1)) - 1) | v >> i << (i - 1) for v in range(size)]
        for h in range(1, 1 << (1 << (n - 1))):
            out.append(Assignment(i, table=tuple(
                v >> (i - 1) & 1 ^ h >> rest[v] & 1 for v in range(size))))
    return out


def by_images(dist, n):
    """{images: exact length} for every mapping of 2^n a census reached."""
    codes = np.flatnonzero(dist >= 0)
    images = census.digits(codes, 2 ** n, 2 ** n).tolist()
    return dict(zip(map(tuple, images), dist[codes].tolist()))


@functools.cache
def bijection_census(n):
    """The census of 2^n over the flip steps, which reaches exactly the
    bijections."""
    return census.mapping_bfs(2, n, [(asg.target, asg.table) for asg in flip_steps(n)])


@functools.cache
def exact_mapping_lengths():
    """Fewest assignments computing each of the 256 mappings of 2^2."""
    return by_images(census.mapping_bfs(2, 2), 2)


def test_flip_steps_are_every_bijective_step():
    for n in (2, 3):
        a = Alphabet(2, n)
        bijective = {(asg.target, tuple(asg.table)) for asg in full_universe(a)
                     if len(set(step_images(asg.table, asg.target, a))) == a.size}
        identity = {(i, tuple(v >> (i - 1) & 1 for v in range(a.size)))
                    for i in range(1, n + 1)}
        steps = flip_steps(n)
        assert len(steps) == n * (2 ** 2 ** (n - 1) - 1) == {2: 6, 3: 45}[n]
        assert {(asg.target, asg.table) for asg in steps} == bijective - identity


def test_census_reaches_every_bijection_with_pinned_lengths():
    for n, want in BIJECTIVE_CENSUS.items():
        dist = bijection_census(n)
        assert np.count_nonzero(dist >= 0) == math.factorial(2 ** n)
        assert census.histogram(dist) == want, n
        assert dist.max() == 2 * n - 1  # the bound is tight


def test_route_bijection_is_optimal_only_at_the_longest_length():
    a = Alphabet(2, 3)
    dist = by_images(bijection_census(3), 3)
    first = {}
    for images, exact in dist.items():
        first.setdefault(exact, images)
    for exact, images in first.items():
        p = route_bijection(Mapping(a, images))
        assert len(p) == 2 * 3 - 1, (exact, images)
        assert execute_all(p).images == images
    # so it is optimal exactly on the bijections that need 2n - 1 steps
    assert sum(exact == 2 * 3 - 1 for exact in dist.values()) == 2304


def test_mapping_census_at_2_2():
    lengths = exact_mapping_lengths()
    assert len(lengths) == 256
    assert census.histogram(list(lengths.values())) == MAPPING_CENSUS
    a = Alphabet(2, 2)
    for images, exact in lengths.items():
        assert min_length_bfs(Mapping(a, images), 2 * 2 - 1) == exact, images
    bijections = by_images(bijection_census(2), 2)
    assert {images: lengths[images] for images in bijections} == bijections


def test_mapping_census_of_2_3_up_to_three_steps():
    dist = census.mapping_bfs(2, 3, max_depth=3)
    assert census.histogram(dist) == MAPPING_LEVELS_2_3
    # min_length_bfs agrees on seeded mappings: two at each length 1, 2 and
    # 3, drawn from the census, and two past 3, where it finds no program
    rng = SplitMix64(31)
    picks = []
    for level in (1, 2, 3):
        codes = np.flatnonzero(dist == level)
        picks += [(codes[rng.below(codes.size)], level) for _ in range(2)]
    while len(picks) < 8:
        code = rng.below(dist.size)
        if dist[code] < 0:
            picks.append((code, None))
    a = Alphabet(2, 3)
    for code, level in picks:
        images = tuple(census.digits(code, 8, 8).tolist())
        assert min_length_bfs(Mapping(a, images), 3) == level, images


def test_compiled_minus_exact_length_at_2_2():
    a = Alphabet(2, 2)
    lengths = exact_mapping_lengths()
    for method, want in EXCESS.items():
        inputs = by_images(bijection_census(2), 2) if method == "benes" else lengths
        excess = collections.Counter()
        for images, exact in inputs.items():
            p = COMPILERS[method](Mapping(a, images))
            assert execute_all(p).images == images, (method, images)
            excess[len(p) - exact] += 1
        assert dict(excess) == want, (method, dict(excess))


if __name__ == "__main__":
    census.run(globals())
