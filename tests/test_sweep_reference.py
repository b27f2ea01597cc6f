"""The restricted backward program against the staircase inversion.

The reference below is how `factor.backward_restricted_program` used to
build its descending sweep: it completes the inverse of the range to a
distance-compatible staircase, sweeps that upward over the whole index
space, then inverts the sweep stage by stage, following where the
images of the range land.  The program now sweeps the range straight
down onto its images.  Both must give the same steps, table for table, on
the strictly increasing ranges the reference takes; the sweep also
places every other range its butterfly routes.
"""

from bisect import bisect_right

import pytest

from insitu.core import Alphabet, InSituError, Mapping, execute_all, step_images
from insitu.factor import backward_restricted_program
from insitu.rng import SplitMix64

SPACES = [(s, n) for s in (2, 3, 4, 5, 7) for n in range(1, 9) if s ** n <= 256]


class Descent(InSituError):
    """The reference completes only strictly increasing ranges."""


def _stage_table(a, target, positions, values):
    tab = [-1] * a.size
    for p, v in zip(positions, values):
        if tab[p] != v:
            if tab[p] >= 0:
                raise InSituError("conflicting table entries; precondition violated")
            tab[p] = v
    pw = a.s ** (target - 1)
    return tuple(v if v >= 0 else p // pw % a.s for p, v in enumerate(tab))


def _ascending_sweep(a, targets):
    positions = range(a.size)
    steps = []
    for j, pw in enumerate(a.powers(), start=1):
        tab = _stage_table(a, j, positions, [y // pw % a.s for y in targets])
        steps.append((j, tab))
        trans = step_images(tab, j, a)
        positions = [trans[p] for p in positions]
    return steps


def _reference_backward(mapping, lo, hi):
    a = mapping.alphabet
    ms = [mapping.images[j] for j in range(lo, hi + 1)]
    for prev, cur in zip(ms, ms[1:]):
        if cur <= prev:
            raise Descent("images must be strictly increasing on the range")
    completion = [lo + max(bisect_right(ms, t) - 1, 0) for t in range(a.size)]
    positions = ms
    steps = []
    for (target, table), pw in zip(_ascending_sweep(a, completion), a.powers()):
        trans = step_images(table, target, a)
        landed = [trans[p] for p in positions]
        steps.append((target, _stage_table(a, target, landed, [p // pw % a.s for p in positions])))
        positions = landed
    if positions != list(range(lo, hi + 1)):
        raise InSituError("completion sweep did not land on the expected index")
    return tuple(reversed(steps))


def _random_case(a, rng):
    size = a.size
    picks = sorted(set(rng.below(size) for _ in range(rng.below(size) + 1)))
    lo = rng.below(size - len(picks) + 1)
    images = [rng.below(size) for _ in range(size)]
    images[lo:lo + len(picks)] = picks
    return Mapping(a, tuple(images)), lo, lo + len(picks) - 1


def test_descending_sweep_matches_staircase_inversion():
    rng = SplitMix64(1010)
    with_offset = 0
    for _ in range(2000):
        s, n = SPACES[rng.below(len(SPACES))]
        mapping, lo, hi = _random_case(Alphabet(s, n), rng)
        got = backward_restricted_program(mapping, lo, hi)
        assert tuple((asg.target, asg.table) for asg in got.assignments) \
            == _reference_backward(mapping, lo, hi), (s, n, mapping.images, lo, hi)
        with_offset += lo > 0
    assert with_offset > 500


@pytest.mark.parametrize("s,n", [(2, 3), (3, 2), (5, 2)])
def test_both_reject_a_descent_on_the_range(s, n):
    a = Alphabet(s, n)
    # inputs 1 and 1 + s agree on component 1, and their images 1 and 0
    # agree above it, so the sweep meets them at one entry of its last stage
    images = list(range(a.size))[::-1]
    images[1], images[1 + s] = 1, 0
    with pytest.raises(Descent):
        _reference_backward(Mapping(a, tuple(images)), 1, 1 + s)
    with pytest.raises(InSituError, match="^component 1 at index 1 must become both 1 and 0$"):
        backward_restricted_program(Mapping(a, tuple(images)), 1, 1 + s)
    # inputs 1 and 2 differ on component 1, so the sweep places the descent
    # the reference refuses
    images = tuple(range(a.size))[::-1]
    with pytest.raises(Descent):
        _reference_backward(Mapping(a, images), 1, 2)
    got = execute_all(backward_restricted_program(Mapping(a, images), 1, 2)).images
    assert got[1:3] == images[1:3]
