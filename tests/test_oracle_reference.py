"""The BFS oracle against a reference that expands every level.

The reference below is how `oracle.min_length_bfs` used to search: it
builds every level in full, the last one included, and compares each new
state with the target.  The oracle now tests each level for a state one
assignment away from the target instead of building the level after it.
Wherever the reference gives a verdict, the oracle must give the same
one; the only inputs allowed to differ are those where the reference ran
out of its state budget on the level the oracle no longer stores.
"""

import itertools

import numpy as np
import pytest

import census
from insitu.core import Alphabet, Assignment, Mapping, assignment_table, component_permutation, step_images
from insitu.linmod import MatrixMod, ModRing, linear_mapping
from insitu.oracle import BudgetExceeded, _full_steps, _transitions, full_universe, min_length_bfs
from insitu.rng import SplitMix64, random_bijection, random_mapping


def _linear_universe(a):
    # every linear assignment: all coefficient rows, all targets
    return [Assignment(target, coeffs=row) for target in range(1, a.n + 1)
            for row in itertools.product(range(a.s), repeat=a.n)]


def _reference_bfs(e, max_len, universe=None, max_states=1_000_000):
    a = e.alphabet
    if universe is None:
        universe = full_universe(a)
    trans = [step_images(assignment_table(asg, a), asg.target, a) for asg in universe]

    target = tuple(e.images)
    ident = tuple(range(a.size))
    if target == ident:
        return 0
    visited = {ident}
    frontier = [ident]
    for depth in range(1, max_len + 1):
        nxt = []
        for state in frontier:
            for tr in trans:
                new = tuple(tr[v] for v in state)
                if new == target:
                    return depth
                if new not in visited:
                    visited.add(new)
                    nxt.append(new)
                    if len(visited) > max_states:
                        raise BudgetExceeded(f"more than {max_states} states explored")
        if not nxt:
            return None
        frontier = nxt
    return None


def _all_mappings(a):
    return [Mapping(a, images) for images in itertools.product(range(a.size), repeat=a.size)]


def _assert_same_verdicts(inputs, max_len, universe_of):
    verdicts = []
    for e in inputs:
        universe = universe_of(e.alphabet)
        expected = _reference_bfs(e, max_len, universe=universe)
        assert min_length_bfs(e, max_len, universe=universe) == expected, e.images
        if universe_of is full_universe:
            # the default universe is the full one, and listing an
            # assignment twice adds no step
            assert min_length_bfs(e, max_len) == expected, e.images
            assert min_length_bfs(e, max_len, universe=universe * 2) == expected, e.images
        verdicts.append(expected)
    return verdicts


def test_all_boolean_mappings_at_n2_full_universe():
    verdicts = _assert_same_verdicts(_all_mappings(Alphabet(2, 2)), 8, full_universe)
    # every mapping of 2^2 is reachable, so every verdict is a length
    assert None not in verdicts
    assert max(verdicts) == 3


def test_all_boolean_mappings_at_n2_linear_universe():
    verdicts = _assert_same_verdicts(_all_mappings(Alphabet(2, 2)), 6, _linear_universe)
    # the linear maps are 16 of the 256 mappings; the others are unreachable
    assert len(verdicts) - verdicts.count(None) == 16


def test_seeded_mappings_over_linear_universe():
    # random mappings are almost never linear, so half the inputs are random
    # matrices, whose mappings the linear universe reaches
    rng = SplitMix64(23)
    inputs = []
    for s, n in ((3, 2), (2, 3)):
        inputs += [random_mapping(Alphabet(s, n), rng) for _ in range(10)]
        ring = ModRing.of(s)
        inputs += [linear_mapping(MatrixMod.of(ring, [[rng.below(s) for _ in range(n)]
                                                       for _ in range(n)]))
                   for _ in range(10)]
    verdicts = _assert_same_verdicts(inputs, 5, _linear_universe)
    assert len(set(verdicts)) >= 4


def test_seeded_boolean_mappings_at_n3_full_universe():
    rng = SplitMix64(29)
    a = Alphabet(2, 3)
    inputs = [draw(a, rng) for draw in (random_mapping, random_bijection) for _ in range(4)]
    _assert_same_verdicts(inputs, 2, full_universe)


# every alphabet whose full universe fits the cap, which _full_steps checks
UNDER_THE_CAP = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]


@pytest.mark.parametrize("s, n", UNDER_THE_CAP)
def test_full_transitions_match_step_images(s, n):
    # a component that holds every table is built as lanes, in the full
    # universe's order
    a = Alphabet(s, n)
    pad = bytes(256 - a.size)
    reference = [bytes(step_images(tab, i, a)) + pad for tab, i in _full_steps(a)]
    assert _transitions(a, dict.fromkeys(range(1, n + 1)), pad) == reference


@pytest.mark.parametrize("s, n", UNDER_THE_CAP)
def test_listed_transitions_match_step_images(s, n):
    # a component's listed tables are built one at a time, in set order
    a = Alphabet(s, n)
    pad = bytes(256 - a.size)
    tables = {}
    reference = set()
    for asg in _linear_universe(a):
        tab = assignment_table(asg, a)
        tables.setdefault(asg.target, set()).add(tab)
        reference.add(bytes(step_images(tab, asg.target, a)) + pad)
    built = _transitions(a, tables, pad)
    assert len(built) == sum(map(len, tables.values()))
    assert set(built) == reference


def test_a_universe_missing_one_table_matches_the_reference():
    # component 2 keeps 15 of its 16 tables, so the one-step test scans them
    # and the expansion builds them one at a time
    a = Alphabet(2, 2)
    dropped = Assignment(2, table=(0, 1, 1, 0))  # x_2 := x_1 xor x_2
    universe = [asg for asg in full_universe(a) if asg != dropped]
    assert len(universe) == len(full_universe(a)) - 1
    verdicts = _assert_same_verdicts(_all_mappings(a), 8, lambda a: universe)
    # lengths 0 to 3 count 1, 30, 173 and 52 mappings in the full universe
    assert [verdicts.count(k) for k in range(4)] == [1, 29, 160, 66]


def test_budget_counts_stored_states():
    a = Alphabet(2, 2)
    swap = component_permutation((2, 1), a)
    # the states the full universe reaches in at most 2 steps
    budget = np.count_nonzero(census.mapping_bfs(2, 2, max_depth=2) >= 0)
    # the reference stores part of level 3 and runs out; the oracle tests
    # level 2 and stores nothing past it
    with pytest.raises(BudgetExceeded):
        _reference_bfs(swap, 3, max_states=budget)
    # a level's stored set is the same however often its steps are listed
    for universe in (None, full_universe(a) * 2):
        assert min_length_bfs(swap, 3, universe=universe, max_states=budget) == 3
        with pytest.raises(BudgetExceeded):
            min_length_bfs(swap, 3, universe=universe, max_states=budget - 1)
