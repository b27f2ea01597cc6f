import itertools
import time
from collections import Counter

import pytest

from insitu import Alphabet, Mapping, NotBijective, benes, execute_all, minsim
from insitu.benes import (
    SuffixGraph,
    edge_color,
    route_bijection,
    route_bijection_reversed,
    suffix_graph,
)
from insitu.blockseq import compile_general4_flexible
from insitu.factor import compile_general4_sorted, compile_general5
from insitu.rng import SplitMix64, random_bijection, random_mapping


def expected_signature(n):
    return tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))


def assert_proper_coloring(graph, colors):
    per_left = {}
    per_right = {}
    for (l, r, _), c in zip(graph.edges, colors):
        assert 0 <= c < graph.s
        per_left.setdefault(l, []).append(c)
        per_right.setdefault(r, []).append(c)
    for v in range(graph.order):
        assert sorted(per_left[v]) == list(range(graph.s))
        assert sorted(per_right[v]) == list(range(graph.s))


def _shuffled(items, rng):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_four_cycle_alternates():
    g = SuffixGraph(2, 2, ((0, 0, 0), (0, 1, 1), (1, 1, 2), (1, 0, 3)))
    assert edge_color(g) == (0, 1, 0, 1)


def test_parallel_edges():
    g = SuffixGraph(2, 1, ((0, 0, 0), (0, 0, 1)))
    assert sorted(edge_color(g)) == [0, 1]


def test_not_regular():
    # s = 2: right vertex 1 has degree 3, right vertex 0 only 1
    two = ((0, 0, 0), (0, 1, 1), (1, 1, 2), (1, 1, 3))
    # s = 3: right vertex 0 has degree 4, right vertex 1 only 2
    three = ((0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 0, 4), (1, 1, 5))
    # s = 4: left vertex 0 has degree 5, left vertex 1 only 3
    four = tuple((0 if i < 5 else 1, i % 2, i) for i in range(8))
    for s, edges, message in [(2, two, "^vertex 0 has degrees 2/1, need 2/2$"),
                              (3, three, "^vertex 0 has degrees 3/4, need 3/3$"),
                              (4, four, "^vertex 0 has degrees 5/4, need 4/4$")]:
        with pytest.raises(ValueError, match=message):
            edge_color(SuffixGraph(s, 2, edges))


def test_endpoint_out_of_range():
    # a negative endpoint would index from the end without the check
    for edges in (((0, 0, 0), (0, 1, 1)), ((0, 0, 0), (-1, 0, 1))):
        with pytest.raises(ValueError, match="edge 1 endpoint out of range"):
            edge_color(SuffixGraph(2, 1, edges))


def test_coloring_without_edges():
    # with no edges every degree check passes, whatever s is
    for s, order in [(0, 3), (3, 0), (4, 0), (-1, 0)]:
        assert edge_color(SuffixGraph(s, order, ())) == ()


def test_coloring_is_deterministic():
    for s, n in [(2, 4), (3, 3), (4, 3), (6, 3)]:
        e = random_bijection(Alphabet(s, n), SplitMix64(7))
        g = suffix_graph(e)
        assert edge_color(g) == edge_color(g)


@pytest.mark.parametrize("s,n,seed", [(2, 3, 1), (2, 4, 2), (3, 2, 3), (3, 3, 4), (4, 2, 5),
                                      (5, 3, 6), (6, 3, 7), (7, 3, 8), (8, 3, 9), (16, 2, 10)])
def test_coloring_random_graphs(s, n, seed):
    rng = SplitMix64(seed)
    a = Alphabet(s, n)
    for _ in range(20):
        g = suffix_graph(random_bijection(a, rng))
        assert_proper_coloring(g, edge_color(g))


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_coloring_unions_of_matchings(s):
    # s random perfect matchings, edges shuffled: parallel edges, and at
    # small orders several components
    rng = SplitMix64(100 + s)
    for order in (1, 2, 3, 5, 12, 40):
        edges = [(v, p, 0) for _ in range(s) for v, p in enumerate(_shuffled(range(order), rng))]
        edges = [(l, r, key) for key, (l, r, _) in enumerate(_shuffled(edges, rng))]
        g = SuffixGraph(s, order, tuple(edges))
        assert_proper_coloring(g, edge_color(g))


@pytest.mark.parametrize("s,calls", [(2, 0), (4, 0), (8, 0), (16, 0), (3, 1), (5, 1), (6, 2), (7, 3)])
def test_matchings_per_level_graph(monkeypatch, s, calls):
    # even degrees split by Euler partitions; only odd ones need a matching
    seen = []
    matcher = benes._perfect_matching

    def counted(*args):
        seen.append(args)
        return matcher(*args)

    monkeypatch.setattr(benes, "_perfect_matching", counted)
    e = random_bijection(Alphabet(s, 3), SplitMix64(s))
    g = suffix_graph(e)
    assert_proper_coloring(g, edge_color(g))
    assert len(seen) == calls
    seen.clear()
    route_bijection(e)  # two level graphs
    assert len(seen) == 2 * calls


def test_level_graphs_are_regular(monkeypatch):
    # the compilers hand their level graphs to the colorer unchecked, which
    # terminates only on regular graphs; each level graph is s-regular
    # because the routed targets stay a permutation.  At s = 2 the level
    # builds no graph and hands the walk its two pairings, which must pair
    # the two edges at every vertex of that graph
    seen = []
    color = benes._euler_partition
    walk = benes._euler_two_color
    level = benes._boolean_level
    graph = []

    def regular(s, order, left, right):
        assert len(left) == len(right) == s * order
        for ends in (left, right):
            assert sorted(Counter(ends).items()) == [(v, s) for v in range(order)]

    def checked(s, order, left, right, colors):
        regular(s, order, left, right)
        seen.append(s)
        color(s, order, left, right, colors)

    def recorded(k, pw, targets, inverse, ids, a):
        # the level graph: edge p joins p and targets[p], bit k dropped
        drop = [v % pw + v // (2 * pw) * pw for v in range(a.size)]
        graph[:] = [drop, [drop[t] for t in targets]]
        regular(2, a.size // 2, *graph)
        try:
            return level(k, pw, targets, inverse, ids, a)
        finally:
            graph.clear()

    def paired(partner_left, partner_right, colors):
        if graph:  # from the boolean level, not from an Euler partition
            for partner, ends in zip((partner_left, partner_right), graph):
                assert len(partner) == len(ends)
                for p, q in enumerate(partner):
                    assert q != p and partner[q] == p and ends[q] == ends[p]
            seen.append(2)
        walk(partner_left, partner_right, colors)

    monkeypatch.setattr(benes, "_euler_partition", checked)
    monkeypatch.setattr(benes, "_boolean_level", recorded)
    monkeypatch.setattr(benes, "_euler_two_color", paired)
    for s in range(2, 8):
        a = Alphabet(s, 3)
        rng = SplitMix64(60 + s)
        e = random_bijection(a, rng)
        m = random_mapping(a, rng)
        runs = [(route_bijection, e), (route_bijection_reversed, e), (compile_general5, e),
                (compile_general5, m), (compile_general4_sorted, e), (compile_general4_sorted, m)]
        if s == 2:
            runs.append((compile_general4_flexible, m))
        for compile_, x in runs:
            seen.clear()
            compile_(x)
            assert seen and set(seen) == {s}


def test_suffix_graph_needs_arity_two():
    with pytest.raises(ValueError):
        suffix_graph(Mapping.identity(Alphabet(2, 1)))


def test_route_identity():
    a = Alphabet(2, 3)
    p = route_bijection(Mapping.identity(a))
    assert p.signature == expected_signature(3)
    assert execute_all(p).images == tuple(range(8))


def test_route_arity_one():
    a = Alphabet(3, 1)
    e = Mapping(a, (2, 0, 1))
    p = route_bijection(e)
    assert p.signature == (1,)
    assert execute_all(p).images == e.images


def test_route_all_boolean_pairs():
    a = Alphabet(2, 2)
    for perm in itertools.permutations(range(4)):
        e = Mapping(a, perm)
        p = route_bijection(e)
        assert p.signature == (1, 2, 1)
        assert execute_all(p).images == perm


@pytest.mark.parametrize("s,n,seed,count", [(2, 3, 11, 200), (2, 5, 12, 50), (3, 2, 13, 200), (3, 3, 14, 50), (5, 2, 15, 100)])
def test_route_random(s, n, seed, count):
    a = Alphabet(s, n)
    rng = SplitMix64(seed)
    for _ in range(count):
        e = random_bijection(a, rng)
        p = route_bijection(e)
        assert p.signature == expected_signature(n)
        assert execute_all(p).images == e.images


def test_route_rejects_non_bijections():
    a = Alphabet(2, 2)
    with pytest.raises(NotBijective):
        route_bijection(Mapping(a, (0, 0, 1, 2)))


def test_route_of_inverse():
    a = Alphabet(2, 3)
    rng = SplitMix64(21)
    for _ in range(20):
        e = random_bijection(a, rng)
        p = route_bijection(e.inverse())
        m = execute_all(p)
        assert m.compose(e).images == tuple(range(a.size))


def test_route_reversed_signature_and_behavior():
    rng = SplitMix64(33)
    for s, n in [(2, 3), (3, 2), (2, 4)]:
        a = Alphabet(s, n)
        want = tuple(range(n, 0, -1)) + tuple(range(2, n + 1))
        for _ in range(30):
            e = random_bijection(a, rng)
            p = route_bijection_reversed(e)
            assert p.signature == want
            assert execute_all(p).images == e.images


def test_route_past_recursion_depth():
    # augmenting paths at the odd sizes run longer than the recursion
    # limit; 4^7 and 16^3 are colored by Euler partitions alone
    start = time.perf_counter()
    for s, n, seed in [(3, 8, 41), (5, 6, 42), (7, 5, 43), (4, 7, 44), (16, 3, 45)]:
        e = random_bijection(Alphabet(s, n), SplitMix64(seed))
        report = minsim.verify(minsim.routing_of(route_bijection(e)), e)
        assert report.performs
        assert report.vertex_disjoint
    assert time.perf_counter() - start < 15
