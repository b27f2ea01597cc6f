"""The Euler-partition colorer against a reference kept from its earlier
form: full adjacency lists, a 2-coloring walk of its own for s = 2, and
edge pairs stored as tuples.  Both pair the edges at every vertex in id
order and start every cycle at its smallest edge id, so they must give
the same colors, not just proper ones.

The boolean routing level, which finds its pairings by index arithmetic
and never builds a level graph, is held to a route whose levels are
built as graphs, one edge per position, and colored by the reference."""

from itertools import compress, permutations

import pytest

from insitu import Alphabet, Mapping, benes
from insitu.benes import SuffixGraph, edge_color, route_bijection, route_bijection_reversed, suffix_graph
from insitu.rng import SplitMix64, random_bijection


def _reference_color(s, order, left, right):
    adj_left = [[] for _ in range(order)]
    adj_right = [[] for _ in range(order)]
    for eid, (l, r) in enumerate(zip(left, right)):
        adj_left[l].append(eid)
        adj_right[r].append(eid)
    colors = [-1] * len(left)
    if s == 2:
        _reference_two_color(left, right, adj_left, adj_right, colors)
    elif left:
        _reference_partition(s, order, left, right, adj_left, colors)
    return tuple(colors)


def _reference_two_color(left, right, adj_left, adj_right, colors):
    # adj_left[v] and adj_right[v] hold the two edges at v
    for start in range(len(colors)):
        if colors[start] >= 0:
            continue
        cur = start
        while True:
            colors[cur] = 0
            around = adj_right[right[cur]]
            cur = around[1] if around[0] == cur else around[0]
            colors[cur] = 1
            around = adj_left[left[cur]]
            cur = around[1] if around[0] == cur else around[0]
            if cur == start:
                break


def _reference_partition(s, order, left, right, adj_left, colors):
    tasks = [(range(len(left)), left, right, s, 0)]
    while tasks:
        ids, lefts, rights, d, base = tasks.pop()
        if d % 2:
            if d != s:  # a subgraph: adj_left came with the whole graph
                adj_left = [[] for _ in range(order)]
                for i, l in enumerate(lefts):
                    adj_left[l].append(i)
            rest = [True] * len(ids)
            for i in benes._perfect_matching(lefts, rights, order, adj_left):
                colors[ids[i]] = base
                rest[i] = False
            if d == 1:
                continue
            d -= 1
            base += 1
            ids = list(compress(ids, rest))
            lefts = list(compress(lefts, rest))
            rights = list(compress(rights, rest))
        at_left, pairs_left = _reference_pairs(lefts, order)
        at_right, pairs_right = _reference_pairs(rights, order)
        side = [-1] * len(ids)
        _reference_two_color(at_left, at_right, pairs_left, pairs_right, side)
        if d == 2:
            for eid, c in zip(ids, side):
                colors[eid] = base + c
            continue
        d //= 2
        for keep, first in ((side, base + d), ([1 - c for c in side], base)):
            tasks.append((list(compress(ids, keep)), list(compress(lefts, keep)),
                          list(compress(rights, keep)), d, first))


def _reference_pairs(ends, order):
    # at[eid] is the pair holding eid, pairs[i] its two edges in id order
    at = [0] * len(ends)
    pairs = []
    waiting = [-1] * order
    for eid, v in enumerate(ends):
        other = waiting[v]
        if other < 0:
            waiting[v] = eid
        else:
            waiting[v] = -1
            at[other] = at[eid] = len(pairs)
            pairs.append((other, eid))
    return at, pairs


def _shuffled(items, rng):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _graphs():
    # suffix graphs of random bijections, one component per level class
    for s in (2, 3, 4, 5, 6, 7, 8, 16):
        for n in (2, 3) if s ** 3 <= 512 else (2,):
            rng = SplitMix64(1000 * s + n)
            for _ in range(60):
                yield suffix_graph(random_bijection(Alphabet(s, n), rng))
    # unions of s shuffled perfect matchings: parallel edges, and at small
    # orders several components
    for s in (1, 2, 3, 4, 5, 6, 7, 8, 16):
        rng = SplitMix64(2000 + s)
        for order in range(1, 41):
            for _ in range(4):
                edges = [(v, p) for _ in range(s) for v, p in enumerate(_shuffled(range(order), rng))]
                edges = tuple((l, r, key) for key, (l, r) in enumerate(_shuffled(edges, rng)))
                yield SuffixGraph(s, order, edges)


def test_edge_color_matches_reference():
    count = 0
    for g in _graphs():
        want = _reference_color(g.s, g.order, [l for l, _, _ in g.edges], [r for _, r, _ in g.edges])
        assert edge_color(g) == want, (g.s, g.order, count)
        count += 1
    assert count >= 2000


def _reference_route(e):
    # route_bijection with every level built as a graph, component k
    # dropped from both ends of each edge p -> targets[p], and colored by
    # the reference; each input's color becomes
    # component k of its position, and its target's component k goes to
    # the down table at the target with that component set to the color.
    # A step is (target, table)
    a = e.alphabet
    s, size = a.s, a.size
    targets = list(e.images)
    up, down = [], []
    for k in range(1, a.n):
        pw = s ** (k - 1)
        drop = [v % pw + v // (s * pw) * pw for v in range(size)]
        colors = _reference_color(s, size // s, drop, [drop[t] for t in targets])
        back, nxt = [0] * size, [0] * size
        for p, (t, c) in enumerate(zip(targets, colors)):
            routed = t + (c - t // pw % s) * pw
            back[routed] = t // pw % s
            nxt[p + (c - p // pw % s) * pw] = routed
        up.append((k, colors))
        down.append((k, tuple(back)))
        targets = nxt
    middle = (a.n, tuple(t // s ** (a.n - 1) for t in targets))
    return [*up, middle, *reversed(down)]


def _reference_route_reversed(e, rev):
    # the mirrored signature: route the bijection conjugated by rev, the
    # reversal of the components, then mirror each step back
    a = e.alphabet
    conj = Mapping(a, tuple(rev[e.images[r]] for r in rev))
    return [(a.n + 1 - k, tuple(table[r] for r in rev)) for k, table in _reference_route(conj)]


def _reversal(a):
    return [sum(v // a.s ** i % a.s * a.s ** (a.n - 1 - i) for i in range(a.n)) for v in range(a.size)]


def _assert_routes_match(e, rev):
    # equal steps make equal program text, byte for byte
    for route, want in ((route_bijection, _reference_route(e)),
                        (route_bijection_reversed, _reference_route_reversed(e, rev))):
        assert [(step.target, tuple(step.table)) for step in route(e).assignments] == want


@pytest.mark.parametrize("n", [2, 3])
def test_boolean_routes_match_reference_on_every_bijection(n):
    a = Alphabet(2, n)
    rev = _reversal(a)
    count = 0
    for images in permutations(range(a.size)):
        _assert_routes_match(Mapping(a, images), rev)
        count += 1
    assert count == (24, 40320)[n - 2]


@pytest.mark.parametrize("n", range(4, 13))
def test_boolean_routes_match_reference_on_seeded_bijections(n):
    a = Alphabet(2, n)
    rev = _reversal(a)
    rng = SplitMix64(3000 + n)
    for _ in range(2 ** (12 - n)):
        _assert_routes_match(random_bijection(a, rng), rev)
