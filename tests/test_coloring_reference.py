"""The Euler-partition colorer against a reference kept from its earlier
form: full adjacency lists, a 2-coloring walk of its own for s = 2, and
edge pairs stored as tuples.  Both pair the edges at every vertex in id
order and start every cycle at its smallest edge id, so they must give
the same colors, not just proper ones."""

from itertools import compress

from insitu import Alphabet, benes
from insitu.benes import SuffixGraph, edge_color, suffix_graph
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
