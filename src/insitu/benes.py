"""Compile bijections into in-situ programs of length 2n - 1.

The compiled signature is 1, 2, ..., n, ..., 2, 1, the stage order of a
Benes rearrangeable network; routing sets one level at a time, as in the
looping algorithm (Waksman; Opferman and Tsao-Wu).  At level k, one edge
per input joins its position and its target, each with component k
removed; this s-regular bipartite multigraph has one component per
subproblem of the level.  Its s-edge-coloring, every color a perfect
matching, gives step k: each input's color becomes component k of its
position.  Step 2n - k writes the target's component k at the target with
that component set to the color, which is the input's target from then
on.  After n - 1 levels the middle step writes component n.

Colorings come from Euler partitions (Gabow 1976).  Pairing the edges at
every vertex of a d-regular graph, d even, closes them into alternating
cycles; alternate edges around each cycle form two (d/2)-regular halves,
which split again down to degree 2, whose cycles alternate two colors.
An odd degree d > 1 first takes one perfect matching, found by Kuhn's
augmenting-path search, as a color of its own.  So s = 2^k needs no
matching, and s = 3, 5, 6, 7 need 1, 1, 2, 3 per level.

At s = 2 a level graph is 2-regular and both pairings are forced, as in
the looping algorithm: at its left end edge p meets p ^ pw, where pw is
the place value of component k, and at its right end the edge whose
target differs from p's in that bit alone.  `route_bijection` finds both
by index arithmetic on the targets and their inverse, which it carries
from level to level, builds no graph, and hands them to the same cycle
walk, so its colors are those of the Euler partition.

Regularity is checked where a graph enters, in `edge_color`, which
refuses an irregular graph as a malformed argument (`ValueError`); the
level graphs of `route_bijection` are s-regular by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .core import (
    Assignment,
    InSituProgram,
    Mapping,
    NotBijective,
    _digit_runs,
    _table_type,
    _unchecked,
    component_permutation,
    step_images,
)


@dataclass(frozen=True)
class SuffixGraph:
    """Bipartite multigraph on `order` vertices per side, such as the
    s^(n-1) suffix classes of an index space.

    Edges are (left, right, key) with one edge per input vector; `key`
    is the index the edge stands for.
    """

    s: int
    order: int
    edges: tuple[tuple[int, int, int], ...]


def suffix_graph(mapping: Mapping) -> SuffixGraph:
    """The suffix graph of a mapping: input suffix class -> image suffix class."""
    a = mapping.alphabet
    if a.n < 2:
        raise ValueError("suffix classes need arity at least 2")
    half = a.size // a.s
    edges = tuple((x // a.s, mapping.images[x] // a.s, x) for x in range(a.size))
    return SuffixGraph(a.s, half, edges)


def edge_color(graph: SuffixGraph) -> tuple[int, ...]:
    """Proper s-edge-coloring: every color class is a perfect matching.

    Returns one color in [0, s) per edge, aligned with graph.edges.
    Deterministic: the same graph always gets the same coloring.
    Raises ValueError for an endpoint outside [0, order) or a vertex
    whose degree is not s.
    """
    s, order = graph.s, graph.order
    left = [l for l, _, _ in graph.edges]
    right = [r for _, r, _ in graph.edges]
    for eid, (l, r) in enumerate(zip(left, right)):
        if not (0 <= l < order and 0 <= r < order):
            raise ValueError(f"edge {eid} endpoint out of range")
    # the coloring below relies on regularity to terminate
    deg_left, deg_right = Counter(left), Counter(right)
    for v in range(order):
        if deg_left[v] != s or deg_right[v] != s:
            raise ValueError(f"vertex {v} has degrees {deg_left[v]}/{deg_right[v]}, need {s}/{s}")
    colors = [-1] * len(left)
    if left:  # with no edges, any s passes the degree check
        _euler_partition(s, order, left, right, colors)
    return tuple(colors)


def _euler_partition(s, order, left, right, colors) -> None:
    # Gabow's Euler partition of an s-regular bipartite multigraph; edge
    # eid joins left[eid] and right[eid], both in [0, order).  Pairing the
    # edges at every vertex turns a d-regular graph, d even, into a
    # 2-regular graph on the pairs; its 2-coloring puts the two edges of
    # every pair in different halves, so each half is (d/2)-regular, and
    # at d = 2 it is the coloring.  An odd degree d gives up one perfect
    # matching and leaves the rest, of degree d - 1.  A task is a
    # subgraph: its edge ids, their left and right ends, its degree and
    # its first color
    tasks = [(range(len(left)), left, right, s, 0)]
    while tasks:
        ids, lefts, rights, d, base = tasks.pop()
        if d % 2:
            adj_left = [[] for _ in range(order)]
            for i, l in enumerate(lefts):
                adj_left[l].append(i)
            rest = [True] * len(ids)
            for i in _perfect_matching(lefts, rights, order, adj_left):
                colors[ids[i]] = base
                rest[i] = False
            if d > 1:
                tasks.append((list(compress(ids, rest)), list(compress(lefts, rest)),
                              list(compress(rights, rest)), d - 1, base + 1))
            continue
        side = [-1] * len(ids)
        _euler_two_color(_partners(lefts, order), _partners(rights, order), side)
        if d == 2:
            for eid, c in zip(ids, side):
                colors[eid] = base + c
            continue
        d //= 2
        for keep, first in ((side, base + d), (list(map((1).__xor__, side)), base)):
            tasks.append((list(compress(ids, keep)), list(compress(lefts, keep)),
                          list(compress(rights, keep)), d, first))


def _partners(ends, order) -> list[int]:
    # pair the edges at every vertex in id order: partner[eid] is the
    # edge paired with eid at its end ends[eid]; every degree is even
    partner = [0] * len(ends)
    waiting = [-1] * order
    for eid, v in enumerate(ends):
        other = waiting[v]
        if other < 0:
            waiting[v] = eid
        else:
            waiting[v] = -1
            partner[other] = eid
            partner[eid] = other
    return partner


def _euler_two_color(partner_left, partner_right, colors) -> None:
    # every edge has one partner at each end, so the edges fall into
    # disjoint even cycles; alternate colors around each cycle, starting
    # each at its smallest edge id and leaving it by its right end
    for start in range(len(colors)):
        if colors[start] >= 0:
            continue
        cur = start
        while True:
            colors[cur] = 0
            cur = partner_right[cur]
            colors[cur] = 1
            cur = partner_left[cur]
            if cur == start:
                break


def _perfect_matching(left, right, order, adj_left) -> list[int]:
    # one edge per right vertex; a regular bipartite multigraph has a
    # perfect matching (Hall).  Kuhn's depth-first search for an
    # augmenting path runs on a stack: path[d] is the edge tried from the
    # left vertex at depth d, and seen[r] == root marks the right
    # vertices visited from this root
    match_right = [-1] * order
    seen = [-1] * order
    for root in range(order):
        eid = adj_left[root][0]
        if match_right[right[eid]] < 0:
            match_right[right[eid]] = eid
            continue
        frames = [iter(adj_left[root])]
        path = []
        while frames:
            for eid in frames[-1]:
                if seen[right[eid]] != root:
                    break
            else:
                frames.pop()
                del path[-1:]
                continue
            r = right[eid]
            seen[r] = root
            path.append(eid)
            if match_right[r] < 0:
                for eid in path:
                    match_right[right[eid]] = eid
                break
            frames.append(iter(adj_left[left[match_right[r]]]))
        else:
            raise AssertionError("regular bipartite multigraph lost its matching")
    return match_right


def _xor_partners(ids, pw) -> list[int]:
    # p ^ pw for every p in ids = range(size): each block of 2 * pw ids
    # with its halves swapped, cut from ids so that no int is made.  The
    # loop runs over the offsets in a block or over the blocks, whichever
    # is shorter, as in core._digit_runs
    size = len(ids)
    span = 2 * pw
    if pw * span < size:
        out = [0] * size
        for lo in range(pw):
            out[lo::span] = ids[lo + pw::span]
            out[lo + pw::span] = ids[lo::span]
        return out
    out = []
    for start in range(0, size, span):
        out += ids[start + pw:start + span]
        out += ids[start:start + pw]
    return out


def _boolean_level(k, pw, targets, inverse, ids, a):
    # level k at s = 2, with both pairings forced: edge p meets p ^ pw at
    # its left end and inverse[targets[p] ^ pw] at its right end, and the
    # walk colors the cycles as _euler_partition would.  Two involutions
    # finish the level: `moved` (M) sets bit k of each position to its
    # color, and `routed` (R) sets bit k of each target to the color of the
    # edge that ends there.  As R is its own inverse, the down table
    # back[R(t)] = bit k of t is back[u] = colors[inverse[u]]; the next
    # targets are R . targets . M, and their inverse is M . inverse . R
    left = _xor_partners(ids, pw)
    right = itemgetter(*itemgetter(*targets)(left))(inverse)
    colors = [-1] * a.size
    _euler_two_color(left, right, colors)
    back = itemgetter(*inverse)(colors)
    moved = step_images(colors, k, a)
    routed = step_images(back, k, a)
    targets = itemgetter(*moved)(itemgetter(*targets)(routed))
    inverse = itemgetter(*itemgetter(*routed)(inverse))(moved)
    return colors, back, targets, inverse


def route_bijection(e: Mapping) -> InSituProgram:
    """Program of length 2n - 1, signature 1..n..1, computing the bijection e.

    Every input follows a vertex-disjoint path through the corresponding
    stage network; identity assignments are kept so the signature is exact.
    """
    if not e.is_bijective():
        raise NotBijective("routing requires a bijection")
    a = e.alphabet
    s = a.s
    # targets[p]: where the input now at position p must go; it agrees
    # with p on every component already routed.  At s = 2, inverse[t] is
    # the position whose target is t, and ids lends each level its ints
    targets = e.images
    if s == 2:
        inverse = e.inverse().images
        ids = list(range(a.size))
    form = _table_type(a)
    up: list[Assignment] = []
    down: list[Assignment] = []
    for k in range(1, a.n):
        pw = s ** (k - 1)
        if s == 2:
            colors, back, targets, inverse = _boolean_level(k, pw, targets, inverse, ids, a)
        else:
            # one edge per position p, both ends with component k removed; the
            # graph is s-regular because targets is a permutation
            colors = [-1] * a.size
            left = _digit_runs(pw, s, a.size, pw)
            _euler_partition(s, a.size // s, left, itemgetter(*targets)(left), colors)
            moved = step_images(colors, k, a)
            back = [0] * a.size
            nxt = [0] * a.size
            for p, t in enumerate(targets):
                digit = t // pw % s
                t += (colors[p] - digit) * pw
                back[t] = digit
                nxt[moved[p]] = t
            targets = nxt
        up.append(Assignment(k, table=form(colors)))
        down.append(Assignment(k, table=form(back)))
    top = s ** (a.n - 1)
    middle = Assignment(a.n, table=form([t // top for t in targets]))
    return _unchecked(InSituProgram, a, (*up, middle, *reversed(down)))


def route_bijection_reversed(e: Mapping) -> InSituProgram:
    """Same compiler with the component order mirrored: signature n..1..n.

    Conjugating by the digit-reversal permutation swaps the roles of the
    components, so the routed program for the conjugated bijection turns
    into a program for e with the mirrored signature.
    """
    a = e.alphabet
    rev = component_permutation(range(a.n, 0, -1), a).images
    reverse = itemgetter(*rev)  # a tuple, since size >= 2
    conj = _unchecked(Mapping, a, itemgetter(*reverse(e.images))(rev))
    prog = route_bijection(conj)
    form = _table_type(a)
    steps = tuple(Assignment(a.n + 1 - asg.target, table=form(reverse(asg.table)))
                  for asg in prog.assignments)
    return _unchecked(InSituProgram, a, steps)
