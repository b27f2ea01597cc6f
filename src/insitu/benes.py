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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Assignment,
    InSituError,
    InSituProgram,
    Mapping,
    NotBijective,
    component_permutation,
    step_images,
)


class NotRegular(InSituError):
    """Every vertex on both sides must have degree exactly s."""


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
    """
    order = graph.order
    for eid, (l, r, _key) in enumerate(graph.edges):
        if not (0 <= l < order and 0 <= r < order):
            raise ValueError(f"edge {eid} endpoint out of range")
    return _color(graph.s, order, [l for l, _, _ in graph.edges], [r for _, r, _ in graph.edges])


def _color(s, order, left, right) -> tuple[int, ...]:
    # edge eid joins left[eid] and right[eid], both in [0, order)
    adj_left: list[list[int]] = [[] for _ in range(order)]
    adj_right: list[list[int]] = [[] for _ in range(order)]
    for eid, (l, r) in enumerate(zip(left, right)):
        adj_left[l].append(eid)
        adj_right[r].append(eid)
    for v in range(order):
        if len(adj_left[v]) != s or len(adj_right[v]) != s:
            raise NotRegular(
                f"vertex {v} has degrees {len(adj_left[v])}/{len(adj_right[v])}, need {s}/{s}")
    colors = [-1] * len(left)
    if s == 2:
        _euler_two_color(left, right, adj_left, adj_right, colors)
    else:
        _matching_colors(left, right, s, order, adj_left, colors)
    return tuple(colors)


def _euler_two_color(left, right, adj_left, adj_right, colors) -> None:
    # 2-regular bipartite multigraph = disjoint even cycles; alternate
    # colors around each cycle, starting each at its smallest edge id
    for start in range(len(colors)):
        if colors[start] >= 0:
            continue
        cur = start
        color = 0
        at_right = True
        while True:
            colors[cur] = color
            around = adj_right[right[cur]] if at_right else adj_left[left[cur]]
            nxt = around[1] if around[0] == cur else around[0]
            if nxt == start:
                break
            cur = nxt
            color ^= 1
            at_right = not at_right


def _matching_colors(left, right, s, order, adj_left, colors) -> None:
    # peel off perfect matchings; one exists at every stage because the
    # uncolored subgraph stays regular on average and satisfies Hall.
    # Kuhn's depth-first search for an augmenting path runs on a stack:
    # path[d] is the edge tried from the left vertex at depth d, and
    # seen[r] == root marks the right vertices visited from this root
    for color in range(s):
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
        for eid in match_right:
            colors[eid] = color
        adj_left = [[eid for eid in adj if colors[eid] < 0] for adj in adj_left]


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
    # with p on every component already routed
    targets = list(e.images)
    up: list[Assignment] = []
    down: list[Assignment] = []
    for k in range(1, a.n):
        pw = s ** (k - 1)
        # one edge per position p, both ends with component k removed
        colors = _color(s, a.size // s, [p % pw + p // (pw * s) * pw for p in range(a.size)],
                        [t % pw + t // (pw * s) * pw for t in targets])
        moved = step_images(colors, k, a)
        back = [0] * a.size
        nxt = [0] * a.size
        for p, t in enumerate(targets):
            digit = t // pw % s
            t += (colors[p] - digit) * pw
            back[t] = digit
            nxt[moved[p]] = t
        up.append(Assignment(k, table=colors))
        down.append(Assignment(k, table=tuple(back)))
        targets = nxt
    middle = Assignment(a.n, table=tuple(t // s ** (a.n - 1) for t in targets))
    return InSituProgram(a, (*up, middle, *reversed(down)))


def route_bijection_reversed(e: Mapping) -> InSituProgram:
    """Same compiler with the component order mirrored: signature n..1..n.

    Conjugating by the digit-reversal permutation swaps the roles of the
    components, so the routed program for the conjugated bijection turns
    into a program for e with the mirrored signature.
    """
    a = e.alphabet
    rev = component_permutation(range(a.n, 0, -1), a).images
    conj = Mapping(a, tuple(rev[e.images[rev[x]]] for x in range(a.size)))
    prog = route_bijection(conj)
    steps = tuple(
        Assignment(a.n + 1 - asg.target,
                   table=tuple(asg.table[rev[v]] for v in range(a.size)))
        for asg in prog.assignments
    )
    return InSituProgram(a, steps)
