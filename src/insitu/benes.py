"""Compile bijections into in-situ programs of length 2n - 1.

The compiled signature is 1, 2, ..., n, ..., 2, 1, the stage order of a
Benes rearrangeable network.  The construction is recursive: group the
inputs and the images by their suffix (components 2..n), build the
bipartite multigraph with one edge per input joining the two suffix
classes, and color its edges with s colors so that every color class is
a perfect matching.  The color of an input becomes its new first
component; each color then carries an independent bijection of the
suffix space, handled recursively; a final first-component assignment
writes the image's first component.
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
)


class NotRegular(InSituError):
    """Every vertex on both sides must have degree exactly s."""


@dataclass(frozen=True)
class SuffixGraph:
    """Bipartite multigraph on s^(n-1) suffix classes per side.

    Edges are (left, right, key) with one edge per input vector; `key`
    is the input index the edge stands for.
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
    s = graph.s
    order = graph.order
    adj_left: list[list[int]] = [[] for _ in range(order)]
    adj_right: list[list[int]] = [[] for _ in range(order)]
    for eid, (l, r, _key) in enumerate(graph.edges):
        if not (0 <= l < order and 0 <= r < order):
            raise ValueError(f"edge {eid} endpoint out of range")
        adj_left[l].append(eid)
        adj_right[r].append(eid)
    for v in range(order):
        if len(adj_left[v]) != s or len(adj_right[v]) != s:
            raise NotRegular(
                f"vertex {v} has degrees {len(adj_left[v])}/{len(adj_right[v])}, need {s}/{s}")
    colors = [-1] * len(graph.edges)
    if s == 2:
        _euler_two_color(graph.edges, adj_left, adj_right, colors)
    else:
        _matching_colors(graph.edges, s, order, adj_left, colors)
    return tuple(colors)


def _euler_two_color(edges, adj_left, adj_right, colors) -> None:
    # 2-regular bipartite multigraph = disjoint even cycles; alternate
    # colors around each cycle, starting each at its smallest edge id
    for start in range(len(edges)):
        if colors[start] >= 0:
            continue
        cur = start
        color = 0
        at_right = True
        while True:
            colors[cur] = color
            l, r, _ = edges[cur]
            around = adj_right[r] if at_right else adj_left[l]
            nxt = around[1] if around[0] == cur else around[0]
            if nxt == start:
                break
            cur = nxt
            color ^= 1
            at_right = not at_right


def _matching_colors(edges, s, order, adj_left, colors) -> None:
    # peel off perfect matchings; one exists at every stage because the
    # uncolored subgraph stays regular on average and satisfies Hall
    alive = [True] * len(edges)

    def augment(l: int, seen: set[int], match_right: list[int]) -> bool:
        for eid in adj_left[l]:
            if not alive[eid]:
                continue
            r = edges[eid][1]
            if r in seen:
                continue
            seen.add(r)
            prev = match_right[r]
            if prev < 0 or augment(edges[prev][0], seen, match_right):
                match_right[r] = eid
                return True
        return False

    for color in range(s):
        match_right = [-1] * order
        for l in range(order):
            if not augment(l, set(), match_right):
                raise AssertionError("regular bipartite multigraph lost its matching")
        for r in range(order):
            eid = match_right[r]
            colors[eid] = color
            alive[eid] = False


def route_bijection(e: Mapping) -> InSituProgram:
    """Program of length 2n - 1, signature 1..n..1, computing the bijection e.

    Every input follows a vertex-disjoint path through the corresponding
    stage network; identity assignments are kept so the signature is exact.
    """
    if not e.is_bijective():
        raise NotBijective("routing requires a bijection")
    a = e.alphabet
    tables = _route(list(e.images), a.s, a.n)
    sig = list(range(1, a.n + 1)) + list(range(a.n - 1, 0, -1))
    steps = tuple(Assignment(t, table=tuple(tab)) for t, tab in zip(sig, tables))
    return InSituProgram(a, steps)


def _route(images: list[int], s: int, m: int) -> list[list[int]]:
    if m == 1:
        return [images]
    half = s ** (m - 1)
    size = len(images)
    graph = SuffixGraph(s, half, tuple((x // s, images[x] // s, x) for x in range(size)))
    colors = edge_color(graph)

    # per color, the induced bijection of the suffix space
    subs: list[list[int]] = [[0] * half for _ in range(s)]
    for x in range(size):
        subs[colors[x]][x // s] = images[x] // s
    subprogs = [_route(sub, s, m - 1) for sub in subs]

    first = list(colors)
    middle = []
    for j in range(2 * (m - 1) - 1):
        tab = [0] * size
        for z in range(half):
            base = z * s
            for c in range(s):
                tab[base + c] = subprogs[c][j][z]
        middle.append(tab)
    last = [0] * size
    for x in range(size):
        last[colors[x] + s * (images[x] // s)] = images[x] % s
    return [first] + middle + [last]


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
