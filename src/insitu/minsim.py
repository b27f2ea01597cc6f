"""Stage networks for in-situ programs, and routings through them.

A network is a signature: stage t is a full copy of the index space, and
between stages t and t+1 every vertex has s outgoing edges, one per
value of the component named by signature[t] (all other components keep
their values).  A program with that signature is exactly a routing: each
vertex picks one outgoing edge per stage, namely the table value.

`verify` drives every input through a routing and reports whether the
final stage realizes a given mapping, whether the paths stay vertex
disjoint, how many collisions each stage has, and the final images, so
one trace serves both the verdict and the first mismatching index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Alphabet,
    BadSignature,
    InSituProgram,
    Mapping,
    assignment_table,
    step_images,
    vector_of,
)


@dataclass(frozen=True)
class Min:
    """A stage network: one exchange stage per signature entry."""

    alphabet: Alphabet
    signature: tuple[int, ...]

    def __post_init__(self) -> None:
        for t in self.signature:
            if not 1 <= t <= self.alphabet.n:
                raise BadSignature(f"stage component {t} out of range [1, {self.alphabet.n}]")

    @property
    def stages(self) -> int:
        """Number of vertex columns (one more than the number of exchanges)."""
        return len(self.signature) + 1


def min_of(signature: Sequence[int], alphabet: Alphabet) -> Min:
    return Min(alphabet, tuple(signature))


def butterfly(alphabet: Alphabet) -> Min:
    """Signature n, n-1, ..., 1."""
    return Min(alphabet, tuple(range(alphabet.n, 0, -1)))


def reversed_butterfly(alphabet: Alphabet) -> Min:
    """Signature 1, 2, ..., n."""
    return Min(alphabet, tuple(range(1, alphabet.n + 1)))


def benes_network(alphabet: Alphabet) -> Min:
    """Signature 1, ..., n, ..., 1: reversed butterfly and butterfly fused
    at their shared component-n stage."""
    return concat(reversed_butterfly(alphabet), butterfly(alphabet))


def concat(a: Min, b: Min) -> Min:
    """Join two networks; equal components at the junction fuse into one stage."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    sig = a.signature + b.signature
    if a.signature and b.signature and a.signature[-1] == b.signature[0]:
        sig = a.signature + b.signature[1:]
    return Min(a.alphabet, sig)


@dataclass(frozen=True)
class Routing:
    """One outgoing edge per vertex per stage: chosen[t][v] is the new
    value of the stage's component."""

    network: Min
    chosen: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a = self.network.alphabet
        if len(self.chosen) != len(self.network.signature):
            raise BadSignature("one choice table per stage required")
        for t, tab in enumerate(self.chosen):
            if len(tab) != a.size:
                raise ValueError(f"stage {t}: choice table needs {a.size} entries")
            for v in tab:
                if not 0 <= v < a.s:
                    raise ValueError(f"stage {t}: choice {v} out of range [0, {a.s})")


@dataclass(frozen=True)
class RoutingReport:
    performs: bool
    vertex_disjoint: bool
    merge_profile: tuple[int, ...]
    images: tuple[int, ...]


def routing_of(program: InSituProgram) -> Routing:
    """The routing a program induces on the network of its signature."""
    a = program.alphabet
    net = Min(a, program.signature)
    chosen = tuple(assignment_table(asg, a) for asg in program.assignments)
    return Routing(net, chosen)


def verify(routing: Routing, mapping: Mapping) -> RoutingReport:
    """Trace all inputs through the routing.

    performs: the final stage realizes `mapping`.
    vertex_disjoint: no two paths share a vertex at any stage.
    merge_profile: per stage, size minus the number of distinct states.
    images: the final stage, i.e. the mapping the routing computes.
    """
    a = routing.network.alphabet
    if mapping.alphabet != a:
        raise ValueError("alphabet mismatch")
    size = a.size
    states = range(size)
    profile = [0]
    for tab, component in zip(routing.chosen, routing.network.signature):
        trans = step_images(tab, component, a)
        states = [trans[v] for v in states]
        profile.append(size - len(set(states)))
    images = tuple(states)
    disjoint = all(p == 0 for p in profile)
    return RoutingReport(images == tuple(mapping.images), disjoint, tuple(profile), images)


def export_dot(network: Min, routing: Routing | None = None, labels: str = "index") -> str:
    """Graphviz DOT text for a network, optionally with a routing bolded.

    labels="index" numbers vertices; labels="bits" prints digit strings
    most significant component first.  Output is byte-deterministic.
    """
    if routing is not None and routing.network != network:
        raise ValueError("routing belongs to a different network")
    if labels not in ("index", "bits"):
        raise ValueError(f"unknown label style {labels!r}")
    a = network.alphabet
    s = a.s
    size = a.size

    def label(v: int) -> str:
        if labels == "index":
            return str(v)
        digits = [str(d) for d in reversed(vector_of(v, a))]
        return ".".join(digits) if s > 10 else "".join(digits)

    lines = [
        "digraph min {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=10, width=0.3, height=0.2];',
    ]
    for t in range(network.stages):
        lines.append(f"  subgraph stage{t} {{")
        lines.append("    rank=same;")
        for v in range(size):
            lines.append(f'    "{t}_{v}" [label="{label(v)}"];')
        lines.append("  }")
    for t, component in enumerate(network.signature):
        pw = s ** (component - 1)
        for v in range(size):
            base = v - v // pw % s * pw
            picked = routing.chosen[t][v] if routing is not None else None
            for e in range(s):
                w = base + e * pw
                if e == picked:
                    style = "color=black, penwidth=2.0"
                else:
                    style = "color=gray70, penwidth=0.5"
                lines.append(f'  "{t}_{v}" -> "{t + 1}_{w}" [{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
