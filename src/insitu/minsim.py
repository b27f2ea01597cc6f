"""Stage networks for in-situ programs, and programs as routings through them.

A network is a signature: stage t is a full copy of the index space, and
between stages t and t+1 every vertex has s outgoing edges, one per
value of the component named by signature[t] (all other components keep
their values).  A program with that signature is exactly a routing: each
vertex picks one outgoing edge per stage, namely the table value, so a
program is its own routing and no second type holds one.

`verify` drives every input through a program, table or coefficient
steps alike, by `core.execute_all` (on digit planes past 256 indices at
s <= 128, so a coefficient step builds no table), and reports whether the final stage realizes a given
mapping, whether the paths stay vertex disjoint, and the final images,
so one trace serves both the verdict and the first mismatching index.
Paths that meet at a vertex share every later vertex, so they are
disjoint at every stage iff the final stage is injective.  `routing_of`
writes every step as a table, and `export_dot` draws a network with a
program's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Alphabet,
    Assignment,
    BadSignature,
    InSituProgram,
    Mapping,
    _unchecked,
    assignment_table,
    execute_all,
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
class RoutingReport:
    """What `verify` reads off the final stage of one trace."""

    performs: bool
    vertex_disjoint: bool
    images: tuple[int, ...]


def routing_of(program: InSituProgram) -> InSituProgram:
    """The same program with every step as a table: the edge each vertex
    takes at each stage of the network of its signature."""
    a = program.alphabet
    return _unchecked(InSituProgram, a, tuple(
        Assignment(asg.target, table=assignment_table(asg, a)) for asg in program.assignments))


def verify(program: InSituProgram, mapping: Mapping) -> RoutingReport:
    """Trace every input through the routing that a program is.

    performs: the final stage realizes `mapping`.
    vertex_disjoint: no two paths share a vertex at any stage; a merge is
    permanent, so this is read off the final stage.
    images: the final stage, i.e. the mapping the program computes.
    """
    if mapping.alphabet != program.alphabet:
        raise ValueError("alphabet mismatch")
    got = execute_all(program)
    return RoutingReport(got.images == tuple(mapping.images), got.is_bijective(), got.images)


def export_dot(network: Min, routing: InSituProgram | None = None, labels: str = "index") -> str:
    """Graphviz DOT text for a network, optionally with the edges a
    program takes bolded; the program must have the network's alphabet
    and signature.

    labels="index" numbers vertices; labels="bits" prints digit strings
    most significant component first.  Output is byte-deterministic.
    """
    if routing is not None and Min(routing.alphabet, routing.signature) != network:
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
    chosen = [] if routing is None else [assignment_table(asg, a) for asg in routing.assignments]
    for t, component in enumerate(network.signature):
        pw = s ** (component - 1)
        for v in range(size):
            base = v - v // pw % s * pw
            picked = chosen[t][v] if chosen else None
            for e in range(s):
                w = base + e * pw
                if e == picked:
                    style = "color=black, penwidth=2.0"
                else:
                    style = "color=gray70, penwidth=0.5"
                lines.append(f'  "{t}_{v}" -> "{t + 1}_{w}" [{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
