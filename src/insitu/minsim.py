"""Stage networks for in-situ programs, and programs as routings through them.

A network is a signature: stage t is a full copy of the index space, and
between stages t and t+1 every vertex has s outgoing edges, one per
value of the component named by signature[t] (all other components keep
their values).  A program with that signature is exactly a routing: each
vertex picks one outgoing edge per stage, namely the table value, so a
program is its own routing and no second type holds one.

`verify` drives every input through a program, table or coefficient
steps alike, by `core.execute_all` (past 256 indices at s <= 128 on byte
planes, so a coefficient step builds no table, and backward on index
lanes for a table program at s <= 6), and reports whether the final stage realizes a given
mapping, whether the paths stay vertex disjoint, and the final images,
so one trace serves both the verdict and the first mismatching index.
Paths that meet at a vertex share every later vertex, so they are
disjoint at every stage iff the final stage is injective.  `routing_of`
writes every step as a table, and `export_dot` draws the network of a
program's signature with the program's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Assignment,
    InSituProgram,
    Mapping,
    _unchecked,
    assignment_table,
    execute_all,
    vector_of,
)


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


def export_dot(program: InSituProgram, labels: str = "index") -> str:
    """Graphviz DOT text for the network of a program's signature, with
    the edges the program takes bolded.

    labels="index" numbers vertices; labels="bits" prints digit strings
    most significant component first.  Output is byte-deterministic.
    """
    if labels not in ("index", "bits"):
        raise ValueError(f"unknown label style {labels!r}")
    a = program.alphabet
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
    for t in range(len(program) + 1):
        lines.append(f"  subgraph stage{t} {{")
        lines.append("    rank=same;")
        for v in range(size):
            lines.append(f'    "{t}_{v}" [label="{label(v)}"];')
        lines.append("  }")
    for t, asg in enumerate(program.assignments):
        pw = s ** (asg.target - 1)
        chosen = assignment_table(asg, a)
        for v in range(size):
            base = v - v // pw % s * pw
            for e in range(s):
                w = base + e * pw
                if e == chosen[v]:
                    style = "color=black, penwidth=2.0"
                else:
                    style = "color=gray70, penwidth=0.5"
                lines.append(f'  "{t}_{v}" -> "{t + 1}_{w}" [{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
