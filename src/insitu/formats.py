"""Plain-text file formats: whitespace-separated integers.

mapping file        s n
                    s^n image indices
matrix file         s n
                    n rows of n residues
program file        program s n m
                    m assignments: target, then s^n table values
linear program file linear s n m
                    m assignments: target row, then n coefficients

Writers are deterministic; parsers accept any whitespace layout and
report the line number of the first offending token.
"""

from __future__ import annotations

from .core import Alphabet, Assignment, InSituError, InSituProgram, Mapping
from .linmod import AssignmentMatrix, LinearProgram, MatrixMod, ModRing


class ParseError(InSituError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Tokens:
    def __init__(self, text: str) -> None:
        self.items: list[tuple[int, str]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((lineno, tok))
        self.pos = 0
        self.last_line = 1

    def next_token(self, what: str) -> str:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of input, expected {what}", self.last_line)
        line, tok = self.items[self.pos]
        self.pos += 1
        self.last_line = line
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next_token(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", self.last_line) from None

    def expect_end(self) -> None:
        if self.pos < len(self.items):
            line, tok = self.items[self.pos]
            raise ParseError(f"trailing content {tok!r}", line)

    def peek(self) -> str | None:
        if self.pos >= len(self.items):
            return None
        return self.items[self.pos][1]


def _header(toks: _Tokens) -> Alphabet:
    s = toks.next_int("alphabet size s")
    n = toks.next_int("arity n")
    try:
        return Alphabet(s, n)
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), toks.last_line) from None


def _count(toks: _Tokens, what: str) -> int:
    count = toks.next_int(what)
    if count < 0:
        raise ParseError(f"{what} must not be negative, got {count}", toks.last_line)
    return count


def parse_mapping(text: str) -> Mapping:
    toks = _Tokens(text)
    a = _header(toks)
    images = tuple(toks.next_int(f"image {i}") for i in range(a.size))
    toks.expect_end()
    try:
        return Mapping(a, images)
    except ValueError as exc:
        raise ParseError(str(exc), toks.last_line) from None


def format_mapping(m: Mapping) -> str:
    head = f"{m.alphabet.s} {m.alphabet.n}\n"
    return head + " ".join(str(y) for y in m.images) + "\n"


def parse_matrix(text: str) -> MatrixMod:
    toks = _Tokens(text)
    s = toks.next_int("modulus s")
    n = toks.next_int("dimension n")
    if s < 2:
        raise ParseError(f"modulus must be at least 2, got {s}", toks.last_line)
    if n < 1:
        raise ParseError(f"dimension must be at least 1, got {n}", toks.last_line)
    rows = [[toks.next_int(f"entry ({i + 1},{j + 1})") for j in range(n)] for i in range(n)]
    toks.expect_end()
    return MatrixMod.of(ModRing.of(s), rows)


def format_matrix(m: MatrixMod) -> str:
    lines = [f"{m.ring.s} {m.n}"]
    for row in m.entries:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> InSituProgram | LinearProgram:
    """Parse either program kind, telling them apart by the leading tag."""
    toks = _Tokens(text)
    tag = toks.next_token("program kind tag ('program' or 'linear')")
    if tag not in ("program", "linear"):
        raise ParseError(f"unknown program kind {tag!r}", toks.last_line)
    if tag == "program":
        a = _header(toks)
        count = _count(toks, "assignment count m")
        steps = []
        for k in range(count):
            target = toks.next_int(f"assignment {k + 1} target")
            table = tuple(toks.next_int(f"assignment {k + 1} value") for _ in range(a.size))
            steps.append(Assignment(target, table=table))
        toks.expect_end()
        try:
            return InSituProgram(a, tuple(steps))
        except ValueError as exc:
            raise ParseError(str(exc), toks.last_line) from None
    s = toks.next_int("modulus s")
    n = toks.next_int("dimension n")
    if s < 2 or n < 1:
        raise ParseError(f"bad linear program header {s} {n}", toks.last_line)
    ring = ModRing.of(s)
    count = _count(toks, "factor count m")
    factors = []
    for k in range(count):
        row = toks.next_int(f"factor {k + 1} row")
        if not 1 <= row <= n:
            raise ParseError(f"factor {k + 1} row {row} out of range [1, {n}]", toks.last_line)
        coeffs = tuple(toks.next_int(f"factor {k + 1} coefficient") % s for _ in range(n))
        factors.append(AssignmentMatrix(ring, row, coeffs))
    toks.expect_end()
    return LinearProgram(ring, n, tuple(factors))


def format_program(p: InSituProgram) -> str:
    a = p.alphabet
    lines = [f"program {a.s} {a.n} {len(p.assignments)}"]
    for asg in p.assignments:
        if asg.table is None:
            raise ValueError("table payloads only; convert linear programs first")
        lines.append(f"{asg.target} " + " ".join(str(v) for v in asg.table))
    return "\n".join(lines) + "\n"


def format_linear_program(p: LinearProgram) -> str:
    lines = [f"linear {p.ring.s} {p.n} {len(p.factors)}"]
    for fac in p.factors:
        lines.append(f"{fac.row} " + " ".join(str(c % p.ring.s) for c in fac.coefficients))
    return "\n".join(lines) + "\n"
