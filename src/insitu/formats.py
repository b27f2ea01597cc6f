"""Plain-text file formats: whitespace-separated integers.

mapping file        s n
                    s^n image indices
matrix file         s n
                    n rows of n residues
program file        program s n m
                    m assignments: target, then s^n table values
linear program file linear s n m
                    m assignments: target row, then n coefficients

Writers are deterministic, and write every value as the int it equals,
so a `bool` in a hand-built mapping or program is written 1 or 0, not
True or False; parsers accept any whitespace layout and report the line
number of the first offending token.

A program file over s <= 10 in ASCII text, laid out as the writer lays
it out (one digit per table value, one whitespace byte between values),
is read without splitting it into tokens: each table is a slice of the
text, its digits at even offsets and whitespace at odd ones, and one
`translate` takes the digits to their values, sending any other byte to
0xFF.  A 0xFF, a byte other than whitespace between two digits, or any
other departure sends the whole text to the tokenized reader below,
which then gives the values, or the message and line, it gave before.
On a 2^12 program of 23 steps this reads in about a quarter of the
tokenized reader's time.

The tokenized reader looks program table values up by their canonical
digit names ("0" to str(s - 1)): on 4096 one-digit tokens the lookup
takes 90 us where `int()` takes 490 us (Python 3.11), which more than
halves the time a program takes to parse.  A table with any other
spelling ("01", "+1", a non-ASCII digit, a bad token) is read again
through `int()`, so it gets the values, or the message and line, that
`int()` gives.

The writer writes a `bytes` table over s <= 10 by one `translate` to
ASCII digits, placed between spaces in a `bytearray`; any other table
joins the digit names of its values.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import itemgetter
from typing import Callable

from .core import Alphabet, Assignment, InSituError, InSituProgram, Mapping
from .linmod import AssignmentMatrix, LinearProgram, MatrixMod, ModRing


# the ASCII bytes that str.split() breaks at, and a token between them
_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_TOKEN = re.compile(rb"[ \t\n\r\x0b\x0c\x1c-\x1f]*([^ \t\n\r\x0b\x0c\x1c-\x1f]+)")
# the same token in a str, for the header before the text is copied
_TEXT_TOKEN = re.compile(_TOKEN.pattern.decode("ascii"))
# the largest s whose table values are one ASCII digit each
_DIGIT_S = 10
# per s: the ASCII digit of each value below s goes to that value, any
# other byte to 0xFF; and each value below 10 goes to its ASCII digit
_VALUES = {s: bytes(b - 48 if 48 <= b < 48 + s else 255 for b in range(256))
           for s in range(2, _DIGIT_S + 1)}
_DIGITS = bytes(48 + b if b < _DIGIT_S else 0 for b in range(256))


class ParseError(InSituError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Tokens:
    """The whitespace-separated tokens of a text, read front to back.

    `str.split()` breaks at every character `splitlines()` breaks at, so
    the tokens are those of the lines in order; the line of a token is
    worked out only when an error names it.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.items = text.split()
        self.pos = 0

    def line_of(self, index: int) -> int:
        totals = accumulate(len(line.split()) for line in self.text.splitlines())
        return next(lineno for lineno, total in enumerate(totals, start=1) if total > index)

    @property
    def last_line(self) -> int:
        """Line of the last token consumed, 1 before the first."""
        return self.line_of(self.pos - 1) if self.pos else 1

    def next_token(self, what: str) -> str:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of input, expected {what}", self.last_line)
        self.pos += 1
        return self.items[self.pos - 1]

    def ints(self, count: int, what: Callable[[int], str],
             names: dict[str, int] | None = None) -> tuple[int, ...]:
        """The next `count` tokens as integers; `what(i)` names item i.

        With `names` (given only for tables, so `count` >= 2 and the gather
        gives a tuple), a full chunk is first looked up there, and read
        through `int()` only if some token is not a key.
        """
        start = self.pos
        chunk = self.items[start:start + count]
        self.pos = start + len(chunk)
        if names is not None and len(chunk) == count:
            try:
                return itemgetter(*chunk)(names)
            except KeyError:
                pass
        try:
            values = tuple(map(int, chunk))
        except ValueError:
            bad = next(i for i, tok in enumerate(chunk) if not _is_int(tok))
            self.pos = start + bad + 1
            raise ParseError(f"expected {what(bad)}, got {chunk[bad]!r}", self.last_line) from None
        if len(values) < count:
            raise ParseError(f"unexpected end of input, expected {what(len(values))}",
                             self.last_line)
        return values

    def next_int(self, what: str) -> int:
        return self.ints(1, lambda _: what)[0]

    def expect_end(self) -> None:
        if self.pos < len(self.items):
            tok = self.items[self.pos]
            raise ParseError(f"trailing content {tok!r}", self.line_of(self.pos))


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True


def _header(toks: _Tokens) -> Alphabet:
    s = toks.next_int("alphabet size s")
    n = toks.next_int("arity n")
    try:
        return Alphabet(s, n)
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), toks.last_line) from None


def _ring_header(toks: _Tokens) -> tuple[ModRing, int]:
    s = toks.next_int("modulus s")
    n = toks.next_int("dimension n")
    try:
        ring = ModRing.of(s)
    except ValueError as exc:
        raise ParseError(str(exc), toks.last_line) from None
    if n < 1:
        raise ParseError(f"dimension must be at least 1, got {n}", toks.last_line)
    return ring, n


def _count(toks: _Tokens, what: str) -> int:
    count = toks.next_int(what)
    if count < 0:
        raise ParseError(f"{what} must not be negative, got {count}", toks.last_line)
    return count


def parse_mapping(text: str) -> Mapping:
    toks = _Tokens(text)
    a = _header(toks)
    images = toks.ints(a.size, lambda i: f"image {i}")
    toks.expect_end()
    try:
        return Mapping(a, images)
    except ValueError as exc:
        raise ParseError(str(exc), toks.last_line) from None


def format_mapping(m: Mapping) -> str:
    head = f"{m.alphabet.s:d} {m.alphabet.n:d}\n"
    return head + " ".join(map(int.__repr__, m.images)) + "\n"


def parse_matrix(text: str) -> MatrixMod:
    toks = _Tokens(text)
    ring, n = _ring_header(toks)
    rows = [toks.ints(n, lambda j: f"entry ({i + 1},{j + 1})") for i in range(n)]
    toks.expect_end()
    return MatrixMod.of(ring, rows)


def format_matrix(m: MatrixMod) -> str:
    lines = [f"{m.ring.s:d} {m.n:d}"]
    for row in m.entries:
        lines.append(" ".join(map(int.__repr__, row)))
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> InSituProgram | LinearProgram:
    """Parse either program kind, telling them apart by the leading tag."""
    program = _digit_program(text)
    if program is not None:
        return program
    toks = _Tokens(text)
    tag = toks.next_token("program kind tag ('program' or 'linear')")
    if tag not in ("program", "linear"):
        raise ParseError(f"unknown program kind {tag!r}", toks.last_line)
    if tag == "program":
        a = _header(toks)
        count = _count(toks, "assignment count m")
        # the s names cost no more than the split did only if the unread
        # tokens hold a table of s^n >= s values; a header alone may name
        # any s up to 2^64
        names = ({str(d): d for d in range(a.s)}
                 if len(toks.items) - toks.pos >= a.size else None)
        steps = []
        for k in range(count):
            target = toks.next_int(f"assignment {k + 1} target")
            table = toks.ints(a.size, lambda _: f"assignment {k + 1} value", names)
            steps.append(Assignment(target, table=table))
        toks.expect_end()
        try:
            return InSituProgram(a, tuple(steps))
        except ValueError as exc:
            raise ParseError(str(exc), toks.last_line) from None
    ring, n = _ring_header(toks)
    count = _count(toks, "factor count m")
    factors = []
    for k in range(count):
        row = toks.next_int(f"factor {k + 1} row")
        if not 1 <= row <= n:
            raise ParseError(f"factor {k + 1} row {row} out of range [1, {n}]", toks.last_line)
        coeffs = tuple(c % ring.s for c in toks.ints(n, lambda _: f"factor {k + 1} coefficient"))
        factors.append(AssignmentMatrix(row, coeffs))
    toks.expect_end()
    return LinearProgram(ring, n, tuple(factors))


def _digit_program(text: str) -> InSituProgram | None:
    # a table program over s <= 10 in the writer's layout, read by slices
    # and translate; None sends the text to the tokenized reader, which
    # reads it, or refuses it with its message and line.  The header
    # decides before the text is copied to bytes
    if not text.isascii():
        return None
    head = []
    pos = 0
    for _ in range(4):
        tok = _TEXT_TOKEN.match(text, pos)
        if tok is None:
            return None
        head.append(tok.group(1))
        pos = tok.end()
    try:
        a = Alphabet(int(head[1]), int(head[2]))
        count = int(head[3])
    except (ValueError, OverflowError):
        return None
    if head[0] != "program" or a.s > _DIGIT_S or count < 0:
        return None
    data = text.encode("ascii")
    span = 2 * a.size - 1  # the table's digits and the whitespace bytes between them
    steps = []
    for _ in range(count):
        tok = _TOKEN.match(data, pos)
        if tok is None:
            return None
        try:
            target = int(tok.group(1))
        except ValueError:
            return None
        start = tok.end() + 1
        chunk = data[start:start + span]
        if not 1 <= target <= a.n or len(chunk) < span \
                or data[tok.end():start].translate(None, _SPACE) \
                or chunk[1::2].translate(None, _SPACE) \
                or data[start + span:start + span + 1].translate(None, _SPACE):
            return None
        table = chunk[::2].translate(_VALUES[a.s])
        if 255 in table:
            return None
        steps.append(Assignment(target, table=table))
        pos = start + span
    if data[pos:].translate(None, _SPACE):
        return None
    return InSituProgram(a, tuple(steps))


def format_program(p: InSituProgram) -> str:
    a = p.alphabet
    if any(asg.table is None for asg in p.assignments):
        raise ValueError("table payloads only; convert linear programs first")
    # table values lie in [0, s), and a table has s^n >= s entries, so the
    # digit names cost no more than one table does; a table has at least two
    # entries, so the gather gives a tuple
    names = [str(d) for d in range(a.s)] if p.assignments else []
    lines = [f"program {a.s:d} {a.n:d} {len(p.assignments)}"]
    for asg in p.assignments:
        tab = asg.table
        if type(tab) is bytes and a.s <= _DIGIT_S:
            line = bytearray(b" ") * (2 * len(tab))  # a space before every digit
            line[1::2] = tab.translate(_DIGITS)
            lines.append(f"{asg.target:d}" + line.decode("ascii"))
        else:
            lines.append(f"{asg.target:d} " + " ".join(itemgetter(*tab)(names)))
    return "\n".join(lines) + "\n"


def format_linear_program(p: LinearProgram) -> str:
    lines = [f"linear {p.ring.s:d} {p.n:d} {len(p.factors)}"]
    for fac in p.factors:
        lines.append(f"{fac.row:d} " + " ".join(map(int.__repr__, fac.coefficients)))
    return "\n".join(lines) + "\n"
