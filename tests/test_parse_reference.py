"""The bulk parsers against a token-at-a-time reference.

The reference below reads one `(line, token)` pair at a time, with the
line numbers taken from `splitlines()`, which is how `insitu.formats`
used to parse.  On random token streams, every parser must return what
the reference returns, or raise a `ParseError` with the same message and
line, and never raise anything else.
"""

from hypothesis import given, settings, strategies as st

from insitu.core import Alphabet, Assignment, InSituProgram, Mapping
from insitu.formats import ParseError, parse_mapping, parse_matrix, parse_program
from insitu.linmod import AssignmentMatrix, LinearProgram, MatrixMod, ModRing


class _RefTokens:
    def __init__(self, text):
        self.items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((lineno, tok))
        self.pos = 0
        self.last_line = 1

    def next_token(self, what):
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of input, expected {what}", self.last_line)
        line, tok = self.items[self.pos]
        self.pos += 1
        self.last_line = line
        return tok

    def next_int(self, what):
        tok = self.next_token(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", self.last_line) from None

    def expect_end(self):
        if self.pos < len(self.items):
            line, tok = self.items[self.pos]
            raise ParseError(f"trailing content {tok!r}", line)


def _ref_header(toks):
    s = toks.next_int("alphabet size s")
    n = toks.next_int("arity n")
    try:
        return Alphabet(s, n)
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), toks.last_line) from None


def _ref_ring_header(toks):
    s = toks.next_int("modulus s")
    n = toks.next_int("dimension n")
    if s < 2:
        raise ParseError(f"modulus must be at least 2, got {s}", toks.last_line)
    if n < 1:
        raise ParseError(f"dimension must be at least 1, got {n}", toks.last_line)
    return ModRing.of(s), n


def _ref_count(toks, what):
    count = toks.next_int(what)
    if count < 0:
        raise ParseError(f"{what} must not be negative, got {count}", toks.last_line)
    return count


def ref_parse_mapping(text):
    toks = _RefTokens(text)
    a = _ref_header(toks)
    images = tuple(toks.next_int(f"image {i}") for i in range(a.size))
    toks.expect_end()
    try:
        return Mapping(a, images)
    except ValueError as exc:
        raise ParseError(str(exc), toks.last_line) from None


def ref_parse_matrix(text):
    toks = _RefTokens(text)
    ring, n = _ref_ring_header(toks)
    rows = [[toks.next_int(f"entry ({i + 1},{j + 1})") for j in range(n)] for i in range(n)]
    toks.expect_end()
    return MatrixMod.of(ring, rows)


def ref_parse_program(text):
    toks = _RefTokens(text)
    tag = toks.next_token("program kind tag ('program' or 'linear')")
    if tag not in ("program", "linear"):
        raise ParseError(f"unknown program kind {tag!r}", toks.last_line)
    if tag == "program":
        a = _ref_header(toks)
        count = _ref_count(toks, "assignment count m")
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
    ring, n = _ref_ring_header(toks)
    count = _ref_count(toks, "factor count m")
    factors = []
    for k in range(count):
        row = toks.next_int(f"factor {k + 1} row")
        if not 1 <= row <= n:
            raise ParseError(f"factor {k + 1} row {row} out of range [1, {n}]", toks.last_line)
        coeffs = tuple(toks.next_int(f"factor {k + 1} coefficient") % ring.s for _ in range(n))
        factors.append(AssignmentMatrix(row, coeffs))
    toks.expect_end()
    return LinearProgram(ring, n, tuple(factors))


# every character splitlines() breaks at, plus whitespace it does not
# break at (\x1f, \xa0, \u3000), which must not start a new line
SEPARATORS = [" ", "\t", "\n", "\r", "\r\n", "\n\r", "\x0b", "\x0c", "\x1c", "\x1d",
              "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029", "\u3000", " \n ", "\n\n"]
# the in-range spellings of 0 and 1 other than "0" and "1" switch a table
# from the digit-name lookup to the int() reading part-way through
JUNK = ["x", "1.5", "0x1", "--1", "+3", "-0", "1_0", "_1", "\u0663", "1e3", "program",
        "linear", "prog", "9" * 5000, "00", "01", "+1", "0_1", "\uff11", "\u0661"]


def _token(draw, bound):
    return draw(st.one_of(
        st.integers(-2, bound + 1).map(str),
        st.sampled_from(JUNK),
        st.integers(-(10 ** 30), 10 ** 30).map(str),
    ))


@st.composite
def _streams(draw, kind):
    """A well-formed token list of the kind, then up to three edits, joined
    by random separators."""
    s = draw(st.sampled_from([2, 2, 3, 3, 4, 5, 0, 1]))
    n = draw(st.sampled_from([1, 2, 2, 3, 3, 0, -1]))
    target = st.one_of(st.integers(1, max(n, 1)), st.integers(-1, n + 1))
    size = s ** n if s >= 2 and n >= 1 else draw(st.integers(0, 4))
    if kind == "mapping":
        toks = [s, n] + [draw(st.integers(0, max(size - 1, 0))) for _ in range(size)]
    elif kind == "matrix":
        dim = max(n, 0)
        toks = [s, n] + [draw(st.integers(-3, s + 3)) for _ in range(dim * dim)]
    elif kind == "program":
        count = draw(st.integers(-2, 3))
        toks = ["program", s, n, count]
        for _ in range(max(count, 0)):
            toks.append(draw(target))
            toks += [draw(st.integers(0, max(s - 1, 0))) for _ in range(size)]
    else:
        count = draw(st.integers(-2, 3))
        toks = ["linear", s, n, count]
        for _ in range(max(count, 0)):
            toks.append(draw(target))
            toks += [draw(st.integers(-3, s + 3)) for _ in range(max(n, 0))]
    toks = [str(t) for t in toks]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        if edit == "delete":
            del toks[at:at + 1]
        elif edit == "insert":
            toks.insert(at, _token(draw, size))
        elif edit == "replace" and at < len(toks):
            toks[at] = _token(draw, size)
        elif edit == "truncate":
            del toks[at:]
    seps = draw(st.lists(st.sampled_from(SEPARATORS),
                         min_size=len(toks) + 1, max_size=len(toks) + 1))
    return "".join(sep + tok for sep, tok in zip(seps, toks + [""]))


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", (str(exc), exc.line)


def _agree(parse, reference, text):
    # anything other than a ParseError propagates and fails the test
    assert _outcome(parse, text) == _outcome(reference, text)


@settings(max_examples=400, deadline=None)
@given(_streams("mapping"))
def test_parse_mapping_matches_reference(text):
    _agree(parse_mapping, ref_parse_mapping, text)


@settings(max_examples=400, deadline=None)
@given(_streams("matrix"))
def test_parse_matrix_matches_reference(text):
    _agree(parse_matrix, ref_parse_matrix, text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_streams("program"), _streams("linear")))
def test_parse_program_matches_reference(text):
    _agree(parse_program, ref_parse_program, text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "program ", "linear "]),
       st.text(st.sampled_from("0123-x \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028"), max_size=40))
def test_parsers_match_reference_on_raw_text(prefix, body):
    text = prefix + body
    _agree(parse_mapping, ref_parse_mapping, text)
    _agree(parse_matrix, ref_parse_matrix, text)
    _agree(parse_program, ref_parse_program, text)


def test_error_lines_follow_every_line_break():
    # the bad token sits after one break of each kind
    for sep in ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]:
        text = f"2 1{sep}0{sep}x"
        for parse, reference in ((parse_mapping, ref_parse_mapping),
                                 (parse_matrix, ref_parse_matrix)):
            new, ref = _outcome(parse, text), _outcome(reference, text)
            assert new == ref and new[0] == "error" and new[1][1] == 3, (sep, new)


def test_tables_with_other_spellings_match_reference():
    # "01", "+1" and a fullwidth 1 are not digit names, so the table is read
    # again through int(); the result is the reference's either way
    text = "program 2 2 1\n1 1 01 +1 \uff11\n"
    new = _outcome(parse_program, text)
    assert new == _outcome(ref_parse_program, text)
    assert new[1].assignments[0].table == (1, 1, 1, 1)
    # a value out of range has no digit name, so it is read through int()
    # and fails with the message and line it failed with before
    text = "program 2 2 2\n1 0 1 1 0\n2 0 2\n1 0\n"
    new = _outcome(parse_program, text)
    assert new == _outcome(ref_parse_program, text)
    assert new == ("error", ("line 4: assignment 1: table value 2 out of range [0, 2)", 4))
