import tracemalloc

import pytest

from insitu import Alphabet, Assignment, InSituProgram, Mapping
from insitu.benes import route_bijection
from insitu.formats import (
    ParseError,
    format_linear_program,
    format_matrix,
    format_mapping,
    format_program,
    parse_mapping,
    parse_matrix,
    parse_program,
)
from insitu.linmod import AssignmentMatrix, LinearProgram, MatrixMod, ModRing, decompose, to_in_situ
from insitu.rng import SplitMix64, random_bijection, random_mapping


def test_mapping_round_trip():
    a = Alphabet(3, 2)
    rng = SplitMix64(1)
    for _ in range(10):
        m = random_mapping(a, rng)
        assert parse_mapping(format_mapping(m)) == m


def test_mapping_format_is_two_lines():
    m = Mapping(Alphabet(2, 2), (3, 0, 1, 2))
    assert format_mapping(m) == "2 2\n3 0 1 2\n"


def test_mapping_accepts_any_whitespace():
    m = parse_mapping("2\n2\n\n3 0\n1 2\n")
    assert m.images == (3, 0, 1, 2)


def test_mapping_parse_errors_carry_lines():
    with pytest.raises(ParseError) as exc:
        parse_mapping("2 2\n0 1 2\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_mapping("2 2\n0 1 2 x\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_mapping("2 2\n0 1 2 3 4\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_mapping("1 2\n\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_mapping("2 2\n0 1 2 9\n")
    assert str(exc.value) == "line 2: image 9 out of range [0, 4)"


def test_matrix_round_trip():
    r = ModRing.of(12)
    m = MatrixMod.of(r, [[4, 5], [6, 4]])
    text = format_matrix(m)
    assert text == "12 2\n4 5\n6 4\n"
    assert parse_matrix(text) == m


def test_matrix_reduces_residues():
    m = parse_matrix("5 2\n7 -1\n0 2\n")
    assert m.entries == ((2, 4), (0, 2))
    with pytest.raises(ParseError):
        parse_matrix("1 2\n0 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_matrix("5 0\n")


def test_program_round_trip():
    a = Alphabet(2, 3)
    rng = SplitMix64(2)
    for _ in range(10):
        p = route_bijection(random_bijection(a, rng))
        text = format_program(p)
        back = parse_program(text)
        assert back == p


def test_program_format_shape():
    a = Alphabet(2, 1)
    p = route_bijection(Mapping(a, (1, 0)))
    assert format_program(p) == "program 2 1 1\n1 1 0\n"


def test_linear_program_round_trip():
    r = ModRing.of(12)
    p = decompose(MatrixMod.of(r, [[4, 5], [6, 4]]))
    text = format_linear_program(p)
    assert text == "linear 12 2 3\n1 10 9\n2 3 1\n1 1 11\n"
    back = parse_program(text)
    assert isinstance(back, LinearProgram)
    assert back == p


def test_bools_are_written_as_the_ints_they_equal():
    # a bool is an int, so the entry checks take it; the writers must
    # still write 1 and 0, which the parsers read back
    m = Mapping(Alphabet(2, 1), (True, False))
    assert format_mapping(m) == "2 1\n1 0\n"
    assert parse_mapping(format_mapping(m)) == m
    p = LinearProgram(ModRing.of(5), 2, (AssignmentMatrix(True, (True, 3)),))
    assert format_linear_program(p) == "linear 5 2 1\n1 1 3\n"
    assert parse_program(format_linear_program(p)) == p
    t = InSituProgram(Alphabet(2, 1), (Assignment(True, table=(False, True)),))
    assert format_program(t) == "program 2 1 1\n1 0 1\n"
    assert parse_program(format_program(t)) == t
    assert format_matrix(MatrixMod(ModRing.of(5), 1, ((True,),))) == "5 1\n1\n"


def test_format_program_rejects_linear_payloads():
    r = ModRing.of(3)
    p = decompose(MatrixMod.of(r, [[2, 1], [1, 1]]))
    raw = InSituProgram(Alphabet(3, 2), tuple(
        Assignment(f.row, coeffs=f.coefficients) for f in p.factors))
    with pytest.raises(ValueError):
        format_program(raw)
    # the supported path: materialize tables first
    text = format_program(to_in_situ(p))
    assert text.startswith("program 3 2 3\n")


def test_program_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_program("prog 2 2 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_program("program 2 2 1\n1 0 0 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_program("program 2 2 1\n3 0 0 0 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_program("linear 2 2 1\n3 1 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_program("")
    assert exc.value.line == 1
    # a header short of its count: "10" is one token, not n = 1 and m = 0
    with pytest.raises(ParseError) as exc:
        parse_program("program 2 10")
    assert str(exc.value) == "line 1: unexpected end of input, expected assignment count m"


def test_negative_counts_are_parse_errors():
    # a negative count used to parse as an empty program
    with pytest.raises(ParseError) as exc:
        parse_program("program 2 2 -3\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_program("linear 5 2\n-1\n")
    assert exc.value.line == 2
    assert len(parse_program("program 2 2 0\n")) == 0
    assert len(parse_program("linear 5 2 0\n")) == 0


def test_program_header_alone_builds_no_name_table():
    # the digit names are built only when the unread tokens hold a whole
    # table; a million names would take about 100 MB here
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_program("program 1000000 1 1\n1 0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 2: unexpected end of input, expected assignment 1 value"
    assert exc.value.line == 2
    assert peak < 1 << 20, peak


def test_linear_coefficients_are_reduced():
    p = parse_program("linear 5 2 1\n1 7 -1\n")
    assert p.factors[0].coefficients == (2, 4)


def _joined_text(p):
    # the program text as the writer wrote it before any table was bytes:
    # each value's decimal name, one space apart
    a = p.alphabet
    lines = [f"program {a.s} {a.n} {len(p)}"]
    lines += [f"{asg.target} " + " ".join(str(v) for v in asg.table) for asg in p.assignments]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("s, n", [(2, 9), (3, 6), (10, 3), (11, 3), (16, 3), (300, 1)])
def test_writer_reproduces_the_joined_names(s, n):
    # past 256 indices a table over s <= 10 is written by one translate to
    # ASCII digits, over 10 < s <= 256 (two- and three-digit names) by
    # joining the names of its bytes, and over s = 300 as a tuple; each
    # must give the text the joined names give, and read back to itself
    a = Alphabet(s, n)
    rng = SplitMix64(40 + s)
    p = InSituProgram(a, tuple(Assignment(1 + k % n, table=[rng.below(s) for _ in range(a.size)])
                               for k in range(3)))
    assert {type(asg.table) for asg in p.assignments} == {bytes if s <= 256 else tuple}
    text = format_program(p)
    assert text == _joined_text(p)
    assert parse_program(text) == p


def test_digit_tables_are_read_by_slices_or_tokens_alike():
    # the writer's layout over s <= 10 is read by slices; the same program
    # laid out one token per line, with a value spelled 01, or with CRLF
    # line ends goes through the tokenized reader, and every reading gives
    # the same program, bytes tables and all
    a = Alphabet(3, 6)
    rng = SplitMix64(41)
    p = InSituProgram(a, tuple(Assignment(1 + k % 6, table=[rng.below(3) for _ in range(a.size)])
                               for k in range(4)))
    text = format_program(p)
    tokens = text.split()
    spellings = ["\n".join(tokens), text.replace("\n", "\r\n"),
                 " ".join(tokens[:6] + ["0" + tokens[6]] + tokens[7:])]
    for other in [text] + spellings:
        back = parse_program(other)
        assert back == p and all(type(asg.table) is bytes for asg in back.assignments)
    # a table value past s, or a bad token, fails as the tokenized reader fails
    bad = text.split("\n")
    bad[2] = bad[2][:-1] + "7"
    with pytest.raises(ParseError) as exc:
        parse_program("\n".join(bad))
    assert str(exc.value) == "line 5: assignment 1: table value 7 out of range [0, 3)"
    bad[2] = bad[2][:-1] + "x"
    with pytest.raises(ParseError) as exc:
        parse_program("\n".join(bad))
    assert str(exc.value) == "line 3: expected assignment 2 value, got 'x'"
