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
from insitu.linmod import LinearProgram, MatrixMod, ModRing, decompose, to_in_situ
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
    with pytest.raises(ParseError):
        parse_mapping("2 2\n0 1 2 9\n")


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


def test_linear_coefficients_are_reduced():
    p = parse_program("linear 5 2 1\n1 7 -1\n")
    assert p.factors[0].coefficients == (2, 4)
