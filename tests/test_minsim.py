import itertools

import pytest

from insitu import Alphabet, Assignment, InSituProgram, Mapping, assignment_table, execute_all
from insitu.benes import route_bijection
from insitu.blockseq import compile_general4_flexible
from insitu.factor import compile_general4_sorted, compile_general5
from insitu.linmod import MatrixMod, ModRing, coefficient_program, decompose, linear_mapping
from insitu.minsim import export_dot, routing_of, verify
from insitu.rng import SplitMix64, random_bijection, random_mapping


def test_verify_identity():
    a = Alphabet(2, 3)
    p = route_bijection(Mapping.identity(a))
    report = verify(routing_of(p), Mapping.identity(a))
    assert report.performs
    assert report.vertex_disjoint


def test_verify_random_bijections():
    a = Alphabet(3, 2)
    rng = SplitMix64(41)
    for _ in range(30):
        e = random_bijection(a, rng)
        report = verify(routing_of(route_bijection(e)), e)
        assert report.performs
        assert report.vertex_disjoint
        other = random_bijection(a, rng)
        if other.images != e.images:
            assert not verify(routing_of(route_bijection(e)), other).performs


def test_verify_constant_merges_fully():
    a = Alphabet(2, 2)
    e = Mapping(a, (3, 3, 3, 3))
    p = compile_general4_sorted(e)
    report = verify(routing_of(p), e)
    assert report.performs
    assert not report.vertex_disjoint
    # all four paths have merged by the final stage
    assert len(set(report.images)) == 1


def _distinct_states(program):
    """Reference trace: the number of distinct states before the first
    step and after every step."""
    a = program.alphabet
    states = list(range(a.size))
    counts = [len(states)]
    for asg in program.assignments:
        tab, pw = assignment_table(asg, a), a.s ** (asg.target - 1)
        states = [v + (tab[v] - v // pw % a.s) * pw for v in states]
        counts.append(len(set(states)))
    return counts


def test_merges_never_recover_and_decide_disjointness():
    # two paths that meet at a vertex share every later vertex, so the
    # count of distinct states never grows back, and the paths are vertex
    # disjoint at every stage iff no step merges two of them
    general = [compile_general5, compile_general4_sorted, compile_general4_flexible]
    a = Alphabet(2, 2)
    cases = [(c, Mapping(a, images)) for images in itertools.product(range(4), repeat=4)
             for c in general]
    for b in (Alphabet(2, 2), Alphabet(3, 1)):
        cases += [(route_bijection, Mapping(b, perm))
                  for perm in itertools.permutations(range(b.size))]
    rng = SplitMix64(43)
    for b, compilers in ((Alphabet(2, 3), general), (Alphabet(3, 2), general[:2])):
        for _ in range(20):
            e = random_mapping(b, rng)
            cases += [(c, e) for c in compilers]
            e = random_bijection(b, rng)
            cases += [(c, e) for c in (*compilers, route_bijection)]
    merged = set()
    for compile_, e in cases:
        p = compile_(e)
        counts = _distinct_states(p)
        assert all(y <= x for x, y in zip(counts, counts[1:]))
        report = verify(p, e)
        assert report.performs
        assert report.vertex_disjoint == all(c == e.alphabet.size for c in counts)
        assert report.vertex_disjoint == e.is_bijective()
        merged.add(report.vertex_disjoint)
    assert merged == {True, False}


def test_verify_images_match_execute_all():
    # the report's final stage is the mapping the program computes, also
    # when the target is wrong
    rng = SplitMix64(47)
    for a in (Alphabet(2, 3), Alphabet(3, 2)):
        for _ in range(20):
            e = random_mapping(a, rng)
            p = compile_general4_sorted(e)
            other = random_mapping(a, rng)
            for target in (e, other):
                report = verify(routing_of(p), target)
                assert report.images == execute_all(p).images
                assert report.performs == (report.images == target.images)


def test_verify_coefficient_program_as_its_tables():
    # a coefficient program traces as the table program routing_of writes
    rng = SplitMix64(53)
    cases = [MatrixMod.of(ModRing.of(12), ((4, 5), (6, 4)))]  # singular mod 12
    for s, n in ((2, 3), (3, 2), (4, 2), (12, 2), (5, 3)):
        ring = ModRing.of(s)
        cases += [MatrixMod.of(ring, [[rng.below(s) for _ in range(n)] for _ in range(n)])
                  for _ in range(4)]
    disjoint = []
    for m in cases:
        p = coefficient_program(decompose(m))
        tables = routing_of(p)
        assert all(asg.table is not None for asg in tables.assignments)
        assert tables.signature == p.signature
        for target in (linear_mapping(m), Mapping.identity(p.alphabet)):
            got, want = verify(p, target), verify(tables, target)
            assert got.performs == want.performs
            assert got.vertex_disjoint == want.vertex_disjoint
            assert got.images == want.images == linear_mapping(m).images
        disjoint.append(got.vertex_disjoint)
    assert disjoint[0] is False and True in disjoint


def test_verify_alphabet_mismatch():
    a = Alphabet(2, 2)
    p = route_bijection(Mapping.identity(a))
    with pytest.raises(ValueError):
        verify(routing_of(p), Mapping.identity(Alphabet(2, 3)))


def _one_step(a):
    # the identity on component 1, as one coefficient step
    return InSituProgram(a, (Assignment(1, coeffs=(1,) + (0,) * (a.n - 1)),))


def test_export_dot_structure():
    a = Alphabet(2, 2)
    p = route_bijection(Mapping(a, (2, 0, 3, 1)))
    text = export_dot(p)
    assert text.startswith("digraph min {")
    assert text.endswith("}\n")
    # 4 stages of vertices and 3 exchanges of 4 vertices x 2 edges
    assert text.count("[label=") == (len(p) + 1) * a.size
    assert text.count(" -> ") == len(p) * a.size * a.s
    assert export_dot(p) == export_dot(p)


def test_export_dot_routing_bold_edges():
    # one chosen edge per vertex per stage, table and coefficient steps alike
    a = Alphabet(2, 2)
    e = Mapping(a, (1, 0, 3, 2))
    p = route_bijection(e)
    assert export_dot(p).count("penwidth=2.0") == len(p) * a.size
    assert verify(routing_of(p), e).performs


def test_export_dot_rejects_other_alphabet():
    # the network drawn is the one on the program's own alphabet; the same
    # routing cannot be put on another alphabet with the same signature
    p = route_bijection(Mapping.identity(Alphabet(3, 2)))
    text = export_dot(p)
    assert text.count("penwidth=2.0") == 3 * 9
    assert text.count(" -> ") == len(p) * 9 * 3
    assert export_dot(routing_of(p)) == text
    with pytest.raises(ValueError, match="table needs 4 entries"):
        InSituProgram(Alphabet(2, 2), routing_of(p).assignments)


def test_export_dot_bit_labels():
    text = export_dot(_one_step(Alphabet(2, 2)), labels="bits")
    assert '[label="01"]' in text
    assert '[label="10"]' in text
    with pytest.raises(ValueError):
        export_dot(_one_step(Alphabet(2, 2)), labels="octal")


def test_export_dot_wide_alphabet_labels():
    text = export_dot(_one_step(Alphabet(12, 1)), labels="bits")
    assert '[label="11"]' in text
    # past s = 10 a digit may take two characters, so digits are dotted
    text = export_dot(_one_step(Alphabet(12, 2)), labels="bits")
    assert '[label="11.0"]' in text
