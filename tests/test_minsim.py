import pytest

from insitu import Alphabet, BadSignature, Mapping, execute_all
from insitu.benes import route_bijection
from insitu.factor import compile_general4_sorted
from insitu.minsim import (
    Min,
    Routing,
    benes_network,
    butterfly,
    concat,
    export_dot,
    min_of,
    reversed_butterfly,
    routing_of,
    verify,
)
from insitu.rng import SplitMix64, random_bijection, random_mapping


def test_network_shapes():
    a = Alphabet(2, 3)
    assert butterfly(a).signature == (3, 2, 1)
    assert reversed_butterfly(a).signature == (1, 2, 3)
    b = benes_network(a)
    assert b.signature == (1, 2, 3, 2, 1)
    assert b.stages == 6


def test_concat_fuses_junction():
    a = Alphabet(2, 2)
    double = concat(benes_network(a), benes_network(a))
    assert double.signature == (1, 2, 1, 2, 1)
    apart = concat(butterfly(a), butterfly(a))
    assert apart.signature == (2, 1, 2, 1)
    # the 4n - 3 compiler shape: reversed butterfly, butterfly, reversed
    # butterfly, butterfly, fused at all three junctions
    four = concat(concat(benes_network(a), reversed_butterfly(a)), butterfly(a))
    assert four.signature == (1, 2, 1, 2, 1)
    assert len(four.signature) == 4 * 2 - 3


def test_bad_signature():
    a = Alphabet(2, 2)
    with pytest.raises(BadSignature):
        min_of((1, 3), a)
    with pytest.raises(BadSignature):
        min_of((0,), a)


def test_routing_validation():
    a = Alphabet(2, 2)
    net = min_of((1,), a)
    with pytest.raises(BadSignature):
        Routing(net, ())
    with pytest.raises(ValueError):
        Routing(net, ((0, 1),))
    with pytest.raises(ValueError):
        Routing(net, ((0, 1, 2, 0),))


def test_verify_identity():
    a = Alphabet(2, 3)
    p = route_bijection(Mapping.identity(a))
    report = verify(routing_of(p), Mapping.identity(a))
    assert report.performs
    assert report.vertex_disjoint
    assert report.merge_profile == (0,) * 6


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
    assert report.merge_profile[-1] == 3
    assert report.merge_profile[0] == 0


def test_merge_profile_never_recovers_on_mappings():
    # collisions are permanent: the profile is non-decreasing
    a = Alphabet(2, 3)
    rng = SplitMix64(43)
    for _ in range(30):
        e = random_mapping(a, rng)
        report = verify(routing_of(compile_general4_sorted(e)), e)
        assert report.performs
        for x, y in zip(report.merge_profile, report.merge_profile[1:]):
            assert y >= x


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


def test_verify_alphabet_mismatch():
    a = Alphabet(2, 2)
    p = route_bijection(Mapping.identity(a))
    with pytest.raises(ValueError):
        verify(routing_of(p), Mapping.identity(Alphabet(2, 3)))


def test_export_dot_structure():
    a = Alphabet(2, 2)
    net = benes_network(a)
    text = export_dot(net)
    assert text.startswith("digraph min {")
    assert text.endswith("}\n")
    # 4 stages of vertices and 3 exchanges of 4 vertices x 2 edges
    assert text.count("[label=") == net.stages * a.size
    assert text.count(" -> ") == len(net.signature) * a.size * a.s
    assert export_dot(net) == export_dot(net)


def test_export_dot_routing_bold_edges():
    a = Alphabet(2, 2)
    e = Mapping(a, (1, 0, 3, 2))
    p = route_bijection(e)
    routing = routing_of(p)
    text = export_dot(routing.network, routing)
    # one chosen edge per vertex per stage
    assert text.count("penwidth=2.0") == len(p) * a.size
    report = verify(routing, e)
    assert report.performs


def test_export_dot_bit_labels():
    a = Alphabet(2, 2)
    text = export_dot(min_of((1,), a), labels="bits")
    assert '[label="01"]' in text
    assert '[label="10"]' in text
    with pytest.raises(ValueError):
        export_dot(min_of((1,), a), labels="octal")


def test_export_dot_wide_alphabet_labels():
    a = Alphabet(12, 1)
    text = export_dot(min_of((1,), a), labels="bits")
    assert '[label="11"]' in text
    with pytest.raises(ValueError):
        export_dot(min_of((1,), Alphabet(2, 2)),
                   routing=routing_of(route_bijection(Mapping.identity(Alphabet(2, 2)))))
