"""Byte-stability pins: the text of compiled programs on fixed seeded
inputs must not change when the compilers are refactored."""

import hashlib

import pytest

from insitu import Alphabet, benes, minsim, oracle
from insitu.benes import edge_color, route_bijection, route_bijection_reversed, suffix_graph
from insitu.blockseq import compile_general4_flexible
from insitu.cli import EXIT_OK, main
from insitu.factor import compile_general4_sorted, compile_general5
from insitu.formats import format_linear_program, format_program
from insitu.linmod import MatrixMod, ModRing, decompose
from insitu.rng import SplitMix64, random_bijection, random_mapping

COMPILE = {
    "benes": route_bijection,
    "benes-reversed": route_bijection_reversed,
    "general5": compile_general5,
    "general4-sorted": compile_general4_sorted,
    "general4-flex": compile_general4_flexible,
}

# SHA-256 of format_program output; each input is drawn from SplitMix64(7)
PINS = [
    ("bijection", 2, 6, "benes",
     "176c2d9f21e7bbda47bae07664b081b55c790d0e8c52a6fb235edbd6cbd191d8"),
    ("bijection", 2, 6, "benes-reversed",
     "75c90dd9692f6f6a3a57db1360822960d881b4eed1ac26762625f03e90571b1c"),
    ("bijection", 2, 6, "general5",
     "dd6851782a0f18c1580dae110ee59f76294b03694e8a52f761814c9d9ce6a501"),
    ("bijection", 2, 6, "general4-sorted",
     "31f82d0b97d659e53d5fba30dd87ec44a300dadd026927c2e539241195823eb5"),
    # a size the benchmark routes at, past the 256 indices where
    # step_images changes form
    ("bijection", 2, 12, "benes",
     "b3bc7c48ed9ea80d329bd556c340e822d833dcad7b1564655201f9f44b8912dd"),
    ("bijection", 2, 12, "benes-reversed",
     "e5f410a214d240283e51506c096f39be8ea0bab00637cf05d71c53f10348e800"),
    ("bijection", 3, 4, "benes",
     "8fb789625b4a6f8d9758282461f379e981db485a5c60a1bc51105c700e7cb59c"),
    ("bijection", 3, 4, "benes-reversed",
     "c814a7e72cd5acc3956c50a2ebb1137c4fe55a2d8291bbe85b7bfb9deb44e239"),
    ("bijection", 3, 4, "general5",
     "9ee42e51dc30f4d4d09be04edb2359dc65edfaabf495b425f8877022b0492a04"),
    ("bijection", 3, 4, "general4-sorted",
     "3c0dfc69aced881283fd8288a8d7a073689da4f9c660cc02a9ee22b740a5c50d"),
    ("bijection", 4, 3, "benes",
     "8dfa2d1a83f99ae31dba0614d0197f4b5b3458beaf528df556adb87f1ad0e35b"),
    ("bijection", 4, 3, "benes-reversed",
     "02502377fcca7e9747ee8511fbd5611d787da802dd5d9d750a0e96a18d9ad23f"),
    ("bijection", 4, 3, "general5",
     "e8d1d679f0ddb88d3d4eadd8cc2a2139e421ae60c2bb014947105e98ab78f11d"),
    ("bijection", 4, 3, "general4-sorted",
     "f5a234bcaaba4048ffa071b5032faeec046706e4f9b5970674e05a0a5975a111"),
    ("bijection", 5, 3, "benes",
     "9dc2ef3ef156c7ce6cb2f2e08bcb7e20efab07a72c3ef5e71f2cb682dcf6068e"),
    ("bijection", 5, 3, "benes-reversed",
     "d42f9b82b1ddcb2490093cb60af465a4743ebf9d650bb0ebd74d02f11e141938"),
    ("bijection", 5, 3, "general5",
     "45ad408bf7e0cfe90342e6ffe7d3d7308eba7f72bcd26bc1f2a24105b9762ad5"),
    ("bijection", 5, 3, "general4-sorted",
     "bfe85647945d0bfe84608b578c684c77ccb806ffbc871b90bbb549ea7702c3ce"),
    ("mapping", 2, 5, "general5",
     "aaf68769374d174fe2197de768cbebd78a72ec556cb17869bc39e4443de1b034"),
    ("mapping", 2, 5, "general4-sorted",
     "658990a169d692e904204baca2ac648fc6a9b123820345c7aa69819dfe2c6a27"),
    ("mapping", 2, 5, "general4-flex",
     "9d5ab30a170614a8e8b8dfb7afacb1a1e715b80f182b11356e359e08893019db"),
    ("mapping", 3, 3, "general5",
     "e53307cbf1bae007d4b33afc60beee2dd16e95a6bc62b8c18f00db081bfe47aa"),
    ("mapping", 3, 3, "general4-sorted",
     "0fa86a2b5f2a4ee76ac8bac6e17e13924a55712bfd58a76ac9ed462d02ec1eb9"),
]


# The s >= 3 inputs above as compiled when every color was peeled off as
# one perfect matching, the coloring before Euler partitions.  With that
# coloring put back, all else in the compilers must give the same bytes
PEELED_PINS = [
    ("bijection", 3, 4, "benes",
     "fb887747c45d7b8757e40884c3188919e027791d8f2ed079ddf928e8d12adf0c"),
    ("bijection", 3, 4, "benes-reversed",
     "877a8fa8f84545c956df12c5b500d705bf230ae1b51f3c5995b1ab0780dcc350"),
    ("bijection", 3, 4, "general5",
     "344157c6217784aee1d42f41f01f0325e0b5b4a532d20e9b7dce999b3615644b"),
    ("bijection", 3, 4, "general4-sorted",
     "f3ac27d9c3f4a76b8ea6b3a9ad9a45604d9839626ac1581c3cb930b21562337d"),
    ("bijection", 4, 3, "benes",
     "5a3b35926849a4459e0a77ab8b9758945a0fb6e88c4a153f001e9f85a783dc76"),
    ("bijection", 4, 3, "benes-reversed",
     "9ad8d7064fa52a6caf31d757d0e618f70d5968ba7235adba718a11982bd90a5e"),
    ("bijection", 4, 3, "general5",
     "2135d546468eb1927bf98926656bd712e52e36e81b9eb3b4c498dd1eae43b9bf"),
    ("bijection", 4, 3, "general4-sorted",
     "4e83caa4e3729ddd399d63f86c8687d5f1abf6237b8570b820696db41fb7790c"),
    ("bijection", 5, 3, "benes",
     "c5f2e1656f3c1ab87da1d6d47a9d1cac82d842efbb8c831e187f52f621f2f903"),
    ("bijection", 5, 3, "benes-reversed",
     "890fd8d53a634742265f8839798219bb1e51d129f7c1ee828d468fa46053cd96"),
    ("bijection", 5, 3, "general5",
     "449d121a8cdce925e49f5d3667c1678f2d52ee2992051bb21721515b4f698721"),
    ("bijection", 5, 3, "general4-sorted",
     "f2ab43ad3381778583f1c67e7db305cd591573feff59bcfae8a556e4ada60dd5"),
    ("mapping", 3, 3, "general5",
     "5fa90cea95de8ccf7f245042cc18a52dc71d5bd812a173856eb1ea9b41f690ae"),
    ("mapping", 3, 3, "general4-sorted",
     "aa6db5e5d8f39d609270ba22399831bd9902bd4b96ff6e7643b84ae0f2aa260a"),
]


def _peel_matchings(s, order, left, right, colors):
    # color c is the perfect matching that Kuhn's search finds among the
    # edges left uncolored by colors 0..c-1
    adj_left = [[] for _ in range(order)]
    for eid, l in enumerate(left):
        adj_left[l].append(eid)
    for color in range(s):
        for eid in benes._perfect_matching(left, right, order, adj_left):
            colors[eid] = color
        adj_left = [[eid for eid in adj if colors[eid] < 0] for adj in adj_left]


@pytest.mark.parametrize("kind,s,n,compiler,digest", PINS + PEELED_PINS)
def test_compiled_text_is_pinned(kind, s, n, compiler, digest, monkeypatch):
    if (kind, s, n, compiler, digest) in PEELED_PINS:
        monkeypatch.setattr(benes, "_euler_partition", _peel_matchings)
    draw = random_bijection if kind == "bijection" else random_mapping
    e = draw(Alphabet(s, n), SplitMix64(7))
    text = format_program(COMPILE[compiler](e))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind,s,n,compiler", [pin[:4] for pin in PINS])
def test_pinned_programs_check_out(kind, s, n, compiler):
    # the pins fix bytes; this checks what those bytes must do, so that a
    # re-derived pin is one of a program that works
    a = Alphabet(s, n)
    draw = random_bijection if kind == "bijection" else random_mapping
    e = draw(a, SplitMix64(7))
    program = COMPILE[compiler](e)
    report = minsim.verify(program, e)
    assert report.performs
    signature = oracle.method_signature(compiler.removesuffix("-reversed"), n)
    if compiler == "benes-reversed":
        signature = tuple(n + 1 - t for t in signature)
    assert program.signature == signature
    if compiler.startswith("benes"):
        assert report.vertex_disjoint


@pytest.mark.parametrize("s,n", sorted({(s, n) for kind, s, n, _, _ in PINS if kind == "bijection"}))
def test_pinned_bijections_color_by_matchings(s, n):
    g = suffix_graph(random_bijection(Alphabet(s, n), SplitMix64(7)))
    colors = edge_color(g)
    for c in range(s):
        ends = [(l, r) for (l, r, _), got in zip(g.edges, colors) if got == c]
        assert sorted(l for l, _ in ends) == list(range(g.order))
        assert sorted(r for _, r in ends) == list(range(g.order))


# SHA-256 of format_linear_program output; each matrix is drawn row by row
# from SplitMix64(3), a seed whose factorization reaches the construction
# that unit_multipliers falls back on after its single-term and one-helper
# tries, at every one of these shapes
LINEAR_PINS = [
    (6, 3, "41b918639538635804478a58a456c3d6b0701c323891584730eebda00a2bafbe"),
    (12, 3, "792f98c43b1876c1cffb0077f5a417f046e4fff9524ef4969c0155bceacae7ee"),
    (30, 4, "ac3a221fc8dc8729bbaa4c91676a7e0b414a7726637eecf123fef9f5a5c958d9"),
    (210, 3, "121a39b0941d9b4cd05ea2cb33cd2df1c665302779ca7ee8c640581cc6183f10"),
]


@pytest.mark.parametrize("s,n,digest", LINEAR_PINS)
def test_linear_factors_are_pinned(s, n, digest):
    rng = SplitMix64(3)
    m = MatrixMod.of(ModRing.of(s), [[rng.below(s) for _ in range(n)] for _ in range(n)])
    text = format_linear_program(decompose(m))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of the DOT text `compile --dot` writes: table programs at 2^2,
# 3^2 (bit labels) and 2^3, and coefficient programs mod 6 and mod 12,
# whose bit labels are dotted since s > 10
DOT_PINS = [
    ("2 2\n2 0 3 1\n", "benes", "index",
     "1b08afe58b7e79131533420b54d80b8293a513dfe01a99ff2bb90bc1fde9766c"),
    ("3 2\n4 0 7 2 8 1 5 3 6\n", "benes", "bits",
     "26b8aeb0a704a3cb4058453dea560d7dd0ef362c88e50ed71d44cffa0c259115"),
    ("2 3\n3 3 0 5 7 1 1 6\n", "general4-flex", "index",
     "4039e1be7310cdee8d5395519da18c52b160a9759ebafb88483cfacedadc78c6"),
    ("6 2\n1 2\n3 5\n", "linear", "index",
     "ef45b9f7950995e6e1e35b3fbaca1a888e72f7a76ffbc917af52acb0d67ab574"),
    ("12 1\n5\n", "linear", "bits",
     "55a1016293a6a9ccb5ed9f612db34e95ab7a9c49b78c61ee24cd90d7c51f71fb"),
]


@pytest.mark.parametrize("text,method,labels,digest", DOT_PINS, ids=[
    f"{method}-{'^'.join(text.split()[:2])}-{labels}" for text, method, labels, _ in DOT_PINS])
def test_dot_text_is_pinned(text, method, labels, digest, tmp_path):
    src, dot = tmp_path / "input", tmp_path / "net.dot"
    src.write_text(text, encoding="utf-8")
    assert main(["compile", str(src), "--method", method, "--dot", str(dot),
                 "--dot-labels", labels, "-o", str(tmp_path / "out.prog")]) == EXIT_OK
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest
