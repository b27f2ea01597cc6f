"""Byte-stability pins: the text of compiled programs on fixed seeded
inputs must not change when the compilers are refactored."""

import hashlib

import pytest

from insitu import Alphabet
from insitu.benes import route_bijection, route_bijection_reversed
from insitu.blockseq import compile_general4_flexible
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
    ("mapping", 2, 5, "general5",
     "aaf68769374d174fe2197de768cbebd78a72ec556cb17869bc39e4443de1b034"),
    ("mapping", 2, 5, "general4-sorted",
     "658990a169d692e904204baca2ac648fc6a9b123820345c7aa69819dfe2c6a27"),
    ("mapping", 2, 5, "general4-flex",
     "9d5ab30a170614a8e8b8dfb7afacb1a1e715b80f182b11356e359e08893019db"),
    ("mapping", 3, 3, "general5",
     "5fa90cea95de8ccf7f245042cc18a52dc71d5bd812a173856eb1ea9b41f690ae"),
    ("mapping", 3, 3, "general4-sorted",
     "aa6db5e5d8f39d609270ba22399831bd9902bd4b96ff6e7643b84ae0f2aa260a"),
]


@pytest.mark.parametrize("kind,s,n,compiler,digest", PINS)
def test_compiled_text_is_pinned(kind, s, n, compiler, digest):
    draw = random_bijection if kind == "bijection" else random_mapping
    e = draw(Alphabet(s, n), SplitMix64(7))
    text = format_program(COMPILE[compiler](e))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
