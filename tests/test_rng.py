import pytest

from insitu import Alphabet, InSituError
from insitu.cli import EXIT_OK, main
from insitu.rng import DRAW_CAP, SplitMix64, random_bijection, random_mapping, random_matrix


def test_known_stream():
    # reference values of the standard SplitMix64 stream from seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_seed_masking_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42 + (1 << 64))
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_below():
    rng = SplitMix64(1)
    for bound in (1, 2, 7, 1000):
        for _ in range(50):
            assert 0 <= rng.below(bound) < bound
    try:
        rng.below(0)
    except ValueError:
        pass
    else:
        raise AssertionError("bound 0 must be rejected")


def test_random_mapping_and_bijection():
    a = Alphabet(2, 3)
    m = random_mapping(a, SplitMix64(9))
    assert m == random_mapping(a, SplitMix64(9))
    e = random_bijection(a, SplitMix64(9))
    assert e.is_bijective()
    assert e == random_bijection(a, SplitMix64(9))
    assert random_bijection(a, SplitMix64(10)) != e


def test_below_is_one_draw_up_to_two_to_the_64():
    # seeded outputs at bounds up to 2^64 stay what one reduced draw gives
    for bound in (1, 7, 1 << 63, (1 << 64) - 1, 1 << 64):
        rng, raw = SplitMix64(3), SplitMix64(3)
        assert [rng.below(bound) for _ in range(20)] == [raw.next_u64() % bound
                                                         for _ in range(20)]


def test_below_covers_bounds_past_two_to_the_64():
    # one 64-bit draw reduced mod 10^38 never reaches 2^64
    rng = SplitMix64(1)
    bound = 10 ** 38
    draws = [rng.below(bound) for _ in range(200)]
    assert all(0 <= x < bound for x in draws)
    assert sum(x >= 1 << 64 for x in draws) > 190
    # the top third of [0, 3 * 2^64) comes up about a third of the time
    top = sum(rng.below(3 << 64) >= 2 << 64 for _ in range(3000))
    assert 850 < top < 1150


def test_random_matrix_entries_past_two_to_the_64(capsys):
    assert main(["random", "matrix", "--s", str(10 ** 38), "--n", "2", "--seed", "1"]) == EXIT_OK
    entries = [int(tok) for tok in capsys.readouterr().out.split()[2:]]
    assert len(entries) == 4
    assert all(0 <= x < 10 ** 38 for x in entries)
    assert max(entries) >= 1 << 64


def test_draws_refuse_index_spaces_over_the_cap():
    assert DRAW_CAP == 1 << 20
    for draw in (random_mapping, random_bijection):
        with pytest.raises(InSituError):
            draw(Alphabet(2, 21), SplitMix64(0))
        with pytest.raises(InSituError):
            draw(Alphabet(3, 40), SplitMix64(0))
    assert len(random_mapping(Alphabet(2, 10), SplitMix64(0)).images) == 1024


def test_random_matrix_draws_row_by_row():
    m = random_matrix(6, 3, SplitMix64(4))
    raw = SplitMix64(4)
    assert m.ring.s == 6 and m.n == 3
    assert m.entries == tuple(tuple(raw.below(6) for _ in range(3)) for _ in range(3))
    # the dimension is checked first, then the cap, then the modulus
    with pytest.raises(ValueError, match="dimension must be at least 1, got 0"):
        random_matrix(1, 0, SplitMix64(0))
    with pytest.raises(InSituError, match="1050625 entries, over the cap"):
        random_matrix(1, 1025, SplitMix64(0))
    with pytest.raises(ValueError, match="modulus must be at least 2, got 1"):
        random_matrix(1, 1024, SplitMix64(0))
