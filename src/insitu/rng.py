"""Seeded pseudo-random generation for suites and the command line.

Uses SplitMix64 (Steele, Lea, Vigna), a tiny fixed-point generator, so a
seed produces the same mappings, bijections, and matrices on every
platform and Python version.  A bounded draw reduces one 64-bit output
modulo the bound when the bound is at most 2^64 (the slight bias is
irrelevant here, reproducibility is not).  A larger bound, such as a
modulus of 10^38, takes enough outputs to cover it plus 64 more bits, so
every residue can come up and the bias stays below 2^-64.

Random tables are dense, so the generators refuse index spaces of more
than `DRAW_CAP` points instead of trying to allocate them, and
`random_matrix` refuses matrices of more than `DRAW_CAP` entries the
same way.
"""

from __future__ import annotations

from .core import Alphabet, InSituError, Mapping, _unchecked
from .linmod import MatrixMod, ModRing

_MASK = (1 << 64) - 1
# most points of a random mapping or bijection, entries of a random matrix,
# and indices over which the command line traces a linear program
DRAW_CAP = 1 << 20


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound <= 1 << 64:
            return self.next_u64() % bound
        x = 0
        for _ in range((bound.bit_length() + 127) // 64):
            x = x << 64 | self.next_u64()
        return x % bound


def _drawable_size(alphabet: Alphabet) -> int:
    size = alphabet.size
    if size > DRAW_CAP:
        raise InSituError(f"index space {alphabet.s}^{alphabet.n} has {size} points, "
                          f"over the cap of {DRAW_CAP} for random tables")
    return size


def random_mapping(alphabet: Alphabet, rng: SplitMix64) -> Mapping:
    size = _drawable_size(alphabet)
    return _unchecked(Mapping, alphabet, tuple(rng.below(size) for _ in range(size)))


def random_bijection(alphabet: Alphabet, rng: SplitMix64) -> Mapping:
    # Fisher-Yates with draws in a fixed order, so output is seed-determined
    size = _drawable_size(alphabet)
    images = list(range(size))
    for i in range(size - 1, 0, -1):
        j = rng.below(i + 1)
        images[i], images[j] = images[j], images[i]
    return _unchecked(Mapping, alphabet, tuple(images))


def random_matrix(s: int, n: int, rng: SplitMix64) -> MatrixMod:
    """An n x n matrix mod s, drawn row by row."""
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    if n * n > DRAW_CAP:
        raise InSituError(f"a {n}x{n} matrix has {n * n} entries, "
                          f"over the cap of {DRAW_CAP} for random draws")
    # draws lie in [0, s), so the matrix skips the entry check of `MatrixMod.of`
    return MatrixMod(ModRing.of(s), n, tuple(tuple(rng.below(s) for _ in range(n))
                                             for _ in range(n)))
