"""Factor square matrices over Z/sZ into assignment matrices.

An assignment matrix is the identity except for one row; as a linear map
it overwrites one vector component in place, so a factorization into
assignment matrices is exactly a linear in-situ program.  Every n x n
matrix over Z/sZ (s >= 2, not necessarily prime, determinant arbitrary)
factors into at most 2n - 1 assignment matrices with row signature
1, ..., n, ..., 1; the factorization is exact, not merely invertible-case.

Column k is cleared in two moves: an optional row replacement row_k :=
sum(lambda_j row_j) brings a value of the ideal class gcd(column) * unit
onto the diagonal (`unit_multipliers` builds lambda with lambda_k = 1, so
the move is an assignment matrix and is invertible), then the column is
divided out and the row eliminated.  Every step needs only gcds and
inverses mod s; s is never factored, so any modulus works.

Linear input is checked where it enters: `ModRing.of`, `MatrixMod.of`
and `LinearProgram(...)`, whose coefficients must be integers in [0, s).
What this module derives from checked input is built unchecked.  A
malformed argument (a matrix that is not square, a factor of the wrong
size or row, a column of zeros for `unit_multipliers`) raises
`ValueError`; `NotInvertible` is the one verdict, on a non-unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Alphabet,
    Assignment,
    InSituError,
    InSituProgram,
    Mapping,
    _check_ints,
    _check_values,
    _linear_images,
    _unchecked,
)
from .minsim import routing_of


class NotInvertible(InSituError):
    """Some factor has a non-unit diagonal entry, so no inverse exists."""


@dataclass(frozen=True)
class ModRing:
    """The ring Z/sZ and its one unit test and inverse, by gcds (s is never factored)."""

    s: int

    @classmethod
    def of(cls, s: int) -> "ModRing":
        _check_ints((s,), "modulus")
        if s < 2:
            raise ValueError(f"modulus must be at least 2, got {s}")
        return cls(s)

    def is_unit(self, x: int) -> bool:
        return math.gcd(x, self.s) == 1

    def inverse(self, x: int) -> int:
        if not self.is_unit(x):
            raise NotInvertible(f"{x} is not a unit mod {self.s}")
        return pow(x, -1, self.s)


@dataclass(frozen=True)
class MatrixMod:
    """Square matrix over Z/sZ, entries stored as canonical residues."""

    ring: ModRing
    n: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, ring: ModRing, rows: Iterable[Iterable[int]]) -> "MatrixMod":
        rows = tuple(map(tuple, rows))
        for row in rows:
            _check_ints(row, "matrix entry")
        reduced = tuple(tuple(v % ring.s for v in row) for row in rows)
        n = len(reduced)
        if any(len(row) != n for row in reduced):
            raise ValueError("matrix must be square")
        if n < 1:
            raise ValueError("matrix must be at least 1 x 1")
        return cls(ring, n, reduced)

    @classmethod
    def identity(cls, ring: ModRing, n: int) -> "MatrixMod":
        return cls.of(ring, ([1 if i == j else 0 for j in range(n)] for i in range(n)))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        s = self.ring.s
        return tuple(sum(c * x for c, x in zip(row, vector)) % s for row in self.entries)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Identity except for one row (1-based `row`); the ring is its program's."""

    row: int
    coefficients: tuple[int, ...]

    def as_matrix(self, ring: ModRing) -> MatrixMod:
        n = len(self.coefficients)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[self.row - 1] = list(self.coefficients)
        return MatrixMod.of(ring, rows)


def identity_row(row: int, n: int) -> AssignmentMatrix:
    return AssignmentMatrix(row, tuple(1 if j == row - 1 else 0 for j in range(n)))


@dataclass(frozen=True)
class LinearProgram:
    """Assignment matrices over `ring` in application order (first applied first)."""

    ring: ModRing
    n: int
    factors: tuple[AssignmentMatrix, ...]

    def __post_init__(self) -> None:
        _check_ints((self.n,), "size")
        if self.n < 1:
            raise ValueError(f"size must be at least 1, got {self.n}")
        _check_ints([fac.row for fac in self.factors], "row")
        for pos, fac in enumerate(self.factors):
            if len(fac.coefficients) != self.n:
                raise ValueError("factor does not match the program's size")
            if not 1 <= fac.row <= self.n:
                raise ValueError(f"row {fac.row} out of range")
            _check_values(fac.coefficients, self.ring.s, pos, "coefficient")

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(fac.row for fac in self.factors)

    def matrix(self) -> MatrixMod:
        """The matrix the program computes (last applied factor leftmost)."""
        return product(reversed(self.factors), self.ring, self.n)


def product(factors: Iterable[AssignmentMatrix], ring: ModRing, n: int) -> MatrixMod:
    """Product over `ring` of n x n assignment matrices, leftmost factor first.

    A factor whose size is not n, whose row is not an integer in [1, n],
    or whose coefficients are not integers raises `ValueError`."""
    s = ring.s
    factors = tuple(factors)
    _check_ints([fac.row for fac in factors], "row")
    _check_ints([c for fac in factors for c in fac.coefficients], "coefficient")
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for fac in reversed(factors):
        if len(fac.coefficients) != n:
            raise ValueError("factor does not match the product's size")
        if not 1 <= fac.row <= n:
            raise ValueError(f"row {fac.row} out of range")
        k = fac.row - 1
        live = [(c, acc[j]) for j, c in enumerate(fac.coefficients) if c]
        acc[k] = [sum(c * row[l] for c, row in live) % s for l in range(n)]
    return MatrixMod(ring, n, tuple(tuple(row) for row in acc))


def _coprime_part(m: int, x: int) -> int:
    """The largest divisor of m coprime to x (1 when x is 0)."""
    while (g := math.gcd(m, x)) > 1:
        m //= g
    return m


def unit_multipliers(xs: Sequence[int], i0: int, ring: ModRing) -> tuple[int, ...]:
    """Multipliers lambda with lambda_{i0} = 1 making sum(lambda_i x_i) a
    generator of the ideal of the x_i: gcd(sum mod s, s) = gcd(gcd(x_i), s).

    i0 is 1-based.  Tries single terms first (lambda = indicator of i0,
    then i0 plus one helper).  Otherwise, with the column divided by its
    gcd, each other index j in turn owns the part of s made of the primes
    that divide x_{i0} and every earlier index but not x_j, and lambda_j
    is the idempotent that is 1 modulo that part and 0 modulo the rest of
    s.  Each prime of s dividing x_{i0} is owned exactly once, so the sum
    is a unit modulo every prime of s.  The parts come from gcds alone.
    """
    s = ring.s
    reps = [x % s for x in xs]
    if not 1 <= i0 <= len(reps):
        raise ValueError(f"index {i0} out of range")
    if all(r == 0 for r in reps):
        raise ValueError("all residues are zero")
    g = math.gcd(*reps)
    scaled = [r // g for r in reps]
    k = i0 - 1

    def ok(lam: Sequence[int]) -> bool:
        return ring.is_unit(sum(l * x for l, x in zip(lam, scaled)))

    lam = [0] * len(reps)
    lam[k] = 1
    if ok(lam):
        return tuple(lam)
    for j in range(len(reps)):
        if j != k:
            lam[j] = 1
            if ok(lam):
                return tuple(lam)
            lam[j] = 0

    common = scaled[k]  # gcd of x_{i0} and the indices walked so far
    for j in range(len(reps)):
        if j != k:
            owned = _coprime_part(s // _coprime_part(s, common), scaled[j])
            rest = s // owned
            lam[j] = rest * pow(rest, -1, owned) % s
            common = math.gcd(common, scaled[j])
    if not ok(lam):
        raise AssertionError("multiplier construction failed")
    return tuple(lam)


def decompose(m: MatrixMod) -> LinearProgram:
    """Factor m into at most 2n - 1 assignment matrices.

    The program applies rows 1, ..., n, n-1, ..., 1 in that order (the
    uphill factors clear the columns; the downhill factors undo the row
    replacements).  Identity factors are kept so the signature is exact.
    The matrix identity is m = L_1 ... L_{n-1} R_n ... R_1 read in matrix
    order, i.e. product(reversed(factors)) == m.
    """
    ring = m.ring
    s = ring.s
    n = m.n
    M = [list(row) for row in m.entries]
    uphill: list[AssignmentMatrix] = []
    downhill: list[AssignmentMatrix] = []

    for k in range(n):
        column = [M[j][k] for j in range(n)]
        if all(v == 0 for v in column[k:]):
            # nothing to divide out: consume row k as-is (diagonal entry is
            # zero, so this factor is never invertible), reset row to identity
            uphill.append(AssignmentMatrix(k + 1, tuple(M[k])))
            if k < n - 1:
                downhill.append(identity_row(k + 1, n))
            M[k] = [1 if j == k else 0 for j in range(n)]
            continue

        g = math.gcd(*column[k:])
        d = math.gcd(g, s)
        if math.gcd(M[k][k], s) != d:
            # replace row k by a combination putting gcd * unit on the diagonal
            if k == n - 1:
                raise AssertionError("a single residue always generates its own ideal")
            lam = unit_multipliers(column, k + 1, ring)
            new_row = [sum(lam[l] * M[l][j] for l in range(n)) for j in range(n)]
            downhill.append(AssignmentMatrix(
                k + 1, tuple(1 if j == k else -lam[j] % s for j in range(n))))
        else:
            new_row = list(M[k])
            if k < n - 1:
                downhill.append(identity_row(k + 1, n))

        # divide column k by g; pick the representative of the diagonal whose
        # quotient is a unit (quotients of representatives differ by s/d)
        u = (new_row[k] // g) % s
        step = s // d
        for _ in range(d):
            if ring.is_unit(u):
                break
            u = (u + step) % s
        else:
            raise AssertionError("no unit representative of the divided diagonal")

        u_row = [v % s for v in new_row]
        u_row[k] = u
        r_row = list(u_row)
        r_row[k] = u * g % s
        uphill.append(AssignmentMatrix(k + 1, tuple(r_row)))

        # residual: divide column k, then eliminate row k by column operations
        M[k] = list(u_row)
        for j in range(n):
            if j != k:
                M[j][k] = (M[j][k] // g) % s
        ainv = ring.inverse(u)
        for row in M:
            ck = row[k]
            if ck:
                f = ainv * ck % s
                for l in range(n):
                    if l != k and u_row[l]:
                        row[l] = (row[l] - f * u_row[l]) % s
                row[k] = f

    for i in range(n):
        for j in range(n):
            if M[i][j] != (1 if i == j else 0):
                raise AssertionError("residual did not reduce to the identity")
    return _unchecked(LinearProgram, ring, n, tuple(uphill) + tuple(reversed(downhill)))


def invert_linear_program(p: LinearProgram) -> LinearProgram:
    """Program computing the inverse map: reverse the factors and invert
    each assignment row (x_k := a^-1 (x_k - rest)); every diagonal entry
    must be a unit."""
    ring = p.ring
    s = ring.s
    out = []
    for fac in reversed(p.factors):
        k = fac.row - 1
        a = fac.coefficients[k]
        if not ring.is_unit(a):
            raise NotInvertible(f"diagonal entry {a} of row {fac.row} is not a unit mod {s}")
        ainv = ring.inverse(a)
        coeffs = tuple(ainv if j == k else -ainv * c % s
                       for j, c in enumerate(fac.coefficients))
        out.append(AssignmentMatrix(fac.row, coeffs))
    return _unchecked(LinearProgram, ring, p.n, tuple(out))


def coefficient_program(p: LinearProgram) -> InSituProgram:
    """The same program as coefficient assignments over Alphabet(s, n);
    it runs on vectors at any scale, and `minsim.verify` traces it."""
    return _unchecked(InSituProgram, Alphabet(p.ring.s, p.n), tuple(
        Assignment(fac.row, coeffs=fac.coefficients) for fac in p.factors))


def to_in_situ(p: LinearProgram) -> InSituProgram:
    """The same program as table assignments: `minsim.routing_of` of its
    coefficient program.  Materializes s^n-entry tables, so this is for
    desk-scale programs."""
    return routing_of(coefficient_program(p))


def linear_mapping(m: MatrixMod) -> Mapping:
    """The index mapping x -> Mx over Alphabet(s, n): component i of each
    image is the linear form of row i, made on digit planes or row tables."""
    a = Alphabet(m.ring.s, m.n)
    return _unchecked(Mapping, a, tuple(_linear_images(m.entries, a)))
