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
divided out and the row eliminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Alphabet, Assignment, InSituError, InSituProgram, Mapping, assignment_table


class ZeroColumn(InSituError):
    """All residues of the column are zero mod s."""


class NotInvertible(InSituError):
    """Some factor has a non-unit diagonal entry, so no inverse exists."""


class DimensionMismatch(InSituError):
    """Factors must share one ring and one dimension."""


@dataclass(frozen=True)
class ModRing:
    """The ring Z/sZ with its prime factorization."""

    s: int
    prime_powers: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, s: int) -> "ModRing":
        if s < 2:
            raise ValueError(f"modulus must be at least 2, got {s}")
        powers = []
        rest = s
        p = 2
        while p * p <= rest:
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                powers.append((p, e))
            p += 1
        if rest > 1:
            powers.append((rest, 1))
        return cls(s, tuple(powers))

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
        reduced = tuple(tuple(v % ring.s for v in row) for row in rows)
        n = len(reduced)
        if any(len(row) != n for row in reduced):
            raise DimensionMismatch("matrix must be square")
        if n < 1:
            raise DimensionMismatch("matrix must be at least 1 x 1")
        return cls(ring, n, reduced)

    @classmethod
    def identity(cls, ring: ModRing, n: int) -> "MatrixMod":
        return cls.of(ring, ([1 if i == j else 0 for j in range(n)] for i in range(n)))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        s = self.ring.s
        return tuple(sum(c * x for c, x in zip(row, vector)) % s for row in self.entries)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Identity except for one row (1-based `row`)."""

    ring: ModRing
    row: int
    coefficients: tuple[int, ...]

    def as_matrix(self) -> MatrixMod:
        n = len(self.coefficients)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[self.row - 1] = list(self.coefficients)
        return MatrixMod.of(self.ring, rows)


def identity_row(ring: ModRing, row: int, n: int) -> AssignmentMatrix:
    return AssignmentMatrix(ring, row, tuple(1 if j == row - 1 else 0 for j in range(n)))


@dataclass(frozen=True)
class LinearProgram:
    """Assignment matrices in application order (first applied first)."""

    ring: ModRing
    n: int
    factors: tuple[AssignmentMatrix, ...]

    def __post_init__(self) -> None:
        for fac in self.factors:
            if fac.ring != self.ring or len(fac.coefficients) != self.n:
                raise DimensionMismatch("factor does not match the program's ring or size")
            if not 1 <= fac.row <= self.n:
                raise DimensionMismatch(f"row {fac.row} out of range")

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(fac.row for fac in self.factors)

    def matrix(self) -> MatrixMod:
        """The matrix the program computes (last applied factor leftmost)."""
        return product(reversed(self.factors), self.ring, self.n)


def product(factors: Iterable[AssignmentMatrix], ring: ModRing | None = None,
            n: int | None = None) -> MatrixMod:
    """Matrix product of assignment matrices, leftmost factor first.

    `ring` and `n` are only needed for an empty product.
    """
    factors = tuple(factors)
    if factors:
        ring = factors[0].ring
        n = len(factors[0].coefficients)
    elif ring is None or n is None:
        raise DimensionMismatch("empty product needs an explicit ring and size")
    s = ring.s
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for fac in reversed(factors):
        if fac.ring != ring or len(fac.coefficients) != n:
            raise DimensionMismatch("factors disagree on ring or size")
        k = fac.row - 1
        live = [(c, acc[j]) for j, c in enumerate(fac.coefficients) if c]
        acc[k] = [sum(c * row[l] for c, row in live) % s for l in range(n)]
    return MatrixMod(ring, n, tuple(tuple(row) for row in acc))


def unit_multipliers(xs: Sequence[int], i0: int, ring: ModRing) -> tuple[int, ...]:
    """Multipliers lambda with lambda_{i0} = 1 making sum(lambda_i x_i) a
    generator of the ideal of the x_i: gcd(sum mod s, s) = gcd(gcd(x_i), s).

    i0 is 1-based.  Tries single terms first (lambda = indicator of i0,
    then i0 plus one helper), falling back to a Chinese remainder
    construction with one helper index per prime dividing s.
    """
    s = ring.s
    reps = [x % s for x in xs]
    if not 1 <= i0 <= len(reps):
        raise ValueError(f"index {i0} out of range")
    if all(r == 0 for r in reps):
        raise ZeroColumn("all residues are zero")
    g = math.gcd(*reps)
    scaled = [r // g for r in reps]
    k = i0 - 1

    def ok(lam: Sequence[int]) -> bool:
        return math.gcd(sum(l * x for l, x in zip(lam, scaled)), s) == 1

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

    # one helper per prime p | s with p | scaled[k]; CRT the helper weights
    helpers: dict[int, list[int]] = {}
    for p, e in ring.prime_powers:
        if scaled[k] % p == 0:
            for j, v in enumerate(scaled):
                if v % p:
                    helpers.setdefault(j, []).append(p ** e)
                    break
            else:
                raise AssertionError("gcd of scaled column must be 1")
    for j, owned in helpers.items():
        residue, modulus = 0, 1
        for p, e in ring.prime_powers:
            pe = p ** e
            want = 1 if pe in owned else 0
            # incremental CRT: residue mod modulus, extend by (want mod pe)
            inv = pow(modulus % pe, -1, pe)
            t = (want - residue) * inv % pe
            residue += modulus * t
            modulus *= pe
        lam[j] = residue % s
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
            uphill.append(AssignmentMatrix(ring, k + 1, tuple(M[k])))
            if k < n - 1:
                downhill.append(identity_row(ring, k + 1, n))
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
                ring, k + 1,
                tuple(1 if j == k else -lam[j] % s for j in range(n))))
        else:
            new_row = list(M[k])
            if k < n - 1:
                downhill.append(identity_row(ring, k + 1, n))

        # divide column k by g; pick the representative of the diagonal whose
        # quotient is a unit (quotients of representatives differ by s/d)
        u = (new_row[k] // g) % s
        step = s // d
        for _ in range(d):
            if math.gcd(u, s) == 1:
                break
            u = (u + step) % s
        else:
            raise AssertionError("no unit representative of the divided diagonal")

        u_row = [v % s for v in new_row]
        u_row[k] = u
        r_row = list(u_row)
        r_row[k] = u * g % s
        uphill.append(AssignmentMatrix(ring, k + 1, tuple(r_row)))

        # residual: divide column k, then eliminate row k by column operations
        M[k] = list(u_row)
        for j in range(n):
            if j != k:
                M[j][k] = (M[j][k] // g) % s
        ainv = pow(u, -1, s)
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
    return LinearProgram(ring, n, tuple(uphill) + tuple(reversed(downhill)))


def invert_linear_program(p: LinearProgram) -> LinearProgram:
    """Program computing the inverse map: reverse the factors and invert
    each assignment row (x_k := a^-1 (x_k - rest)); every diagonal entry
    must be a unit."""
    s = p.ring.s
    out = []
    for fac in reversed(p.factors):
        k = fac.row - 1
        a = fac.coefficients[k]
        if math.gcd(a, s) != 1:
            raise NotInvertible(f"diagonal entry {a} of row {fac.row} is not a unit mod {s}")
        ainv = pow(a, -1, s)
        coeffs = tuple(ainv if j == k else -ainv * c % s
                       for j, c in enumerate(fac.coefficients))
        out.append(AssignmentMatrix(p.ring, fac.row, coeffs))
    return LinearProgram(p.ring, p.n, tuple(out))


def to_in_situ(p: LinearProgram) -> InSituProgram:
    """The same program as table assignments over Alphabet(s, n).

    Materializes s^n-entry tables, so this is for desk-scale programs;
    linear programs themselves execute on vectors at any scale.
    """
    a = Alphabet(p.ring.s, p.n)
    steps = tuple(
        Assignment(fac.row, coeffs=tuple(c % p.ring.s for c in fac.coefficients))
        for fac in p.factors)
    return InSituProgram(a, tuple(
        Assignment(st.target, table=assignment_table(st, a)) for st in steps))


def linear_mapping(m: MatrixMod) -> Mapping:
    """The index mapping x -> Mx over Alphabet(s, n); desk scale only.

    Component i of the image is the linear form of row i, so the images
    are the row tables weighted by their place values.
    """
    a = Alphabet(m.ring.s, m.n)
    images = [0] * a.size
    for row, pw in zip(m.entries, a.powers()):
        tab = assignment_table(Assignment(1, coeffs=row), a)
        images = [y + d * pw for y, d in zip(images, tab)]
    return Mapping(a, tuple(images))
