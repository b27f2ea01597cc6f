import math

import pytest

from insitu import Alphabet, execute, execute_all, vector_of
from insitu.linmod import (
    AssignmentMatrix,
    LinearProgram,
    MatrixMod,
    ModRing,
    NotInvertible,
    coefficient_program,
    decompose,
    identity_row,
    invert_linear_program,
    linear_mapping,
    product,
    to_in_situ,
    unit_multipliers,
)
from insitu.rng import SplitMix64, random_matrix


def up_down(n):
    return tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))


def naive_product(mats, ring, n):
    # dense multiply, no assignment-matrix shortcuts
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for m in mats:
        acc = [[sum(acc_row[t] * m.entries[t][j] for t in range(n)) % ring.s
                for j in range(n)] for acc_row in acc]
    return MatrixMod(ring, n, tuple(tuple(row) for row in acc))


def determinant(m):
    # Leibniz-free: fraction-free elimination over the integers, then reduce
    n = m.n
    rows = [[int(v) for v in row] for row in m.entries]
    det = 1
    for k in range(n):
        pivot = next((j for j in range(k, n) if rows[j][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        for j in range(k + 1, n):
            while rows[j][k]:
                q = rows[k][k] // rows[j][k]
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                rows[k], rows[j] = rows[j], rows[k]
                det = -det
        det *= rows[k][k]
    return det % m.ring.s


def test_mod_ring():
    r = ModRing.of(12)
    assert r.is_unit(5) and not r.is_unit(8)
    assert r.inverse(5) == 5
    with pytest.raises(NotInvertible):
        r.inverse(6)
    with pytest.raises(ValueError):
        ModRing.of(1)


def test_matrix_mod():
    r = ModRing.of(5)
    m = MatrixMod.of(r, [[7, -1], [0, 2]])
    assert m.entries == ((2, 4), (0, 2))
    assert m.apply((1, 1)) == (1, 2)
    assert MatrixMod.identity(r, 3).apply((4, 2, 3)) == (4, 2, 3)
    with pytest.raises(ValueError, match="^matrix must be square$"):
        MatrixMod.of(r, [[1, 2], [3]])
    with pytest.raises(ValueError, match=r"^matrix must be at least 1 x 1$"):
        MatrixMod.of(r, [])


def test_assignment_matrix():
    r = ModRing.of(7)
    f = AssignmentMatrix(2, (3, 4, 1))
    m = f.as_matrix(r)
    assert m.entries == ((1, 0, 0), (3, 4, 1), (0, 0, 1))
    assert identity_row(1, 2).as_matrix(r).entries == ((1, 0), (0, 1))


def test_product_order():
    # leftmost factor is applied last, matching matrix notation
    r = ModRing.of(10)
    f1 = AssignmentMatrix(1, (2, 0))
    f2 = AssignmentMatrix(2, (1, 1))
    left = product([f1, f2], r, 2)
    assert left.entries == naive_product([f1.as_matrix(r), f2.as_matrix(r)], r, 2).entries
    right = product([f2, f1], r, 2)
    assert right.entries == naive_product([f2.as_matrix(r), f1.as_matrix(r)], r, 2).entries
    assert left.entries != right.entries


def test_product_empty():
    r = ModRing.of(3)
    assert product([], r, 2).entries == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="^factor does not match the product's size$"):
        product([AssignmentMatrix(1, (1, 0, 0))], r, 2)
    # a coefficient that is not an integer is refused, as LinearProgram does
    with pytest.raises(ValueError, match=r"^coefficient 0\.5 is not an integer$"):
        product([AssignmentMatrix(1, (0.5, 0))], ModRing.of(5), 2)


@pytest.mark.parametrize("row,message", [
    (0, "row 0 out of range"),  # would index acc[-1] and rewrite the last row
    (3, "row 3 out of range"),
    (1.0, "row 1.0 is not an integer"),
], ids=["zero", "past-n", "float"])
def test_product_refuses_rows_out_of_range(row, message):
    # the factors of a product are not checked by LinearProgram, so product
    # checks each row itself, as LinearProgram does
    with pytest.raises(ValueError) as exc:
        product([AssignmentMatrix(1, (1, 0)), AssignmentMatrix(row, (2, 3))], ModRing.of(5), 2)
    assert str(exc.value) == message


def test_product_random_against_naive():
    rng = SplitMix64(5)
    for s in (2, 6, 12):
        r = ModRing.of(s)
        for n in (1, 2, 3, 4):
            facs = [AssignmentMatrix(rng.below(n) + 1, tuple(rng.below(s) for _ in range(n)))
                    for _ in range(6)]
            want = naive_product([f.as_matrix(r) for f in facs], r, n)
            assert product(facs, r, n).entries == want.entries


def test_unit_multipliers_single_term():
    r = ModRing.of(12)
    assert unit_multipliers((4, 6), 1, r) == (1, 1)
    assert unit_multipliers((5, 0), 1, r) == (1, 0)


def test_unit_multipliers_crt_fallback():
    # no single helper works: 2 alone shares a factor with 6 and 2+1 = 3
    # does too, so the helper weight must be 1 mod 2 and 0 mod 3
    r = ModRing.of(6)
    lam = unit_multipliers((2, 1), 1, r)
    assert lam[0] == 1
    assert lam == (1, 3)


def reference_unit_multipliers(xs, i0, s):
    """The factoring construction: trial-divide s, then give each prime
    power p^e with p | x_{i0} to the first index whose entry p does not
    divide, and build each helper's weight (1 modulo its prime powers, 0
    modulo the others) by the Chinese remainder theorem.  Returns the
    multipliers and whether the construction was needed."""
    prime_powers = []
    rest = s
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            prime_powers.append((p, e))
        p += 1
    if rest > 1:
        prime_powers.append((rest, 1))

    reps = [x % s for x in xs]
    g = math.gcd(*reps)
    scaled = [r // g for r in reps]
    k = i0 - 1

    def ok(lam):
        return math.gcd(sum(l * x for l, x in zip(lam, scaled)), s) == 1

    lam = [0] * len(reps)
    lam[k] = 1
    if ok(lam):
        return tuple(lam), False
    for j in range(len(reps)):
        if j != k:
            lam[j] = 1
            if ok(lam):
                return tuple(lam), False
            lam[j] = 0
    helpers = {}
    for p, e in prime_powers:
        if scaled[k] % p == 0:
            j = next(j for j, v in enumerate(scaled) if v % p)
            helpers.setdefault(j, []).append(p ** e)
    for j, owned in helpers.items():
        residue, modulus = 0, 1
        for p, e in prime_powers:
            pe = p ** e
            want = 1 if pe in owned else 0
            t = (want - residue) * pow(modulus % pe, -1, pe) % pe
            residue += modulus * t
            modulus *= pe
        lam[j] = residue % s
    return tuple(lam), True


@pytest.mark.parametrize("s", [6, 12, 30, 60, 210, 2310, 30030, 720720])
def test_unit_multipliers_match_factoring_reference(s):
    # moduli with at least two distinct primes, where the single-term and
    # one-helper tries often fail and the idempotent construction runs
    r = ModRing.of(s)
    rng = SplitMix64(s)
    constructed = 0
    for _ in range(400):
        n = rng.below(4) + 2
        xs = [rng.below(s) if rng.below(3) else 0 for _ in range(n)]
        if all(x == 0 for x in xs):
            continue
        i0 = rng.below(n) + 1
        want, needed = reference_unit_multipliers(xs, i0, s)
        assert unit_multipliers(xs, i0, r) == want, (xs, i0)
        constructed += needed
    assert constructed > 0


def test_unit_multipliers_postcondition_random():
    rng = SplitMix64(6)
    for s in (2, 6, 12, 30, 101):
        r = ModRing.of(s)
        for _ in range(200):
            n = rng.below(4) + 1
            xs = [rng.below(s) for _ in range(n)]
            if all(x == 0 for x in xs):
                continue
            i0 = rng.below(n) + 1
            lam = unit_multipliers(xs, i0, r)
            assert lam[i0 - 1] == 1
            g = math.gcd(*xs)
            combo = sum(l * x for l, x in zip(lam, xs))
            assert math.gcd(combo % s, s) == math.gcd(g, s)


def test_unit_multipliers_zero_column():
    r = ModRing.of(4)
    with pytest.raises(ValueError, match="^all residues are zero$"):
        unit_multipliers((0, 4, 8), 1, r)
    with pytest.raises(ValueError):
        unit_multipliers((1, 2), 3, r)


def test_decompose_worked_example():
    # [[4, 5], [6, 4]] mod 12: row 1 must first absorb row 2 to put a
    # generator of (4, 6) = (2) on the diagonal
    r = ModRing.of(12)
    m = MatrixMod.of(r, [[4, 5], [6, 4]])
    p = decompose(m)
    got = [(f.row, f.coefficients) for f in p.factors]
    assert got == [(1, (10, 9)), (2, (3, 1)), (1, (1, 11))]
    assert p.signature == (1, 2, 1)
    assert p.matrix().entries == m.entries


def test_decompose_zero_column():
    r = ModRing.of(2)
    m = MatrixMod.of(r, [[0, 1], [0, 0]])
    p = decompose(m)
    assert [(f.row, f.coefficients) for f in p.factors] == [
        (1, (0, 1)), (2, (0, 0)), (1, (1, 0))]
    assert p.matrix().entries == m.entries
    zero = MatrixMod.of(r, [[0, 0], [0, 0]])
    assert decompose(zero).matrix().entries == zero.entries


def test_decompose_identity_and_one_by_one():
    r = ModRing.of(10)
    ident = MatrixMod.identity(r, 3)
    p = decompose(ident)
    assert len(p) == 5
    assert p.signature == up_down(3)
    assert p.matrix().entries == ident.entries
    single = MatrixMod.of(r, [[7]])
    q = decompose(single)
    assert q.signature == (1,)
    assert q.matrix().entries == ((7,),)


def test_decompose_pivot_needs_unit_lift():
    # column (8, 4) mod 12: gcd 4, and 8/4 = 2 is not a unit; the divided
    # diagonal must step by s/gcd(g,s) until it hits one
    r = ModRing.of(12)
    m = MatrixMod.of(r, [[8, 1], [4, 1]])
    p = decompose(m)
    assert len(p) <= 3
    assert p.matrix().entries == m.entries


@pytest.mark.parametrize("s", [2, 3, 4, 6, 12, 16, 101])
def test_decompose_random(s):
    r = ModRing.of(s)
    rng = SplitMix64(1000 + s)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = random_matrix(s, n, rng)
            p = decompose(m)
            assert len(p) <= 2 * n - 1
            assert p.signature == up_down(n)
            assert p.matrix().entries == m.entries
            want = naive_product([f.as_matrix(r) for f in reversed(p.factors)], r, n)
            assert want.entries == m.entries


def test_invert_round_trip():
    r = ModRing.of(101)
    rng = SplitMix64(77)
    done = 0
    while done < 30:
        m = random_matrix(r.s, 4, rng)
        if determinant(m) == 0:
            continue
        done += 1
        p = decompose(m)
        q = invert_linear_program(p)
        assert q.signature == tuple(reversed(p.signature))
        prod = naive_product([f.as_matrix(r) for f in reversed(q.factors)]
                             + [f.as_matrix(r) for f in reversed(p.factors)], r, 4)
        assert prod.entries == MatrixMod.identity(r, 4).entries


def test_invert_rejects_non_units():
    r = ModRing.of(12)
    p = decompose(MatrixMod.of(r, [[4, 5], [6, 4]]))
    with pytest.raises(NotInvertible):
        invert_linear_program(p)


def test_invertibility_matches_determinant():
    # the decomposition is exact for every matrix, and its inverse exists
    # exactly when the determinant is a unit
    rng = SplitMix64(88)
    for s in (4, 6, 12):
        r = ModRing.of(s)
        for _ in range(60):
            m = random_matrix(s, 3, rng)
            p = decompose(m)
            invertible = math.gcd(determinant(m), s) == 1
            if invertible:
                q = invert_linear_program(p)
                prod = naive_product(
                    [f.as_matrix(r) for f in reversed(q.factors)]
                    + [f.as_matrix(r) for f in reversed(p.factors)], r, 3)
                assert prod.entries == MatrixMod.identity(r, 3).entries
            else:
                with pytest.raises(NotInvertible):
                    invert_linear_program(p)


def test_to_in_situ_matches_matrix():
    rng = SplitMix64(99)
    for _ in range(20):
        m = random_matrix(3, 2, rng)
        p = decompose(m)
        prog = to_in_situ(p)
        assert prog.signature == p.signature
        assert execute_all(prog).images == linear_mapping(m).images


def test_linear_program_validation():
    r = ModRing.of(5)
    with pytest.raises(ValueError, match="^row 3 out of range$"):
        LinearProgram(r, 2, (AssignmentMatrix(3, (1, 0)),))
    with pytest.raises(ValueError, match="^factor does not match the program's size$"):
        LinearProgram(r, 2, (AssignmentMatrix(1, (1, 0, 0)),))


def test_linear_program_checks_coefficients():
    # a hand-built program's coefficients are checked where it is built:
    # integers in [0, s), as the coefficients of an InSituProgram
    r = ModRing.of(5)
    with pytest.raises(ValueError) as exc:
        LinearProgram(r, 2, (AssignmentMatrix(1, (0.5, 1)),))
    assert str(exc.value) == "assignment 0: coefficient 0.5 is not an integer"
    with pytest.raises(ValueError) as exc:
        LinearProgram(r, 2, (AssignmentMatrix(2, (0, 1)), AssignmentMatrix(1, (7, 1))))
    assert str(exc.value) == "assignment 1: coefficient 7 out of range [0, 5)"


@pytest.mark.parametrize("build,message", [
    (lambda: ModRing.of(2.5), "modulus 2.5 is not an integer"),
    (lambda: ModRing.of("5"), "modulus '5' is not an integer"),
    (lambda: MatrixMod.of(ModRing.of(5), [[0.5, 1], [0, 1]]), "matrix entry 0.5 is not an integer"),
    (lambda: MatrixMod.of(ModRing.of(5), [["1", 1], [0, 1]]), "matrix entry '1' is not an integer"),
    (lambda: LinearProgram(ModRing.of(5), 2, (AssignmentMatrix(1.0, (1, 2)),)),
     "row 1.0 is not an integer"),
    (lambda: LinearProgram(ModRing.of(5), 2, (AssignmentMatrix(2, (0, 1)), AssignmentMatrix("1", (1, 2)))),
     "row '1' is not an integer"),
    # a size that compares equal to the rows' length is still refused
    (lambda: LinearProgram(ModRing.of(5), 2.0, (AssignmentMatrix(1, (1, 2)),)),
     "size 2.0 is not an integer"),
    (lambda: LinearProgram(ModRing.of(5), "2", ()), "size '2' is not an integer"),
    (lambda: LinearProgram(ModRing.of(5), 0, ()), "size must be at least 1, got 0"),
], ids=["modulus-float", "modulus-str", "entry-float", "entry-str", "row-float", "row-str",
        "size-float", "size-str", "size-zero"])
def test_linear_input_types_are_checked_at_entry(build, message):
    # refused before any % runs on the value, so no TypeError escapes
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_large_modulus_executes_on_vectors():
    # programs over Z/101^8 never materialize tables
    rng = SplitMix64(123)
    m = random_matrix(101, 8, rng)
    p = decompose(m)
    prog = coefficient_program(p)
    back = coefficient_program(invert_linear_program(p))
    assert prog.alphabet == back.alphabet == Alphabet(101, 8)
    for _ in range(20):
        x = tuple(rng.below(101) for _ in range(8))
        assert execute(prog, x) == m.apply(x)
        assert execute(back, execute(prog, x)) == x


@pytest.mark.parametrize("s,n", [(12, 3), (16, 3), (2, 12), (4, 6)])
def test_linear_mapping_matches_matrix_action(s, n):
    # independent reference: MatrixMod.apply on the digit vector of every index
    m = random_matrix(s, n, SplitMix64(s * 100 + n))
    a = Alphabet(s, n)
    images = linear_mapping(m).images
    powers = a.powers()
    for x in range(a.size):
        assert images[x] == sum(d * pw for d, pw in zip(m.apply(vector_of(x, a)), powers))
