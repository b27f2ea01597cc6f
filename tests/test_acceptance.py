"""End-to-end acceptance run: eight numbered criteria, one test each.

Every test prints a single `criterion N: PASS/FAIL (...)` line, so a
`pytest -v -s tests/test_acceptance.py` run reads as a checklist.  Criteria
1-3 push every compiled program through the stage-network check and record
the tallies; criterion 8 asserts those tallies and runs the same check over
the matrix programs of criterion 4 for every ring/width slice whose index
space is small enough to trace exhaustively (at most 4096 points).

Timed criteria compare wall-clock time against fixed budgets, so a pass
here is a statement about this machine as well as about the code.
"""

import itertools
import math
import time

import numpy as np

from insitu import (
    Alphabet,
    Assignment,
    InSituProgram,
    Mapping,
    component_permutation,
    execute,
    execute_all,
    permutation_length_bound,
    vector_of,
)
from insitu import minsim
from insitu.benes import route_bijection
from insitu.blockseq import (
    compile_general4_flexible,
    compose_forward_program,
    is_suffix_compatible,
    make_block_sequence,
    permute_block_tree,
    tree_choice_count,
)
from insitu.core import invert_program
from insitu.factor import (
    collapse_mapping,
    compile_general4_sorted,
    compile_general5,
    forward_program,
)
from insitu.linmod import (
    AssignmentMatrix,
    LinearProgram,
    MatrixMod,
    ModRing,
    coefficient_program,
    decompose,
    invert_linear_program,
    linear_mapping,
    to_in_situ,
)
from insitu.oracle import min_length_bfs
from insitu.rng import SplitMix64, random_bijection, random_mapping, random_matrix

# criterion number -> [programs checked, failures]; criteria 1-3 fill their
# buckets inline, criterion 8 audits them and adds bucket 4 itself
_network_tally = {}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _check_network(num, program, e, want_disjoint=None):
    """Trace the program through its stage network and verify semantics;
    a program is its own routing, with table and coefficient steps alike.

    Returns None when the routing performs e and, for bijections, is
    vertex-disjoint, and otherwise what failed; criteria 1-3 trace each
    program here and nowhere else.  Tallied per criterion for the
    criterion 8 audit.
    """
    if want_disjoint is None:
        want_disjoint = e.is_bijective()
    rep = minsim.verify(program, e)
    if not rep.performs:
        fail = "wrong mapping"
    elif want_disjoint and not rep.vertex_disjoint:
        fail = "routing not vertex disjoint"
    else:
        fail = None
    tally = _network_tally.setdefault(num, [0, 0])
    tally[0] += 1
    if fail:
        tally[1] += 1
    return fail


def _up_down(n):
    return tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))


def _det_mod(rows, s):
    """Determinant mod s by fraction-free integer elimination.

    Independent of the package's unit search, on purpose: the tests that
    rely on invertibility should not trust the code under test to decide
    what is invertible.
    """
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        for r in range(col + 1, n):
            # integer Euclidean reduction keeps everything exact
            while m[r][col]:
                q = m[col][col] // m[r][col]
                for c in range(col, n):
                    m[col][c] -= q * m[r][c]
                m[col], m[r] = m[r], m[col]
                det = -det
        det *= m[col][col]
    return det % s


# ---------------------------------------------------------------- criterion 1

def _bijection_cases():
    a22 = Alphabet(2, 2)
    for perm in itertools.permutations(range(4)):
        yield Mapping(a22, perm)
    for alphabet, seed in ((Alphabet(2, 3), 1001), (Alphabet(3, 2), 1002)):
        rng = SplitMix64(seed)
        for _ in range(1000):
            yield random_bijection(alphabet, rng)


def test_criterion_1_bijective_routing():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for e in _bijection_cases():
        n = e.alphabet.n
        p = route_bijection(e)
        checked += 1
        if p.signature != _up_down(n):
            failures.append(f"{e.images}: signature {p.signature}")
        elif len(p) > 2 * n - 1:
            failures.append(f"{e.images}: length {len(p)}")
        elif fail := _check_network(1, p, e, want_disjoint=True):
            failures.append(f"{e.images}: {fail}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(1, ok, f"{checked} bijections routed in {elapsed:.1f}s, "
                   f"{len(failures)} failures")
    assert not failures, failures[:5]
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 2

def _mapping_cases():
    """(mapping, compiler, length bound) for every general-compiler case."""
    compilers = (
        (compile_general5, lambda n: 5 * n - 4),
        (compile_general4_sorted, lambda n: 4 * n - 3),
        (compile_general4_flexible, lambda n: 4 * n - 3),
    )
    a22 = Alphabet(2, 2)
    for images in itertools.product(range(4), repeat=4):
        e = Mapping(a22, images)
        for fn, bound in compilers:
            yield e, fn, bound(2)
    a23 = Alphabet(2, 3)
    rng = SplitMix64(2001)
    for _ in range(10_000):
        e = random_mapping(a23, rng)
        for fn, bound in compilers:
            yield e, fn, bound(3)


def test_criterion_2_general_compilers():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for e, fn, bound in _mapping_cases():
        p = fn(e)
        checked += 1
        if len(p) > bound:
            failures.append(f"{fn.__name__}{e.images}: length {len(p)} > {bound}")
        elif fail := _check_network(2, p, e):
            failures.append(f"{fn.__name__}{e.images}: {fail}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(2, ok, f"{checked} compilations (768 exhaustive at n=2, "
                   f"3x10000 at n=3) in {elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures[:5]
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 3

def _flexible_cases():
    a23 = Alphabet(2, 3)
    rng = SplitMix64(3001)
    all_choices = tuple(itertools.product((False, True),
                                          repeat=tree_choice_count(3)))
    for _ in range(100):
        e = random_mapping(a23, rng)
        for choices in all_choices:
            yield e, choices


def test_criterion_3_flexible_choices():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for e, choices in _flexible_cases():
        p = compile_general4_flexible(e, tree_choices=choices)
        checked += 1
        if len(p) > 9:
            failures.append(f"{e.images} {choices}: length {len(p)}")
        elif fail := _check_network(3, p, e):
            failures.append(f"{e.images} {choices}: {fail}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(3, ok, f"100 mappings x 128 tree choices = {checked} compilations "
                   f"in {elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures[:5]


# ---------------------------------------------------------------- criterion 4

_MATRIX_RINGS = (2, 3, 4, 12, 16, 101)
_MATRIX_WIDTHS = range(1, 9)
_MATRICES_PER_SLICE = 1000


def test_criterion_4_matrix_decomposition():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for s in _MATRIX_RINGS:
        for n in _MATRIX_WIDTHS:
            rng = SplitMix64(s * 1000 + n)
            for _ in range(_MATRICES_PER_SLICE):
                m = random_matrix(s, n, rng)
                p = decompose(m)
                checked += 1
                if len(p.factors) > 2 * n - 1:
                    failures.append(f"s={s} n={n} {m.entries}: {len(p.factors)} factors")
                elif p.signature != _up_down(n):
                    failures.append(f"s={s} n={n} {m.entries}: signature {p.signature}")
                elif p.matrix().entries != m.entries:
                    failures.append(f"s={s} n={n} {m.entries}: wrong product")

    # pinned worked example over Z/12, decomposition and the printed program
    ring12 = ModRing.of(12)
    m12 = MatrixMod.of(ring12, ((4, 5), (6, 4)))
    p12 = decompose(m12)
    if len(p12.factors) != 3 or p12.matrix().entries != m12.entries:
        failures.append("Z/12 example did not decompose into 3 verified factors")
    printed = LinearProgram(ring12, 2, (
        AssignmentMatrix(1, (10, 9)),   # x1 := 10*x1 + 9*x2
        AssignmentMatrix(2, (3, 1)),    # x2 := 3*x1 + x2
        AssignmentMatrix(1, (1, 11)),   # x1 := x1 - x2
    ))
    if execute_all(to_in_situ(printed)).images != linear_mapping(m12).images:
        failures.append("printed Z/12 program does not execute as the matrix")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(4, ok, f"{checked} matrices over {len(_MATRIX_RINGS)} rings x "
                   f"8 widths in {elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures[:5]
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 5

def _apply_linear_np(factors, batch, s):
    # batch has one column per vector; factors apply first to last
    for fac in factors:
        row = np.asarray(fac.coefficients, dtype=np.int64)
        batch[fac.row - 1] = row @ batch % s
    return batch


def _coeff_program(p):
    """The same linear program as coefficient assignments, no tables."""
    a = Alphabet(p.ring.s, p.n)
    return InSituProgram(a, tuple(
        Assignment(fac.row, coeffs=fac.coefficients) for fac in p.factors))


def test_criterion_5_inversion():
    t0 = time.perf_counter()
    failures = []
    rng = SplitMix64(5001)
    vec_rng = np.random.default_rng(5002)
    matrices = 0
    for n in itertools.cycle(range(1, 7)):
        if matrices >= 1002:
            break
        m = random_matrix(101, n, rng)
        if math.gcd(_det_mod(m.entries, 101), 101) != 1:
            continue  # keep only invertible inputs, decided independently
        matrices += 1
        p = decompose(m)
        q = invert_linear_program(p)
        start = vec_rng.integers(0, 101, size=(n, 1000), dtype=np.int64)
        batch = _apply_linear_np(p.factors, start.copy(), 101)
        if matrices <= 6:
            # spot check the batch path against single-vector execution
            v0 = tuple(int(x) for x in start[:, 0])
            mid = execute(_coeff_program(p), v0)
            if mid != tuple(int(x) for x in batch[:, 0]):
                failures.append(f"n={n} {m.entries}: batch and vector paths differ")
            if execute(_coeff_program(q), mid) != v0:
                failures.append(f"n={n} {m.entries}: single-vector round trip failed")
        back = _apply_linear_np(q.factors, batch, 101)
        if not np.array_equal(back, start):
            failures.append(f"n={n} {m.entries}: round trip failed")

    # (alphabet, inputs, seed) of the Benes programs to invert
    cases = [(Alphabet(2, 1), 2, 5001), (Alphabet(2, 2), 24, 5002), (Alphabet(2, 3), 1000, 5003),
             (Alphabet(3, 3), 50, 5133), (Alphabet(4, 3), 20, 5143), (Alphabet(5, 2), 50, 5152)]
    for alphabet, count, seed in cases:
        rng = SplitMix64(seed)
        for _ in range(count):
            e = random_bijection(alphabet, rng)
            r = invert_program(route_bijection(e))
            inverse = [0] * alphabet.size
            for x, y in enumerate(e.images):
                inverse[y] = x
            if execute_all(r).images != tuple(inverse):
                failures.append(f"{alphabet} {e.images}: table program inverse wrong")

    elapsed = time.perf_counter() - t0
    ok = not failures
    inverted = ", ".join(f"{count} at {a.s}^{a.n}" for a, count, _ in cases)
    _report(5, ok, f"{matrices} invertible matrices round-tripped on 1000 "
                   f"vectors each, table program inverses {inverted}, "
                   f"{elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures[:5]


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_lower_bound():
    t0 = time.perf_counter()
    a = Alphabet(2, 2)
    swap = component_permutation((2, 1), a)
    shortest = min_length_bfs(swap, max_len=3)
    assert shortest == 3 == permutation_length_bound((2, 1))

    violations = []
    for perm in itertools.permutations((1, 2)):
        e = component_permutation(perm, a)
        bound = permutation_length_bound(perm)
        found = min_length_bfs(e, max_len=4)
        if found is None or found < bound:
            violations.append(f"{perm}: bfs {found} below bound {bound}")
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120.0
    _report(6, ok, f"swap needs exactly 3 assignments, every 2-component "
                   f"permutation meets its bound, {elapsed:.1f}s")
    assert not violations, violations
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_pinned_examples():
    mismatches = []
    a3 = Alphabet(2, 3)

    # ascending sweep over a run-length mapping, all three partial states
    e10 = collapse_mapping((2, 1, 3, 2), a3)
    p10 = forward_program(e10)
    if p10.signature != (1, 2, 3):
        mismatches.append("sweep signature")
    states = tuple(
        execute_all(InSituProgram(a3, p10.assignments[:k])).images
        for k in (1, 2, 3))
    if states != ((0, 0, 3, 2, 4, 4, 7, 7),
                  (0, 0, 1, 2, 6, 6, 7, 7),
                  (0, 0, 1, 2, 2, 2, 3, 3)):
        mismatches.append(f"sweep states {states}")

    # sixteen-entry block sequence and its root swap
    b, origins = make_block_sequence((4, 1, 1, 1, 1, 1, 1, 3, 3, 0, 0, 0, 0, 0, 0, 0))
    if b.values != (4, 0, 0, 0, 1, 1, 1, 1, 1, 1, 3, 3, 0, 0, 0, 0):
        mismatches.append(f"block sequence {b.values}")
    swapped = permute_block_tree(b, (True,) + (False,) * (tree_choice_count(4) - 1))
    if swapped.values != (1, 1, 3, 3, 0, 0, 0, 0, 4, 0, 0, 0, 1, 1, 1, 1):
        mismatches.append(f"root swap {swapped.values}")
    if sorted(origins) != list(range(16)):
        mismatches.append("origins not a permutation")

    # suffix compatibility, one verdict each way with the witness pair
    shuffled = collapse_mapping((2, 1, 3, 2), a3)
    ordered = collapse_mapping((1, 3, 2, 2), a3)
    if is_suffix_compatible(shuffled):
        mismatches.append("shuffled collapse wrongly accepted")
    if not is_suffix_compatible(ordered):
        mismatches.append("ordered collapse wrongly rejected")
    if ordered.images != (0, 1, 1, 1, 2, 2, 3, 3):
        mismatches.append(f"ordered collapse images {ordered.images}")
    # indices 2 and 3 share the order-2 suffix but their images do not
    if (2 >> 1, 3 >> 1) != (1, 1) or shuffled.images[2] >> 1 == shuffled.images[3] >> 1:
        mismatches.append("witness pair is not a counterexample")

    # composing a three-table bijection head onto the ordered collapse
    head = InSituProgram(a3, (
        Assignment(1, table=(0, 1, 1, 0, 0, 1, 0, 1)),
        Assignment(2, table=(0, 0, 1, 1, 1, 0, 0, 1)),
        Assignment(3, table=(0, 1, 1, 0, 1, 0, 0, 1)),
    ))
    if execute_all(head).images != (0, 5, 3, 6, 2, 1, 4, 7):
        mismatches.append("head tables drifted")
    composed = compose_forward_program(ordered, head)
    states = tuple(
        execute_all(InSituProgram(a3, composed.assignments[:k])).images
        for k in (1, 2, 3))
    if states != ((0, 1, 3, 3, 5, 5, 6, 6),
                  (0, 1, 1, 1, 7, 7, 6, 6),
                  (0, 5, 5, 5, 3, 3, 6, 6)):
        mismatches.append(f"composition states {states}")
    if states[-1] != tuple((0, 5, 3, 6, 2, 1, 4, 7)[y] for y in ordered.images):
        mismatches.append("composition is not head after collapse")

    # six assignments of degree 2 computing the pairwise products
    # (x2*x3, x1*x3, x1*x2), one more step than the bijective bound allows
    rules = (
        (1, lambda x1, x2, x3: x2 + x2 * x3 + x1),
        (2, lambda x1, x2, x3: x3 + x1 + x2),
        (3, lambda x1, x2, x3: x3 + x2 + x1 * x2),
        (1, lambda x1, x2, x3: x3 + x2 * x3 + x1 * x3),
        (2, lambda x1, x2, x3: x3 + x2 * x3 + x1 * x3),
        (3, lambda x1, x2, x3: x3 + x2 * x3 + x1 * x3),
    )
    p6 = InSituProgram(a3, tuple(
        Assignment(k, table=tuple(f(*vector_of(v, a3)) % 2 for v in range(8)))
        for k, f in rules))
    if p6.signature != (1, 2, 3, 1, 2, 3):
        mismatches.append(f"product program signature {p6.signature}")
    want = tuple(
        x2 * x3 + 2 * x1 * x3 + 4 * x1 * x2
        for v in range(8)
        for x1, x2, x3 in (vector_of(v, a3),))
    if want != (0, 0, 0, 4, 0, 2, 1, 7) or execute_all(p6).images != want:
        mismatches.append(f"product program computes {execute_all(p6).images}")

    # Z/12 decomposition, exact factors
    p12 = decompose(MatrixMod.of(ModRing.of(12), ((4, 5), (6, 4))))
    factors = tuple((f.row, f.coefficients) for f in p12.factors)
    if factors != ((1, (10, 9)), (2, (3, 1)), (1, (1, 11))):
        mismatches.append(f"Z/12 factors {factors}")

    ok = not mismatches
    _report(7, ok, "worked examples reproduce byte-exactly"
            if ok else f"{len(mismatches)} mismatches")
    assert not mismatches, mismatches


# ---------------------------------------------------------------- criterion 8

_EXPECTED_TALLIES = {1: 2024, 2: 30768, 3: 12800}


def test_criterion_8_network_semantics():
    t0 = time.perf_counter()
    failures = []

    # criteria 1-3 check their programs inline; redo any missing bucket so
    # this test also stands alone
    if 1 not in _network_tally:
        for e in _bijection_cases():
            _check_network(1, route_bijection(e), e, want_disjoint=True)
    if 2 not in _network_tally:
        for e, fn, _ in _mapping_cases():
            _check_network(2, fn(e), e)
    if 3 not in _network_tally:
        for e, choices in _flexible_cases():
            _check_network(3, compile_general4_flexible(e, tree_choices=choices), e)

    # criterion 4 programs, every slice whose index space fits in 4096, as
    # `compile` emits them; each slice's first takes the table form, so the
    # table conversion is traced at every size
    for s in _MATRIX_RINGS:
        for n in _MATRIX_WIDTHS:
            if s ** n > 4096:
                continue
            rng = SplitMix64(s * 1000 + n)
            for k in range(_MATRICES_PER_SLICE):
                m = random_matrix(s, n, rng)
                program = (coefficient_program if k else to_in_situ)(decompose(m))
                e = linear_mapping(m)
                bijective = math.gcd(_det_mod(m.entries, s), s) == 1
                if fail := _check_network(4, program, e, want_disjoint=bijective):
                    failures.append(f"s={s} n={n} {m.entries}: {fail}")

    slices = sum(1 for s in _MATRIX_RINGS for n in _MATRIX_WIDTHS if s ** n <= 4096)
    expected = dict(_EXPECTED_TALLIES)
    expected[4] = slices * _MATRICES_PER_SLICE
    total = 0
    for num, want in sorted(expected.items()):
        got, failed = _network_tally.get(num, (0, 0))
        total += got
        if got != want:
            failures.append(f"criterion {num} checked {got} programs, expected {want}")
        if failed:
            failures.append(f"criterion {num} had {failed} network failures")

    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(8, ok, f"{total} programs traced through their stage networks "
                   f"in {elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures[:5]
