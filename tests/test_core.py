import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from insitu import (
    Alphabet,
    Assignment,
    assignment_table,
    InSituProgram,
    Mapping,
    NotBijective,
    NotBoolean,
    SignatureNotGroupable,
    component_permutation,
    concat,
    execute,
    execute_all,
    invert_program,
    merge_adjacent,
    permutation_length_bound,
    regroup,
    vector_of,
)
from insitu import core, linmod
from insitu.benes import route_bijection, route_bijection_reversed
from insitu.blockseq import compile_general4_flexible
from insitu.factor import (
    backward_restricted_program,
    collapse_mapping,
    compile_general4_sorted,
    compile_general5,
    factor_by_classes,
    forward_program,
)
from insitu.formats import (
    format_linear_program,
    format_mapping,
    format_program,
    parse_mapping,
    parse_program,
)
from insitu.linmod import (
    LinearProgram,
    MatrixMod,
    ModRing,
    coefficient_program,
    decompose,
    invert_linear_program,
    linear_mapping,
)
from insitu.minsim import routing_of
from insitu.oracle import exhaustive_suite, method_signature
from insitu.rng import SplitMix64, random_bijection, random_mapping


def index_of(vector, alphabet):
    # the index of a vector, component 1 the least significant digit
    return sum(d * pw for d, pw in zip(vector, alphabet.powers()))


def cycle_program(k, alphabet):
    """Left-rotate the first k components in k+1 linear assignments.

    Computes (x_1, ..., x_k) -> (x_2, ..., x_k, x_1), other components
    untouched, using the additive group of Z/sZ.  For k = 2 this is the
    classic in-place swap x_1 := x_1 + x_2; x_2 := x_1 - x_2; x_1 := x_1 - x_2.
    """
    n, s = alphabet.n, alphabet.s
    total = tuple(1 if j < k else 0 for j in range(n))
    fold = tuple(1 if j == 0 else (s - 1 if j < k else 0) for j in range(n))
    steps = [Assignment(1, coeffs=total)]
    steps += [Assignment(target, coeffs=fold) for target in range(k, 1, -1)]
    steps.append(Assignment(1, coeffs=fold))
    return InSituProgram(alphabet, tuple(steps))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(1, 3)
    with pytest.raises(ValueError):
        Alphabet(2, 0)
    with pytest.raises(OverflowError):
        Alphabet(2, 65)
    assert Alphabet(2, 64).size == 1 << 64
    assert Alphabet(3, 4).powers() == (1, 3, 9, 27)
    # the size and arity are integers, refused before s ** n is built
    for s, n, bad in ((2.0, 3, 2.0), (2, 3.0, 3.0), (Fraction(3), 2, Fraction(3)),
                      ("2", 3, "2"), (2, None, None)):
        with pytest.raises(ValueError) as err:
            Alphabet(s, n)
        assert str(err.value) == f"alphabet size or arity {bad!r} is not an integer"
    # a bool is an int, as ModRing.of takes it
    assert Alphabet(2, True).size == 2


def test_index_examples():
    # component 1 is the least significant digit
    assert index_of((1, 0, 1), Alphabet(2, 3)) == 5
    assert vector_of(5, Alphabet(2, 3)) == (1, 0, 1)
    assert vector_of(0, Alphabet(3, 2)) == (0, 0)
    assert vector_of(7, Alphabet(3, 2)) == (1, 2)
    with pytest.raises(ValueError):
        vector_of(9, Alphabet(3, 2))
    # execute reads a vector's digits, so it checks their count and range
    empty = InSituProgram(Alphabet(2, 2), ())
    with pytest.raises(ValueError, match=r"^component 2 out of range \[0, 2\)$"):
        execute(empty, (2, 0))
    with pytest.raises(ValueError, match=r"^component -1 out of range \[0, 2\)$"):
        execute(empty, (1, -1))
    with pytest.raises(ValueError, match=r"^expected 2 components, got 3$"):
        execute(empty, (0, 1, 0))
    # and their type, before a digit enters a sum or indexes a table
    for step in (Assignment(1, coeffs=(1, 1)), Assignment(1, table=(0, 1, 1, 0))):
        with pytest.raises(ValueError, match=r"^component 1\.0 is not an integer$"):
            execute(InSituProgram(Alphabet(2, 2), (step,)), (1.0, 0))


@given(st.integers(2, 7), st.integers(1, 5), st.data())
def test_index_roundtrip(s, n, data):
    a = Alphabet(s, n)
    x = data.draw(st.integers(0, a.size - 1))
    assert index_of(vector_of(x, a), a) == x


def test_empty_program_is_identity():
    a = Alphabet(3, 2)
    p = InSituProgram(a, ())
    assert execute(p, (2, 1)) == (2, 1)
    assert execute_all(p).images == tuple(range(9))


def test_swap_program():
    # the classic three-step in-place swap, over Z/10
    a = Alphabet(10, 2)
    p = cycle_program(2, a)
    assert p.signature == (1, 2, 1)
    assert execute(p, (3, 7)) == (7, 3)
    assert execute_all(p).is_bijective()


def test_cycle_program_rotates():
    a = Alphabet(10, 3)
    p = cycle_program(3, a)
    assert len(p) == 4
    assert p.signature == (1, 3, 2, 1)
    assert execute(p, (1, 2, 3)) == (2, 3, 1)


@pytest.mark.parametrize("s,n,k", [(2, 3, 3), (3, 3, 2), (5, 4, 3), (2, 5, 5)])
def test_cycle_program_exhaustive(s, n, k):
    a = Alphabet(s, n)
    p = cycle_program(k, a)
    assert len(p) == k + 1
    want = component_permutation(tuple(range(2, k + 1)) + (1,) + tuple(range(k + 1, n + 1)), a)
    assert execute_all(p).images == want.images


def test_component_permutation_takes_an_iterator():
    # the sources are read once, so an iterator gives what a tuple gives
    for s, n in [(2, 2), (3, 3)]:
        a = Alphabet(s, n)
        for perm in itertools.permutations(range(1, n + 1)):
            assert component_permutation(iter(perm), a) == component_permutation(perm, a)
    assert component_permutation(iter([2, 1]), Alphabet(2, 2)).images == (0, 2, 1, 3)
    for sources in ((1, 1), (1,), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="^sources must be a permutation of 1..n$"):
            component_permutation(sources, Alphabet(2, 2))


def test_permutation_length_bound():
    assert permutation_length_bound((1, 2, 3, 4, 5)) == 0
    assert permutation_length_bound((2, 1)) == 3
    assert permutation_length_bound((2, 3, 1)) == 4
    # two transpositions: n=4, f=0, c=2
    assert permutation_length_bound((2, 1, 4, 3)) == 6
    # cycle of length k with n-k fixed points costs k+1, matching cycle_program
    for n in range(2, 7):
        for k in range(2, n + 1):
            perm = tuple(range(2, k + 1)) + (1,) + tuple(range(k + 1, n + 1))
            assert permutation_length_bound(perm) == k + 1
    with pytest.raises(ValueError):
        permutation_length_bound((1, 1, 3))


def test_execute_matches_execute_all():
    a = Alphabet(3, 3)
    rng = SplitMix64(11)
    e = random_bijection(a, rng)
    p = route_bijection(e)
    m = execute_all(p)
    for x in range(a.size):
        assert index_of(execute(p, vector_of(x, a)), a) == m.images[x]


def test_linear_payload_executes_without_tables():
    # arity/modulus too big to materialize tables
    a = Alphabet(101, 8)
    row = tuple([1] * 8)
    p = InSituProgram(a, (Assignment(1, coeffs=row),))
    assert execute(p, (1, 2, 3, 4, 5, 6, 7, 100)) == ((1 + 2 + 3 + 4 + 5 + 6 + 7 + 100) % 101, 2, 3, 4, 5, 6, 7, 100)


def test_program_validation():
    a = Alphabet(2, 2)
    with pytest.raises(ValueError):
        InSituProgram(a, (Assignment(3, table=(0, 0, 0, 0)),))
    with pytest.raises(ValueError):
        InSituProgram(a, (Assignment(1, table=(0, 0, 0)),))
    with pytest.raises(ValueError):
        InSituProgram(a, (Assignment(1, table=(0, 0, 0, 2)),))
    with pytest.raises(ValueError):
        InSituProgram(a, (Assignment(1),))
    with pytest.raises(ValueError):
        InSituProgram(a, (Assignment(1, table=(0,) * 4, coeffs=(0, 0)),))
    with pytest.raises(ValueError, match="^assignment 0: coefficient row needs 2 entries$"):
        InSituProgram(a, (Assignment(1, coeffs=(1, 0, 0)),))
    # a target that compares equal to a component is still refused, before
    # any comparison, so no float reaches the trace or the writer
    ok = Assignment(2, table=(0, 1, 1, 0))
    for bad in (1.0, Fraction(1), Decimal(1), "1", None):
        with pytest.raises(ValueError) as err:
            InSituProgram(a, (ok, Assignment(bad, table=(1, 0, 1, 0))))
        assert str(err.value) == f"target {bad!r} is not an integer"
    with pytest.raises(ValueError, match=r"^target 2\.0 is not an integer$"):
        InSituProgram(a, (Assignment(2.0, coeffs=(1, 1)),))
    # a bool is an int
    assert InSituProgram(a, (Assignment(True, table=(1, 0, 1, 0)),)).signature == (1,)


def test_program_rejects_non_integer_table_values():
    with pytest.raises(ValueError, match=r"^assignment 0: table value 1\.0 is not an integer$"):
        InSituProgram(Alphabet(2, 1), (Assignment(1, table=(1.0, 0.5)),))
    a = Alphabet(2, 2)
    ok = Assignment(2, table=(0, 1, 1, 0))
    # each value is in range and compares equal to an int
    for bad in (1.0, Fraction(1), Decimal(1), "1"):
        with pytest.raises(ValueError) as err:
            InSituProgram(a, (ok, Assignment(1, table=(1, 0, bad, 1))))
        assert str(err.value) == f"assignment 1: table value {bad!r} is not an integer"


def test_program_rejects_non_integer_coefficients():
    with pytest.raises(ValueError, match=r"^assignment 0: coefficient 0\.5 is not an integer$"):
        InSituProgram(Alphabet(2, 1), (Assignment(1, coeffs=(0.5,)),))
    with pytest.raises(ValueError, match=r"^assignment 0: coefficient 1\.0 is not an integer$"):
        InSituProgram(Alphabet(3, 2), (Assignment(2, coeffs=(2, 1.0)),))


def test_mapping_rejects_non_integer_images():
    with pytest.raises(ValueError, match=r"^image 0\.5 is not an integer$"):
        Mapping(Alphabet(2, 2), (0.5, 1, 2, 3))
    a = Alphabet(2, 2)
    # each image but None is in range and compares equal to an int
    for bad in (1.0, Fraction(1), Decimal(1), "1", None):
        with pytest.raises(ValueError) as err:
            Mapping(a, (0, bad, 2, 3))
        assert str(err.value) == f"image {bad!r} is not an integer"
    with pytest.raises(ValueError, match=r"^image 4 out of range \[0, 4\)$"):
        Mapping(a, (0, 1, 2, 4))
    with pytest.raises(ValueError, match=r"^mapping needs 4 images, got 3$"):
        Mapping(a, (0, 1, 2))


def test_range_errors_name_the_first_offender():
    # one range check serves tables, coefficient rows and images; however
    # it tests the values, the message names the first offender in order
    a = Alphabet(2, 2)
    cases = [
        (lambda: InSituProgram(a, (Assignment(1, table=(0, 3, -1, 1)),)),
         "assignment 0: table value 3 out of range [0, 2)"),
        (lambda: InSituProgram(a, (Assignment(1, table=(0, -1, 3, 1)),)),
         "assignment 0: table value -1 out of range [0, 2)"),
        (lambda: InSituProgram(Alphabet(2, 3), (Assignment(2, coeffs=(0, 3, -1)),)),
         "assignment 0: coefficient 3 out of range [0, 2)"),
        (lambda: InSituProgram(Alphabet(5, 3), (Assignment(2, coeffs=(0, -1, 7)),)),
         "assignment 0: coefficient -1 out of range [0, 5)"),
        (lambda: Mapping(a, (0, 9, -1, 1)), "image 9 out of range [0, 4)"),
        (lambda: Mapping(Alphabet(2, 3), (0, 9, -1, 1, 2, 3, 4, 5)),
         "image 9 out of range [0, 8)"),
        (lambda: Mapping(a, (0, -1, 9, 1)), "image -1 out of range [0, 4)"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_tables_are_checked_only_where_programs_enter(monkeypatch):
    # programs the package computes from checked mappings, programs and
    # matrices skip the table and coefficient check; parsed and hand-built
    # programs do not
    rng = SplitMix64(9)
    boolean, ternary = Alphabet(2, 4), Alphabet(3, 3)
    bij = random_bijection(boolean, rng)
    bij3 = random_bijection(ternary, rng)
    maps = [random_mapping(boolean, rng), random_mapping(ternary, rng)]
    routed = route_bijection(bij)
    fac = factor_by_classes(maps[1])
    twice = concat(routed, routed)
    linear = cycle_program(3, ternary)
    text = format_program(routed)
    lin = decompose(MatrixMod.of(ModRing.of(7), [[3, 1, 0], [2, 5, 1], [0, 4, 6]]))
    lin_text = format_linear_program(lin)

    checked = []
    real = core._check_values
    # linmod calls the same function under its own imported name
    for module in (core, linmod):
        monkeypatch.setattr(module, "_check_values",
                            lambda *args: checked.append(args) or real(*args))

    def checks(build, *args):
        checked.clear()
        build(*args)
        return len(checked)

    for e in (bij, bij3):
        assert checks(route_bijection, e) == 0
        assert checks(route_bijection_reversed, e) == 0
    for e in maps:
        assert checks(compile_general5, e) == 0
        assert checks(compile_general4_sorted, e) == 0
    assert checks(compile_general4_flexible, maps[0]) == 0
    assert checks(forward_program, fac.collapse) == 0
    assert checks(backward_restricted_program, fac.post, 0, len(fac.slots) - 1) == 0
    assert checks(concat, routed, routed) == 0
    assert checks(merge_adjacent, twice) == 0
    assert checks(regroup, routed, 2) == 0
    assert checks(invert_program, routed) == 0
    assert checks(routing_of, linear) == 0
    assert checks(decompose, MatrixMod.of(ModRing.of(12), [[4, 5], [6, 4]])) == 0
    assert checks(invert_linear_program, lin) == 0
    assert checks(coefficient_program, lin) == 0
    assert checks(lambda: exhaustive_suite(Alphabet(3, 2), "linear", sample=10, seed=7)) == 0
    assert checks(parse_program, text) == len(routed)
    assert checks(InSituProgram, boolean, routed.assignments) == len(routed)
    assert checks(parse_program, lin_text) == len(lin) == 5
    assert checks(LinearProgram, lin.ring, lin.n, lin.factors) == len(lin)


def test_mappings_are_checked_only_where_they_enter(monkeypatch):
    # mappings the package computes from checked mappings, programs and
    # matrices skip the image check; parsed and hand-built mappings do not
    rng = SplitMix64(9)
    boolean, ternary = Alphabet(2, 4), Alphabet(3, 3)
    bij = random_bijection(boolean, rng)
    bij3 = random_bijection(ternary, rng)
    maps = [random_mapping(boolean, rng), random_mapping(ternary, rng)]
    routed = route_bijection(bij)
    matrix = MatrixMod.of(ModRing.of(3), [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    text = format_mapping(maps[0])

    checked = []
    real = Mapping.__post_init__
    monkeypatch.setattr(Mapping, "__post_init__", lambda self: checked.append(self) or real(self))

    def checks(build, *args):
        checked.clear()
        build(*args)
        return len(checked)

    for e in (bij, bij3):
        assert checks(route_bijection, e) == 0
        assert checks(route_bijection_reversed, e) == 0
    for e in maps:
        assert checks(compile_general5, e) == 0
        assert checks(compile_general4_sorted, e) == 0
        assert checks(factor_by_classes, e) == 0
    assert checks(compile_general4_flexible, maps[0]) == 0
    assert checks(collapse_mapping, (3, 0, 5, 1, 0, 7), boolean) == 0
    assert checks(component_permutation, (3, 1, 2), ternary) == 0
    assert checks(execute_all, routed) == 0
    assert checks(linear_mapping, matrix) == 0
    assert checks(random_mapping, ternary, SplitMix64(1)) == 0
    assert checks(random_bijection, ternary, SplitMix64(1)) == 0
    for method, a in (("general5", Alphabet(2, 3)), ("linear", Alphabet(3, 2))):
        assert checks(lambda: exhaustive_suite(a, method, sample=10, seed=7)) == 0
    # whole universes: every bijection of 2^2, every mapping of 2^1
    assert checks(exhaustive_suite, Alphabet(2, 2), "benes") == 0
    assert checks(exhaustive_suite, Alphabet(2, 1), "general4-sorted") == 0
    assert checks(Mapping.identity, ternary) == 0
    assert checks(bij.compose, bij) == 0
    assert checks(bij.inverse) == 0
    assert checks(parse_mapping, text) == 1
    assert checks(Mapping, boolean, maps[0].images) == 1


def test_merge_adjacent_preserves_behavior():
    a = Alphabet(2, 2)
    rng = SplitMix64(3)
    for _ in range(50):
        steps = []
        for _ in range(6):
            target = rng.below(2) + 1
            steps.append(Assignment(target, table=tuple(rng.below(2) for _ in range(4))))
        p = InSituProgram(a, tuple(steps))
        q = merge_adjacent(p)
        assert execute_all(q).images == execute_all(p).images
        sig = q.signature
        assert all(x != y for x, y in zip(sig, sig[1:]))


def test_merge_adjacent_linear_stays_linear():
    a = Alphabet(5, 2)
    p = InSituProgram(a, (
        Assignment(1, coeffs=(2, 3)),
        Assignment(1, coeffs=(4, 1)),
    ))
    q = merge_adjacent(p)
    assert len(q) == 1
    assert q.assignments[0].coeffs is not None
    assert execute_all(q).images == execute_all(p).images


def test_reverse_boolean_bijection():
    # over s = 2 the inverse is the program run backwards
    a = Alphabet(2, 3)
    rng = SplitMix64(17)
    for _ in range(20):
        e = random_bijection(a, rng)
        p = route_bijection(e)
        r = invert_program(p)
        assert execute_all(r).images == e.inverse().images
        assert r.assignments == tuple(reversed(p.assignments))
    # the ternary swap x_1 := x_1 + x_2; x_2 := x_1 - x_2; x_1 := x_1 - x_2
    swap = cycle_program(2, Alphabet(3, 2))
    assert execute_all(invert_program(swap)).images == execute_all(swap).inverse().images
    const = InSituProgram(a, (Assignment(1, table=(0,) * 8),))
    with pytest.raises(NotBijective):
        invert_program(const)
    with pytest.raises(NotBijective):
        execute_all(const).inverse()


def _check_inverse(p, e):
    q = invert_program(p)
    assert execute_all(q).images == e.inverse().images
    assert q.signature == p.signature[::-1]
    if p.alphabet.s == 2:
        assert q.assignments == tuple(reversed(p.assignments))
    return q


def test_invert_program_whole_universes():
    # every bijection of each universe, routed through the Benes network,
    # and a seeded sample of the 9! bijections of 3^2
    for s, n in [(2, 2), (3, 1), (4, 1), (5, 1), (7, 1), (2, 3)]:
        a = Alphabet(s, n)
        benes = method_signature("benes", n)
        for images in itertools.permutations(range(a.size)):
            e = Mapping(a, images)
            assert _check_inverse(route_bijection(e), e).signature == benes
    a = Alphabet(3, 2)
    rng = SplitMix64(12)
    for _ in range(300):
        e = random_bijection(a, rng)
        _check_inverse(route_bijection(e), e)


def test_invert_program_at_every_s():
    for s, n in [(3, 3), (4, 3), (5, 2), (7, 3)]:
        a = Alphabet(s, n)
        rng = SplitMix64(s * 10 + n)
        for _ in range(5):
            for route in (route_bijection, route_bijection_reversed):
                e = random_bijection(a, rng)
                p = route(e)
                q = _check_inverse(p, e)
                if route is route_bijection:
                    assert q.signature == method_signature("benes", n)
                assert invert_program(q) == p


def test_reverse_decides_bijectivity_step_by_step():
    # every program of one or two table steps over 2^2: inversion is refused
    # exactly when the whole program merges two inputs
    a = Alphabet(2, 2)
    steps = [Assignment(t, table=tuple(b >> v & 1 for v in range(4)))
             for t in (1, 2) for b in range(16)]
    for program in [(x,) for x in steps] + [(x, y) for x in steps for y in steps]:
        p = InSituProgram(a, program)
        if execute_all(p).is_bijective():
            assert execute_all(invert_program(p)).images == execute_all(p).inverse().images
        else:
            with pytest.raises(NotBijective):
                invert_program(p)


def test_boolean_bijective_steps_are_xor_shaped():
    # in a boolean program computing a bijection, every step is
    # x_i := x_i + h(others): flipping bit i flips the table value
    a = Alphabet(2, 3)
    rng = SplitMix64(23)
    for _ in range(30):
        p = route_bijection(random_bijection(a, rng))
        for asg in p.assignments:
            bit = 1 << (asg.target - 1)
            for x in range(a.size):
                assert asg.table[x ^ bit] == 1 - asg.table[x]


def test_regroup_benes_pairs():
    a = Alphabet(2, 4)
    rng = SplitMix64(31)
    for _ in range(20):
        e = random_bijection(a, rng)
        p = route_bijection(e)
        g = regroup(p, 2)
        assert g.alphabet == Alphabet(4, 2)
        assert g.signature == (1, 2, 1)
        assert execute_all(g).images == e.images


def test_regroup_identity_group():
    a = Alphabet(2, 2)
    p = route_bijection(Mapping.identity(a))
    assert regroup(p, 1) is p


def test_regroup_rejections():
    a = Alphabet(2, 4)
    p = InSituProgram(a, (
        Assignment(1, table=tuple(v & 1 for v in range(16))),
        Assignment(3, table=tuple(v & 1 for v in range(16))),
    ))
    with pytest.raises(SignatureNotGroupable):
        regroup(p, 2)
    with pytest.raises(SignatureNotGroupable):
        regroup(InSituProgram(a, ()), 3)
    with pytest.raises(NotBoolean):
        regroup(InSituProgram(Alphabet(3, 2), ()), 2)


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError):
        concat(InSituProgram(Alphabet(2, 2), ()), InSituProgram(Alphabet(2, 3), ()))
    with pytest.raises(ValueError, match="^need at least one program$"):
        concat()
    with pytest.raises(ValueError, match="^alphabet mismatch in composition$"):
        Mapping.identity(Alphabet(2, 2)).compose(Mapping.identity(Alphabet(4, 1)))


@st.composite
def coefficient_rows(draw):
    s = draw(st.integers(2, 16))
    n = draw(st.integers(1, 4).filter(lambda n: s ** n <= 4096))
    row = draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
    return Alphabet(s, n), tuple(row)


@given(coefficient_rows())
def test_assignment_table_of_coefficients(case):
    # independent reference: evaluate the linear form digit by digit
    a, row = case
    want = tuple(sum(c * x for c, x in zip(row, vector_of(v, a))) % a.s
                 for v in range(a.size))
    assert tuple(assignment_table(Assignment(1, coeffs=row), a)) == want
