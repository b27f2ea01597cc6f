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
    cycle_program,
    execute,
    execute_all,
    index_of,
    merge_adjacent,
    permutation_length_bound,
    regroup,
    reverse_boolean_bijection,
    vector_of,
)
from insitu.benes import route_bijection
from insitu.rng import SplitMix64, random_bijection


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(1, 3)
    with pytest.raises(ValueError):
        Alphabet(2, 0)
    with pytest.raises(OverflowError):
        Alphabet(2, 65)
    assert Alphabet(2, 64).size == 1 << 64
    assert Alphabet(3, 4).powers() == (1, 3, 9, 27)


def test_index_examples():
    # component 1 is the least significant digit
    assert index_of((1, 0, 1), Alphabet(2, 3)) == 5
    assert vector_of(5, Alphabet(2, 3)) == (1, 0, 1)
    assert vector_of(0, Alphabet(3, 2)) == (0, 0)
    assert vector_of(7, Alphabet(3, 2)) == (1, 2)
    with pytest.raises(ValueError):
        index_of((2, 0), Alphabet(2, 2))
    with pytest.raises(ValueError):
        vector_of(9, Alphabet(3, 2))


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
    a = Alphabet(2, 3)
    rng = SplitMix64(17)
    for _ in range(20):
        e = random_bijection(a, rng)
        p = route_bijection(e)
        r = reverse_boolean_bijection(p)
        assert execute_all(r).images == e.inverse().images
    with pytest.raises(NotBoolean):
        reverse_boolean_bijection(cycle_program(2, Alphabet(3, 2)))
    const = InSituProgram(a, (Assignment(1, table=(0,) * 8),))
    with pytest.raises(NotBijective):
        reverse_boolean_bijection(const)


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
    assert assignment_table(Assignment(1, coeffs=row), a) == want
