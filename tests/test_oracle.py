import itertools
import tracemalloc

import pytest

from insitu import (
    Alphabet,
    Assignment,
    InSituProgram,
    Mapping,
    component_permutation,
    core,
    linmod,
    oracle,
    permutation_length_bound,
)
from insitu.benes import route_bijection, route_bijection_reversed
from insitu.cli import EXIT_MISMATCH, main
from insitu.oracle import (
    COMPILERS,
    BudgetExceeded,
    SuiteReport,
    exhaustive_suite,
    full_universe,
    method_signature,
    min_length_bfs,
)
from insitu.rng import SplitMix64, random_matrix
from test_oracle_reference import _linear_universe


def test_universe_sizes():
    a = Alphabet(2, 2)
    assert len(full_universe(a)) == 2 * 2 ** 4
    assert len(_linear_universe(a)) == 2 * 4
    with pytest.raises(BudgetExceeded):
        full_universe(Alphabet(2, 4))


def test_identity_needs_no_steps():
    a = Alphabet(2, 2)
    assert min_length_bfs(Mapping.identity(a), 3) == 0


def test_swap_needs_three_steps():
    a = Alphabet(2, 2)
    swap = component_permutation((2, 1), a)
    assert min_length_bfs(swap, 5) == 3
    assert min_length_bfs(swap, 2) is None
    # the lower bound n - fixed + cycles is met with equality here
    assert permutation_length_bound((2, 1)) == 3


def test_transitions_are_built_only_to_expand(monkeypatch):
    built = []
    real = oracle._transitions
    monkeypatch.setattr(oracle, "_transitions", lambda *args: built.append(args) or real(*args))
    # the oracle builds every step itself and never through step_images
    assert not hasattr(oracle, "step_images")
    monkeypatch.setattr(core, "step_images", lambda *args: pytest.fail("step_images called"))
    a = Alphabet(2, 2)
    assert min_length_bfs(Mapping(a, (1, 0, 3, 2)), 3) == 1  # x_1 := 1 - x_1
    assert min_length_bfs(component_permutation((2, 1), a), 1) is None
    assert built == []
    # two levels expanded, the steps built once, for the default universe
    # and for the same universe passed by hand
    assert min_length_bfs(component_permutation((2, 1), a), 5) == 3
    assert len(built) == 1
    assert min_length_bfs(component_permutation((2, 1), a), 5, universe=full_universe(a)) == 3
    assert len(built) == 2


@pytest.mark.parametrize("s", [2, 3])
def test_method_networks_have_the_papers_lengths(s):
    # a network is a signature; each is one of a program over s^n, so its
    # stages name components 1..n
    for n in range(1, 9):
        a = Alphabet(s, n)
        signatures = {m: method_signature(m, n) for m in (*COMPILERS, "linear")}
        lengths = {m: len(sig) for m, sig in signatures.items()}
        assert lengths == {"benes": 2 * n - 1, "general5": 5 * n - 4, "general4-sorted": 4 * n - 3,
                           "general4-flex": 4 * n - 3, "linear": 2 * n - 1}
        for sig in signatures.values():
            steps = tuple(Assignment(t, coeffs=(0,) * n) for t in sig)
            assert InSituProgram(a, steps).signature == sig


def test_method_network_signatures():
    assert method_signature("benes", 3) == (1, 2, 3, 2, 1)
    assert method_signature("general4-flex", 3) == (1, 2, 3, 2, 1, 2, 3, 2, 1)
    assert method_signature("general5", 3) == (1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3)
    with pytest.raises(ValueError, match="unknown compiler 'bogus'"):
        method_signature("bogus", 3)


def test_component_permutations_meet_lower_bound():
    a = Alphabet(2, 2)
    for perm in itertools.permutations((1, 2)):
        e = component_permutation(perm, a)
        assert min_length_bfs(e, 5) == permutation_length_bound(perm)


def test_three_cycle_over_linear_universe():
    # rotating three boolean components linearly takes exactly 4 steps
    a = Alphabet(2, 3)
    e = component_permutation((2, 3, 1), a)
    uni = _linear_universe(a)
    assert min_length_bfs(e, 3, universe=uni) is None
    assert min_length_bfs(e, 4, universe=uni) == 4


def test_state_budget():
    a = Alphabet(2, 2)
    swap = component_permutation((2, 1), a)
    with pytest.raises(BudgetExceeded):
        min_length_bfs(swap, 3, max_states=5)


def test_negative_limits_are_refused():
    ident = Mapping.identity(Alphabet(2, 2))
    with pytest.raises(ValueError, match="must not be negative"):
        min_length_bfs(ident, -1)
    with pytest.raises(ValueError, match="must not be negative"):
        min_length_bfs(ident, 3, max_states=-1)
    assert min_length_bfs(ident, 0, max_states=0) == 0


def test_unreachable_returns_none():
    # a non-linear mapping is outside the closure of linear assignments
    a = Alphabet(2, 2)
    e = Mapping(a, (0, 1, 2, 0))
    assert min_length_bfs(e, 4, universe=_linear_universe(a)) is None


def test_more_than_256_indices_are_refused_before_any_state(monkeypatch):
    # a state is one byte per index; only a hand-passed universe gets past
    # the full universe's cap to 2^9 indices, and no table or state is built
    calls = []
    for name in ("assignment_table", "_transitions"):
        monkeypatch.setattr(oracle, name, lambda *args: calls.append(args))
    a = Alphabet(2, 9)
    universe = [Assignment(1, table=tuple(v % 2 for v in range(a.size)))]
    e = Mapping(a, (1, *range(1, a.size)))
    with pytest.raises(BudgetExceeded, match="one byte per index"):
        min_length_bfs(e, 3, universe=universe)
    assert calls == []
    assert min_length_bfs(Mapping.identity(a), 3, universe=universe) == 0


def test_suite_all_boolean_bijections():
    report = exhaustive_suite(Alphabet(2, 2), "benes")
    assert report.ok
    assert report.total == 24
    assert report.max_length == 3
    assert sum(c for _, c in report.length_counts) == 24


def test_suite_all_boolean_mappings():
    report = exhaustive_suite(Alphabet(2, 2), "general4-sorted")
    assert report.ok
    assert report.total == 256
    assert report.max_length <= 5


def test_suite_sampled():
    report = exhaustive_suite(Alphabet(2, 3), "general5", sample=40, seed=7)
    assert report.ok
    assert report.total == 40
    assert report.max_length <= 11
    again = exhaustive_suite(Alphabet(2, 3), "general5", sample=40, seed=7)
    assert again == report


def test_suite_linear():
    report = exhaustive_suite(Alphabet(12, 2), "linear", sample=50, seed=3)
    assert report.ok
    assert report.total == 50
    assert report.max_length <= 3


def test_suite_runs_on_one_worker():
    with pytest.raises(ValueError, match="workers must be 1"):
        exhaustive_suite(Alphabet(2, 2), "general4-flex", workers=4)


def test_suite_memory_is_flat_in_the_sample():
    # each 2^10 input holds about 33 KB of images; a suite that kept its
    # inputs or results would grow by that much per input, a streaming one
    # peaks at one input's compile whatever the sample size
    a = Alphabet(2, 10)
    exhaustive_suite(a, "benes", sample=1)  # fill lazy caches before measuring

    def peak(k):
        tracemalloc.start()
        try:
            assert exhaustive_suite(a, "benes", sample=k, seed=5).total == k
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(3), peak(15)
    assert large - small < 64 * 1024, (small, large)


def test_suite_requires_sample_on_big_universes():
    with pytest.raises(ValueError):
        exhaustive_suite(Alphabet(2, 3), "benes")
    with pytest.raises(ValueError):
        exhaustive_suite(Alphabet(2, 3), "general4-sorted")
    with pytest.raises(ValueError):
        exhaustive_suite(Alphabet(2, 2), "sorting-network")


def test_suite_report_text():
    report = SuiteReport("benes", 2, 2, 24, failure_count=0, shown_failures=(),
                         length_counts=((3, 24),))
    text = report.to_text()
    assert "compiler=benes" in text
    assert "total=24" in text
    assert "failures=0" in text
    assert "max_length=3" in text
    assert "length_3=24" in text
    bad = SuiteReport("benes", 2, 2, 1, failure_count=1,
                      shown_failures=("mapping (0, 1, 2, 3): boom",), length_counts=((3, 1),))
    assert not bad.ok
    assert "failures=1\n" in bad.to_text()
    assert "failure=mapping (0, 1, 2, 3): boom" in bad.to_text()


def test_suite_reports_wrong_programs(monkeypatch, capsys):
    a = Alphabet(2, 2)
    ident = route_bijection(Mapping.identity(a))
    monkeypatch.setitem(COMPILERS, "benes", lambda e: ident)
    report = exhaustive_suite(a, "benes")
    assert (report.total, report.failure_count) == (24, 23)
    wrong = [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)]
    assert report.shown_failures == tuple(
        f"mapping {p}: program does not compute the mapping" for p in wrong[:20])
    text = report.to_text()
    assert "failures=23\n" in text
    assert text.count("failure=mapping") == 20
    assert main(["suite", "--method", "benes", "--s", "2", "--n", "2"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == text
    monkeypatch.setitem(COMPILERS, "benes", route_bijection_reversed)
    report = exhaustive_suite(a, "benes")
    assert report.failure_count == 24
    assert report.shown_failures == tuple(
        f"mapping {p}: signature (2, 1, 2) unexpected"
        for p in itertools.islice(itertools.permutations(range(4)), 20))
    assert main(["suite", "--method", "benes", "--s", "2", "--n", "2"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == report.to_text()


def test_suite_reports_wrong_factors(monkeypatch, capsys):
    a = Alphabet(5, 2)
    real = linmod.decompose

    def dropped(m):
        p = real(m)
        return linmod.LinearProgram(p.ring, p.n, p.factors[:-1])

    monkeypatch.setattr(linmod, "decompose", dropped)
    report = exhaustive_suite(a, "linear", sample=30, seed=3)
    assert (report.total, report.failure_count) == (30, 30)
    rng = SplitMix64(3)
    drawn = [random_matrix(5, 2, rng) for _ in range(30)]
    assert report.shown_failures == tuple(
        f"matrix {m.entries}: signature (1, 2)" for m in drawn[:20])
    assert report.length_counts == ((2, 30),)

    def altered(m):
        p = real(m)
        last = p.factors[-1]
        coeffs = list(last.coefficients)
        coeffs[last.row - 1] = (coeffs[last.row - 1] + 1) % p.ring.s
        fac = linmod.AssignmentMatrix(last.row, tuple(coeffs))
        return linmod.LinearProgram(p.ring, p.n, p.factors[:-1] + (fac,))

    monkeypatch.setattr(linmod, "decompose", altered)
    report = exhaustive_suite(a, "linear", sample=30, seed=3)
    wrong = [m for m in drawn if altered(m).matrix().entries != m.entries]
    assert 0 < len(wrong) == report.failure_count
    assert report.shown_failures == tuple(
        f"matrix {m.entries}: product mismatch" for m in wrong[:20])
    assert main(["suite", "--method", "linear", "--s", "5", "--n", "2", "--sample", "30",
                 "--seed", "3"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == report.to_text()
