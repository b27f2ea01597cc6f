"""Brute-force ground truth and whole-universe compiler suites.

`min_length_bfs` finds the exact minimal program length for a mapping by
breadth-first search over compositions of single assignments, so compiler
output lengths can be checked against the true optimum on small spaces.
`exhaustive_suite` runs a compiler over every input (or a seeded sample)
of an index space and verifies lengths, signatures, behavior, and the
network properties of each produced program.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from . import blockseq, factor, linmod, minsim
from .benes import route_bijection
from .core import (
    Alphabet,
    Assignment,
    InSituError,
    Mapping,
    assignment_table,
    step_images,
)
from .rng import SplitMix64, random_bijection, random_mapping

_FULL_UNIVERSE_CAP = 65536
_ENUM_MAPPINGS_CAP = 4096
_ENUM_BIJECTIONS_CAP = 5040


class BudgetExceeded(InSituError):
    """The search grew past its state budget."""


def full_universe(alphabet: Alphabet) -> list[Assignment]:
    """Every single assignment over the alphabet: all tables, all targets."""
    size = alphabet.size
    count = alphabet.n * alphabet.s ** size
    if count > _FULL_UNIVERSE_CAP:
        raise BudgetExceeded(f"{count} assignments; restrict the universe instead")
    out = []
    for target in range(1, alphabet.n + 1):
        for tab in itertools.product(range(alphabet.s), repeat=size):
            out.append(Assignment(target, table=tab))
    return out


def linear_universe(alphabet: Alphabet) -> list[Assignment]:
    """Every linear assignment: all coefficient rows, all targets."""
    count = alphabet.n * alphabet.size
    if count > _FULL_UNIVERSE_CAP:
        raise BudgetExceeded(f"{count} assignments; use a smaller space")
    out = []
    for target in range(1, alphabet.n + 1):
        for row in itertools.product(range(alphabet.s), repeat=alphabet.n):
            out.append(Assignment(target, coeffs=row))
    return out


def min_length_bfs(
    e: Mapping,
    max_len: int,
    universe: Sequence[Assignment] | None = None,
    max_states: int = 1_000_000,
) -> int | None:
    """Exact minimal number of assignments computing e, or None if no
    program within max_len steps over the universe exists.

    The default universe is every possible assignment.  States are the
    mappings computed so far; the state budget guards against blowup
    (BudgetExceeded).
    """
    a = e.alphabet
    if universe is None:
        universe = full_universe(a)
    trans = [step_images(assignment_table(asg, a), asg.target, a) for asg in universe]

    target = tuple(e.images)
    ident = tuple(range(a.size))
    if target == ident:
        return 0
    visited = {ident}
    frontier = [ident]
    for depth in range(1, max_len + 1):
        nxt = []
        for state in frontier:
            for tr in trans:
                new = tuple(tr[v] for v in state)
                if new == target:
                    return depth
                if new not in visited:
                    visited.add(new)
                    nxt.append(new)
                    if len(visited) > max_states:
                        raise BudgetExceeded(f"more than {max_states} states explored")
        if not nxt:
            return None
        frontier = nxt
    return None


@dataclass(frozen=True)
class SuiteReport:
    compiler: str
    s: int
    n: int
    total: int
    failures: tuple[str, ...]
    length_counts: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def max_length(self) -> int:
        return max((length for length, _ in self.length_counts), default=0)

    def to_text(self) -> str:
        lines = [
            f"compiler={self.compiler}",
            f"s={self.s}",
            f"n={self.n}",
            f"total={self.total}",
            f"failures={len(self.failures)}",
            f"max_length={self.max_length}",
        ]
        for length, count in self.length_counts:
            lines.append(f"length_{length}={count}")
        for text in self.failures[:20]:
            lines.append(f"failure={text}")
        return "\n".join(lines) + "\n"


_BOUNDS: dict[str, Callable[[int], int]] = {
    "benes": lambda n: 2 * n - 1,
    "general5": lambda n: 5 * n - 4,
    "general4-sorted": lambda n: 4 * n - 3,
    "general4-flex": lambda n: 4 * n - 3,
    "linear": lambda n: 2 * n - 1,
}


def _expected_signature(compiler: str, n: int) -> tuple[int, ...]:
    up = list(range(1, n + 1))
    down = list(range(n - 1, 0, -1))
    down_full = list(range(n, 0, -1))
    if compiler in ("benes", "linear"):
        sig = up + down
    elif compiler == "general5":
        sig = up + down + up[1:] + down_full[1:] + up[1:]
    else:
        sig = up + down + up[1:] + down[:]
    return tuple(sig)


def _check_mapping_program(compiler, program, e):
    n = e.alphabet.n
    bound = _BOUNDS[compiler](n)
    if len(program) > bound:
        return f"length {len(program)} exceeds {bound}"
    if program.signature != _expected_signature(compiler, n):
        return f"signature {program.signature} unexpected"
    report = minsim.verify(minsim.routing_of(program), e)
    if not report.performs:
        return "program does not compute the mapping"
    if compiler == "benes" and not report.vertex_disjoint:
        return "bijection routing is not vertex disjoint"
    return None


def exhaustive_suite(
    alphabet: Alphabet,
    compiler: str,
    sample: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> SuiteReport:
    """Run a compiler over a whole input universe, or a seeded sample.

    compiler is one of benes, general5, general4-sorted, general4-flex,
    linear.  Without `sample`, the universe is enumerated exhaustively
    when small enough (all bijections / all mappings / otherwise an
    explicit sample is required).  Results are deterministic for a given
    (alphabet, compiler, sample, seed).
    """
    if compiler not in _BOUNDS:
        raise ValueError(f"unknown compiler {compiler!r}")
    size = alphabet.size

    if compiler == "linear":
        ring = linmod.ModRing.of(alphabet.s)
        count = sample if sample is not None else 1000
        rng = SplitMix64(seed)
        inputs = [
            linmod.MatrixMod.of(ring, [[rng.below(alphabet.s) for _ in range(alphabet.n)]
                                       for _ in range(alphabet.n)])
            for _ in range(count)
        ]

        def run_linear(m):
            p = linmod.decompose(m)
            n = alphabet.n
            if len(p) > _BOUNDS["linear"](n):
                return len(p), f"matrix {m.entries}: {len(p)} factors"
            if p.signature != _expected_signature("linear", n):
                return len(p), f"matrix {m.entries}: signature {p.signature}"
            if p.matrix().entries != m.entries:
                return len(p), f"matrix {m.entries}: product mismatch"
            return len(p), None

        results = _run(run_linear, inputs, workers)
        return _report(compiler, alphabet, results)

    if compiler == "benes":
        if sample is None:
            if _factorial_leq(size, _ENUM_BIJECTIONS_CAP):
                inputs = [Mapping(alphabet, perm)
                          for perm in itertools.permutations(range(size))]
            else:
                raise ValueError("universe too large; pass a sample size")
        else:
            rng = SplitMix64(seed)
            inputs = [random_bijection(alphabet, rng) for _ in range(sample)]
        compile_fn = route_bijection
    else:
        if sample is None:
            if size ** size <= _ENUM_MAPPINGS_CAP:
                inputs = [Mapping(alphabet, images)
                          for images in itertools.product(range(size), repeat=size)]
            else:
                raise ValueError("universe too large; pass a sample size")
        else:
            rng = SplitMix64(seed)
            inputs = [random_mapping(alphabet, rng) for _ in range(sample)]
        compile_fn = {
            "general5": factor.compile_general5,
            "general4-sorted": factor.compile_general4_sorted,
            "general4-flex": blockseq.compile_general4_flexible,
        }[compiler]

    def run_clean(e):
        program = compile_fn(e)
        fail = _check_mapping_program(compiler, program, e)
        return len(program), (f"mapping {e.images}: {fail}" if fail else None)

    results = _run(run_clean, inputs, workers)
    return _report(compiler, alphabet, results)


def _factorial_leq(k: int, cap: int) -> bool:
    total = 1
    for i in range(2, k + 1):
        total *= i
        if total > cap:
            return False
    return True


def _run(fn, inputs, workers):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, inputs))
    return [fn(x) for x in inputs]


def _report(compiler, alphabet, results):
    counts: dict[int, int] = {}
    failures = []
    for length, fail in results:
        counts[length] = counts.get(length, 0) + 1
        if fail:
            failures.append(fail)
    return SuiteReport(
        compiler=compiler,
        s=alphabet.s,
        n=alphabet.n,
        total=len(results),
        failures=tuple(failures),
        length_counts=tuple(sorted(counts.items())),
    )
