"""Brute-force ground truth and whole-universe compiler suites.

`min_length_bfs` finds the exact minimal program length for a mapping by
breadth-first search over compositions of single assignments, so compiler
output lengths can be checked against the true optimum on small spaces.
It codes a state in one byte per index, so it composes a step with one
`bytes.translate` and takes at most 256 indices.  It reads a universe
as the set of tables of each component, None where that holds every
table, and builds the steps of both kinds with one builder.
`method_signature` spells each method's signature, which is the stage
network its programs route through and fixes their length.
`exhaustive_suite` runs a compiler over every input (or a seeded sample)
of an index space and checks each produced program's signature against
its method's, and its behavior; `linear_suite` does the same for
matrices drawn by (s, n), with no index space, so any modulus works.  A
program that performs a bijection merges no paths, so its routing is
vertex disjoint without a second check.  The suite streams on one
thread: it takes one input at a time and keeps only counts and the first
few failure texts, so its memory does not grow with the sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import blockseq, factor, linmod, minsim
from .benes import route_bijection
from .core import (
    Alphabet,
    Assignment,
    InSituError,
    InSituProgram,
    Mapping,
    _MAX_INDEX_BITS,
    _add_place_values,
    _digit_runs,
    _unchecked,
    assignment_table,
)
from .rng import SplitMix64, random_bijection, random_mapping, random_matrix

_FULL_UNIVERSE_CAP = 65536
_BYTE_LANES = 256  # a state holds one byte per index
_TEST_CHUNK = 4096  # states joined per one-step test, so the copies stay small
_ENUM_MAPPINGS_CAP = 4096
_ENUM_BIJECTIONS_CAP = 5040
_SHOWN_FAILURES = 20  # failure texts a suite report keeps, and prints


class BudgetExceeded(InSituError):
    """The search grew past its state budget."""


def full_universe(alphabet: Alphabet) -> list[Assignment]:
    """Every single assignment over the alphabet: all tables, all targets."""
    return [Assignment(target, table=tab) for tab, target in _full_steps(alphabet)]


def _full_steps(alphabet: Alphabet) -> Iterator[tuple[tuple[int, ...], int]]:
    # the (table, target) pairs of the full universe, in its order; the cap
    # is checked here, at the call, not when the pairs are first read
    size = alphabet.size
    # n * s^size is refused by bounded products, so s^size is never built
    if not _product_leq(itertools.chain([alphabet.n], (alphabet.s for _ in range(size))),
                        _FULL_UNIVERSE_CAP):
        raise BudgetExceeded(f"{alphabet.n}*{alphabet.s}^{size} assignments, over the cap "
                             f"of {_FULL_UNIVERSE_CAP}; restrict the universe instead")
    return ((tab, target) for target in range(1, alphabet.n + 1)
            for tab in itertools.product(range(alphabet.s), repeat=size))


def min_length_bfs(
    e: Mapping,
    max_len: int,
    universe: Sequence[Assignment] | None = None,
    max_states: int = 1_000_000,
) -> int | None:
    """Exact minimal number of assignments computing e, or None if no
    program within max_len steps over the universe exists.

    The default universe is every possible assignment.  States are the
    mappings computed so far, searched breadth first, each coded as a
    `bytes` with one lane per index; a step is a 256-byte translate
    table, so the oracle takes at most 256 indices and refuses a bigger
    space with BudgetExceeded.  Each level is tested before it is
    expanded: a state is one step from e when it agrees with e on every
    component but one, i, and the values it holds determine component i
    of e through some table for i in the universe, which any function of
    them is when the universe holds every table for i.  So the states of
    level max_len are never built; the levels below it are stored, and
    more than max_states stored states raise BudgetExceeded.  A negative
    max_len or max_states is a ValueError.

    The universe is read once into the set of tables of each component,
    None where it holds all s^size of them, as the default universe does
    everywhere; `_transitions` builds the step tables from those sets
    when a level is first expanded.
    """
    if max_len < 0 or max_states < 0:
        raise ValueError(f"max_len and max_states must not be negative, "
                         f"got {max_len} and {max_states}")
    a = e.alphabet
    s, size = a.s, a.size
    if universe is None:
        _full_steps(a)  # refuses a universe past its cap before anything is built
    if tuple(e.images) == tuple(range(size)):
        return 0
    if size > _BYTE_LANES:
        raise BudgetExceeded(f"{s}^{a.n} indices; the oracle codes a state in one byte "
                             f"per index, so it takes at most {_BYTE_LANES}")
    # i's tables, or None where the universe holds all s^size of them:
    # then any function of the state's values is a table for i
    if universe is None:
        tables = dict.fromkeys(range(1, a.n + 1))
    else:
        tables = {}
        for asg in universe:
            tables.setdefault(asg.target, set()).add(tuple(assignment_table(asg, a)))
        for i, tabs in tables.items():
            if len(tabs) == s ** size:
                tables[i] = None
    pad = bytes(_BYTE_LANES - size)  # a translate table has 256 entries
    target = bytes(e.images)
    # for each component i that the universe writes: the table that zeroes
    # digit i, the target so zeroed, its digit i, and i's tables to scan
    checks = []
    for i, tabs in tables.items():
        pw = s ** (i - 1)
        rest = bytes(_digit_runs(pw, s, size, pw * s)) + pad
        checks.append((rest, target.translate(rest), bytes(t // pw % s for t in target), tabs))

    def one_step(level):
        # the states of a level end to end, a chunk at a time, so that each
        # zeroing is one translate: a state agrees with e off i where the
        # zeroed states hold e's zeroed images at a multiple of size
        for start in range(0, len(level), _TEST_CHUNK):
            lanes = b"".join(level[start:start + _TEST_CHUNK])
            for rest, target_rest, digit, tabs in checks:
                zeroed = lanes.translate(rest)
                at = zeroed.find(target_rest)
                while at >= 0:
                    if at % size == 0 and _reaches(lanes[at:at + size], digit, tabs):
                        return True
                    at = zeroed.find(target_rest, at - at % size + size)
        return False

    ident = bytes(range(size))
    visited = {ident}
    frontier = [ident]
    trans: list[bytes] = []  # built when a level is first expanded
    for depth in range(1, max_len + 1):
        if one_step(frontier):
            return depth
        if depth == max_len:
            return None
        if not trans:
            trans = _transitions(a, tables, pad)
        nxt = []
        for state in frontier:
            new = set(map(state.translate, trans))
            new -= visited
            visited |= new
            nxt += new
            if len(visited) > max_states:
                raise BudgetExceeded(f"more than {max_states} states stored")
        if not nxt:
            return None
        frontier = nxt
    return None


def _transitions(alphabet: Alphabet, tables: dict[int, set[tuple[int, ...]] | None],
                 pad: bytes) -> list[bytes]:
    # the translate tables of the steps: "component i := tab" sends index v
    # to rest_i[v] + pw * tab[v], with rest_i the index with digit i zeroed
    # and pw = s^(i-1).  A None component takes every tab, in the full
    # universe's order, as the products of the lanes rest_i[v] + pw * d
    s, size = alphabet.s, alphabet.size
    trans = []
    for i, tabs in tables.items():
        pw = s ** (i - 1)
        rest = _digit_runs(pw, s, size, pw * s)
        if tabs is None:
            images = itertools.product(*[range(r, r + s * pw, pw) for r in rest])
        else:
            images = (_add_place_values(rest, tab, pw, s) for tab in tabs)
        trans += [bytes(t) + pad for t in images]
    return trans


def _reaches(state: bytes, digit: bytes, tabs: set[tuple[int, ...]] | None) -> bool:
    # for a state that agrees with the target off component i: whether the
    # values it holds give digit i of the target through a table in tabs,
    # where None stands for every table
    if len(set(zip(state, digit))) != len(set(state)):  # a value needs two digits
        return False
    if tabs is None:
        return True
    want = dict(zip(state, digit))  # tab[x] that digit i of the target needs
    return any(all(tab[x] == d for x, d in want.items()) for tab in tabs)


@dataclass(frozen=True)
class SuiteReport:
    compiler: str
    s: int
    n: int
    total: int
    failure_count: int
    shown_failures: tuple[str, ...]  # the first _SHOWN_FAILURES of them, as printed
    length_counts: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failure_count

    @property
    def max_length(self) -> int:
        return max((length for length, _ in self.length_counts), default=0)

    def to_text(self) -> str:
        lines = [
            f"compiler={self.compiler}",
            f"s={self.s}",
            f"n={self.n}",
            f"total={self.total}",
            f"failures={self.failure_count}",
            f"max_length={self.max_length}",
        ]
        for length, count in self.length_counts:
            lines.append(f"length_{length}={count}")
        for text in self.shown_failures:
            lines.append(f"failure={text}")
        return "\n".join(lines) + "\n"


# the table compilers by method name, as `insitu compile` and `insitu suite` take it
COMPILERS: dict[str, Callable[[Mapping], InSituProgram]] = {
    "benes": route_bijection,
    "general5": factor.compile_general5,
    "general4-sorted": factor.compile_general4_sorted,
    "general4-flex": blockseq.compile_general4_flexible,
}


def method_signature(method: str, n: int) -> tuple[int, ...]:
    """The signature of a method's programs, i.e. the stage network whose
    routings they are, so its length is their bound: the Benes network
    1..n..1 (2n - 1 stages) for benes and linear, two of them fused at
    their junction (4n - 3) for the general4 methods, and a reversed
    butterfly 1..n more (5n - 4) for general5."""
    up = tuple(range(1, n + 1))
    benes = up + up[-2::-1]
    if method in ("benes", "linear"):
        return benes
    if method in ("general4-sorted", "general4-flex"):
        return benes + benes[1:]
    if method == "general5":
        return benes + benes[1:] + up[1:]
    raise ValueError(f"unknown compiler {method!r}")


def _check_linear(signature, m):
    p = linmod.decompose(m)
    if p.signature != signature:
        return len(p), f"matrix {m.entries}: signature {p.signature}"
    if p.matrix().entries != m.entries:
        return len(p), f"matrix {m.entries}: product mismatch"
    return len(p), None


def _check_mapping(signature, compile_, e):
    program = compile_(e)
    if program.signature != signature:
        return len(program), f"mapping {e.images}: signature {program.signature} unexpected"
    if not minsim.verify(program, e).performs:
        return len(program), f"mapping {e.images}: program does not compute the mapping"
    return len(program), None


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
    explicit sample is required); linear is `linear_suite` at the
    alphabet's s and n.  Results are deterministic for a given
    (alphabet, compiler, sample, seed).

    Inputs are enumerated or drawn one at a time, and each is compiled,
    checked and counted before the next is made, so memory stays flat in
    the sample size: the report keeps the length counts, the failure
    count and the first `_SHOWN_FAILURES` failure texts.  The suite runs
    on one thread: a pool would take every input up front, and the work
    holds the GIL anyway.  `workers` accepts only 1, for callers that
    still pass it.
    """
    if workers != 1:
        raise ValueError(f"the suite runs on one thread; workers must be 1, got {workers}")
    if compiler == "linear":
        return linear_suite(alphabet.s, alphabet.n, sample, seed)
    signature = method_signature(compiler, alphabet.n)
    _check_sample(sample)
    size = alphabet.size
    bijective = compiler == "benes"
    if sample is not None:
        rng = SplitMix64(seed)
        draw = random_bijection if bijective else random_mapping
        inputs = (draw(alphabet, rng) for _ in range(sample))
    elif bijective and _product_leq(range(2, size + 1), _ENUM_BIJECTIONS_CAP):
        inputs = (_unchecked(Mapping, alphabet, perm)
                  for perm in itertools.permutations(range(size)))
    elif not bijective and _product_leq(itertools.repeat(size, size), _ENUM_MAPPINGS_CAP):
        inputs = (_unchecked(Mapping, alphabet, images)
                  for images in itertools.product(range(size), repeat=size))
    else:
        raise ValueError("universe too large; pass a sample size")
    compile_ = COMPILERS[compiler]
    return _report(compiler, alphabet.s, alphabet.n,
                   (_check_mapping(signature, compile_, e) for e in inputs))


def linear_suite(s: int, n: int, sample: int | None = None, seed: int = 0) -> SuiteReport:
    """The linear suite over Z/sZ at dimension n: `sample` seeded n x n
    matrices (1000 by default), each decomposed and checked for the Benes
    signature 1, ..., n, ..., 1 and for its factor product.  It multiplies
    factors only, so it builds no index space and takes any modulus; n
    stays at most 64, the largest arity an `Alphabet` has."""
    linmod.ModRing.of(s)  # refuses a modulus below 2 or not an integer
    if not 1 <= n <= _MAX_INDEX_BITS:
        raise ValueError(f"dimension must be in [1, {_MAX_INDEX_BITS}], got {n}")
    _check_sample(sample)
    signature = method_signature("linear", n)
    rng = SplitMix64(seed)
    matrices = (random_matrix(s, n, rng) for _ in range(1000 if sample is None else sample))
    return _report("linear", s, n, (_check_linear(signature, m) for m in matrices))


def _check_sample(sample: int | None) -> None:
    if sample is not None and sample < 0:
        raise ValueError(f"sample size must not be negative, got {sample}")


def _report(compiler: str, s: int, n: int,
            results: Iterable[tuple[int, str | None]]) -> SuiteReport:
    # the length counts, the failure count and the first failure texts
    counts: dict[int, int] = {}
    failure_count = 0
    shown: list[str] = []
    for length, fail in results:
        counts[length] = counts.get(length, 0) + 1
        if fail:
            failure_count += 1
            if len(shown) < _SHOWN_FAILURES:
                shown.append(fail)
    return SuiteReport(compiler, s, n, sum(counts.values()), failure_count,
                       tuple(shown), tuple(sorted(counts.items())))


def _product_leq(factors: Iterable[int], cap: int) -> bool:
    """Whether the product of factors >= 1 is at most cap, without building
    a product past cap: a huge universe is refused at once."""
    total = 1
    for f in factors:
        total *= f
        if total > cap:
            return False
    return True
