"""Vectors, table mappings, and in-situ programs over a finite alphabet.

A vector (x_1, ..., x_n) over S = {0, ..., s-1} is identified with the
integer index x_1 + s*x_2 + ... + s^(n-1)*x_n, so component 1 is the
least significant digit.  An in-situ program is a sequence of
assignments, each of which overwrites exactly one component of the
working vector with a value computed from the whole current vector; the
program needs no storage beyond the vector itself.

Assignments carry either a dense table (new value per current index) or
the coefficient row of a linear form over Z/sZ.  The linear payload is
what lets programs over huge index spaces (e.g. Z/101^8) execute on
single vectors without materializing tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

_MAX_INDEX_BITS = 64


class InSituError(Exception):
    """Base class for the domain errors raised by this package."""


class NotBoolean(InSituError):
    """The operation requires alphabet size s = 2."""


class NotBijective(InSituError):
    """The mapping (or the mapping a program computes) is not a bijection."""


class BadSignature(InSituError):
    """A signature does not have the shape the operation requires."""


class SignatureNotGroupable(InSituError):
    """The signature cannot be split into runs that each stay in one register."""


@dataclass(frozen=True)
class Alphabet:
    """Alphabet size s >= 2 and arity n >= 1; the index space is [0, s^n)."""

    s: int
    n: int

    def __post_init__(self) -> None:
        if self.s < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.s}")
        if self.n < 1:
            raise ValueError(f"arity must be at least 1, got {self.n}")
        if self.s ** self.n > 1 << _MAX_INDEX_BITS:
            raise OverflowError(f"index space {self.s}^{self.n} does not fit in 64 bits")

    @property
    def size(self) -> int:
        """Number of vectors, s^n."""
        return self.s ** self.n

    def powers(self) -> tuple[int, ...]:
        """Place values (s^0, s^1, ..., s^(n-1)) of the n components."""
        out = []
        p = 1
        for _ in range(self.n):
            out.append(p)
            p *= self.s
        return tuple(out)


def index_of(vector: Sequence[int], alphabet: Alphabet) -> int:
    """Index of a vector; component 1 is the least significant digit."""
    if len(vector) != alphabet.n:
        raise ValueError(f"expected {alphabet.n} components, got {len(vector)}")
    idx = 0
    for d in reversed(vector):
        if not 0 <= d < alphabet.s:
            raise ValueError(f"component {d} out of range [0, {alphabet.s})")
        idx = idx * alphabet.s + d
    return idx


def vector_of(index: int, alphabet: Alphabet) -> tuple[int, ...]:
    """Vector with the given index."""
    if not 0 <= index < alphabet.size:
        raise ValueError(f"index {index} out of range [0, {alphabet.size})")
    out = []
    for _ in range(alphabet.n):
        index, d = divmod(index, alphabet.s)
        out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class Mapping:
    """A total mapping of the index space, stored as a dense image table."""

    alphabet: Alphabet
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        size = self.alphabet.size
        if len(self.images) != size:
            raise ValueError(f"mapping needs {size} images, got {len(self.images)}")
        for y in self.images:
            if not 0 <= y < size:
                raise ValueError(f"image {y} out of range [0, {size})")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Mapping":
        return cls(alphabet, tuple(range(alphabet.size)))

    def apply(self, index: int) -> int:
        return self.images[index]

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def compose(self, inner: "Mapping") -> "Mapping":
        """self after inner: x -> self(inner(x))."""
        if inner.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch in composition")
        return Mapping(self.alphabet, tuple(self.images[y] for y in inner.images))

    def inverse(self) -> "Mapping":
        if not self.is_bijective():
            raise NotBijective("only bijections have inverses")
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Mapping(self.alphabet, tuple(inv))


@dataclass(frozen=True)
class Assignment:
    """One in-situ step: overwrite component `target` (1-based).

    Exactly one payload is set.  `table` gives the new component value per
    current index; `coeffs` gives a linear form c_1*x_1 + ... + c_n*x_n
    evaluated mod s.
    """

    target: int
    table: tuple[int, ...] | None = None
    coeffs: tuple[int, ...] | None = None


def assignment_table(assignment: Assignment, alphabet: Alphabet) -> tuple[int, ...]:
    """Dense table of an assignment, materializing a linear payload if needed."""
    if assignment.table is not None:
        return assignment.table
    # digit recurrence: extend the table by one more significant component
    s = alphabet.s
    tab = [0]
    for c in assignment.coeffs:
        tab = tab * s if c == 0 else [(t + c * d) % s for d in range(s) for t in tab]
    return tuple(tab)


def step_images(tab: Sequence[int], target: int, alphabet: Alphabet) -> list[int]:
    """Where one step sends every index: component `target` of index v
    becomes tab[v], the other components stay.  This is the exchange
    between two stages of the network of a signature; every trace of a
    program composes these lists."""
    s = alphabet.s
    pw = s ** (target - 1)
    return [v + (tab[v] - v // pw % s) * pw for v in range(alphabet.size)]


@dataclass(frozen=True)
class InSituProgram:
    """A sequence of assignments over one shared alphabet."""

    alphabet: Alphabet
    assignments: tuple[Assignment, ...]

    def __post_init__(self) -> None:
        a = self.alphabet
        for pos, asg in enumerate(self.assignments):
            if not 1 <= asg.target <= a.n:
                raise ValueError(f"assignment {pos}: target {asg.target} out of range [1, {a.n}]")
            if (asg.table is None) == (asg.coeffs is None):
                raise ValueError(f"assignment {pos}: exactly one of table/coeffs must be set")
            if asg.table is not None:
                if len(asg.table) != a.size:
                    raise ValueError(f"assignment {pos}: table needs {a.size} entries")
                for v in asg.table:
                    if not 0 <= v < a.s:
                        raise ValueError(f"assignment {pos}: table value {v} out of range [0, {a.s})")
            else:
                if len(asg.coeffs) != a.n:
                    raise ValueError(f"assignment {pos}: coefficient row needs {a.n} entries")
                for c in asg.coeffs:
                    if not 0 <= c < a.s:
                        raise ValueError(f"assignment {pos}: coefficient {c} out of range [0, {a.s})")

    def __len__(self) -> int:
        return len(self.assignments)

    @property
    def signature(self) -> tuple[int, ...]:
        """The sequence of assigned components."""
        return tuple(asg.target for asg in self.assignments)


def execute(program: InSituProgram, vector: Sequence[int]) -> tuple[int, ...]:
    """Run the program on one vector and return the final vector."""
    a = program.alphabet
    s = a.s
    digits = list(vector)
    index_of(digits, a)  # validates length and range
    pows = a.powers()
    for asg in program.assignments:
        i = asg.target - 1
        if asg.table is not None:
            idx = 0
            for d in reversed(digits):
                idx = idx * s + d
            digits[i] = asg.table[idx]
        else:
            digits[i] = sum(c * x for c, x in zip(asg.coeffs, digits)) % s
    return tuple(digits)


def execute_all(program: InSituProgram) -> Mapping:
    """The mapping computed by the program, by running every input index."""
    a = program.alphabet
    state = range(a.size)
    for asg in program.assignments:
        trans = step_images(assignment_table(asg, a), asg.target, a)
        state = [trans[v] for v in state]
    return Mapping(a, tuple(state))


def concat(*programs: InSituProgram) -> InSituProgram:
    """Concatenate programs over the same alphabet, first argument first."""
    if not programs:
        raise ValueError("need at least one program")
    a = programs[0].alphabet
    parts: list[Assignment] = []
    for p in programs:
        if p.alphabet != a:
            raise ValueError("alphabet mismatch in concatenation")
        parts.extend(p.assignments)
    return InSituProgram(a, tuple(parts))


def merge_adjacent(program: InSituProgram) -> InSituProgram:
    """Fuse consecutive assignments that write the same component.

    The behavior on every input is unchanged; only the step count drops.
    """
    a = program.alphabet
    merged: list[Assignment] = []
    for asg in program.assignments:
        if merged and merged[-1].target == asg.target:
            merged[-1] = _compose_steps(merged[-1], asg, a)
        else:
            merged.append(asg)
    return InSituProgram(a, tuple(merged))


def _compose_steps(first: Assignment, second: Assignment, alphabet: Alphabet) -> Assignment:
    # both write the same component; the pair collapses to one assignment
    t = first.target
    i = t - 1
    s = alphabet.s
    if first.coeffs is not None and second.coeffs is not None:
        c1, c2 = first.coeffs, second.coeffs
        combined = tuple(
            (c2[i] * c1[j]) % s if j == i else (c2[j] + c2[i] * c1[j]) % s
            for j in range(alphabet.n)
        )
        return Assignment(t, coeffs=combined)
    tab2 = assignment_table(second, alphabet)
    trans = step_images(assignment_table(first, alphabet), t, alphabet)
    return Assignment(t, table=tuple(tab2[w] for w in trans))


def reverse_boolean_bijection(program: InSituProgram) -> InSituProgram:
    """Reverse a boolean program that computes a bijection.

    Over s = 2 every assignment of such a program necessarily has the shape
    x_i := x_i + h(other components), which is an involution on the working
    vector, so running the assignments in reverse order computes the
    inverse bijection.
    """
    if program.alphabet.s != 2:
        raise NotBoolean("reversal by re-running steps needs alphabet {0, 1}")
    if not execute_all(program).is_bijective():
        raise NotBijective("program does not compute a bijection")
    return InSituProgram(program.alphabet, tuple(reversed(program.assignments)))


def cycle_program(k: int, alphabet: Alphabet) -> InSituProgram:
    """Left-rotate the first k components in k+1 linear assignments.

    Computes (x_1, ..., x_k) -> (x_2, ..., x_k, x_1), other components
    untouched, using the additive group of Z/sZ.  For k = 2 this is the
    classic in-place swap x_1 := x_1 + x_2; x_2 := x_1 - x_2; x_1 := x_1 - x_2.
    """
    n = alphabet.n
    s = alphabet.s
    if not 2 <= k <= n:
        raise ValueError(f"cycle length must be in [2, {n}], got {k}")
    total = tuple(1 if j < k else 0 for j in range(n))
    fold = tuple(1 if j == 0 else (s - 1 if j < k else 0) for j in range(n))
    steps = [Assignment(1, coeffs=total)]
    for target in range(k, 1, -1):
        steps.append(Assignment(target, coeffs=fold))
    steps.append(Assignment(1, coeffs=fold))
    return InSituProgram(alphabet, tuple(steps))


def component_permutation(sources: Sequence[int], alphabet: Alphabet) -> Mapping:
    """Mapping that permutes components: output component i is input
    component sources[i-1] (1-based)."""
    n = alphabet.n
    if sorted(sources) != list(range(1, n + 1)):
        raise ValueError("sources must be a permutation of 1..n")
    s = alphabet.s
    pows = alphabet.powers()
    images = []
    for x in range(alphabet.size):
        y = 0
        for i, src in enumerate(sources):
            y += (x // pows[src - 1] % s) * pows[i]
        images.append(y)
    return Mapping(alphabet, tuple(images))


def permutation_length_bound(perm: Sequence[int]) -> int:
    """Lower bound on the length of any in-situ program computing a
    permutation of the components: n - (number of fixed points) +
    (number of nontrivial cycles).

    `perm` lists 1-based images, so perm[i-1] is where component i's value
    comes from (or goes to; the count is the same for the inverse).
    """
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    fixed = sum(1 for i in range(n) if perm[i] == i + 1)
    cycles = 0
    seen = [False] * n
    for i in range(n):
        if seen[i] or perm[i] == i + 1:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
    return n - fixed + cycles


def regroup(program: InSituProgram, group_size: int) -> InSituProgram:
    """Bundle a boolean program into one assignment per register.

    Components are grouped m = group_size at a time into registers over the
    alphabet {0, ..., 2^m - 1}; the index space is unchanged.  Requires the
    signature to move by at most one component between consecutive steps,
    so that each maximal run of steps stays inside a single register.
    """
    a = program.alphabet
    if group_size < 1:
        raise ValueError("group size must be positive")
    if group_size == 1:
        return program
    if a.s != 2:
        raise NotBoolean("regrouping is defined for boolean programs")
    if a.n % group_size:
        raise SignatureNotGroupable(
            f"arity {a.n} is not a multiple of group size {group_size}")
    sig = program.signature
    for prev, cur in zip(sig, sig[1:]):
        if abs(cur - prev) > 1:
            raise SignatureNotGroupable(
                f"signature jumps from component {prev} to {cur}")
    wide = Alphabet(2 ** group_size, a.n // group_size)
    mask = (1 << group_size) - 1

    runs: list[tuple[int, list[Assignment]]] = []
    for asg in program.assignments:
        reg = (asg.target - 1) // group_size
        if runs and runs[-1][0] == reg:
            runs[-1][1].append(asg)
        else:
            runs.append((reg, [asg]))

    steps = []
    for reg, chunk in runs:
        shift = reg * group_size
        images = execute_all(InSituProgram(a, tuple(chunk))).images
        steps.append(Assignment(reg + 1, table=tuple(w >> shift & mask for w in images)))
    return InSituProgram(wide, tuple(steps))
