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

The `Mapping` and `InSituProgram` constructors, their linear
counterparts `linmod.ModRing.of`, `linmod.MatrixMod.of` and
`linmod.LinearProgram`, and the parsers check their input; every value
the package computes from checked input skips that check.

Each table kernel has one form unless measurement shows that a fork by
size pays.  CPython keeps the ints up to 256 as shared objects, so past
256 indices each intermediate value of a per-entry comprehension is a
new int; the kernels instead pick and add existing ints with
`operator.itemgetter` and `map(operator.add, ...)`.  `step_images` keeps
a comprehension up to 256 indices: the suite traces programs at 8 and 9
indices, and with the builtin form there the benchmark's seven suite
calls took 10% longer (median of 12 alternating runs, Python 3.11).
The coefficient tables of `assignment_table`, `_add_place_values` and
`_digit_runs` have one form at every size.

`execute_all` (so `minsim.verify`) and `_linear_images` (so
`linmod.linear_mapping`) are the other fork: past 256 indices and for
s <= 128 they trace on digit planes (`_Planes`), one `bytes` per
component holding the digit that every input has at that step.  A
coefficient step makes each c * x mod s with `bytes.translate`, adds the
planes as big ints and reduces the sum with `translate` before any byte
lane could pass 255; a table step reads the indices off lanes of 2, 4 or
8 bytes and gathers its table by them.
No step builds a table or an index list.  On one 2-core machine
(Python 3.11, best of 7) at 4096 indices, a 23-step coefficient trace
took 8.9 ms as composed step images and 0.9 ms on planes, and
`linear_mapping` 3.2 and 0.7 ms; a 23-step table trace took 7.2 and 6.9
ms.  The cuts:
- up to 256 indices, the suite and oracle sizes, the index trace stays:
  at 2^3 a 5-step table trace took 8 us there and 33 us on planes, and
  at 3^2 a 3-step one 5 and 25 us;
- past s = 128 two residues no longer add in a byte, so the index trace
  stays at every size.

A program with a table step past 256 indices at s <= 6 is traced
backward instead (`_trace_lanes`): the composed mapping H grows from the
last step to the first, H <- H o T_k, so a table step selects, by byte
masks made with big-int adds, where the forward trace gathers, and the
index lanes are read once, at the end.  Measured in-process (2 cores,
Python 3.11.7, best of 15 or 20), forward planes to lanes: 6.4 to 0.8 ms
on a 2^12 `benes` program, 1.5 to 0.7 ms at 5^5, 0.57 to 0.37 ms at 6^4
and 162 to 18 ms at 2^16.  The cost of a lane step grows with the 2s - 1
values of delta, so at 7^3 (0.13 to 0.16 ms), 8^3 and 11^3 the forward
gather is faster, and s <= 6 is the bound at which lanes won at every
size tried.

Tables are `bytes` past 256 indices at s <= 256 (`_table_type`, the one
place the form is picked), so a trace or a writer reads a table as one
plane, and a 2^20 table takes 1 MiB instead of 8.  Up to 256 indices
tables stay tuples: bytes at every build site there made six suite
calls 4-5% slower.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Sequence, TypeVar

_MAX_INDEX_BITS = 64
# the largest of CPython's cached small ints; up to this many indices
# `step_images` keeps its comprehension and traces compose step images
# (see the module docstring)
_SMALL_INTS = 256
# the largest s at which two residues add in a byte; up to it, and past
# _SMALL_INTS indices, traces run on digit planes (see the module docstring)
_PLANE_MAX_S = 128
# the byte order of every big int a plane or lane passes through; lanes are
# read back in host order, and swapped when the two differ, so a lane holds
# the value that was added
_ORDER = sys.byteorder
_LANE_FORMATS = {2: "H", 4: "I", 8: "Q"}
# the largest s whose table values a table stores in a byte; past
# _SMALL_INTS indices such tables are `bytes` (see the module docstring)
_BYTE_S = 256
# the largest s at which a program with a table step traces backward on
# index lanes past _SMALL_INTS indices (see the module docstring)
_LANE_MAX_S = 6
_T = TypeVar("_T")


class InSituError(Exception):
    """Base class for the domain errors raised by this package."""


class NotBoolean(InSituError):
    """The operation requires alphabet size s = 2."""


class NotBijective(InSituError):
    """The mapping (or the mapping a program computes) is not a bijection."""


class SignatureNotGroupable(InSituError):
    """The signature cannot be split into runs that each stay in one register."""


@dataclass(frozen=True)
class Alphabet:
    """Alphabet size s >= 2 and arity n >= 1; the index space is [0, s^n).

    `size`, the number of vectors s^n, is worked out once, at construction,
    and kept in the instance outside the fields, so `==`, `hash` and
    `repr` read s and n alone.
    """

    s: int
    n: int

    def __post_init__(self) -> None:
        _check_ints((self.s, self.n), "alphabet size or arity")
        if self.s < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.s}")
        if self.n < 1:
            raise ValueError(f"arity must be at least 1, got {self.n}")
        # s >= 2, so n past the bit count overflows; check before s ** n is built
        if self.n > _MAX_INDEX_BITS or self.s ** self.n > 1 << _MAX_INDEX_BITS:
            raise OverflowError(f"index space {self.s}^{self.n} does not fit in 64 bits")
        object.__setattr__(self, "size", self.s ** self.n)

    def powers(self) -> tuple[int, ...]:
        """Place values (s^0, s^1, ..., s^(n-1)) of the n components."""
        out = []
        p = 1
        for _ in range(self.n):
            out.append(p)
            p *= self.s
        return tuple(out)


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
        _check_ints(self.images, "image")
        _check_range(self.images, size, "image")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Mapping":
        return _unchecked(cls, alphabet, tuple(range(alphabet.size)))

    def is_bijective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def compose(self, inner: "Mapping") -> "Mapping":
        """self after inner: x -> self(inner(x))."""
        if inner.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch in composition")
        return _unchecked(Mapping, self.alphabet, itemgetter(*inner.images)(self.images))

    def inverse(self) -> "Mapping":
        if not self.is_bijective():
            raise NotBijective("only bijections have inverses")
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return _unchecked(Mapping, self.alphabet, tuple(inv))


@dataclass(frozen=True)
class Assignment:
    """One in-situ step: overwrite component `target` (1-based).

    Exactly one payload is set.  `table` gives the new component value per
    current index; `coeffs` gives a linear form c_1*x_1 + ... + c_n*x_n
    evaluated mod s.  In a program a table is `bytes` past 256 indices at
    s <= 256 and a tuple otherwise (`_table_type`).
    """

    target: int
    table: Sequence[int] | None = None
    coeffs: tuple[int, ...] | None = None


def _table_type(alphabet: Alphabet) -> type:
    """The one type a table over `alphabet` is stored as: `bytes` past 256
    indices while every value fits a byte, `tuple` otherwise.  Called on
    a table of its own type it returns the table itself, not a copy."""
    return bytes if alphabet.size > _SMALL_INTS and alphabet.s <= _BYTE_S else tuple


def assignment_table(assignment: Assignment, alphabet: Alphabet) -> Sequence[int]:
    """Dense table of an assignment, materializing a linear payload if needed;
    a table's own, or a coefficient row's in its `_table_type`."""
    if assignment.table is not None:
        return assignment.table
    # digit recurrence: extend the table by one more significant component;
    # its block for digit d is the table so far plus c * d, mod s, picked
    # from the values rotated by c * d.  The table has s entries or more
    # before the first pick, so each pick gives a tuple
    s = alphabet.s
    coeffs = assignment.coeffs
    values = list(range(s))
    tab = [coeffs[0] * d % s for d in range(s)]
    for c in coeffs[1:]:
        if c == 0:
            tab *= s
            continue
        pick = itemgetter(*tab)
        blocks: list[int] = []
        for d in range(s):
            k = c * d % s
            blocks += pick(values[k:] + values[:k])
        tab = blocks
    return _table_type(alphabet)(tab)


def step_images(tab: Sequence[int], target: int, alphabet: Alphabet) -> list[int]:
    """Where one step sends every index: component `target` of index v
    becomes tab[v], the other components stay.  This is the exchange
    between two stages of the network of a signature; a trace up to 256
    indices, or at s > 128, composes these lists.

    Its form forks by size.  Up to 256 indices CPython's cached small
    ints make the comprehension the faster form, and the suite traces
    there: forcing the builtin form made a run of the suite's
    benchmark calls 10% slower.  Past that the comprehension makes several
    new ints per entry, so there the image is the index with digit
    `target` zeroed, each value made once and placed s times, plus
    tab[v] * pw, picked from the s place values: one new int per entry,
    the sum."""
    s = alphabet.s
    pw = s ** (target - 1)
    size = alphabet.size
    if size <= _SMALL_INTS:
        return [v + (tab[v] - v // pw % s) * pw for v in range(size)]
    return _add_place_values(_digit_runs(pw, s, size, pw * s), tab, pw, s)


def _digit_runs(pw: int, s: int, size: int, stride: int) -> list[int]:
    # index v = lo + pw*d + pw*s*hi (lo < pw, d < s) goes to lo + stride*hi:
    # stride pw * s zeroes the digit of place value pw, stride pw drops it.
    # Every value is made once and placed s times by slices, so this costs
    # size / s new ints at every size.  The loop runs over lo or over hi,
    # whichever is shorter, and over hi on a tie, which measured faster
    span = pw * s
    if pw * span < size:
        out = [0] * size
        for lo in range(pw):
            run = list(range(lo, lo + stride * (size // span), stride))
            for d in range(lo, span, pw):
                out[d::span] = run
        return out
    out = []
    for start in range(0, size // span * stride, stride):
        out += list(range(start, start + pw)) * s
    return out


def _add_place_values(images: Sequence[int], tab: Sequence[int], pw: int,
                      s: int) -> list[int]:
    # images[v] + tab[v] * pw for every index v; tab[v] * pw is picked from
    # the s place values, so only the sum is new
    return list(map(add, images, itemgetter(*tab)(tuple(range(0, s * pw, pw)))))


def _on_planes(a: Alphabet) -> bool:
    # where traces run on digit planes (see the module docstring)
    return a.size > _SMALL_INTS and a.s <= _PLANE_MAX_S


def _linear_images(rows: Sequence[Sequence[int]], a: Alphabet) -> Sequence[int]:
    # the index of (row_1 . x, ..., row_n . x) mod s for every index x; off
    # the planes, the row tables weighted by their place values, row 1's first
    if _on_planes(a):
        trace = _Planes(a)
        inputs = trace.identity()
        return trace.indices([trace.linear(inputs, row) for row in rows])
    images = assignment_table(Assignment(1, coeffs=rows[0]), a)
    for row, pw in zip(rows[1:], a.powers()[1:]):
        images = _add_place_values(images, assignment_table(Assignment(1, coeffs=row), a), pw, a.s)
    return images


class _Planes:
    """Digit planes over one alphabet, for the trace of one call.

    A plane is a `bytes` with one byte lane per input index, in order,
    holding the digit of one component.  A linear form is made plane by
    plane: `bytes.translate` takes each plane to c * x mod s, the products
    add as big ints while no lane can pass 255, and `translate` reduces
    the sum mod s.  Indices are read off lanes of 2, 4 or 8 bytes.  The
    translate tables live in the instance, so none outlives the call.
    """

    def __init__(self, a: Alphabet) -> None:
        s = self.s = a.s
        self.size = a.size
        self.powers = a.powers()
        self.reduce = bytes([x % s for x in range(256)])
        self.room = 255 // (s - 1)  # residues a byte lane adds before it is reduced
        self.times: dict[int, bytes] = {}
        self.group = 1  # components whose digits, at their place values, share a byte lane
        while s ** (self.group + 1) <= 256:
            self.group += 1
        self.width = 2  # bytes in an index lane
        while self.size > 1 << 8 * self.width:
            self.width *= 2

    def identity(self) -> list[bytes]:
        """The planes of the inputs themselves: component i of every index."""
        out = []
        for pw in self.powers:
            run = b"".join(bytes((d,)) * pw for d in range(self.s))
            out.append(run * (self.size // len(run)))
        return out

    def linear(self, planes: Sequence[bytes], coeffs: Sequence[int]) -> bytes:
        """The plane of sum(c_j * plane_j) mod s."""
        s, size = self.s, self.size
        total = terms = 0
        for plane, c in zip(planes, coeffs):
            if not c:
                continue
            if terms == self.room:
                total = int.from_bytes(total.to_bytes(size, _ORDER).translate(self.reduce), _ORDER)
                terms = 1
            if c != 1:
                if c not in self.times:
                    self.times[c] = bytes([c * x % s for x in range(s)]).ljust(256, b"\0")
                plane = plane.translate(self.times[c])
            total += int.from_bytes(plane, _ORDER)
            terms += 1
        return total.to_bytes(size, _ORDER).translate(self.reduce)

    def indices(self, planes: Sequence[bytes]) -> list[int]:
        """The index of every input: the digits of each group of components
        add in byte lanes, then each group sum is widened into the low byte
        of an index lane and added at its place value."""
        size, w, k = self.size, self.width, self.group
        low = 0 if _ORDER == "little" else w - 1
        total = 0
        for start in range(0, len(planes), k):
            digits = 0
            for plane, pw in zip(planes[start:start + k], self.powers):
                digits += int.from_bytes(plane, _ORDER) * pw
            lanes = bytearray(size * w)
            lanes[low::w] = digits.to_bytes(size, _ORDER)
            total += int.from_bytes(lanes, _ORDER) * self.powers[start]
        return _read_lanes(total.to_bytes(size * w, _ORDER), w)


def _read_lanes(data: bytes, w: int) -> list[int]:
    # the w-byte lanes of `data`, written in byte order _ORDER, as ints
    out = array(_LANE_FORMATS[w], data)
    if _ORDER != sys.byteorder:
        out.byteswap()
    return out.tolist()


def _trace_lanes(program: InSituProgram) -> list[int]:
    """The final index of every input, composed from the last step back to
    the first: H <- H o T_k, so each step selects where a forward trace
    would gather.

    H is kept as byte planes, plane j holding byte j of H[v] for every v.
    A table step sends v to v + delta(v) * s^(t-1), with delta(v) = tab[v]
    - digit_t(v), so H o T_k at v is H at that index.  The plane 0x80 + tab
    - digit_t, one big-int add and subtract, holds delta in every byte
    lane, offset by 0x80; subtracting d from every lane then sets a lane's
    high bit iff delta >= d, so two such thresholds give the byte mask of
    the lanes whose delta is d, and each plane of H, shifted by d *
    s^(t-1) bytes, is kept under it.  No lane leaves [0, 255] while 2(s - 1)
    < 128.  A coefficient step enters as its table, the `_Planes.linear`
    plane of the identity planes.  The lanes are read once, at the end."""
    a = program.alphabet
    s, size = a.s, a.size
    trace = _Planes(a)
    inputs = trace.identity()
    digits = [int.from_bytes(plane, _ORDER) for plane in inputs]
    ones = int.from_bytes(bytes((1,)) * size, _ORDER)
    high = ones << 7
    cuts = [(d + 1) * ones for d in range(1 - s, s - 1)]  # cuts[d + s - 1] is d + 1 per lane
    count = ((size - 1).bit_length() + 7) // 8  # bytes of the largest index
    planes = []
    for j in range(count):
        pw = 1 << 8 * j  # byte j of v steps every pw indices
        run = b"".join(bytes((b,)) * pw for b in range(min(256, -(-size // pw))))
        planes.append(int.from_bytes((run * -(-size // len(run)))[:size], _ORDER))
    sign = 8 if _ORDER == "little" else -8  # bits that move a plane one index down
    for asg in program.assignments[::-1]:
        i = asg.target - 1
        tab = trace.linear(inputs, asg.coeffs) if asg.table is None else asg.table
        base = int.from_bytes(bytes(tab), _ORDER) + high - digits[i]
        moved = [0] * count
        over = high  # the lanes where delta >= 1 - s: all of them
        for delta in range(1 - s, s):
            at = over
            over = (base - cuts[delta + s - 1]) & high if delta < s - 1 else 0
            at ^= over  # the high bit of the lanes where delta is this one
            if not at:
                continue
            mask = (at >> 7) * 255
            shift = sign * delta * trace.powers[i]
            for j, plane in enumerate(planes):
                moved[j] |= (plane >> shift if shift >= 0 else plane << -shift) & mask
        planes = moved
    w = trace.width
    lanes = bytearray(size * w)
    for j, plane in enumerate(planes):
        lanes[j if _ORDER == "little" else w - 1 - j::w] = plane.to_bytes(size, _ORDER)
    return _read_lanes(lanes, w)


@dataclass(frozen=True)
class InSituProgram:
    """A sequence of assignments over one shared alphabet.

    The constructor checks every step and stores each table as the type
    `_table_type` picks, whatever sequence of ints it was given.
    """

    alphabet: Alphabet
    assignments: tuple[Assignment, ...]

    def __post_init__(self) -> None:
        a = self.alphabet
        _check_ints([asg.target for asg in self.assignments], "target")
        form = _table_type(a)
        steps = []
        for pos, asg in enumerate(self.assignments):
            if not 1 <= asg.target <= a.n:
                raise ValueError(f"assignment {pos}: target {asg.target} out of range [1, {a.n}]")
            if (asg.table is None) == (asg.coeffs is None):
                raise ValueError(f"assignment {pos}: exactly one of table/coeffs must be set")
            if asg.table is not None:
                tab = asg.table
                if type(tab) not in (bytes, tuple, list, bytearray):
                    tab = tuple(tab)  # bytes() would read an array's buffer, not its values
                if len(tab) != a.size:
                    raise ValueError(f"assignment {pos}: table needs {a.size} entries")
                _check_values(tab, a.s, pos, "table value")
                tab = form(tab)
                if tab is not asg.table:
                    asg = Assignment(asg.target, table=tab)
            else:
                if len(asg.coeffs) != a.n:
                    raise ValueError(f"assignment {pos}: coefficient row needs {a.n} entries")
                _check_values(asg.coeffs, a.s, pos, "coefficient")
            steps.append(asg)
        object.__setattr__(self, "assignments", tuple(steps))

    def __len__(self) -> int:
        return len(self.assignments)

    @property
    def signature(self) -> tuple[int, ...]:
        """The sequence of assigned components."""
        return tuple(asg.target for asg in self.assignments)


def _unchecked(cls: type[_T], *fields: object) -> _T:
    # a value the package computed from checked input is valid by
    # construction, so it skips the entry check; `fields` are the
    # dataclass fields in order, written past the frozen __setattr__
    value = object.__new__(cls)
    value.__dict__.update(zip(cls.__match_args__, fields))
    return value


def _check_ints(values: Sequence[int], what: str) -> None:
    # one sum in C stands in for a type test per entry: a float, Fraction
    # or Decimal among ints makes the sum one, and a str or None makes it raise
    try:
        if type(sum(values)) is int:
            return
    except TypeError:
        pass
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"{what} {v!r} is not an integer")


def _check_values(values: Sequence[int], s: int, pos: int, what: str) -> None:
    if type(values) is bytes:
        # every byte is an int; deleting the bytes below s leaves the others
        if values.translate(None, bytes(range(min(s, 256)))):
            bad = next(x for x in values if x >= s)
            raise ValueError(f"assignment {pos}: {what} {bad} out of range [0, {s})")
        return
    _check_ints(values, f"assignment {pos}: {what}")
    _check_range(values, s, f"assignment {pos}: {what}")


def _check_range(values: Sequence[int], bound: int, what: str) -> None:
    # a table repeats its s values over s^n entries, and one set in C then a
    # loop over at most s distinct values takes 80 us on 4096 entries where
    # a loop over the entries takes 150 us (Python 3.11); images are about
    # as many as their bound, and a set of them would double the time.
    # Either way the message names the first offender in order.
    for v in set(values) if bound < len(values) else values:
        if not 0 <= v < bound:
            bad = next(x for x in values if not 0 <= x < bound)
            raise ValueError(f"{what} {bad} out of range [0, {bound})")


def execute(program: InSituProgram, vector: Sequence[int]) -> tuple[int, ...]:
    """Run the program on one vector and return the final vector."""
    a = program.alphabet
    s = a.s
    digits = list(vector)
    if len(digits) != a.n:
        raise ValueError(f"expected {a.n} components, got {len(digits)}")
    _check_ints(digits, "component")
    _check_range(digits, s, "component")
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
    """The mapping computed by the program, by running every input index:
    past 256 indices at s <= 128, backward on index lanes if a step is a
    table and s <= 6, and forward on digit planes otherwise; up to 256
    indices, and at s > 128, by composed step images (see the module
    docstring)."""
    a = program.alphabet
    if _on_planes(a):
        if a.s <= _LANE_MAX_S and any(asg.table is not None for asg in program.assignments):
            return _unchecked(Mapping, a, tuple(_trace_lanes(program)))
        trace = _Planes(a)
        planes = trace.identity()
        for asg in program.assignments:
            if asg.table is None:
                plane = trace.linear(planes, asg.coeffs)
            else:  # table values lie in [0, s), so they fit a byte
                plane = bytes(itemgetter(*trace.indices(planes))(asg.table))
            planes[asg.target - 1] = plane
        return _unchecked(Mapping, a, tuple(trace.indices(planes)))
    state = range(a.size)
    for asg in program.assignments:
        trans = step_images(assignment_table(asg, a), asg.target, a)
        state = itemgetter(*state)(trans)  # a tuple, since size >= 2
    return _unchecked(Mapping, a, tuple(state))


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
    return _unchecked(InSituProgram, a, tuple(parts))


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
    return _unchecked(InSituProgram, a, tuple(merged))


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
    return Assignment(t, table=_table_type(alphabet)(itemgetter(*trans)(tab2)))


def invert_program(program: InSituProgram) -> InSituProgram:
    """Program for the inverse of the bijection a program computes.

    A program is a bijection iff every step is: until the first step that
    merges two states, every state is reachable.  A bijective step on
    component t permutes S on each fiber (the indices that differ only in
    component t), so the inverse undoes the steps in reverse order, each
    as the table of its inverse fiber permutations.  Over s = 2 every
    fiber permutation is its own inverse, so the tables come back unchanged.
    """
    a = program.alphabet
    s = a.s
    form = _table_type(a)
    steps = []
    for asg in reversed(program.assignments):
        pw = s ** (asg.target - 1)
        inv = [None] * a.size
        for v, w in enumerate(step_images(assignment_table(asg, a), asg.target, a)):
            inv[w] = v // pw % s
        if None in inv:  # some slot got two preimages, so another got none
            raise NotBijective("program does not compute a bijection")
        steps.append(Assignment(asg.target, table=form(inv)))
    return _unchecked(InSituProgram, a, tuple(steps))


def component_permutation(sources: Sequence[int], alphabet: Alphabet) -> Mapping:
    """Mapping that permutes components: output component i is input
    component sources[i-1] (1-based)."""
    sources = tuple(sources)
    if sorted(sources) != list(range(1, alphabet.n + 1)):
        raise ValueError("sources must be a permutation of 1..n")
    # digit recurrence over input components j = 1..n: digit d of j adds d
    # times the place value w of the output slot that reads j
    images = [0]
    for _, w in sorted(zip(sources, alphabet.powers())):
        images = [y + d * w for d in range(alphabet.s) for y in images]
    return _unchecked(Mapping, alphabet, tuple(images))


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
        images = execute_all(_unchecked(InSituProgram, a, tuple(chunk))).images
        steps.append(Assignment(reg + 1, table=_table_type(wide)([w >> shift & mask for w in images])))
    return _unchecked(InSituProgram, wide, tuple(steps))
