"""The table kernels against the per-entry code they replaced.

`core` builds coefficient tables by picking and adding existing ints
with `operator.itemgetter` and `map(operator.add, ...)` at every size.
Step images do the same past 256 indices and keep their per-entry
comprehension up to 256.  Traces and linear mappings past 256 indices at
s <= 128 run on digit planes: `bytes.translate` and big-int sums for
coefficient steps, a gather by index lanes for table steps; a trace with
a table step at s <= 6 runs backward instead, selecting on byte planes
of index lanes, and is checked at every s up to 7, just past 256
indices, at 2^17 (four-byte lanes), on the empty program and in the
other byte order; up to 256 indices, and at s > 128, traces compose
step images.  `_digit_runs`
places its runs by slices, `component_permutation` builds its images by
a digit recurrence and `is_suffix_compatible` halves the images level
by level.  The references below are the per-entry comprehensions and
loops, used at every size, and both sides must agree entry for entry at
shapes from 2 indices up to 16641, on either side of 256, at s = 2, 3,
12, 16, 127 and 128 on planes and at s = 129, 257 and 300 off them
(s = 257 and 300 have no shape of 256 indices or fewer).  At 127^3 and
128^3 they agree on a sample of indices: there a byte lane holds two
residues, so a row of three is reduced partway through.  At s <= 16 a
lane holds 17 residues or more, more than any row within the 64-bit
index cap has, so there a sum is reduced only at the end of its row.

Needs only the standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_kernel_reference.py
"""

import itertools
import sys
from operator import itemgetter

from insitu import blockseq, core
from insitu.blockseq import (
    compile_general4_flexible,
    is_suffix_compatible,
    make_block_sequence,
    tree_choice_count,
)
from insitu.core import (
    Alphabet,
    Assignment,
    InSituProgram,
    Mapping,
    assignment_table,
    component_permutation,
    execute_all,
    step_images,
)
from insitu.factor import collapse_mapping, factor_by_classes, preimage_classes
from insitu.linmod import MatrixMod, ModRing, linear_mapping
from insitu.rng import SplitMix64, random_mapping

# sizes 2, 4, 8, 3, 9, 125, 216, 256, 512, 243, 729, 256, 1024, 144, 1728,
# 256, 4096, 289, 4096, 127, 16129, 128, 16384, 129, 16641, 257 and 300
SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 3), (6, 3),
          (2, 8), (2, 9), (3, 5), (3, 6), (4, 4), (4, 5), (12, 2), (12, 3), (16, 2), (16, 3),
          (17, 2), (2, 12), (127, 1), (127, 2), (128, 1), (128, 2), (129, 1), (129, 2),
          (257, 1), (300, 1)]
# the programs each trace runs: coefficient steps, table steps, both in turn
KINDS = ("mixed", "coeffs", "table")
# coefficient rows with zero, unit and non-unit entries, on both sides of 256 indices
ROWS = {
    (6, 2): [(0, 5), (2, 3), (4, 0)],
    (6, 4): [(0, 1, 2, 3), (5, 0, 4, 0), (3, 2, 0, 1), (0, 0, 0, 4)],
    (12, 2): [(0, 6), (8, 7), (11, 0)],
    (12, 3): [(0, 1, 6), (4, 0, 9), (5, 8, 3), (0, 0, 10)],
    (16, 2): [(0, 8), (12, 1), (15, 0)],
    (16, 3): [(0, 2, 15), (4, 0, 3), (7, 10, 0), (0, 0, 12)],
}


def _ref_step_images(tab, target, a):
    s = a.s
    pw = s ** (target - 1)
    return [v + (tab[v] - v // pw % s) * pw for v in range(a.size)]


def _ref_table(coeffs, a):
    s = a.s
    tab = [0]
    for c in coeffs:
        tab = tab * s if c == 0 else [(t + c * d) % s for d in range(s) for t in tab]
    return tuple(tab)


def _ref_linear_mapping(m):
    a = Alphabet(m.ring.s, m.n)
    images = [0] * a.size
    for row, pw in zip(m.entries, a.powers()):
        tab = _ref_table(row, a)
        images = [y + d * pw for y, d in zip(images, tab)]
    return tuple(images)


def _ref_linear_image(m, v):
    # x -> Mx on the digits of one index
    a = Alphabet(m.ring.s, m.n)
    x = [v // pw % a.s for pw in a.powers()]
    return sum(sum(c * d for c, d in zip(row, x)) % a.s * pw
               for row, pw in zip(m.entries, a.powers()))


def _ref_digit_runs(pw, s, size, stride):
    span = pw * s
    return [v % pw + v // span * stride for v in range(size)]


def _ref_component_permutation(sources, a):
    s = a.s
    pows = a.powers()
    images = []
    for x in range(a.size):
        y = 0
        for i, src in enumerate(sources):
            y += (x // pows[src - 1] % s) * pows[i]
        images.append(y)
    return tuple(images)


def _ref_is_suffix_compatible(images, n):
    for shift in range(1, n):
        seen = {}
        for x, y in enumerate(images):
            if seen.setdefault(x >> shift, y >> shift) != y >> shift:
                return False
    return True


def _ref_execute_all(program):
    a = program.alphabet
    state = range(a.size)
    for asg in program.assignments:
        tab = asg.table if asg.table is not None else _ref_table(asg.coeffs, a)
        trans = _ref_step_images(tab, asg.target, a)
        state = [trans[v] for v in state]
    return tuple(state)


def _ref_run(program, v):
    # the program on the digits of one index, a step at a time
    a = program.alphabet
    digits = [v // pw % a.s for pw in a.powers()]
    for asg in program.assignments:
        if asg.table is None:
            digit = sum(c * x for c, x in zip(asg.coeffs, digits)) % a.s
        else:
            digit = asg.table[sum(d * pw for d, pw in zip(digits, a.powers()))]
        digits[asg.target - 1] = digit
    return sum(d * pw for d, pw in zip(digits, a.powers()))


def _rows(a, rng):
    # seeded rows, then the all-zero, all-one and one-entry rows
    rows = [tuple(rng.below(a.s) for _ in range(a.n)) for _ in range(3)]
    rows += [(0,) * a.n, (1,) * a.n, (0,) * (a.n - 1) + (a.s - 1,)]
    return rows + ROWS.get((a.s, a.n), [])


def _program(a, rng, kind, count=None):
    # coefficient steps, table steps or both in turn, on seeded targets;
    # 2n + 1 of them unless `count` says otherwise
    steps = []
    for i in range(2 * a.n + 1 if count is None else count):
        target = 1 + rng.below(a.n)
        if kind == "coeffs" or kind == "mixed" and i % 2:
            steps.append(Assignment(target, coeffs=tuple(rng.below(a.s) for _ in range(a.n))))
        else:
            steps.append(Assignment(target, table=tuple(rng.below(a.s) for _ in range(a.size))))
    return InSituProgram(a, tuple(steps))


def _step_mismatches(shapes):
    bad = []
    for s, n in shapes:
        a = Alphabet(s, n)
        rng = SplitMix64(1000 * s + n)
        tab = tuple(rng.below(s) for _ in range(a.size))
        for target in range(1, n + 1):
            if step_images(tab, target, a) != _ref_step_images(tab, target, a):
                bad.append((s, n, target))
    return bad


def _trace_mismatches(shapes):
    bad = []
    for s, n in shapes:
        a = Alphabet(s, n)
        rng = SplitMix64(2000 * s + n)
        for kind in KINDS:
            program = _program(a, rng, kind)
            try:
                images = execute_all(program).images
            except (IndexError, ValueError):  # a step sent some index out of range
                images = None
            if images != _ref_execute_all(program):
                bad.append((s, n, kind))
    return bad


def _lane_mismatches(shapes, count=None):
    # the backward lane trace itself, whichever kernel execute_all picks
    bad = []
    for s, n in shapes:
        a = Alphabet(s, n)
        rng = SplitMix64(9000 * s + n)
        for kind in KINDS:
            program = _program(a, rng, kind, count)
            if tuple(core._trace_lanes(program)) != _ref_execute_all(program):
                bad.append((s, n, kind))
    return bad


def _shuffled(values, rng):
    values = list(values)
    for i in range(len(values) - 1, 0, -1):
        j = rng.below(i + 1)
        values[i], values[j] = values[j], values[i]
    return values


def _suffix_images(n, rng, free_level):
    # y >> k is a function of x >> k at every level k, the image suffix of
    # each class one bit longer than its parent's, except that the suffixes
    # at free_level are drawn freely: that breaks at most the check one
    # level up, so every level of the scan is needed to see it
    cur = [0]
    for k in range(n - 1, -1, -1):
        width = 1 << (n - k)
        if k == free_level:
            cur = [rng.below(width) for _ in range(width)]
        else:
            cur = [2 * cur[c >> 1] + rng.below(2) for c in range(width)]
    return tuple(cur)


def _flexible_collapses(e, rng):
    # the collapses compile_general4_flexible checks, caught at the check,
    # and the same run sizes in a seeded order and in image order
    seen = []
    real = blockseq.is_suffix_compatible

    def record(mapping):
        seen.append(mapping)
        return real(mapping)

    choices = [rng.below(2) == 1 for _ in range(tree_choice_count(e.alphabet.n))]
    blockseq.is_suffix_compatible = record
    try:
        compile_general4_flexible(e, choices)
    finally:
        blockseq.is_suffix_compatible = real
    sizes = [len(v) for v in preimage_classes(e).values()]
    bseq, _ = make_block_sequence(sizes + [0] * (e.alphabet.size - len(sizes)))
    seen.append(collapse_mapping(_shuffled(bseq.values, rng), e.alphabet))
    seen.append(factor_by_classes(e).collapse)
    return seen


def test_digit_runs_match_the_comprehension():
    for s, n in SHAPES:
        size = s ** n
        for pw in Alphabet(s, n).powers():
            for stride in (pw, pw * s):
                assert core._digit_runs(pw, s, size, stride) == _ref_digit_runs(pw, s, size, stride), \
                    (s, n, pw, stride)


def test_component_permutations_match_the_index_loop():
    for s, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)]:
        a = Alphabet(s, n)
        for perm in itertools.permutations(range(1, n + 1)):
            assert component_permutation(perm, a).images == _ref_component_permutation(perm, a), (s, n, perm)
    for s, n in [(3, 6), (4, 5), (2, 11), (257, 1)]:
        a = Alphabet(s, n)
        rng = SplitMix64(5000 * s + n)
        perms = [tuple(range(n, 0, -1))] + [tuple(_shuffled(range(1, n + 1), rng)) for _ in range(4)]
        for perm in perms:
            assert component_permutation(perm, a).images == _ref_component_permutation(perm, a), (s, n, perm)


def test_suffix_compatibility_matches_the_dict_scan():
    verdicts = []

    def agree(mapping):
        got = is_suffix_compatible(mapping)
        assert got == _ref_is_suffix_compatible(mapping.images, mapping.alphabet.n), mapping
        verdicts.append(got)

    a = Alphabet(2, 2)
    for images in itertools.product(range(4), repeat=4):
        agree(Mapping(a, images))
    for n in range(1, 11):
        a = Alphabet(2, n)
        rng = SplitMix64(6000 + n)
        for free_level in [None] * 5 + list(range(n - 1)):
            for _ in range(4):
                images = _suffix_images(n, rng, free_level)
                agree(Mapping(a, images))
                # one image bit flipped: on a compatible mapping bit 0
                # keeps the verdict and a higher bit b breaks levels 1..b
                flipped = list(images)
                flipped[rng.below(a.size)] ^= 1 << rng.below(n)
                agree(Mapping(a, tuple(flipped)))
        agree(random_mapping(a, rng))
        for _ in range(6):
            for collapse in _flexible_collapses(random_mapping(a, rng), rng):
                agree(collapse)
    assert verdicts.count(True) >= 250 and verdicts.count(False) >= 250, \
        (verdicts.count(True), verdicts.count(False))


def test_step_images_match_the_comprehension():
    assert _step_mismatches(SHAPES) == []


def test_coefficient_tables_match_the_digit_recurrence():
    for s, n in SHAPES + list(ROWS):
        a = Alphabet(s, n)
        for row in _rows(a, SplitMix64(3000 * s + n)):
            got = assignment_table(Assignment(1, coeffs=row), a)
            assert tuple(got) == _ref_table(row, a), (s, n, row)


def test_linear_mappings_match_the_accumulation():
    for s, n in SHAPES + list(ROWS):
        a = Alphabet(s, n)
        rng = SplitMix64(4000 * s + n)
        ring = ModRing(s)
        seeded = [[rng.below(s) for _ in range(n)] for _ in range(n)]
        rows = _rows(a, rng)[3:]  # the fixed rows, repeated down the matrix
        fixed = [rows[i % len(rows)] for i in range(n)]
        for rows in (seeded, fixed):
            m = MatrixMod.of(ring, rows)
            assert linear_mapping(m).images == _ref_linear_mapping(m), (s, n, rows)


def test_traces_match_the_gather_loop():
    assert _trace_mismatches(SHAPES) == []


def test_traces_in_the_other_byte_order_match_the_gather_loop():
    # planes and lanes pass through big ints in the byte order `_ORDER`,
    # the host's; set to the other order, digits widen into the other end
    # of each lane and the lanes are swapped as they are read back, so the
    # big-endian path runs on a little-endian host and the other way round
    shapes = [(2, 12), (8, 4), (3, 8)]
    real = core._ORDER
    core._ORDER = "big" if sys.byteorder == "little" else "little"
    try:
        traces = _trace_mismatches(shapes)
        linear = []
        for s, n in shapes:
            rng = SplitMix64(8000 * s + n)
            m = MatrixMod.of(ModRing(s), [[rng.below(s) for _ in range(n)] for _ in range(n)])
            if linear_mapping(m).images != _ref_linear_mapping(m):
                linear.append((s, n))
    finally:
        core._ORDER = real
    assert traces == [] and linear == []


# the first shape past 256 indices at each s up to one past the bound of
# the backward lane trace, where execute_all stops calling it
LANE_SHAPES = [(2, 9), (3, 6), (4, 5), (5, 4), (6, 4), (7, 3)]


def test_lane_traces_match_the_gather_loop():
    assert max(s for s, _ in LANE_SHAPES) == core._LANE_MAX_S + 1
    assert all(s ** n > core._SMALL_INTS >= s ** (n - 1) for s, n in LANE_SHAPES)
    assert _lane_mismatches(LANE_SHAPES) == []


def test_lane_traces_in_four_byte_lanes_match_the_gather_loop():
    # 2^17 indices need three bytes each, so the lanes are four bytes wide
    # and one byte of each stays zero; four steps keep the reference short
    assert core._Planes(Alphabet(2, 17)).width == 4
    assert _lane_mismatches([(2, 17)], count=4) == []


def test_the_empty_program_traces_to_the_identity():
    for s, n in LANE_SHAPES + [(2, 17)]:
        a = Alphabet(s, n)
        empty = InSituProgram(a, ())
        assert core._trace_lanes(empty) == list(range(a.size)), (s, n)
        assert execute_all(empty).images == tuple(range(a.size)), (s, n)


def test_lane_traces_in_the_other_byte_order_match_the_gather_loop():
    # set to the other byte order, a plane moves the other way as a big int
    # and its bytes fill the other end of each lane, which is swapped as it
    # is read back
    real = core._ORDER
    core._ORDER = "big" if sys.byteorder == "little" else "little"
    try:
        bad = _lane_mismatches(LANE_SHAPES[:3]) + _lane_mismatches([(2, 17)], count=4)
        empty = core._trace_lanes(InSituProgram(Alphabet(2, 17), ()))
    finally:
        core._ORDER = real
    assert bad == [] and empty == list(range(1 << 17))


def test_plane_sums_reduce_partway_through_a_row():
    # at s = 127 and 128 a byte lane holds the sum of two residues but not
    # of three, so a row of three nonzero coefficients is reduced partway
    # through; 127^3 and 128^3 indices also take 4-byte lanes.  Checked at
    # every 997th index and at the last 300
    for s in (127, 128):
        assert 2 * (s - 1) <= 255 < 3 * (s - 1)
        a = Alphabet(s, 3)
        rng = SplitMix64(7000 + s)
        rows = [tuple(1 + rng.below(s - 1) for _ in range(3)) for _ in range(4)]
        program = InSituProgram(a, tuple(
            Assignment(1 + k % 3, coeffs=row) for k, row in enumerate(rows)))
        picks = [*range(0, a.size, 997), *range(a.size - 300, a.size)]
        sample = itemgetter(*picks)  # keeps no image table alive past its check
        assert sample(execute_all(program).images) == tuple(_ref_run(program, v) for v in picks), s
        m = MatrixMod.of(ModRing(s), rows[:3])
        assert sample(linear_mapping(m).images) == tuple(_ref_linear_image(m, v) for v in picks), s


def test_a_base_off_by_one_place_value_fails():
    # the zeroed index of the last entry raised by one place value: the
    # step images of every shape past 256 indices must differ, and so must
    # the traces that still compose them there, at s > 128.  Then the index
    # read off the last lane raised by one, first in `_Planes.indices`
    # alone: every forward trace on digit planes past 256 indices, of
    # coefficient programs at s <= 128 and of every program at 6 < s <=
    # 128, must differ; then in `_read_lanes`, which the backward lane
    # trace of table programs at s <= 6 reads too: every trace past 256
    # indices at s <= 128 must differ
    real_runs, real_indices, real_lanes = core._digit_runs, core._Planes.indices, core._read_lanes

    def shifted(pw, s, size, stride):
        out = real_runs(pw, s, size, stride)
        out[-1] += pw
        return out

    def lane_shifted(read):
        def wrapped(*args):
            out = read(*args)
            out[-1] += 1
            return out
        return wrapped

    large = [(s, n) for s, n in SHAPES if s ** n > core._SMALL_INTS]
    core._digit_runs = shifted
    try:
        steps, traces = _step_mismatches(SHAPES), _trace_mismatches(SHAPES)
    finally:
        core._digit_runs = real_runs
    assert sorted({(s, n) for s, n, _ in steps}) == sorted(large)
    assert len(steps) == sum(n for _, n in large)
    assert traces == [(s, n, kind) for s, n in large if s > core._PLANE_MAX_S for kind in KINDS]
    core._Planes.indices = lane_shifted(real_indices)
    try:
        traces = _trace_mismatches(SHAPES)
    finally:
        core._Planes.indices = real_indices
    assert traces == [(s, n, kind) for s, n in large if s <= core._PLANE_MAX_S for kind in KINDS
                      if kind == "coeffs" or s > core._LANE_MAX_S]
    core._read_lanes = lane_shifted(real_lanes)
    try:
        traces = _trace_mismatches(SHAPES)
    finally:
        core._read_lanes = real_lanes
    assert traces == [(s, n, kind) for s, n in large if s <= core._PLANE_MAX_S for kind in KINDS]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
    print(f"python {sys.version.split()[0]}: all kernel references agree")
