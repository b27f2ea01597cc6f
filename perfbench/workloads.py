"""The four workloads: seeded inputs, the command-line ops run on them,
each op's independent check, and its replay as public package calls.

Every op is one `insitu.cli.main(argv)` call.  Its replay makes the
calls that `cli` makes (formats -> compiler -> core.execute_all ->
minsim.verify -> formats) through a tracer, one span per call; a few
extra probe calls measure a layer the public calls hide (the top-level
edge coloring, re-validating a program, coefficient tables).

Why each workload:
  compile  routing, sweeps, merge_adjacent and validation do most of
           their work here; compile writes programs and verify reads
           them, so formats runs in both directions.
  linear   coefficient-table materialization happens only here; there is
           no routing.  Composite moduli exercise unit_multipliers.
  suite    the same compilers on 300-input samples of tiny universes,
           where fixed cost per input (validation, tiny colorings, tiny
           verifies) outweighs cost per table entry.
  oracle   the BFS kernel and full_universe run only here; the 2^3 ops
           are the bijective and general halves, the 2^2 universe gives
           exact verdicts of every length.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from collections import deque
from types import SimpleNamespace

import check

MODULES = ("cli", "core", "benes", "factor", "blockseq", "linmod", "minsim", "oracle",
           "formats", "rng")

# spans that measure a hidden layer rather than a call cli makes
PROBES = {"benes.edge_color.euler", "benes.edge_color.matching", "core.program_validate",
          "core.assignment_table", "linmod.ModRing.of", "suite.breakdown"}

COMPILE_SHAPES = [("benes", 2, 12), ("benes", 3, 7), ("benes", 4, 6), ("benes", 5, 5),
                  ("benes", 6, 4), ("general4-sorted", 2, 11), ("general4-flex", 2, 11),
                  ("general5", 3, 6), ("general5", 4, 5)]
# random bijections at 3^8 hit the known RecursionError in benes routing;
# they run after the timed loop and are reported, not timed
DEFECT_SHAPE = ("benes", 3, 8)
DEFECT_COUNT = 2
LINEAR_SHAPES = [(4, 6), (4, 6), (4, 6), (2, 12), (8, 4), (16, 3), (12, 3)]
SUITE_CALLS = [("benes", 2, 3, 300), ("benes", 3, 2, 300), ("general4-sorted", 2, 3, 300),
               ("general4-flex", 2, 3, 300), ("general5", 3, 2, 300),
               ("general5", 2, 3, 300), ("linear", 6, 3, 300)]
ORACLE_HEAVY = 2  # 2^3 mappings and as many 2^3 bijections per cycle
ORACLE_BUDGET = 1_000_000


def load_package():
    """Import insitu afresh, so set-up pays the import every time."""
    for name in [m for m in sys.modules if m == "insitu" or m.startswith("insitu.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("insitu." + m) for m in MODULES})


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------- replays

def _parse(t, pkg, kind: str, path: str):
    text = _read(path)
    t.count("formats.bytes", len(text))
    return t.call("formats.parse_" + kind, getattr(pkg.formats, "parse_" + kind), text)


def _format(t, pkg, kind: str, program) -> str:
    text = t.call("formats.format_" + kind, getattr(pkg.formats, "format_" + kind), program)
    t.count("formats.bytes", len(text))
    return text


def _route(t, pkg, e):
    name = "benes.edge_color.euler" if e.alphabet.s == 2 else "benes.edge_color.matching"
    t.call(name, pkg.benes.edge_color, pkg.benes.suffix_graph(e))
    t.count("benes.points", e.alphabet.size)
    return t.call("benes.route_bijection", pkg.benes.route_bijection, e)


def _fuse(t, pkg, *parts):
    joined = t.call("core.concat", pkg.core.concat, *parts)
    merged = t.call("core.merge_adjacent", pkg.core.merge_adjacent, joined)
    t.count("merge.steps_in", len(joined))
    t.count("merge.steps_removed", len(joined) - len(merged))
    return merged


def _general4_sorted(t, pkg, e):
    fac = t.call("factor.factor_by_classes", pkg.factor.factor_by_classes, e)
    g = _route(t, pkg, fac.pre)
    i = t.call("factor.forward_program", pkg.factor.forward_program, fac.collapse)
    f = t.call("factor.backward_restricted_program", pkg.factor.backward_restricted_program,
               fac.post, 0, len(fac.slots) - 1)
    return _fuse(t, pkg, g, i, f)


def _general5(t, pkg, e):
    fac = t.call("factor.factor_by_classes", pkg.factor.factor_by_classes, e)
    g = _route(t, pkg, fac.pre)
    i = t.call("factor.forward_program", pkg.factor.forward_program, fac.collapse)
    f = t.call("benes.route_bijection_reversed", pkg.benes.route_bijection_reversed, fac.post)
    return _fuse(t, pkg, g, i, f)


def _general4_flex(t, pkg, e):
    # the public calls of blockseq.compile_general4_flexible with default choices
    a = e.alphabet
    classes = t.call("factor.preimage_classes", pkg.factor.preimage_classes, e)
    base = [len(v) for v in classes.values()] + [0] * (a.size - len(classes))
    bseq, _ = t.call("blockseq.make_block_sequence", pkg.blockseq.make_block_sequence, base)
    by_size: dict[int, deque] = {}
    for y, members in classes.items():
        by_size.setdefault(len(members), deque()).append(y)
    slots = tuple(by_size[v].popleft() if v else None for v in bseq.values)
    fac = t.call("factor.factor_by_classes", pkg.factor.factor_by_classes, e, slots)
    g = _route(t, pkg, fac.pre)
    f = _route(t, pkg, fac.post)
    head = t.call("core.InSituProgram", pkg.core.InSituProgram, a, f.assignments[:a.n])
    mid = t.call("blockseq.compose_forward_program", pkg.blockseq.compose_forward_program,
                 fac.collapse, head)
    tail = t.call("core.InSituProgram", pkg.core.InSituProgram, a, f.assignments[a.n:])
    return _fuse(t, pkg, g, mid, tail)


PIPELINES = {"benes": _route, "general4-sorted": _general4_sorted,
             "general5": _general5, "general4-flex": _general4_flex}


def _verify_tables(t, pkg, program, target) -> bool:
    entries = len(program) * program.alphabet.size
    got = t.call("core.execute_all", pkg.core.execute_all, program)
    t.count("core.table_entries", entries)
    routing = t.call("minsim.routing_of", pkg.minsim.routing_of, program)
    report = t.call("minsim.verify", pkg.minsim.verify, routing, target)
    t.count("core.table_entries", entries)
    return got.images == target.images and report.performs


def _linear_tables(t, pkg, program, matrix) -> bool:
    s = program.ring.s
    a = pkg.core.Alphabet(s, program.n)
    for fac in program.factors:
        asg = pkg.core.Assignment(fac.row, coeffs=tuple(c % s for c in fac.coefficients))
        t.call("core.assignment_table", pkg.core.assignment_table, asg, a)
    tables = t.call("linmod.to_in_situ", pkg.linmod.to_in_situ, program)
    target = t.call("linmod.linear_mapping", pkg.linmod.linear_mapping, matrix)
    return _verify_tables(t, pkg, tables, target)


def _product_ok(t, pkg, program, matrix) -> bool:
    got = t.call("linmod.product", pkg.linmod.product, tuple(reversed(program.factors)),
                 program.ring, program.n)
    return got.entries == matrix.entries


# -------------------------------------------------------------------- ops

class CompileTable:
    def __init__(self, method, s, n, images, src, prog):
        self.method, self.s, self.n, self.images = method, s, n, images
        self.src, self.output = src, prog
        self.shape = f"compile {method} {s}^{n}"
        self.argv = ["compile", src, "--method", method, "--verify", "-o", prog]
        self.points = s ** n

    def check(self, cli, rc, stdout, out):
        if rc != 0 or out is None:
            return f"exit {rc}"
        fail = check.check_table_program(out, self.s, self.n, self.images, self.method)
        if fail:
            return fail
        _, _, _, steps = check.read_program(out)
        f = check.report_fields(stdout)
        if f.get("performs") != "true" or f.get("length") != str(len(steps)):
            return "verify report disagrees with the program"
        if f.get("signature") != ",".join(str(tgt) for tgt, _ in steps):
            return "reported signature disagrees with the program"
        if self.method == "benes" and f.get("vertex_disjoint") != "true":
            return "bijection routing not vertex disjoint"
        return None

    def length(self, stdout, out):
        return int(out.split(None, 4)[3]), 1

    def replay(self, t, pkg):
        e = _parse(t, pkg, "mapping", self.src)
        program = PIPELINES[self.method](t, pkg, e)
        t.call("core.program_validate", pkg.core.InSituProgram,
               program.alphabet, program.assignments)
        ok = _verify_tables(t, pkg, program, e)
        return ok, _format(t, pkg, "program", program)

    def agrees(self, result, stdout, out):
        return result == (True, out)


class VerifyTable:
    def __init__(self, method, s, n, images, src, prog):
        self.method, self.s, self.n, self.images = method, s, n, images
        self.src, self.prog, self.output = src, prog, None
        self.shape = f"verify {method} {s}^{n}"
        self.argv = ["verify", prog, src]
        self.points = s ** n

    def check(self, cli, rc, stdout, out):
        if rc != 0 or "performs=true" not in stdout:
            return f"exit {rc}, verdict {stdout.strip()!r}"
        # the verdict is right only if the program really performs the mapping
        return check.check_table_program(_read(self.prog), self.s, self.n, self.images,
                                         self.method)

    def length(self, stdout, out):
        return None

    def replay(self, t, pkg):
        program = _parse(t, pkg, "program", self.prog)
        e = _parse(t, pkg, "mapping", self.src)
        return _verify_tables(t, pkg, program, e)

    def agrees(self, result, stdout, out):
        return result == ("performs=true" in stdout)


class CompileLinear:
    def __init__(self, s, rows, src, prog):
        self.s, self.rows, self.src, self.output = s, rows, src, prog
        self.shape = f"compile linear {s}^{len(rows)}"
        self.argv = ["compile", src, "--method", "linear", "--verify", "-o", prog]
        self.points = s ** len(rows)

    def check(self, cli, rc, stdout, out):
        if rc != 0 or out is None:
            return f"exit {rc}"
        fail = check.check_linear_program(out, self.s, self.rows)
        if fail:
            return fail
        if check.report_fields(stdout).get("performs") != "true":
            return "table verification not reported"
        return None

    def length(self, stdout, out):
        return int(out.split(None, 4)[3]), 1

    def replay(self, t, pkg):
        m = _parse(t, pkg, "matrix", self.src)
        t.call("linmod.ModRing.of", pkg.linmod.ModRing.of, m.ring.s)
        program = t.call("linmod.decompose", pkg.linmod.decompose, m)
        text = _format(t, pkg, "linear_program", program)
        ok = _product_ok(t, pkg, program, m) and _linear_tables(t, pkg, program, m)
        return ok, text

    def agrees(self, result, stdout, out):
        return result == (True, out)


class VerifyLinear:
    def __init__(self, s, rows, src, prog):
        self.s, self.rows, self.src, self.prog, self.output = s, rows, src, prog, None
        self.shape = f"verify linear {s}^{len(rows)}"
        self.argv = ["verify", prog, src]
        self.points = s ** len(rows)

    def check(self, cli, rc, stdout, out):
        if rc != 0 or "product=ok" not in stdout or "performs=true" not in stdout:
            return f"exit {rc}, verdict {stdout.strip()!r}"
        return check.check_linear_program(_read(self.prog), self.s, self.rows)

    def length(self, stdout, out):
        return None

    def replay(self, t, pkg):
        program = _parse(t, pkg, "program", self.prog)
        m = _parse(t, pkg, "matrix", self.src)
        return _product_ok(t, pkg, program, m) and _linear_tables(t, pkg, program, m)

    def agrees(self, result, stdout, out):
        return result is True


class Suite:
    def __init__(self, method, s, n, sample, seed):
        self.method, self.s, self.n, self.sample, self.seed = method, s, n, sample, seed
        self.output = None
        self.shape = f"suite {method} {s}^{n} x{sample}"
        self.argv = ["suite", "--method", method, "--s", str(s), "--n", str(n),
                     "--sample", str(sample), "--seed", str(seed)]
        self.points = sample * s ** n

    def _histogram(self, stdout):
        return {int(k[7:]): int(v) for k, v in check.report_fields(stdout).items()
                if k.startswith("length_")}

    def check(self, cli, rc, stdout, out):
        f = check.report_fields(stdout)
        hist = self._histogram(stdout)
        if rc != 0 or f.get("total") != str(self.sample) or f.get("failures") != "0":
            return f"exit {rc}, report {f.get('total')} total {f.get('failures')} failures"
        if sum(hist.values()) != self.sample or max(hist) > check.max_length(self.method, self.n):
            return "length histogram inconsistent"
        # spot-check the suite's first input through compile and our interpreter
        first = check.first_suite_input(self.method, self.s, self.n, self.seed)
        src, prog = "spot.in", "spot.prog"
        if self.method == "linear":
            _write(src, check.fmt_matrix(self.s, first))
        else:
            _write(src, check.fmt_mapping(self.s, self.n, first))
        rc, _ = cli(["compile", src, "--method", self.method, "-o", prog])
        if rc != 0:
            return f"spot-check compile exit {rc}"
        if self.method == "linear":
            return check.check_linear_program(_read(prog), self.s, first)
        return check.check_table_program(_read(prog), self.s, self.n, first, self.method)

    def length(self, stdout, out):
        hist = self._histogram(stdout)
        return sum(k * c for k, c in hist.items()), sum(hist.values())

    def replay(self, t, pkg):
        a = pkg.core.Alphabet(self.s, self.n)
        report = t.call("oracle.exhaustive_suite", pkg.oracle.exhaustive_suite, a, self.method,
                        sample=self.sample, seed=self.seed, workers=1)
        hist = t.call("suite.breakdown", self._breakdown, t, pkg, a)
        return report.to_text(), hist

    def _breakdown(self, t, pkg, a):
        # the suite's inner public calls, to attribute its time to layers
        rng = pkg.rng.SplitMix64(self.seed)
        hist: dict[int, int] = {}
        if self.method == "linear":
            ring = t.call("linmod.ModRing.of", pkg.linmod.ModRing.of, self.s)
            for _ in range(self.sample):
                m = pkg.linmod.MatrixMod.of(ring, [[rng.below(self.s) for _ in range(self.n)]
                                                   for _ in range(self.n)])
                p = t.call("linmod.decompose", pkg.linmod.decompose, m)
                _product_ok(t, pkg, p, m)
                hist[len(p)] = hist.get(len(p), 0) + 1
            return hist
        gen = pkg.rng.random_bijection if self.method == "benes" else pkg.rng.random_mapping
        for _ in range(self.sample):
            e = gen(a, rng)
            program = PIPELINES[self.method](t, pkg, e)
            _verify_tables(t, pkg, program, e)
            hist[len(program)] = hist.get(len(program), 0) + 1
        return hist

    def agrees(self, result, stdout, out):
        return result == (stdout, self._histogram(stdout))


class Oracle:
    def __init__(self, s, n, images, max_len, src):
        self.s, self.n, self.images, self.max_len, self.src = s, n, images, max_len, src
        self.output = None
        self.shape = f"oracle {s}^{n} len{max_len}"
        self.argv = ["oracle", src, "--max-len", str(max_len)]
        self.points = s ** n

    def check(self, cli, rc, stdout, out):
        verdict = stdout.strip()
        lower = check.changed_components(self.s, self.n, self.images)
        if (rc, verdict == "not_found") not in ((0, False), (1, True)):
            return f"exit {rc} with verdict {verdict!r}"
        # upper bound: the shortest compiled program that passes our check
        upper = None
        bijective = len(set(self.images)) == len(self.images)
        for method in ("benes", "general4-sorted") if bijective else ("general4-sorted",):
            prog = "oracle.prog"
            if cli(["compile", self.src, "--method", method, "-o", prog])[0] == 0:
                text = _read(prog)
                if not check.check_table_program(text, self.s, self.n, self.images, method):
                    length = len(check.read_program(text)[3])
                    upper = length if upper is None else min(upper, length)
        if verdict == "not_found":
            if lower <= self.max_len:
                return "not_found although the lower bound fits max-len"
            return None
        found = int(verdict)
        if not lower <= found <= self.max_len or (upper is not None and found > upper):
            return f"verdict {found} outside [{lower}, {upper}]"
        return None

    def length(self, stdout, out):
        verdict = stdout.strip()
        return (self.max_len + 1 if verdict == "not_found" else int(verdict)), 1

    def replay(self, t, pkg):
        e = _parse(t, pkg, "mapping", self.src)
        universe = t.call("oracle.full_universe", pkg.oracle.full_universe, e.alphabet)
        t.count("oracle.universe_size", len(universe))
        return t.call("oracle.min_length_bfs", pkg.oracle.min_length_bfs, e, self.max_len,
                      universe=universe, max_states=ORACLE_BUDGET)

    def agrees(self, result, stdout, out):
        return stdout == ("not_found\n" if result is None else f"{result}\n")


# ---------------------------------------------------------------- set-up

def _generate(t, pkg, kind, s, n, rng):
    a = pkg.core.Alphabet(s, n)
    gen = pkg.rng.random_bijection if kind == "bijection" else pkg.rng.random_mapping
    return t.call("rng.generate", gen, a, rng).images


def build(workload: str, seed: int, t, pkg):
    """The workload's op cycle and its known-defect ops; input files are
    written to the working directory."""
    rng = pkg.rng.SplitMix64(seed)
    ops: list = []
    defects: list = []
    if workload == "compile":
        for k, (method, s, n) in enumerate(COMPILE_SHAPES + [DEFECT_SHAPE] * DEFECT_COUNT):
            kind = "bijection" if method == "benes" else "mapping"
            images = _generate(t, pkg, kind, s, n, rng)
            src, prog = f"c{k}.map", f"c{k}.prog"
            _write(src, check.fmt_mapping(s, n, images))
            if k < len(COMPILE_SHAPES):
                ops += [CompileTable(method, s, n, images, src, prog),
                        VerifyTable(method, s, n, images, src, prog)]
            else:
                defects.append(CompileTable(method, s, n, images, src, prog))
    elif workload == "linear":
        for k, (s, n) in enumerate(LINEAR_SHAPES):
            rows = t.call("rng.generate", lambda: [[rng.below(s) for _ in range(n)]
                                                   for _ in range(n)])
            src, prog = f"l{k}.mat", f"l{k}.lin"
            _write(src, check.fmt_matrix(s, rows))
            ops += [CompileLinear(s, rows, src, prog), VerifyLinear(s, rows, src, prog)]
    elif workload == "suite":
        for method, s, n, sample in SUITE_CALLS:
            ops.append(Suite(method, s, n, sample, t.call("rng.generate", rng.below, 1 << 32)))
    elif workload == "oracle":
        heavy = []
        for kind in ("mapping", "bijection") * ORACLE_HEAVY:
            # max-len 2 < 3 changed components, so not_found is provably right
            images = _generate(t, pkg, kind, 2, 3, rng)
            while check.changed_components(2, 3, images) < 3:
                images = _generate(t, pkg, kind, 2, 3, rng)
            src = f"o3_{len(heavy)}.map"
            _write(src, check.fmt_mapping(2, 3, images))
            heavy.append(Oracle(2, 3, images, 2, src))
        universe = list(itertools.product(range(4), repeat=4))
        order = t.call("rng.generate", pkg.rng.random_bijection,
                       pkg.core.Alphabet(2, 8), rng).images
        light = []
        for k in order:  # a seeded permutation of all 256 mappings of 2^2
            src = f"o2_{k}.map"
            _write(src, check.fmt_mapping(2, 2, universe[k]))
            light.append(Oracle(2, 2, universe[k], 8, src))
        step = len(light) // len(heavy)
        for k, op in enumerate(heavy):
            ops += [op] + light[k * step:(k + 1) * step]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, defects


def warm_up_ops(ops):
    """The first op of each input shape (compile and verify share one)."""
    seen, out = set(), []
    for op in ops:
        key = op.shape.split(" ", 1)[1]
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out
