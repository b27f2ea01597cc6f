"""Benchmark of the insitu command line, end to end and per layer.

    python3 perfbench/run.py --workload compile|linear|suite|oracle|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports `src/insitu` in this
process and needs nothing outside the standard library.  Each workload
is a closed loop with one client: the seeded op cycle runs through
`insitu.cli.main(argv)` again and again, whole cycles only, until
`--seconds` have passed.  Op files live in a scratch directory under
`perfbench/out/`, which is the working directory while ops run (so file
names, and the output digest, do not depend on it) and is removed at
exit; a JSON result per run is kept in `perfbench/out/`.

Timings are paced.  Before and after every op and every set-up the
harness times a fixed kernel shaped like the package's table loops
(`pace_ms`), and multiplies the op's wall time by the kernel's nominal
time over its mean time then.  On a shared 2-core machine whose speed
swings by tens of percent within seconds, this removes most of the swing
from the figures, which are otherwise as measured; the unscaled figures
are printed as `# unpaced`.  Set-up is timed five times and its median
reported; ops are timed one by one, and `points_per_s` takes each op
shape at its median time.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op through
the command line and then replays it as the package calls the command
line makes, once with spans recorded and once with recording off; it
prints per-layer self times and counts per pass over the cycle, and the
recording overhead.  Spans are written once, at the end.

Outputs are checked after the timed loop by `check.py`, which does not
import the package.  An op fails if it raises, exits with a code other
than the documented one for its verdict, fails that check, or prints or
writes other bytes than its first run did.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs the
four workloads, each in its own process, and prints every metric.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # no cache files in the checkout; import cost stays constant

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile", "linear", "suite", "oracle")
SETUP_REPS = 5
# timings are scaled to a machine on which pace_ms() takes the nominal time
PACE_SIZE = 1024
PACE_NOMINAL_MS = 0.5

END_TO_END = {
    "setup_s": "s", "points_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "ops_ok_frac": "frac", "program_len_mean": "steps", "peak_rss_mb": "MB",
}
PER_LAYER_MS = [
    "benes.route_bijection", "benes.route_bijection_reversed", "benes.edge_color.euler",
    "benes.edge_color.matching", "factor.factor_by_classes", "factor.forward_program",
    "factor.backward_restricted_program", "blockseq.make_block_sequence",
    "blockseq.compose_forward_program", "core.concat", "core.merge_adjacent",
    "core.program_validate", "core.execute_all", "minsim.routing_of", "minsim.verify",
    "core.assignment_table", "linmod.to_in_situ", "linmod.linear_mapping", "linmod.ModRing.of",
    "linmod.decompose", "linmod.product", "oracle.full_universe", "oracle.min_length_bfs",
    "oracle.exhaustive_suite", "formats.parse_mapping", "formats.parse_matrix",
    "formats.parse_program", "formats.format_program", "formats.format_linear_program",
]
# per-layer times that come from the run rather than from one span name
DERIVED_MS = ["cli.main", "cli.self", "rng.generate", "trace.overhead"]
PER_LAYER_COUNTS = {"benes.points": "count", "core.table_entries": "count",
                    "oracle.universe_size": "count", "formats.bytes": "bytes",
                    "core.merge_adjacent.fused_frac": "frac"}


def digest(op, r) -> str:
    h = hashlib.sha256(repr((op.argv, r.rc, r.exc and r.exc.split(":")[0], r.stdout)).encode())
    h.update((r.out or "").encode())
    return h.hexdigest()


def run_op(pkg, op):
    """One op through the command line; only the cli.main call is timed."""
    stdout, exc = io.StringIO(), None
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            rc = pkg.cli.main(op.argv)
    except Exception as e:  # an uncaught error is the op's outcome, not the run's
        rc, exc = None, f"{type(e).__name__}: {str(e)[:200]}"
    ms = (perf_counter() - start) * 1e3
    out = None
    if op.output and rc == 0:
        with open(op.output, encoding="utf-8") as fh:
            out = fh.read()
    return SimpleNamespace(rc=rc, exc=exc, stdout=stdout.getvalue(), out=out, ms=ms)


def judge(cli, op, r) -> str | None:
    if r.exc:
        return f"raised {r.exc}"
    if r.rc not in (0, 1):
        return f"exit code {r.rc}"
    return op.check(cli, r.rc, r.stdout, r.out)


def setup(workload, seed, t):
    start = perf_counter()
    pkg = workloads.load_package()
    ops, defects = workloads.build(workload, seed, t, pkg)
    for op in workloads.warm_up_ops(ops):
        run_op(pkg, op)
    return perf_counter() - start, pkg, ops, defects


def check_context(pkg):
    def cli(argv):
        r = run_op(pkg, SimpleNamespace(argv=argv, output=None))
        return r.rc, r.stdout
    return cli


class Ledger:
    """Per-op outcomes: the first run of each op is kept and checked,
    later runs must reproduce its bytes."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, object] = {}
        self.runs: list[tuple[int, float, str]] = []

    def add(self, i, r, ms):
        self.first.setdefault(i, r)
        self.runs.append((i, ms, digest(self.ops[i], r)))

    def settle(self, cli, extra_failures=None):
        verdict = {i: judge(cli, self.ops[i], r) for i, r in self.first.items()}
        ref = {i: digest(self.ops[i], r) for i, r in self.first.items()}
        failures, ok = [], []
        for k, (i, ms, dig) in enumerate(self.runs):
            why = verdict[i] or (extra_failures or {}).get(k)
            if not why and dig != ref[i]:
                why = "output differs from the first run of the same op"
            if why:
                failures.append({"shape": self.ops[i].shape, "argv": self.ops[i].argv,
                                 "reason": why})
            ok.append(not why)
        h = hashlib.sha256("".join(ref[i] for i in sorted(ref)).encode()).hexdigest()
        return ok, failures, h


def probe_defects(cli, pkg, defects):
    """Run the known-defect ops once, untimed; a wrong output is a failure."""
    records, failures = [], []
    for op in defects:
        r = run_op(pkg, op)
        why = judge(cli, op, r)
        records.append({"shape": op.shape, "exception": r.exc and r.exc.split(":")[0],
                        "exit_code": r.rc, "outcome": why or "ok"})
        if why and not (r.exc or "").startswith("RecursionError"):
            failures.append({"shape": op.shape, "argv": op.argv, "reason": why})
    return records, failures


def pace_ms() -> float:
    """Best of three runs of a fixed table-tracing kernel shaped like the
    package's own loops: how fast this machine runs them now.  The
    collector is off meanwhile, so the package's heap cannot slow it."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = perf_counter()
            state = list(range(PACE_SIZE))
            table = [v & 1 for v in state]
            for pw in (1, 2, 4, 8):
                trans = [v + (table[v] - v // pw % 2) * pw for v in range(PACE_SIZE)]
                state = [trans[v] for v in state]
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best * 1e3


def measure(args):
    null = NullTracer()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        before = pace_ms()
        secs, pkg, ops, defects = setup(args.workload, args.seed, null)
        raw_setups.append(secs)
        setups.append(secs * PACE_NOMINAL_MS * 2 / (before + pace_ms()))
    ledger = Ledger(ops)
    raw = []
    deadline = perf_counter() + args.seconds
    before = pace_ms()
    while True:
        for i, op in enumerate(ops):
            r = run_op(pkg, op)
            after = pace_ms()
            raw.append(r.ms)
            ledger.add(i, r, r.ms * PACE_NOMINAL_MS * 2 / (before + after))
            before = after
        if perf_counter() >= deadline:
            break
    cli = check_context(pkg)
    ok, failures, h = ledger.settle(cli)
    known, probe_failures = probe_defects(cli, pkg, defects)

    times, raw_times, len_sum, len_count, shapes, shape_ms = [], [], 0, 0, {}, {}
    points = 0
    for k, (good, (i, ms, _)) in enumerate(zip(ok, ledger.runs)):
        op = ops[i]
        shapes[op.shape] = shapes.get(op.shape, 0) + 1
        shape_ms.setdefault(op.shape, []).append(ms)
        if good:
            times.append(ms)
            raw_times.append(raw[k])
            points += op.points
            r = ledger.first[i]
            got = op.length(r.stdout, r.out)
            if got:
                len_sum += got[0]
                len_count += got[1]
    attempted = len(ledger.runs)
    tail_ms, tail = tail_of(times)
    metrics = {
        "setup_s": statistics.median(setups),
        # each shape's ops timed at their median, so a slow spell moves it less
        "points_per_s": points * 1e3 / sum(len(v) * statistics.median(v)
                                           for v in shape_ms.values()),
        "op_ms_p50": statistics.median(times) if times else 0.0,
        "op_ms_tail": tail_ms,
        "ops_ok_frac": (attempted - len(failures)) / attempted,
        "program_len_mean": len_sum / len_count if len_count else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unpaced = {"setup_s": statistics.median(raw_setups),
               "op_ms_p50": statistics.median(raw_times) if raw_times else 0.0,
               "op_ms_tail": tail_of(raw_times)[0],
               "points_per_s": points / sum(raw) * 1e3}
    info = {"setup_s_runs": setups, "cycles": attempted // len(ops), "ops_per_shape": shapes,
            "ms_per_shape": {k: [statistics.median(v), min(v), max(v)]
                             for k, v in shape_ms.items()},
            "tail": tail, "unpaced": unpaced, "digest": h, "known_defects": known,
            "failures": failures + probe_failures}
    correct = not failures and not probe_failures
    return metrics, END_TO_END, attempted, len(failures), correct, info


def tail_of(times):
    """The highest percentile with at least ten ops beyond it; below 21
    ops that percentile is not above the median, which is reported."""
    n = len(times)
    if n < 21:
        return (statistics.median(times) if times else 0.0), {
            "percentile": 50.0, "ops": n, "note": "too few ops for a tail; median reported"}
    return sorted(times)[n - 11], {"percentile": 100.0 * (n - 10) / n, "ops": n, "beyond": 10}


def traced(args):
    t, null = Tracer(), NullTracer()
    _, pkg, ops, _ = setup(args.workload, args.seed, t)
    rng_ms = t.self_ms().get("rng.generate", 0.0)
    mark = len(t)
    t.counts.clear()
    ledger = Ledger(ops)
    disagree: dict[int, str] = {}
    cli_ms = cli_self = overhead = 0.0
    passes = 0
    deadline = perf_counter() + args.seconds
    while True:
        for i, op in enumerate(ops):
            t.op += 1
            r = run_op(pkg, op)
            ledger.add(i, r, r.ms)
            first = len(t)
            # alternate the order so neither replay always runs on warm caches
            for tracer in ((t, null) if passes % 2 else (null, t)):
                start = perf_counter()
                result = op.replay(tracer, pkg)
                secs = perf_counter() - start
                if tracer is t:
                    traced_s, traced_result = secs, result
                else:
                    plain_s = secs
            if not op.agrees(traced_result, r.stdout, r.out):
                disagree[len(ledger.runs) - 1] = "replay disagrees with the command line"
            direct = t.top_level_s(first, exclude=workloads.PROBES)
            cli_ms += r.ms
            cli_self += r.ms - direct * 1e3
            overhead += (traced_s - plain_s) * 1e3
        passes += 1
        if perf_counter() >= deadline:
            break
    ok, failures, h = ledger.settle(check_context(pkg), disagree)

    own = t.self_ms(mark)
    metrics = {f"{name}.ms": own.get(name, 0.0) / passes for name in PER_LAYER_MS}
    metrics.update({"cli.main.ms": cli_ms / passes, "cli.self.ms": cli_self / passes,
                    "rng.generate.ms": rng_ms, "trace.overhead.ms": overhead / passes})
    for name in ("benes.points", "core.table_entries", "oracle.universe_size", "formats.bytes"):
        metrics[name] = t.counts.get(name, 0) / passes
    steps_in = t.counts.get("merge.steps_in", 0)
    metrics["core.merge_adjacent.fused_frac"] = (
        t.counts.get("merge.steps_removed", 0) / steps_in if steps_in else 0.0)
    units = {f"{name}.ms": "ms" for name in PER_LAYER_MS + DERIVED_MS} | PER_LAYER_COUNTS
    spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    # op ids count up across passes: op id % len(ops) indexes this list
    spans_path.write_text(json.dumps({"ops": [op.shape for op in ops]} | t.to_json()))
    info = {"passes": passes, "ops_per_pass": len(ops), "digest": h,
            "spans": str(spans_path.relative_to(ROOT)), "failures": failures}
    return metrics, units, len(ledger.runs), len(failures), not failures, info


def environment(args) -> dict:
    src = ROOT / "src" / "insitu"
    h = hashlib.sha256()
    for f in sorted(src.glob("*.py")):
        h.update(f.name.encode() + f.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit(),
            "source_sha256": h.hexdigest(), "recursion_limit": sys.getrecursionlimit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_one(args) -> int:
    os.environ.pop("INSITU_THREADS", None)  # the suite runs single-threaded
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    cwd = os.getcwd()
    try:
        os.chdir(work)
        fn = traced if args.trace else measure
        metrics, units, attempted, failed, correct, info = fn(args)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "run": info, "result": result}, indent=1))
    print(f"# environment {json.dumps(env)}")
    for key, value in info.items():
        if key not in ("failures",):
            print(f"# {key} {json.dumps(value)}")
    for f in info["failures"][:10]:
        print(f"# FAILED {json.dumps(f)}")
    for k, m in result["metrics"].items():
        print(f"{args.workload:8s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; prints every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "insitu" / "cli.py").is_file():
        print(f"error: no insitu sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
