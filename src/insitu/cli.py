"""Command line front end.

    insitu compile INPUT --method METHOD [-o OUT] [--verify] [--dot PATH]
    insitu verify PROGRAM TARGET
    insitu oracle MAPPING [--max-len K] [--budget N]
    insitu invert PROGRAM [-o OUT]
    insitu regroup PROGRAM --group-size M [-o OUT]
    insitu random KIND --s S --n N [--seed U64] [-o OUT]
    insitu suite --method METHOD --s S --n N [--sample K] [--seed U64]

Methods: benes (bijections, 2n-1 steps), general5 (any mapping, 5n-4),
general4-sorted (any mapping, 4n-3), general4-flex (boolean mappings,
4n-3), linear (matrix files, at most 2n-1 assignment matrices).

Exit codes: 0 success, 1 verification mismatch or suite failures,
2 domain errors (NotBijective, NotInvertible, ...), 3 bad usage or
unparseable input.  INSITU_THREADS caps suite worker threads.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import blockseq, factor, linmod, minsim, oracle
from .benes import route_bijection
from .core import (
    Alphabet,
    InSituError,
    InSituProgram,
    Mapping,
    regroup as regroup_program,
    reverse_boolean_bijection,
)
from .formats import (
    ParseError,
    format_linear_program,
    format_mapping,
    format_matrix,
    format_program,
    parse_mapping,
    parse_matrix,
    parse_program,
)
from .rng import SplitMix64, random_bijection, random_mapping

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 3

_DOT_CAP = 4096  # largest index space we will render or materialize


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _bridge(program: InSituProgram | linmod.LinearProgram) -> InSituProgram:
    linear = isinstance(program, linmod.LinearProgram)
    size = program.ring.s ** program.n if linear else program.alphabet.size
    if size > _DOT_CAP:
        raise InSituError(f"index space too large to materialize (cap {_DOT_CAP})")
    return linmod.to_in_situ(program) if linear else program


def _verify_tables(program: InSituProgram, target: Mapping) -> tuple[bool, str]:
    report = minsim.verify(minsim.routing_of(program), target)
    if not report.performs:
        x = next(x for x, (a, b) in enumerate(zip(report.images, target.images)) if a != b)
        return False, f"mismatch_index={x} expected={target.images[x]} got={report.images[x]}"
    lines = [
        "signature=" + ",".join(str(t) for t in program.signature),
        f"length={len(program)}",
        "performs=true",
        f"vertex_disjoint={'true' if report.vertex_disjoint else 'false'}",
    ]
    return True, "\n".join(lines)


def _cmd_compile(args) -> int:
    if args.method == "linear":
        matrix = parse_matrix(_read(args.input))
        program = linmod.decompose(matrix)
        out_text = format_linear_program(program)
        if args.verify:
            if program.matrix().entries != matrix.entries:
                print("error: factor product does not equal the input matrix", file=sys.stderr)
                return EXIT_MISMATCH
            if matrix.ring.s ** matrix.n <= _DOT_CAP:
                ok, report = _verify_tables(_bridge(program), linmod.linear_mapping(matrix))
                print(report)
                if not ok:
                    return EXIT_MISMATCH
            else:
                print("product=ok (index space too large for exhaustive execution)")
    else:
        mapping = parse_mapping(_read(args.input))
        compile_fn = {
            "benes": route_bijection,
            "general5": factor.compile_general5,
            "general4-sorted": factor.compile_general4_sorted,
            "general4-flex": blockseq.compile_general4_flexible,
        }[args.method]
        program = compile_fn(mapping)
        out_text = format_program(program)
        if args.verify:
            ok, report = _verify_tables(program, mapping)
            print(report)
            if not ok:
                return EXIT_MISMATCH
    if args.dot:
        table_program = _bridge(program)
        routing = minsim.routing_of(table_program)
        _write(args.dot, minsim.export_dot(routing.network, routing, labels=args.dot_labels))
    _write(args.output, out_text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    program = parse_program(_read(args.program))
    if isinstance(program, linmod.LinearProgram):
        matrix = parse_matrix(_read(args.target))
        if program.ring.s != matrix.ring.s or program.n != matrix.n:
            raise InSituError("program and matrix disagree on modulus or dimension")
        if program.matrix().entries != matrix.entries:
            print("product=mismatch")
            return EXIT_MISMATCH
        print("product=ok")
        if matrix.ring.s ** matrix.n <= _DOT_CAP:
            ok, report = _verify_tables(_bridge(program), linmod.linear_mapping(matrix))
            print(report)
            return EXIT_OK if ok else EXIT_MISMATCH
        return EXIT_OK
    mapping = parse_mapping(_read(args.target))
    if program.alphabet != mapping.alphabet:
        raise InSituError("program and mapping disagree on alphabet")
    ok, report = _verify_tables(program, mapping)
    print(report)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_oracle(args) -> int:
    mapping = parse_mapping(_read(args.input))
    found = oracle.min_length_bfs(mapping, args.max_len, max_states=args.budget)
    if found is None:
        print("not_found")
        return EXIT_MISMATCH
    print(found)
    return EXIT_OK


def _cmd_invert(args) -> int:
    program = parse_program(_read(args.program))
    if isinstance(program, linmod.LinearProgram):
        _write(args.output, format_linear_program(linmod.invert_linear_program(program)))
    else:
        _write(args.output, format_program(reverse_boolean_bijection(program)))
    return EXIT_OK


def _cmd_regroup(args) -> int:
    program = parse_program(_read(args.program))
    if isinstance(program, linmod.LinearProgram):
        raise InSituError("regroup works on table programs")
    _write(args.output, format_program(regroup_program(program, args.group_size)))
    return EXIT_OK


def _cmd_random(args) -> int:
    rng = SplitMix64(args.seed)
    if args.kind == "matrix":
        ring = linmod.ModRing.of(args.s)
        rows = [[rng.below(args.s) for _ in range(args.n)] for _ in range(args.n)]
        _write(args.output, format_matrix(linmod.MatrixMod.of(ring, rows)))
        return EXIT_OK
    alphabet = Alphabet(args.s, args.n)
    gen = random_bijection if args.kind == "bijection" else random_mapping
    _write(args.output, format_mapping(gen(alphabet, rng)))
    return EXIT_OK


def _cmd_suite(args) -> int:
    workers = int(os.environ.get("INSITU_THREADS", "1"))
    report = oracle.exhaustive_suite(
        Alphabet(args.s, args.n), args.method,
        sample=args.sample, seed=args.seed, workers=max(workers, 1))
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insitu",
        description="Compile mappings into in-situ programs and verify them.")
    sub = parser.add_subparsers(dest="command", required=True)
    methods = ["benes", "general5", "general4-sorted", "general4-flex", "linear"]

    p = sub.add_parser("compile", help="compile a mapping or matrix file")
    p.add_argument("input", help="mapping file, or matrix file for --method linear")
    p.add_argument("--method", required=True, choices=methods)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--verify", action="store_true", help="check the program before writing")
    p.add_argument("--dot", default=None, metavar="PATH", help="also write a DOT rendering")
    p.add_argument("--dot-labels", default="index", choices=["index", "bits"])
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("verify", help="check a program file against a mapping or matrix file")
    p.add_argument("program")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="exact minimal program length by exhaustive search")
    p.add_argument("input", help="mapping file")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--budget", type=int, default=1_000_000, help="state budget for the search")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("invert", help="invert a linear program or reverse a boolean bijection program")
    p.add_argument("program")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("regroup", help="bundle boolean components into registers")
    p.add_argument("program")
    p.add_argument("--group-size", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_regroup)

    p = sub.add_parser("random", help="write a seeded random input file")
    p.add_argument("kind", choices=["mapping", "bijection", "matrix"])
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_random)

    p = sub.add_parser("suite", help="run a compiler over a whole universe or a sample")
    p.add_argument("--method", required=True, choices=methods)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InSituError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
