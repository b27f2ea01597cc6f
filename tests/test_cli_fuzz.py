"""Random command lines through `insitu.cli.main`, in-process.

Every subcommand gets seeded argument lists and input files, valid ones
and ones with a few tokens deleted, inserted or replaced.  Whatever the
input, a call must end in exit 0-3 within 2 s: outside data is stopped
where it enters, with a usage or domain error, and never reaches code
that fails with an internal error (exit 4).  Inputs stay small (at most
64 points, `oracle --max-len` 3 with a budget of 20000, `suite --sample`
20), and the command line runs the suite on one worker, so no call starts
a thread.
"""

import contextlib
import io
import os
import sys
import tempfile
import time
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from insitu.benes import route_bijection
from insitu.cli import EXIT_INTERNAL, _build_parser, main
from insitu.core import Alphabet, Mapping
from insitu.factor import compile_general4_sorted
from insitu.formats import format_linear_program, format_mapping, format_matrix, format_program
from insitu.linmod import MatrixMod, ModRing, decompose

SPACES = [(s, n) for s in range(2, 9) for n in range(1, 7) if s ** n <= 64]
METHODS = ["benes", "general5", "general4-sorted", "general4-flex", "linear"]
JUNK = ["x", "-", "--bogus", "--verify", "-o", "1.5", "", "program", "linear", "-h"]
FILE_TOKENS = ["x", "1.5", "-1", "0", "1", "2", "3", "64", "99999999999999999999",
               "program", "linear"]


def _mutate(draw, toks, pool):
    # most inputs stay valid; the others lose, gain or change a token or two
    toks = list(toks)
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "delete":
            del toks[at:at + 1]
        elif edit == "insert":
            toks.insert(at, draw(st.sampled_from(pool)))
        elif at < len(toks):
            toks[at] = draw(st.sampled_from(pool))
    return toks


def _texts(draw, s, n):
    """Valid files over one space: a mapping and a program computing it,
    a matrix and a linear program computing it."""
    a = Alphabet(s, n)
    images = draw(st.one_of(st.permutations(range(a.size)),
                            st.lists(st.integers(0, a.size - 1), min_size=a.size,
                                     max_size=a.size)))
    mapping = Mapping(a, tuple(images))
    compiler = route_bijection if mapping.is_bijective() else compile_general4_sorted
    k = min(n, 3)
    rows = [draw(st.lists(st.integers(0, s - 1), min_size=k, max_size=k)) for _ in range(k)]
    matrix = MatrixMod.of(ModRing.of(s), rows)
    return {"mapping": format_mapping(mapping), "program": format_program(compiler(mapping)),
            "matrix": format_matrix(matrix), "linear": format_linear_program(decompose(matrix))}


@st.composite
def _case(draw):
    """A subcommand, its arguments, and the files they name: a file
    argument is f0 or f1 in the working directory, or - for stdin."""
    s, n = draw(st.sampled_from(SPACES))
    texts = _texts(draw, s, n)
    files = {}

    def path(kind):
        # mostly the kind of file the argument wants, at times another kind or none
        kind = draw(st.sampled_from([kind, kind, kind, *texts, None]))
        if kind is None:
            return "missing"
        name = draw(st.sampled_from(["f0" if not files else "f1", "-"]))
        files[name] = " ".join(_mutate(draw, texts[kind].split(), FILE_TOKENS)) + "\n"
        return name

    cmd = draw(st.sampled_from(["compile", "verify", "oracle", "invert", "regroup", "random",
                                "suite"]))
    method = draw(st.sampled_from(METHODS))
    program, target = draw(st.sampled_from([("program", "mapping"), ("linear", "matrix")]))
    args = [cmd]
    if cmd == "compile":
        args += [path("matrix" if method == "linear" else "mapping"), "--method", method]
        if draw(st.booleans()):
            args.append("--verify")
        if draw(st.booleans()):
            args += ["--dot", "out.dot", "--dot-labels", draw(st.sampled_from(["index", "bits"]))]
    elif cmd == "verify":
        args += [path(program), path(target)]
    elif cmd == "oracle":
        args += [path("mapping"), "--max-len", str(draw(st.integers(-1, 3))),
                 "--budget", str(draw(st.integers(-1, 20000)))]
    elif cmd == "invert":
        args.append(path(program))
    elif cmd == "regroup":
        args += [path("program"), "--group-size", str(draw(st.integers(-1, 4)))]
    elif cmd == "random":
        kind = draw(st.sampled_from(["mapping", "bijection", "matrix", "other"]))
        args += [kind, "--s", str(s), "--n", str(min(n, 3) if kind == "matrix" else n),
                 "--seed", str(draw(st.integers(-1, 2 ** 64)))]
    else:
        args += ["--method", method, "--s", str(s), "--n", str(n),
                 "--sample", str(draw(st.integers(0, 20))), "--seed", str(draw(st.integers(0, 9)))]
    if cmd in ("compile", "invert", "regroup", "random") and draw(st.booleans()):
        args += ["-o", draw(st.sampled_from(["out", "-"]))]
    return _mutate(draw, args, JUNK), files


def _small(argv):
    # the arguments as the command line reads them, after any mutation,
    # stay within the limits above
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:
            return True
    if args.command == "oracle":
        return args.max_len <= 3 and args.budget <= 20000
    if args.command == "suite":
        return args.sample is not None and args.sample <= 20 and args.s ** args.n <= 64
    if args.command == "random":
        return args.s ** args.n <= 64
    return True


@settings(max_examples=250, deadline=None)
@given(_case())
def test_cli_exits_cleanly_on_random_input(case):
    argv, files = case
    assume(_small(argv))
    home = os.getcwd()
    # any argument may name a file to write, so every call runs in a scratch directory
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(sys, "stdin", io.StringIO(files.pop("-", ""))), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
        finally:
            os.chdir(home)
    assert 0 <= code < EXIT_INTERNAL, (argv, err.getvalue())
    assert elapsed < 2.0, (argv, elapsed)
