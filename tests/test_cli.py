import importlib
import os
import pkgutil
import re
import resource
import shlex
import subprocess
import sys
import time

import pytest

import insitu
from insitu import Alphabet, InSituProgram, Mapping, execute_all
from insitu import linmod, oracle
from insitu.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from insitu.formats import format_mapping, format_matrix, parse_mapping, parse_program
from insitu.linmod import MatrixMod, ModRing
from insitu.rng import SplitMix64, random_matrix


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _child_env():
    # the child must import the same package as this process, installed or not
    path = [os.path.dirname(os.path.dirname(insitu.__file__)), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_random_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.map"
    out2 = tmp_path / "b.map"
    assert main(["random", "bijection", "--s", "2", "--n", "3", "--seed", "5",
                 "-o", str(out1)]) == EXIT_OK
    assert main(["random", "bijection", "--s", "2", "--n", "3", "--seed", "5",
                 "-o", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    m = parse_mapping(out1.read_text())
    assert m.is_bijective()


def test_compile_verify_round_trip(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 3\n1 0 3 2 5 4 7 6\n")
    prog = tmp_path / "out.prog"
    assert main(["compile", src, "--method", "benes", "--verify",
                 "-o", str(prog)]) == EXIT_OK
    report = capsys.readouterr().out
    assert "signature=1,2,3,2,1" in report
    assert "performs=true" in report
    assert "vertex_disjoint=true" in report

    p = parse_program(prog.read_text())
    assert execute_all(p).images == (1, 0, 3, 2, 5, 4, 7, 6)
    assert main(["verify", str(prog), src]) == EXIT_OK


def test_compile_writes_dot(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n3 2 1 0\n")
    dot = tmp_path / "net.dot"
    assert main(["compile", src, "--method", "benes", "--dot", str(dot),
                 "-o", str(tmp_path / "p.prog")]) == EXIT_OK
    text = dot.read_text()
    assert text.startswith("digraph min {")
    assert text.count("penwidth=2.0") == 3 * 4


def test_compile_dot_caps_table_programs(tmp_path, capsys):
    # 2^13 and 5^6 points: over the rendering cap, which is checked before
    # compiling, so --verify prints no report ahead of the refusal
    src = write(tmp_path / "id.map", "2 13\n" + " ".join(map(str, range(2 ** 13))) + "\n")
    mat = write(tmp_path / "m.mat", format_matrix(random_matrix(5, 6, SplitMix64(1))))
    dot = tmp_path / "net.dot"
    out = tmp_path / "p.prog"
    for argv in ([src, "--method", "benes"], [src, "--method", "general5", "--verify"],
                 [mat, "--method", "linear", "--verify"]):
        assert main(["compile", *argv, "--dot", str(dot), "-o", str(out)]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert "cap 4096" in captured.err
        assert captured.out == ""
        assert not dot.exists()
        assert not out.exists()


def test_compile_each_method(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n0 0 3 1\n")
    for method in ("general5", "general4-sorted", "general4-flex"):
        out = tmp_path / f"{method}.prog"
        assert main(["compile", src, "--method", method, "--verify",
                     "-o", str(out)]) == EXIT_OK
        p = parse_program(out.read_text())
        assert execute_all(p).images == (0, 0, 3, 1)


# one row per InSituError subclass, each a verdict on well-formed input:
# (input file, its text, the command run on it, exit code, stderr message)
_DOMAIN_ERRORS = {
    "NotBoolean": ("t.map", "3 1\n0 1 2\n", ["compile", "{}", "--method", "general4-flex"],
                   EXIT_DOMAIN, "the flexible compiler works over {0, 1}"),
    "NotBijective": ("in.map", "2 2\n0 0 3 1\n", ["compile", "{}", "--method", "benes"],
                     EXIT_DOMAIN, "routing requires a bijection"),
    "SignatureNotGroupable": ("e.prog", "program 2 3 0\n", ["regroup", "{}", "--group-size", "2"],
                              EXIT_DOMAIN, "arity 3 is not a multiple of group size 2"),
    # what compile --method linear writes for the matrix 4 5 / 6 4 mod 12
    "NotInvertible": ("p.lin", "linear 12 2 3\n1 10 9\n2 3 1\n1 1 11\n", ["invert", "{}"],
                      EXIT_DOMAIN, "diagonal entry 10 of row 1 is not a unit mod 12"),
    "BudgetExceeded": ("t.map", "2 3\n7 4 2 3 2 1 6 6\n",
                       ["oracle", "{}", "--max-len", "3", "--budget", "10"],
                       EXIT_DOMAIN, "more than 10 states stored"),
    "ParseError": ("bad.map", "2 2\n0 1 x 3\n", ["compile", "{}", "--method", "benes"],
                   EXIT_USAGE, "line 2: expected image 2, got 'x'"),
}


@pytest.mark.parametrize("name", sorted(_DOMAIN_ERRORS))
def test_domain_errors_exit_with_their_codes(tmp_path, capsys, name):
    file_name, text, argv, code, message = _DOMAIN_ERRORS[name]
    path = write(tmp_path / file_name, text)
    assert main([path if arg == "{}" else arg for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {name}: {message}\n"


def test_domain_errors_are_the_insitu_error_subclasses():
    # a malformed argument to a library call is a ValueError; what subclasses
    # InSituError is a verdict, and the table above drives each through main
    for module in pkgutil.iter_modules(insitu.__path__):
        if module.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"insitu.{module.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    # tests may subclass it too (a reference's own refusal); only the
    # package's classes count
    names = {cls.__name__ for cls in subclasses(insitu.InSituError)
             if cls.__module__.startswith("insitu.")}
    assert names == set(_DOMAIN_ERRORS)


def test_compile_linear(tmp_path, capsys):
    src = write(tmp_path / "m.mat", format_matrix(
        MatrixMod.of(ModRing.of(12), [[4, 5], [6, 4]])))
    out = tmp_path / "p.lin"
    assert main(["compile", src, "--method", "linear", "--verify",
                 "-o", str(out)]) == EXIT_OK
    assert out.read_text() == "linear 12 2 3\n1 10 9\n2 3 1\n1 1 11\n"
    assert main(["verify", str(out), src]) == EXIT_OK
    assert "product=ok" in capsys.readouterr().out


def test_verify_detects_mismatch(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n1 0 2 3\n")
    wrong = write(tmp_path / "wrong.map", "2 2\n0 1 2 3\n")
    prog = tmp_path / "p.prog"
    assert main(["compile", src, "--method", "benes", "-o", str(prog)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(prog), wrong]) == EXIT_MISMATCH
    assert capsys.readouterr().out.splitlines() == ["mismatch_index=0 expected=0 got=1"]


def test_compile_verify_detects_mismatch(tmp_path, capsys, monkeypatch):
    # compilers that return the identity: --verify names the first wrong
    # index and writes no program
    src = write(tmp_path / "in.map", "2 2\n1 0 2 3\n")
    matrix = write(tmp_path / "m.mat", "12 2\n4 5\n6 4\n")
    monkeypatch.setitem(oracle.COMPILERS, "benes", lambda e: InSituProgram(e.alphabet, ()))
    monkeypatch.setattr(linmod, "coefficient_program",
                        lambda p: InSituProgram(Alphabet(p.ring.s, p.n), ()))
    for argv, report in (([src, "--method", "benes"], "mismatch_index=0 expected=1 got=0\n"),
                         ([matrix, "--method", "linear"], "mismatch_index=1 expected=76 got=1\n")):
        out = tmp_path / "p.out"
        assert main(["compile", *argv, "--verify", "-o", str(out)]) == EXIT_MISMATCH
        assert capsys.readouterr().out == report
        assert not out.exists()


def test_verify_rejects_negative_counts(tmp_path, capsys):
    ident = write(tmp_path / "id.map", "2 2\n0 1 2 3\n")
    prog = write(tmp_path / "neg.prog", "program 2 2 -3\n")
    assert main(["verify", prog, ident]) == EXIT_USAGE
    assert "ParseError" in capsys.readouterr().err
    matrix = write(tmp_path / "id.mat", "5 2\n1 0\n0 1\n")
    lin = write(tmp_path / "neg.lin", "linear 5 2 -1\n")
    assert main(["verify", lin, matrix]) == EXIT_USAGE
    assert "ParseError" in capsys.readouterr().err


def test_verify_alphabet_mismatch(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n1 0 2 3\n")
    other = write(tmp_path / "o.map", "2 3\n0 1 2 3 4 5 6 7\n")
    prog = tmp_path / "p.prog"
    main(["compile", src, "--method", "benes", "-o", str(prog)])
    assert main(["verify", str(prog), other]) == EXIT_DOMAIN


def test_oracle_command(tmp_path, capsys):
    ident = write(tmp_path / "id.map", "2 2\n0 1 2 3\n")
    assert main(["oracle", ident]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    swap = write(tmp_path / "swap.map", "2 2\n0 2 1 3\n")
    assert main(["oracle", swap]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "3"
    assert main(["oracle", swap, "--max-len", "2"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.strip() == "not_found"


def test_oracle_rejects_negative_limits(tmp_path, capsys):
    ident = write(tmp_path / "id.map", "2 2\n0 1 2 3\n")
    for flag in ("--max-len", "--budget"):
        assert main(["oracle", ident, flag, "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must not be negative" in captured.err


def test_main_calls_do_not_leak_options(tmp_path, capsys):
    # one parser serves every call in a process; each call starts from defaults
    src = write(tmp_path / "in.map", "2 2\n1 2 0 3\n")
    prog = tmp_path / "out.prog"
    assert main(["compile", src, "--method", "benes", "--verify", "-o", str(prog)]) == EXIT_OK
    assert "performs=true" in capsys.readouterr().out
    assert main(["compile", src, "--method", "benes"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "performs=" not in out
    assert out == prog.read_text()
    assert main(["compile", src]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["oracle", src, "--max-len", "5"]) == EXIT_OK
    assert capsys.readouterr().out == "2\n"


def test_invert_boolean_program(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n2 0 3 1\n")
    prog = tmp_path / "p.prog"
    inv = tmp_path / "inv.prog"
    assert main(["compile", src, "--method", "benes", "-o", str(prog)]) == EXIT_OK
    assert main(["invert", str(prog), "-o", str(inv)]) == EXIT_OK
    p = parse_program(inv.read_text())
    e = Mapping(Alphabet(2, 2), (2, 0, 3, 1))
    assert execute_all(p).images == e.inverse().images
    # over 3^2 the inverse steps invert each step's permutation of S on
    # every fiber, and trace the Benes network vertex-disjointly
    e = Mapping(Alphabet(3, 2), (4, 0, 7, 2, 8, 1, 3, 6, 5))
    src = write(tmp_path / "in3.map", format_mapping(e))
    back = write(tmp_path / "inv3.map", format_mapping(e.inverse()))
    assert main(["compile", src, "--method", "benes", "-o", str(prog)]) == EXIT_OK
    assert main(["invert", str(prog), "-o", str(inv)]) == EXIT_OK
    assert execute_all(parse_program(inv.read_text())).images == e.inverse().images
    capsys.readouterr()
    assert main(["verify", str(inv), back]) == EXIT_OK
    out = capsys.readouterr().out
    assert "performs=true" in out and "vertex_disjoint=true" in out
    merging = write(tmp_path / "const.prog", "program 3 1 1\n1 0 0 0\n")
    assert main(["invert", merging]) == EXIT_DOMAIN
    assert "NotBijective" in capsys.readouterr().err


def test_regroup_command(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 4\n" + " ".join(
        str((x + 3) % 16) for x in range(16)) + "\n")
    prog = tmp_path / "p.prog"
    wide = tmp_path / "w.prog"
    assert main(["compile", src, "--method", "benes", "-o", str(prog)]) == EXIT_OK
    assert main(["regroup", str(prog), "--group-size", "2", "-o", str(wide)]) == EXIT_OK
    p = parse_program(wide.read_text())
    assert p.alphabet == Alphabet(4, 2)
    assert p.signature == (1, 2, 1)
    assert execute_all(p).images == tuple((x + 3) % 16 for x in range(16))
    assert main(["regroup", str(prog), "--group-size", "3"]) == EXIT_DOMAIN
    capsys.readouterr()
    lin = write(tmp_path / "p.lin", "linear 5 2 1\n1 1 1\n")
    assert main(["regroup", lin, "--group-size", "2"]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: InSituError: regroup works on table programs\n"


def test_suite_command(tmp_path, capsys):
    assert main(["suite", "--method", "benes", "--s", "2", "--n", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "compiler=benes" in out
    assert "total=24" in out
    assert "failures=0" in out


def test_suite_rejects_negative_sample(capsys):
    # a negative sample used to run nothing and report total=0 with exit 0
    for method in ("benes", "linear"):
        assert main(["suite", "--method", method, "--s", "2", "--n", "3",
                     "--sample", "-5"]) == EXIT_USAGE
        assert "negative" in capsys.readouterr().err


def test_linear_suite_at_any_modulus(capsys):
    # the linear suite multiplies factors and builds no index space, so a
    # modulus whose 1000000007^3 indices no Alphabet holds runs like any other
    argv = ["suite", "--method", "linear", "--s", "1000000007", "--n", "3", "--sample", "2"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == ("compiler=linear\ns=1000000007\nn=3\ntotal=2\n"
                                       "failures=0\nmax_length=5\nlength_5=2\n")
    # the table methods keep their 64-bit cap
    assert main(["suite", "--method", "benes", *argv[3:]]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: index space 1000000007^3 does not fit in 64 bits\n"
    # the dimension keeps the arity cap of an Alphabet, and a modulus must be one
    for s, n, err in (("2", "65", "dimension must be in [1, 64], got 65"),
                      ("5", "0", "dimension must be in [1, 64], got 0"),
                      ("1", "2", "modulus must be at least 2, got 1")):
        assert main(["suite", "--method", "linear", "--s", s, "--n", n]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {err}\n"
    # at a size an Alphabet holds, the output is the parent's, and the
    # command line and `exhaustive_suite` agree
    argv = ["suite", "--method", "linear", "--s", "4", "--n", "2", "--sample", "40", "--seed", "1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "compiler=linear\ns=4\nn=2\ntotal=40\nfailures=0\nmax_length=3\nlength_3=40\n"
    assert out == oracle.exhaustive_suite(Alphabet(4, 2), "linear", sample=40, seed=1,
                                          workers=1).to_text()


def test_random_refuses_dimension_below_one(capsys):
    # the same refusal and exit code as a mapping of arity 0 or a matrix
    # file of dimension 0, before any draw
    for n in ("0", "-1"):
        assert main(["random", "matrix", "--s", "5", "--n", n]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: dimension must be at least 1, got {n}\n"
        assert main(["random", "mapping", "--s", "5", "--n", n]) == EXIT_USAGE
        capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main(["compile"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    bad = write(tmp_path / "bad.map", "2 2\n0 1 x 3\n")
    assert main(["compile", bad, "--method", "benes"]) == EXIT_USAGE
    assert "ParseError" in capsys.readouterr().err
    missing = str(tmp_path / "nope.map")
    assert main(["compile", missing, "--method", "benes"]) == EXIT_USAGE


def test_compile_benes_past_recursion_depth(tmp_path, capsys):
    # 3^9 points: the matching's augmenting paths, lookahead and all, run
    # longer than the recursion limit (3674 edges on this seed)
    src = tmp_path / "in.map"
    assert main(["random", "bijection", "--s", "3", "--n", "9", "--seed", "1",
                 "-o", str(src)]) == EXIT_OK
    assert main(["compile", str(src), "--method", "benes", "--verify",
                 "-o", str(tmp_path / "p.prog")]) == EXIT_OK
    assert "performs=true" in capsys.readouterr().out


def test_stdout_output(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 1\n1 0\n")
    assert main(["compile", src, "--method", "benes"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "program 2 1 1\n1 1 0\n"


def test_entry_point_subprocess(tmp_path):
    src = write(tmp_path / "in.map", "2 2\n3 0 1 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "insitu", "compile", str(src), "--method", "benes"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("program 2 2 3\n")


def test_linear_at_huge_modulus(tmp_path):
    # s = 10^18 + 3 has no factor below 10^9; nothing on the linear path
    # may factor s, so random, compile and verify finish within the budget
    matrix, program = str(tmp_path / "m.mat"), str(tmp_path / "p.lin")
    env = _child_env()
    deadline = time.monotonic() + 5.0
    for args, expect in (
            (["random", "matrix", "--s", "1000000000000000003", "--n", "3", "-o", matrix], ""),
            (["compile", matrix, "--method", "linear", "--verify", "-o", program], "product=ok"),
            (["verify", program, matrix], "product=ok")):
        proc = subprocess.run([sys.executable, "-m", "insitu", *args], capture_output=True,
                              text=True, env=env, timeout=max(deadline - time.monotonic(), 0.1))
        assert proc.returncode == 0, proc.stderr
        assert expect in proc.stdout


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_SIZE_CASES = """
import sys, time
from insitu.cli import main
from insitu.core import Alphabet
from insitu.oracle import BudgetExceeded, full_universe

def universe(s, n):
    try:
        full_universe(Alphabet(int(s), int(n)))
    except BudgetExceeded:
        return 2
    return 0

for line in sys.stdin:
    start = time.monotonic()
    argv = line.split()
    code = universe(*argv[1:]) if argv[0] == "full_universe" else main(argv)
    print(code, time.monotonic() - start, file=sys.stderr, flush=True)
"""


def test_oversized_index_spaces_are_refused_before_allocation(tmp_path):
    # each case would need a table of s^n entries, N^2 random draws, or s^n,
    # (s^n)^(s^n) or s^(s^n) as an integer, before it refused; the child runs
    # with 1 GiB of address space, so a regression fails here instead of
    # exhausting memory
    huge = write(tmp_path / "huge.map", "3 100000000000000000000\n0\n")
    # the full universe of 2^4 has 4*2^16 assignments, over the oracle's cap
    wide = write(tmp_path / "wide.map", "2 4\n" + " ".join(["0"] * 16) + "\n")
    cases = [
        ("random mapping --s 2 --n 40", EXIT_DOMAIN),
        ("random bijection --s 2 --n 21", EXIT_DOMAIN),
        ("random mapping --s 1000 --n 3", EXIT_DOMAIN),
        ("suite --method general5 --s 2 --n 22", EXIT_USAGE),
        ("suite --method general4-sorted --s 2 --n 30", EXIT_USAGE),
        ("suite --method general5 --s 2 --n 40 --sample 1", EXIT_DOMAIN),
        ("suite --method benes --s 3 --n 30 --sample 2", EXIT_DOMAIN),
        ("suite --method linear --s 2 --n 100000", EXIT_USAGE),
        (f"compile {huge} --method benes", EXIT_USAGE),
        ("random matrix --s 2 --n 100000", EXIT_DOMAIN),
        ("full_universe 2 64", EXIT_DOMAIN),
        (f"oracle {wide}", EXIT_DOMAIN),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SIZE_CASES], input="\n".join(argv for argv, _ in cases),
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=_cap_memory)
    results = [line.split() for line in proc.stderr.splitlines() if not line.startswith("error")]
    assert len(results) == len(cases), proc.stderr
    for (argv, expect), (code, seconds) in zip(cases, results):
        assert int(code) == expect, argv
        assert float(seconds) < 1.0, argv


def test_invert_empty_program_at_any_size(tmp_path):
    # an empty program computes the identity; deciding that it is a
    # bijection must not enumerate the s^n indices.  The child runs with
    # 1 GiB of address space, so a regression fails here instead of
    # exhausting memory
    for s, n in ((2, 40), (2, 64), (3, 40)):
        text = f"program {s} {n} 0\n"
        prog = write(tmp_path / f"empty{s}_{n}.prog", text)
        proc = subprocess.run([sys.executable, "-m", "insitu", "invert", prog],
                              capture_output=True, text=True, env=_child_env(), timeout=60,
                              preexec_fn=_cap_memory)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == text


def test_internal_errors_have_their_own_exit_code(tmp_path, capsys, monkeypatch):
    def broken(mapping):
        raise AssertionError("routing invariant broken")

    monkeypatch.setitem(oracle.COMPILERS, "benes", broken)
    src = write(tmp_path / "in.map", "2 1\n1 0\n")
    assert main(["compile", src, "--method", "benes"]) == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: AssertionError: routing invariant broken\n"


def test_random_matrix_refuses_entries_over_the_cap(capsys):
    assert main(["random", "matrix", "--s", "2", "--n", "1025"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: InSituError: a 1025x1025 matrix has 1050625 entries, "
                            "over the cap of 1048576 for random draws\n")


@pytest.mark.parametrize("s, n, seed, report", [
    # 6^5 = 7776 indices, past the 4096-index --dot cap
    (6, 5, 2, "signature=1,2,3,4,5,4,3,2,1\nlength=9\nperforms=true\nvertex_disjoint=false\n"),
    # 32^4 = 2^20 indices, the draw cap itself
    (32, 4, 1, "signature=1,2,3,4,3,2,1\nlength=7\nperforms=true\nvertex_disjoint=true\n"),
], ids=["6-5", "32-4"])
def test_linear_traces_up_to_the_draw_cap(tmp_path, capsys, s, n, seed, report):
    matrix, prog = str(tmp_path / "m.mat"), str(tmp_path / "p.lin")
    assert main(["random", "matrix", "--s", str(s), "--n", str(n), "--seed", str(seed),
                 "-o", matrix]) == EXIT_OK
    assert main(["compile", matrix, "--method", "linear", "--verify", "-o", prog]) == EXIT_OK
    assert capsys.readouterr().out == report
    assert main(["verify", prog, matrix]) == EXIT_OK
    assert capsys.readouterr().out == "product=ok\n" + report


def test_linear_past_the_draw_cap_checks_the_product(tmp_path, capsys, monkeypatch):
    # 1025^2 = 1050625 indices, past 2^20 = 1024^2: only the factor product
    # is checked
    matrix, prog = str(tmp_path / "m.mat"), tmp_path / "p.lin"
    assert main(["random", "matrix", "--s", "1025", "--n", "2", "--seed", "2",
                 "-o", matrix]) == EXIT_OK
    assert main(["compile", matrix, "--method", "linear", "--verify", "-o", str(prog)]) == EXIT_OK
    assert capsys.readouterr().out == "product=ok (index space too large for exhaustive execution)\n"
    assert main(["verify", str(prog), matrix]) == EXIT_OK
    assert capsys.readouterr().out == "product=ok\n"
    lines = prog.read_text().splitlines()
    row = [int(tok) for tok in lines[-1].split()]
    row[row[0]] = (row[row[0]] + 1) % 1025  # the last factor's own coefficient
    edited = write(tmp_path / "e.lin", "\n".join(lines[:-1] + [" ".join(map(str, row))]) + "\n")
    assert main(["verify", edited, matrix]) == EXIT_MISMATCH
    assert capsys.readouterr().out == "product=mismatch\n"
    other_modulus = write(tmp_path / "m1024.mat", "1024 2\n1 0\n0 1\n")
    other_dimension = write(tmp_path / "m3.mat", "1025 3\n" + "1 0 0\n" * 3)
    for target in (other_modulus, other_dimension):
        assert main(["verify", str(prog), target]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: InSituError: program and matrix disagree on "
                                "modulus or dimension\n")
    real = linmod.decompose

    def wrong(m):
        p = real(m)
        return linmod.LinearProgram(p.ring, p.n, p.factors[1:])

    monkeypatch.setattr(linmod, "decompose", wrong)
    out = tmp_path / "w.lin"
    assert main(["compile", matrix, "--method", "linear", "--verify", "-o", str(out)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: factor product does not equal the input matrix\n"
    assert not out.exists()


def _readme_sessions():
    """Each `$` line of the README's console sessions and the text after it."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    steps = []
    for block in blocks:
        if not block.lstrip("\n").startswith("$ "):
            continue
        for chunk in ("\n" + block.strip("\n")).split("\n$ ")[1:]:
            command, _, output = chunk.partition("\n")
            steps.append((command, output + "\n" if output else ""))
    return steps


def test_readme_sessions(tmp_path):
    steps = _readme_sessions()
    assert len(steps) == 5
    insitu_cmd = f"{shlex.quote(sys.executable)} -m insitu"
    for command, expected in steps:
        shell = re.sub(r"(^|\| )insitu ", lambda m: m.group(1) + insitu_cmd + " ", command)
        proc = subprocess.run(shell, shell=True, cwd=tmp_path, capture_output=True, text=True,
                              env=_child_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert proc.stdout == expected, command
