import subprocess
import sys

import pytest

from insitu import Alphabet, Mapping, execute_all
from insitu.cli import EXIT_DOMAIN, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from insitu.formats import format_mapping, format_matrix, parse_mapping, parse_program
from insitu.linmod import MatrixMod, ModRing


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
    # 2^13 points: over the rendering cap, as for linear programs
    src = write(tmp_path / "id.map", "2 13\n" + " ".join(map(str, range(2 ** 13))) + "\n")
    dot = tmp_path / "net.dot"
    out = tmp_path / "p.prog"
    assert main(["compile", src, "--method", "benes", "--dot", str(dot),
                 "-o", str(out)]) == EXIT_DOMAIN
    assert "cap 4096" in capsys.readouterr().err
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


def test_compile_rejects_non_bijections(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n0 0 3 1\n")
    assert main(["compile", src, "--method", "benes"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "NotBijective" in err


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


def test_invert_boolean_program(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 2\n2 0 3 1\n")
    prog = tmp_path / "p.prog"
    inv = tmp_path / "inv.prog"
    assert main(["compile", src, "--method", "benes", "-o", str(prog)]) == EXIT_OK
    assert main(["invert", str(prog), "-o", str(inv)]) == EXIT_OK
    p = parse_program(inv.read_text())
    e = Mapping(Alphabet(2, 2), (2, 0, 3, 1))
    assert execute_all(p).images == e.inverse().images


def test_invert_linear_rejects_non_units(tmp_path, capsys):
    src = write(tmp_path / "m.mat", "12 2\n4 5\n6 4\n")
    prog = tmp_path / "p.lin"
    assert main(["compile", src, "--method", "linear", "-o", str(prog)]) == EXIT_OK
    assert main(["invert", str(prog)]) == EXIT_DOMAIN
    assert "NotInvertible" in capsys.readouterr().err


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


def test_suite_command(tmp_path, capsys):
    assert main(["suite", "--method", "benes", "--s", "2", "--n", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "compiler=benes" in out
    assert "total=24" in out
    assert "failures=0" in out


def test_usage_errors(tmp_path, capsys):
    assert main(["compile"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    bad = write(tmp_path / "bad.map", "2 2\n0 1 x 3\n")
    assert main(["compile", bad, "--method", "benes"]) == EXIT_USAGE
    assert "ParseError" in capsys.readouterr().err
    missing = str(tmp_path / "nope.map")
    assert main(["compile", missing, "--method", "benes"]) == EXIT_USAGE


def test_stdout_output(tmp_path, capsys):
    src = write(tmp_path / "in.map", "2 1\n1 0\n")
    assert main(["compile", src, "--method", "benes"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "program 2 1 1\n1 1 0\n"


def test_entry_point_subprocess(tmp_path):
    src = write(tmp_path / "in.map", "2 2\n3 0 1 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "insitu", "compile", str(src), "--method", "benes"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("program 2 2 3\n")
