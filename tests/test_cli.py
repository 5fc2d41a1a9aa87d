"""The qdual command-line interface, driven through main(argv)."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from qdual import checks, cli
from qdual.algebra import render_element
from qdual.checks import CheckReport
from qdual.parsing import parse_element
from qdual.presentations import dual_algebra
from qdual.supermatrix import identity

from helpers import random_element

DUAL = dual_algebra()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_default_algebra(capsys):
    code, out, err = run(capsys, "nf", "c*b")
    assert code == 0 and err == ""
    assert out == "b*c + (q^2 - 1)/(q)*alpha*delta\n"


def test_nf_other_algebras(capsys):
    code, out, _ = run(capsys, "nf", "--algebra", "gl", "d*a")
    assert code == 0
    assert out == "a*d + (q^2 - 1)/(q)*beta*gamma\n"
    code, out, _ = run(capsys, "nf", "--algebra", "plane", "xi*x")
    assert code == 0
    assert out == "(1)/(q)*x*xi\n"
    code, out, _ = run(capsys, "nf", "--algebra", "dualxdual", "alpha2*alpha")
    assert code == 0
    assert out == "-alpha*alpha2\n"


def test_nf_render_styles(capsys):
    code, out, _ = run(capsys, "nf", "--unicode", "c*b")
    assert code == 0 and "α*δ" in out
    code, out, _ = run(capsys, "nf", "--latex", "c*b")
    assert code == 0 and "\\alpha \\delta" in out


def test_nf_descriptor_file(capsys, tmp_path):
    path = tmp_path / "twist.txt"
    path.write_text(
        "generator u even invertible\n"
        "generator theta odd\n"
        "rule theta*u = q^2*u*theta\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "nf", "--algebra", str(path), "theta*u^-1")
    assert code == 0
    assert out == "(1)/(q^2)*u^-1*theta\n"


def test_nf_descriptor_that_drops_an_odd_letter_exits_2(capsys, tmp_path):
    path = tmp_path / "drop.txt"
    path.write_text(
        "generator theta odd\n"
        "generator phi odd\n"
        "generator u even\n"
        "rule phi*theta = -theta*phi\n"
        "rule u*theta = theta*u + phi\n"
        "rule u*phi = phi*u\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "nf", "--algebra", str(path), "theta*u*theta")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: correction in rule (u, theta) drops "
                          "the odd letter 'theta'")


def test_nf_errors_exit_2(capsys):
    code, _, err = run(capsys, "nf", "c*(")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "nf", "--algebra", "nosuch", "b")
    assert code == 2 and "unknown algebra" in err
    code, _, err = run(capsys, "nf", "b^99999999999999999999")
    assert err == "error: exponent outside -512..512 (at position 2)\n"
    assert code == 2
    # a product of two literals under the digit cap whose coefficient is too
    # long to print, and nested powers whose word would hold 134M letters
    nines = "9" * 4000
    code, out, err = run(capsys, "nf", f"{nines}*{nines}*b")
    assert code == 2 and out == ""
    assert err.startswith("error: coefficient too long to print: ")
    assert "4300-digit limit" in err and err.count("\n") == 1
    code, out, err = run(capsys, "nf", "((b^512)^512)^512")
    assert code == 2 and out == ""
    assert err == "error: a term longer than 65536 letters (at position 8)\n"


def test_nf_non_utf8_descriptor_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"generator u even\n\xff\xfe\n")
    code, out, err = run(capsys, "nf", "--algebra", str(path), "u")
    assert code == 2 and out == ""
    assert err == f"error: {path}: not UTF-8 text (byte 17)\n"


def test_nf_descriptor_rule_error_names_the_file(capsys, tmp_path):
    path = tmp_path / "unknown.txt"
    path.write_text(
        "generator u even\n"
        "generator v even\n"
        "rule v*u = u*v*w\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "nf", "--algebra", str(path), "u")
    assert code == 2 and out == ""
    assert err == f"error: {path}: line 3: unknown generator 'w' (at position 4)\n"


def test_nf_deep_nesting_exits_2(capsys):
    code, out, err = run(capsys, "nf", "(" * 2000 + "b" + ")" * 2000)
    assert code == 2 and out == ""
    assert err == (
        "error: parentheses nested more than 100 deep (at position 100)\n"
    )


def test_builtin_algebras_are_one_object_each(capsys):
    names = ("dual", "gl", "plane", "dualplane",
             "dualxdual", "glxplane", "dualxplane")
    for name in names:
        assert cli._algebra_by_name(name) is cli._algebra_by_name(name)
    # elements parsed through separate lookups live in one algebra
    b = parse_element("b", cli._algebra_by_name("dual"))
    c = parse_element("c", cli._algebra_by_name("dual"))
    assert render_element(c * b) == "b*c + (q^2 - 1)/(q)*alpha*delta"
    code, _, err = run(capsys, "nf", "--algebra", "nosuch", "b")
    assert code == 2
    assert err == (
        f"error: unknown algebra 'nosuch': expected one of "
        f"{', '.join(names)} or a descriptor file path\n"
    )


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nf"])  # missing expression
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_one_parser_serves_every_call(capsys):
    # the argparse tree is built once per process; a usage error that exits
    # through SystemExit must leave it fit for the next calls
    assert cli._parser_tree()[0] is cli._parser_tree()[0]
    with pytest.raises(SystemExit) as exc:
        cli.main(["matpow", "--n", "2", "--direct", "--compare"])
    assert exc.value.code == 2
    usage = capsys.readouterr().err
    assert "not allowed with argument" in usage
    code, out, err = run(capsys, "nf", "c*b")
    assert (code, out, err) == (0, "b*c + (q^2 - 1)/(q)*alpha*delta\n", "")
    code, out, _ = run(capsys, "matpow", "--n", "1", "--closed-form")
    assert code == 0 and out.splitlines()[0] == "e11 = alpha"
    with pytest.raises(SystemExit):
        cli.main(["matpow", "--n", "2", "--direct", "--compare"])
    assert capsys.readouterr().err == usage


_PARSES = [
    # every subcommand with each of its flags
    ["nf", "c*b"],
    ["nf", "--algebra", "gl", "d*a"],
    ["nf", "--algebra=gl", "d*a"],
    ["nf", "--unicode", "c*b"],
    ["nf", "c*b", "--latex"],
    ["nf", "--", "-c*b"],
    ["nf", "--algebra", "dual", "--", "c^-9*b^9*alpha"],
    ["matpow", "--n", "3"],
    ["matpow", "--n=3", "--direct"],
    ["matpow", "--closed-form", "--n", "4"],
    ["matpow", "--n", "5", "--compare", "--unicode"],
    ["matpow", "--n", "2", "--latex"],
    ["inverse"],
    ["inverse", "--unicode"],
    ["sdet", "--latex"],
    ["verify"],
    ["verify", "--max-n", "3", "--only", "C08,C09"],
    ["verify", "--seed", "5", "--format", "machine"],
    ["verify", "--format=text"],
    # help, for the whole tree and for each subcommand
    ["-h"],
    ["--help"],
    ["nf", "--help"],
    ["matpow", "--help"],
    ["inverse", "--help"],
    ["sdet", "-h"],
    ["verify", "--help"],
    # usage errors
    [],
    ["frobnicate"],
    ["frobnicate", "c*b"],
    ["ver"],
    ["--version"],
    ["nf"],
    ["nf", "--algebra"],
    ["nf", "--bogus", "c*b"],
    ["nf", "c*b", "extra"],
    ["nf", "c*b", "extra", "--bogus"],
    ["inverse", "extra"],
    ["sdet", "--bogus"],
    ["matpow"],
    ["matpow", "--n", "x"],
    ["verify", "--max-n", "1.5"],
    ["verify", "--seed", "x"],
    ["verify", "--format", "json"],
    ["nf", "--unicode", "--latex", "c*b"],
    ["matpow", "--n", "2", "--direct", "--compare"],
    # a usage error before the gh-53780 argparse fix, an nf call after it
    ["--", "nf", "b"],
]


def _parse_outcome(capsys, call):
    # (exit code or parsed Namespace, stdout, stderr)
    try:
        result = call()
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


def _less_command(namespace):
    return {k: v for k, v in vars(namespace).items() if k != "command"}


@pytest.mark.parametrize("argv", _PARSES, ids=" ".join)
def test_main_parses_as_the_whole_parser_tree(capsys, monkeypatch, argv):
    # main enters a command's own parser directly; every argv must come out
    # as the whole tree's parse_args gives it: exit code, output, Namespace
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {
        name: (lambda args, name=name: seen.append((name, args)) or 0)
        for name in cli._COMMANDS
    })
    for via_sys_argv in (False, True):
        if via_sys_argv:
            monkeypatch.setattr(sys, "argv", ["qdual", *argv])
            whole = _parse_outcome(
                capsys, lambda: cli._parser_tree()[0].parse_args())
            direct = _parse_outcome(capsys, cli.main)
        else:
            whole = _parse_outcome(
                capsys, lambda: cli._parser_tree()[0].parse_args(argv))
            direct = _parse_outcome(capsys, lambda: cli.main(argv))
        assert direct[1:] == whole[1:]
        if isinstance(whole[0], tuple):
            assert direct[0] == whole[0] and not seen
        else:
            assert direct[0] == 0
            (name, args), = seen
            assert name == whole[0].command
            assert _less_command(args) == _less_command(whole[0])
            seen.clear()


def test_main_runs_the_command_the_whole_tree_parses(monkeypatch):
    # an argv that names no command goes through the whole tree; where
    # argparse strips a leading "--" that parse returns, and main runs it
    parser = cli._parser_tree()[0]
    parsed = parser.parse_args(["nf", "b"])
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: parsed)
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {
        "nf": lambda args: seen.append(args) or 0})
    assert cli.main(["--", "nf", "b"]) == 0
    assert seen == [parsed]


def test_matpow_direct_and_closed(capsys):
    code, out, _ = run(capsys, "matpow", "--n", "1", "--closed-form")
    assert code == 0
    assert out.splitlines() == [
        "e11 = alpha", "e12 = b", "e21 = c", "e22 = delta",
    ]
    code, direct, _ = run(capsys, "matpow", "--n", "4")
    code2, closed, _ = run(capsys, "matpow", "--n", "4", "--closed-form")
    assert code == code2 == 0
    assert direct == closed


def test_matpow_compare(capsys):
    code, out, _ = run(capsys, "matpow", "--n", "3", "--compare")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "equal"
    assert lines[1].startswith("direct.e11 = ")
    assert lines[5].startswith("closed.e11 = ")
    assert lines[1].split("= ", 1)[1] == lines[5].split("= ", 1)[1]


def test_matpow_compare_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.sm, "closed_form_odd", lambda pres, n: identity(pres)
    )
    code, out, _ = run(capsys, "matpow", "--n", "1", "--compare")
    assert code == 1
    assert out.splitlines()[0] == "different"


def test_matpow_bad_n(capsys):
    code, _, err = run(capsys, "matpow", "--n", "0")
    assert code == 2 and "--n must be >= 1" in err


def test_matpow_caps_n_before_any_algebra(capsys, monkeypatch):
    # 512 reaches the algebra, 513 does not
    monkeypatch.setattr(cli, "_algebra_by_name", lambda name: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.main(["matpow", "--n", "512"])
    for n in ("513", "100000"):
        code, _, err = run(capsys, "matpow", "--n", n)
        assert code == 2 and "--n must be <= 512" in err


def test_inverse(capsys):
    code, out, _ = run(capsys, "inverse")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e11 = -(1)/(q)*delta*b^-1*c^-1"
    assert lines[3] == "e22 = -(1)/(q)*alpha*b^-1*c^-1"


def test_sdet(capsys):
    code, out, _ = run(capsys, "sdet")
    assert code == 0
    assert out == "b*c^-1 - (1)/(q)*alpha*delta*c^-2\n"


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C01 pass")
    assert lines[-1] == "17 checks: 16 pass, 0 fail, 1 anomaly"


def test_verify_machine_is_byte_stable(capsys):
    code, first, _ = run(capsys, "verify", "--max-n", "2", "--format",
                         "machine")
    code2, second, _ = run(capsys, "verify", "--max-n", "2", "--format",
                           "machine")
    assert code == code2 == 0
    assert first == second
    assert first.count("\n") == 17
    assert '"elapsed_ms": 0' in first.splitlines()[0]


def test_verify_only(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--only", "C01,C16")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # two checks plus the summary
    assert lines[-1] == "2 checks: 2 pass, 0 fail, 0 anomaly"
    code, _, err = run(capsys, "verify", "--only", "C99")
    assert code == 2 and "unknown check ids" in err
    code, _, err = run(capsys, "verify", "--only", ",")
    assert code == 2 and "empty id list" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = CheckReport("C01", "ref", {}, "fail", witness="residual x")
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failing])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "C01 fail" in out


def test_verify_bad_max_n(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "--max-n", "0")
    assert code == 2 and "max_n" in err
    # the cap is checked before any algebra runs
    monkeypatch.setattr(checks, "_Context", None)
    for n in ("257", "100000"):
        code, _, err = run(capsys, "verify", "--max-n", n)
        assert code == 2 and "max_n must be an integer in 1..256" in err


def test_cli_round_trip_small_fuzz(capsys):
    rng = random.Random(2024)
    for _ in range(25):
        x = random_element(DUAL, rng)
        # "--" keeps argparse from reading a leading minus sign as a flag
        code, out, _ = run(capsys, "nf", "--", str(x))
        assert code == 0
        assert parse_element(out.strip(), DUAL) == x


def test_verify_machine_output_matches_the_recorded_run(capsys):
    # recorded from `qdual verify --max-n 6 --format machine` before Element
    # products went through the multiplication table
    golden = Path(__file__).parent / "data" / "verify_n6_seed1729.txt"
    # the second run reuses the multiplication tables the first one filled
    for _ in range(2):
        code, out, err = run(
            capsys, "verify", "--max-n", "6", "--format", "machine",
            "--seed", "1729",
        )
        assert code == 0 and err == ""
        assert out == golden.read_text(encoding="utf-8")


def test_verify_machine_output_at_n12_matches_the_recorded_run(capsys):
    # recorded from `qdual verify --max-n 12 --format machine --seed 1729`
    # while every scalar coefficient was still a Fraction
    golden = Path(__file__).parent / "data" / "verify_n12_seed1729.txt"
    code, out, err = run(
        capsys, "verify", "--max-n", "12", "--format", "machine",
        "--seed", "1729",
    )
    assert code == 0 and err == ""
    assert out == golden.read_text(encoding="utf-8")


_POOL_RUNS = sorted(
    (Path(__file__).parents[1] / "perfbench" / "expected").glob(
        "verify_n*_seed*.txt")
)


@pytest.mark.parametrize("recorded", _POOL_RUNS, ids=lambda p: p.stem)
def test_verify_machine_output_matches_every_recorded_pool_run(capsys, recorded):
    # the runs the benchmark compares its answers with, one per pool seed
    n, seed = re.fullmatch(r"verify_n(\d+)_seed(\d+)", recorded.stem).groups()
    code, out, err = run(
        capsys, "verify", "--max-n", n, "--seed", seed, "--format", "machine",
    )
    assert code == 0 and err == ""
    assert out.encode("utf-8") == recorded.read_bytes()


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_is_silent_and_keeps_the_exit_code(unbuffered):
    # `qdual matpow --n 3 --compare | head -3` without a race: the read end
    # of the pipe is closed before the command writes anything
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qdual.cli", "matpow", "--n", "3", "--compare"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


def test_closed_stdout_keeps_the_verify_exit_code():
    # `qdual verify | head` with the read end closed before the suite
    # prints: the exit code is the suite's own, 0 when every check passes
    # and 1 with a fault put into the checks, and stderr holds no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import sys; from qdual import checks, cli; {}"
            "sys.exit(cli.main(['verify', '--max-n', '2']))")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        runs = [
            subprocess.run([sys.executable, "-c", code.format(fault)],
                           stdout=write_end, stderr=subprocess.PIPE, env=env,
                           timeout=60)
            for fault in ("", "checks._QINV = checks.Q; ")
        ]
    finally:
        os.close(write_end)
    assert [(p.returncode, p.stderr) for p in runs] == [(0, b""), (1, b"")]


def test_emit_points_a_closed_stdout_at_devnull(monkeypatch):
    # in process: print's BrokenPipeError ends the output, and the stream's
    # file descriptor is pointed at os.devnull so the flush at exit succeeds
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return 99

    dups = []
    fake_os = SimpleNamespace(open=os.open, close=os.close, devnull=os.devnull,
                              O_WRONLY=os.O_WRONLY,
                              dup2=lambda fd, to: dups.append(to))
    monkeypatch.setattr(cli, "os", fake_os)
    monkeypatch.setattr(sys, "stdout", Closed())
    cli._emit("e11 = alpha", "e12 = b")
    assert dups == [99]
