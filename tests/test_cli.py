"""The qdual command-line interface, driven through main(argv)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qdual import cli
from qdual.algebra import render_element
from qdual.checks import CheckReport
from qdual.parsing import parse_element
from qdual.presentations import derive_inverse_rules, dual_algebra
from qdual.supermatrix import identity

from helpers import random_element

DDUAL = derive_inverse_rules(dual_algebra())


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
    assert err.startswith("error: correction in rule (u, theta) drops the odd "
                          "letter 'theta'")


def test_nf_errors_exit_2(capsys):
    code, _, err = run(capsys, "nf", "c*(")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "nf", "--algebra", "nosuch", "b")
    assert code == 2 and "unknown algebra" in err


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
    assert cli._build_parser() is cli._build_parser()
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


def test_verify_bad_max_n(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "0")
    assert code == 2 and "max_n" in err


def test_cli_round_trip_small_fuzz(capsys):
    rng = random.Random(2024)
    for _ in range(25):
        x = random_element(DDUAL, rng)
        # "--" keeps argparse from reading a leading minus sign as a flag
        code, out, _ = run(capsys, "nf", "--", str(x))
        assert code == 0
        assert parse_element(out.strip(), DDUAL) == x


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
