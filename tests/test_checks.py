"""The named verification suite: statuses, report formats, determinism."""

import json

import pytest

from qdual import checks
from qdual import supermatrix as sm
from qdual.algebra import Presentation
from qdual.checks import (
    CHECK_IDS,
    CheckReport,
    has_failure,
    machine_lines,
    run_suite,
    text_lines,
)
from qdual.presentations import load_presentation
from qdual.qfield import Q

from helpers import count_products, scaled_by_q

# Computed once; several tests below slice into the same run.
REPORTS = run_suite(max_n=2)


def test_every_check_reports_once_in_order():
    assert [r.check_id for r in REPORTS] == list(CHECK_IDS)
    assert len(REPORTS) == 17


def test_expected_statuses():
    by_id = {r.check_id: r for r in REPORTS}
    for cid in CHECK_IDS:
        want = "anomaly" if cid == "C17" else "pass"
        assert by_id[cid].status == want, by_id[cid]
    assert not has_failure(REPORTS)


def test_anomaly_report_explains_the_bracket_ordering():
    c17 = REPORTS[-1]
    assert c17.check_id == "C17"
    assert c17.parameters["ordering"] == "DA"
    assert "DA ordering" in c17.witness
    assert "B*C - C*B" in c17.witness


def test_machine_lines_shape():
    lines = machine_lines(REPORTS)
    assert lines[0] == (
        '{"check_id": "C01", "paper_ref": "dual generator exchange relations",'
        ' "params": {}, "status": "pass", "witness": "", "elapsed_ms": 0}'
    )
    for line in lines:
        row = json.loads(line, object_pairs_hook=list)
        assert [k for k, _ in row] == [
            "check_id", "paper_ref", "params", "status", "witness",
            "elapsed_ms",
        ]
        assert dict(row)["elapsed_ms"] == 0


def test_machine_lines_are_byte_stable():
    again = run_suite(max_n=2)
    assert machine_lines(REPORTS) == machine_lines(again)


def test_text_lines_summary():
    lines = text_lines(REPORTS)
    assert lines[-1] == "17 checks: 16 pass, 0 fail, 1 anomaly"
    assert any(line.startswith("    bracket relation holds") for line in lines)


def test_selection_and_ordering():
    picked = run_suite(max_n=2, selection=["C09", "C01"])
    assert [r.check_id for r in picked] == ["C01", "C09"]
    solo = run_suite(max_n=2, selection=["C12"])
    assert len(solo) == 1 and solo[0].status == "pass"


def test_run_suite_guards(monkeypatch):
    with pytest.raises(ValueError):
        run_suite(max_n=0)
    with pytest.raises(ValueError):
        run_suite(max_n=2, selection=["C99"])
    with pytest.raises(ValueError):
        run_suite(max_n=2, selection=[])
    # max_n is capped before any algebra runs: 256 reaches the checks' shared
    # context, 257 does not
    monkeypatch.setattr(checks, "_Context", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run_suite(max_n=256)
    with pytest.raises(ValueError, match=r"1\.\.256"):
        run_suite(max_n=257)


def test_seed_changes_fuzz_but_not_verdicts():
    a = run_suite(max_n=2, selection=["C16"], seed=1)
    b = run_suite(max_n=2, selection=["C16"], seed=2)
    assert a[0].status == b[0].status == "pass"
    assert a[0].parameters["seed"] == 1
    assert b[0].parameters["seed"] == 2


def test_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("C01", "x", {}, "fail", witness="")
    with pytest.raises(ValueError):
        CheckReport("C01", "x", {}, "maybe")
    bad = CheckReport("C01", "x", {}, "fail", witness="residual was nonzero")
    assert has_failure([bad])


def test_closed_form_sweeps_take_linearly_many_products(monkeypatch):
    # the powers of bc and cb are carried from one n to the next, so the
    # products grow about linearly in n; a power chain per n grows
    # quadratically and passes 4.5 times at four times the n
    counts = {
        n: count_products(
            monkeypatch, lambda: run_suite(n, selection=["C08", "C09"])
        )
        for n in (12, 48)
    }
    assert counts[48] <= 4.5 * counts[12], counts


def test_suite_builds_each_shared_object_once(monkeypatch):
    # the inverses, both superdeterminant forms and the left inverse are
    # built once per run: a check that rebuilds one adds products and
    # inversions
    inversions = []
    invert = checks.invert_quasi_unit

    def counted(x):
        inversions.append(x)
        return invert(x)

    monkeypatch.setattr(checks, "invert_quasi_unit", counted)
    monkeypatch.setattr(sm, "invert_quasi_unit", counted)
    assert count_products(monkeypatch, lambda: run_suite(6)) <= 648
    assert len(inversions) <= 8


# -- the witnesses of failing checks ------------------------------------------

def _only(check_id):
    (report,) = run_suite(max_n=3, selection=[check_id])
    return report.status, report.parameters, report.witness


def test_even_closed_form_off_by_q_fails_c09(monkeypatch):
    monkeypatch.setattr(
        sm, "even_closed_forms", scaled_by_q(sm.even_closed_forms)
    )
    assert _only("C09") == (
        "fail", {"max_n": 3}, "n=1.e11: residual -(q - 1)*b*c (+11 more)"
    )


def test_product_off_the_gl_pattern_fails_c12(monkeypatch):
    monkeypatch.setattr(
        sm, "check_gl_pattern",
        lambda mat, p, check=sm.check_gl_pattern: check(mat, p * Q),
    )
    assert _only("C12") == (
        "fail",
        {},
        "product should satisfy the gl pattern at q: A*B = p*B*A: residual "
        "-(q^2 - q)*b^2*delta2*c2 - (q^2 - q)*alpha*b*b2*c2 "
        "- (q^3 - q^2)*alpha*b*alpha2*delta2",
    )


def test_product_on_the_dual_pattern_fails_c12(monkeypatch):
    monkeypatch.setattr(
        sm, "check_dual_pattern", lambda mat, p: sm.CheckOutcome(True)
    )
    assert _only("C12") == (
        "fail", {}, "product unexpectedly satisfies the dual pattern at q"
    )


def test_disagreeing_randomized_order_fails_c16(monkeypatch):
    # the randomized side rewrites the reversed word, so the odd letters
    # alpha and delta trade places and the sign flips
    brute = Presentation.brute_force_nf
    monkeypatch.setattr(
        Presentation, "brute_force_nf",
        lambda self, word, seed: brute(self, word[::-1], seed),
    )
    word = [(0, 1), (2, 2), (3, 2), (3, 2), (1, 1)]
    assert _only("C16") == (
        "fail",
        {"algebra": "dual", "word": word},
        f"word {word!r} in 'dual': deterministic q^6*alpha*delta*b^2*c^4 "
        "vs randomized -q^6*alpha*delta*b^2*c^4",
    )


# a dual algebra whose bracket relation has the wrong sign
FLIPPED_DUAL = load_presentation(
    """
    generator alpha odd
    generator delta odd
    generator b even invertible
    generator c even invertible
    rule delta*alpha = -alpha*delta
    rule b*alpha = q*alpha*b
    rule b*delta = q*delta*b
    rule c*alpha = q*alpha*c
    rule c*delta = q*delta*c
    rule c*b = b*c + (q - q^-1)*delta*alpha
    """,
    name="dual",
)


@pytest.mark.parametrize("max_n", [3, 6])
def test_flipped_bracket_sign_fails_the_relation_checks(monkeypatch, max_n):
    # the closed-form sweeps (C08, C09), the decomposition (C07), the gl
    # checks (C13, C14) and confluence (C16) do not see the sign
    monkeypatch.setattr(checks, "dual_algebra", lambda: FLIPPED_DUAL)
    reports = run_suite(max_n)
    assert [r.check_id for r in reports if r.status == "pass"] == [
        "C07", "C08", "C09", "C13", "C14", "C16"
    ]
    assert {r.check_id: r.witness for r in reports if r.status == "fail"} == {
        "C01": "b*c - c*b = (q - q^-1)*delta*alpha: residual "
        "(2*q^2 - 2)/(q)*alpha*delta",
        "C02": "b*c^-1 - c^-1*b = (q - q^-1)*alpha*c^-1*c^-1*delta: residual "
        "-(2*q^2 - 2)/(q^3)*alpha*delta*c^-2",
        "C03": "delta1*b = b*delta1: residual -(2*q^3 - 2*q)*alpha*delta*b "
        "(+1 more)",
        "C04": "b^2*delta1^-1 = b*c^-1 - alpha*c^-1*delta*c^-1: residual "
        "-(2*q^2 - 2)/(q)*alpha*delta*c^-2 (+1 more)",
        "C05": "b^2*delta1^-1 commutes with b: residual "
        "(2*q^3 - 2*q)*alpha*delta*b*c^-2 (+3 more)",
        "C06": "factored form.e12: residual "
        "-(2*q^2 - 2)/(q^3)*alpha*delta*b^-1*c^-2 (+1 more)",
        "C10": "n=2: B*C - C*B = (p - p^-1)*D*A: residual "
        "(2*q^10 - 2*q^8 + 2*q^6 - 2*q^4 + 2*q^2 - 2)/(q)"
        "*alpha*delta*b^2*c^2",
        "C11": "n=1: A*D - D*A = (p - p^-1)*C*B: residual "
        "-(2*q^6 - 2*q^4 - 2*q^2 + 2)/(q)*alpha*delta*b*c",
        "C12": "product should satisfy the gl pattern at q: A*B = p*B*A: "
        "residual -(2*q^2 - 2)*alpha*b*alpha2*delta2",
        "C15": "plane coordinates -> dual-plane relations: w2*w1 = p*w1*w2: "
        "residual -(2*q^2 - 2)/(q)*alpha*delta*x*xi",
        "C17": "inconsistent bracket orderings across n: ['AD', 'neither']",
    }
