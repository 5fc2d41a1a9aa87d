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
