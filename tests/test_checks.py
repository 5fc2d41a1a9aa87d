"""The named verification suite: statuses, report formats, determinism."""

import json

import pytest

from qdual import checks
from qdual.checks import (
    CHECK_IDS,
    CheckReport,
    has_failure,
    machine_lines,
    run_suite,
    text_lines,
)

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
