"""Tests of the benchmark itself, on its tiny smoke sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, trace, *extra, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    res = _result(_bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def _copy_bench(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    return tmp_path / BENCH.name


def _corrupt_copy(tmp_path):
    """A runnable copy of the benchmark whose known answers are all wrong."""
    bench = _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expected = bench / wl.EXPECTED_DIR.name
    answers = json.loads((expected / "nf.json").read_text())
    for entry in answers.values():
        entry["stdout"] = "0 + " + entry["stdout"]
    (expected / "nf.json").write_text(json.dumps(answers))
    for seed in wl.VERIFY_SEEDS:
        verify = expected / wl.verify_expected_path(wl.SMOKE_MAX_N, seed).name
        verify.write_bytes(
            verify.read_bytes().replace(b'"pass"', b'"fail"', 1))
    return bench


def test_corrupted_expected_output_counts_as_failed(tmp_path):
    script = _corrupt_copy(tmp_path) / "run.py"
    res = _result(_bench("nf", 1, cwd=tmp_path, script=script))
    assert res["correct"] is False
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["failed_share"]["value"] == 1.0

    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "verify",
         "--seed", "3", "--seconds", "0.2", "--trace", "0",
         "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    res = _result(proc)
    assert res["correct"] is False and res["failed"] == res["attempted"]


def test_one_seed_gives_one_stream():
    for stream in (wl.verify_seeds, wl.nf_rounds, wl.scalar_rounds):
        first = list(itertools.islice(stream(11), 4))
        again = list(itertools.islice(stream(11), 4))
        other = list(itertools.islice(stream(12), 4))
        assert first == again
        assert first != other


def test_every_nf_query_has_a_recorded_answer():
    answers = wl.load_nf_expected()
    for alg, expr in wl.nf_universe() + wl.nf_universe(smoke=True):
        assert answers[wl.nf_key(alg, expr)]["exit_code"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = _copy_bench(tmp_path)
    proc = _bench("nf", 0, cwd=tmp_path, script=bench / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
