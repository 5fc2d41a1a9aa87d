"""The qdual benchmark: one command, three workloads, every metric by name.

Usage::

    python3 perfbench/run.py --workload {verify,nf,scalars} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  It needs only the standard library and
the sources under ``src/``; it never installs or builds anything.

Each workload is a closed loop driven by one client in one process.  Every
job runs in a fresh interpreter (``worker.py``), so memory and lazy caches
are those of a new ``qdual`` process:

* ``verify``: one suite run (``qdual verify --max-n 6 --format machine``)
  per fresh interpreter, each with the next fuzz seed of a fixed pool, in
  whole passes over the pool until the time is up;
* ``nf``: a seeded stream of ``qdual nf`` queries in one session;
* ``scalars``: a seeded set of exact Q(q) identities.

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
reference host speed (``worker.reference_s``); ``--trace 1`` runs a fixed
amount of the workload untraced and then traced, three times in turn, and
prints the per-layer metrics.  Every output is checked (see
``worker.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with run metadata, and for traced runs the spans, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPS = 16
# fixed work of a traced pass: rounds of the nf / scalars streams
TRACE_ROUNDS = {"nf": 2, "scalars": 4}
# untraced and traced passes alternate this many times for trace.overhead
TRACE_PAIRS = 3
JOB_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def _job(cfg):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg['job']} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_job(workload):
    return _job({"job": "setup", "workload": workload})


def _p90(samples):
    # "inclusive" interpolates between order statistics instead of reaching
    # past them, so a run with a dozen suite runs is not its slowest one
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _work(args, trace, rounds=None, spans_path=None, setups=None):
    """Run the workload once, for args.seconds or a fixed number of rounds.

    verify runs one fresh interpreter per suite run, in whole passes over
    its fuzz seeds, and nf and scalars one session.  When ``setups`` is a
    list, set-up jobs are timed as well: once after each suite run for
    verify, and SETUP_REPS times, half before and half after the session,
    for nf and scalars.
    """
    cfg = {"job": "run", "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "rounds": rounds, "smoke": args.smoke,
           "max_n": wl.SMOKE_MAX_N if args.smoke else wl.VERIFY_MAX_N,
           "trace": trace, "spans_path": spans_path}
    reps = []
    if args.workload != "verify":
        if setups is not None:
            setups.extend(_setup_job(args.workload)
                          for _ in range(SETUP_REPS // 2))
        reps.append(_job(cfg))
        if setups is not None:
            setups.extend(_setup_job(args.workload)
                          for _ in range(SETUP_REPS // 2))
    else:
        cfg["rounds"] = 1
        fuzz_seeds = wl.verify_seeds(args.seed)
        pool = len(wl.VERIFY_SEEDS)
        t0 = time.perf_counter()
        while True:
            cfg["fuzz_seed"] = next(fuzz_seeds)
            reps.append(_job(cfg))
            if setups is not None:
                setups.append(_setup_job(args.workload))
            elapsed = time.perf_counter() - t0
            if rounds is not None:
                if len(reps) >= rounds:
                    break
            elif (len(reps) % pool == 0
                  and elapsed * (len(reps) + pool) / len(reps) > args.seconds):
                break  # another pass of the fuzz seeds would overrun the time
    merged = {
        "samples_s": [s for r in reps for s in r["samples_s"]],
        "scaled_s": [s for r in reps for s in r["scaled_s"]],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": [f for r in reps for f in r["failures"]][:5],
        "rss_mb": max(r["rss_mb"] for r in reps),
        "check_elapsed": [r["check_elapsed"] for r in reps
                          if "check_elapsed" in r],
    }
    if trace:
        merged["trace"] = reps[-1]["trace"]
    return merged


def _end_to_end(args):
    _setup_job(args.workload)  # warm the bytecode cache
    setups = []
    res = _work(args, trace=False, setups=setups)
    scaled = res["scaled_s"]
    raw = res["samples_s"]
    metrics = {
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
        "p50_ms": (statistics.median(scaled) * 1000.0, "ms"),
        "p90_ms": (_p90(scaled) * 1000.0, "ms"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    unscaled = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "p50_ms": statistics.median(raw) * 1000.0,
        "p90_ms": _p90(raw) * 1000.0,
        "ops_per_s": len(raw) / sum(raw),
    }
    return res, metrics, {"unscaled": unscaled,
                          "samples_ms": [x * 1000.0 for x in raw],
                          "scaled_ms": [x * 1000.0 for x in scaled],
                          "setups": setups}


def _per_layer(args, spans_path):
    rounds = 1 if args.workload == "verify" else TRACE_ROUNDS[args.workload]
    plains, traces = [], []
    for _ in range(TRACE_PAIRS):
        plains.append(_work(args, trace=False, rounds=rounds))
        traces.append(_work(args, trace=True, rounds=rounds,
                            spans_path=spans_path))
    ratios = [sum(b["scaled_s"]) / sum(a["scaled_s"])
              for a, b in zip(plains, traces)]
    passes = plains + traces
    traced = traces[-1]
    t = traced["trace"]
    s = t["self_s"]
    layers_s = sum(s.values())
    traced_s = sum(traced["samples_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def share(num, den):
        return num / den if den else 0.0

    metrics = {
        "qfield.calls": (t["qfield_calls"], "count"),
        "qfield.self_s": (s["qfield"], "s"),
        "qfield.max_deg": (t["qfield_max_deg"], "degree"),
        "qfield.general_share": (share(t["qfield_general"],
                                       t["qfield_calls"]), "ratio"),
        "algebra.nf_calls": (t["nf_calls"], "count"),
        "algebra.mul_calls": (t["mul_calls"], "count"),
        "algebra.inv_calls": (t["inv_calls"], "count"),
        "algebra.self_s": (s["algebra"], "s"),
        "algebra.mul_yield": (share(t["mul_terms"], t["mul_pairs"]), "ratio"),
        "algebra.render_s": (t["render_s"], "s"),
        "parsing.calls": (t["parsing_calls"], "count"),
        "parsing.raw_terms": (t["raw_terms"], "count"),
        "parsing.self_s": (s["parsing"], "s"),
        "parsing.yield": (share(t["element_terms"], t["raw_terms"]), "ratio"),
        "presentations.calls": (t["presentations_calls"], "count"),
        "presentations.objects": (t["presentation_objects"], "count"),
        "presentations.self_s": (s["presentations"], "s"),
        "supermatrix.matmul_calls": (t["matmul_calls"], "count"),
        "supermatrix.pattern_calls": (t["pattern_calls"], "count"),
        "supermatrix.self_s": (s["supermatrix"], "s"),
        "checks.self_s": (s["checks"], "s"),
        "cli.self_s": (s["cli"], "s"),
    }
    # per-check seconds of the untraced suite runs, median over the passes
    elapsed = [e for p in plains for e in p["check_elapsed"]]
    for cid in wl.CHECK_IDS:
        values = [e[cid] for e in elapsed if cid in e]
        metrics[f"checks.{cid}_s"] = (
            statistics.median(values) if values else 0.0, "s")
    metrics.update({
        "trace.wall_s": (traced_s, "s"),
        "trace.harness_s": (traced_s - layers_s, "s"),
        "trace.accounted_share": (share(layers_s, traced_s), "ratio"),
        "trace.overhead": (statistics.median(ratios), "ratio"),
        "failed_share": (share(failed, attempted), "ratio"),
    })
    failures = [f for p in passes for f in p["failures"]]
    res = {"attempted": attempted, "failed": failed, "failures": failures[:5]}
    return res, metrics, {"overhead_ratios": ratios,
                          "spans": t["spans"],
                          "spans_file": os.path.relpath(spans_path, ROOT)}


def _metadata():
    src = ROOT / "src"
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "nf", "scalars"))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny input sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdual" / "__init__.py").is_file():
        print(f"error: no qdual sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    try:
        if args.trace:
            res, metrics, info = _per_layer(
                args, str(out_dir / f"{stem}.spans.jsonl.gz"))
        else:
            res, metrics, info = _end_to_end(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "metadata": _metadata(), "info": info,
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
