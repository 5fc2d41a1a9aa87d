"""One fresh interpreter's share of a benchmark run.

``python3 perfbench/worker.py '<json config>'`` runs one job and prints one
JSON line.  Jobs:

* ``setup``: time ``import qdual`` plus building the workload's
  presentations;
* ``run``: a closed loop over the workload's seeded stream, for a number of
  seconds or a fixed number of rounds.  A ``verify`` round is one
  in-process ``qdual verify`` suite run.

Outputs are checked after each round, outside the timed operations, and
only the verdicts are kept, so the harness's memory does not grow with the
number of operations.  With ``"trace": true`` the layer wrappers of
:mod:`tracer` are installed before the first operation, and checking waits
until they are removed, so it never shows up in the trace.  A wrong output
is a failed operation, never a crash.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer, install  # noqa: E402

_perf = time.perf_counter

# The shared host runs all code up to 1.9x slower for periods of seconds to
# a minute.  A fixed loop of stdlib work, run next to every operation, shows
# how fast the host is at that moment; an operation's scaled time is its
# time on a host that runs the loop in REF_S seconds.  The loop uses no
# qdual code, so a change to qdual cannot move it.
REF_S = 0.002
_REF_ITERS = 300


def reference_s():
    """Seconds for the fixed reference loop: the median of three passes."""
    gc.disable()  # so the loop never pays for collecting qdual's objects
    passes = []
    for _ in range(3):
        t0 = _perf()
        x, seen = Fraction(1, 3), {}
        for i in range(_REF_ITERS):
            x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
            x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
            seen[i % 97] = seen.get(i % 97, 0) + i
        passes.append(_perf() - t0)
    gc.enable()
    return sorted(passes)[1]


_MACHINE_KEYS = ["check_id", "paper_ref", "params", "status", "witness",
                 "elapsed_ms"]


def _call_cli(cli, argv):
    """Time one in-process ``cli.main(argv)``: (seconds, (out, err, rc, exc))."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = _perf()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # a raising operation is a failed one
        rc, exc = None, f"{type(e).__name__}: {e}"
    return _perf() - t0, (out.getvalue(), err.getvalue(), rc, exc)


def _setup(cfg):
    before = reference_s()
    t0 = _perf()
    import qdual  # noqa: F401

    wl.build_presentations(cfg["workload"])
    dt = _perf() - t0
    return {"setup_s": dt, "scaled_s": dt * REF_S / ((before + reference_s())
                                                    / 2)}


# Each workload gives (stream, run_one, extra) and a checker.  stream(seed,
# smoke) yields rounds of inputs; run_one(input) returns (seconds, payload);
# the checker turns a batch of (input, payload) pairs into one verdict each:
# None when correct, else a problem description.

# -- verify -------------------------------------------------------------------


def _verify_ops(cfg):
    from qdual import cli

    argv = ["verify", "--max-n", str(cfg["max_n"]), "--format", "machine",
            "--seed", str(cfg["fuzz_seed"])]
    reports = []

    def stream(seed, smoke):
        while True:
            yield [argv]

    def one(argv):
        suite = cli.run_suite

        def keep_reports(*args, **kwargs):
            reports[:] = suite(*args, **kwargs)
            return reports

        cli.run_suite = keep_reports
        try:
            return _call_cli(cli, argv)
        finally:
            cli.run_suite = suite

    def extra():
        return {"check_elapsed": {r.check_id: r.elapsed for r in reports}}

    return stream, one, extra


def _verify_checker(cfg):
    def check(batch):
        verdicts = []
        for _, (out, err, rc, exc) in batch:
            try:
                problems = _verify_problems(out, err, rc, exc, cfg)
            except (KeyError, TypeError, AttributeError) as e:
                problems = [f"malformed machine output: {e!r}"]
            verdicts.append("; ".join(problems) or None)
        return verdicts

    return check


def _verify_problems(out, err, rc, exc, cfg):
    if exc is not None:
        return [f"raised {exc}"]
    problems = []
    if rc != 0 or err:
        problems.append(f"exit code {rc}, stderr {err.strip()!r}")
    recorded = wl.verify_expected_path(cfg["max_n"], cfg["fuzz_seed"])
    if recorded.read_bytes() != out.encode("utf-8"):
        problems.append(f"output differs from {recorded.name}")
    try:
        rows = [json.loads(line) for line in out.splitlines()]
    except ValueError:
        return problems + ["output is not one JSON object per line"]
    if [r.get("check_id") for r in rows] != wl.CHECK_IDS:
        return problems + ["check ids are not C01..C17 in order"]
    for r in rows:
        if list(r) != _MACHINE_KEYS or r["elapsed_ms"] != 0:
            problems.append(f"{r['check_id']}: bad key order or elapsed_ms")
        want = "anomaly" if r["check_id"] == "C17" else "pass"
        if r["status"] != want:
            problems.append(f"{r['check_id']}: status {r['status']}")
    c17 = rows[-1]["params"]
    if c17.get("ordering") != "DA" or c17.get("max_n") != cfg["max_n"]:
        problems.append(f"C17 params {c17}")
    return problems


# -- nf -----------------------------------------------------------------------


def _nf_ops(cfg):
    from qdual import cli

    def one(q):
        return _call_cli(cli, ["nf", "--algebra", q["algebra"], "--",
                               q["expr"]])

    return wl.nf_rounds, one, dict


def _nf_checker(cfg):
    state = {}
    reparsed = {}

    def check(batch):
        from qdual import parse_element, render_element

        if not state:  # built on first use, after the first timed round
            state["pres"] = wl.build_presentations("nf")
            state["expected"] = wl.load_nf_expected()
            state["count"] = 0
        verdicts = []
        for q, (out, err, rc, exc) in batch:
            state["count"] += 1
            if exc is not None:
                verdicts.append(f"raised {exc}")
                continue
            if rc != 0 or err:
                verdicts.append(f"exit code {rc}, stderr {err.strip()!r}")
                continue
            known = state["expected"].get(wl.nf_key(q["algebra"], q["expr"]))
            if known is not None and (known["stdout"] != out
                                      or known["exit_code"] != rc):
                verdicts.append("output differs from the recorded answer")
                continue
            pres = state["pres"][q["algebra"]]
            key = (q["algebra"], out)
            try:
                if key not in reparsed:
                    text = out[:-1]
                    if not out.endswith("\n") or "\n" in text:
                        raise ValueError("output is not one line")
                    el = parse_element(text, pres)
                    if render_element(el) != text:
                        raise ValueError("output does not reparse to itself")
                    reparsed[key] = el
                if q["brute"] and pres.brute_force_nf(
                        q["word"], cfg["seed"] * 7919 + state["count"]
                ) != reparsed[key]:
                    raise ValueError("disagrees with brute_force_nf")
            except Exception as e:  # a check that cannot run is a failed one
                verdicts.append(f"{type(e).__name__}: {e}")
                continue
            verdicts.append(None)
        return verdicts

    return check


# -- scalars ------------------------------------------------------------------


def _scalars_ops(cfg):
    from qdual.qfield import ONE, Q, ZERO, q_power, qnum

    def gauss(n, k):
        # Gaussian binomial in base q^2 as a quotient of q-number products
        if k < 0 or k > n:
            return ZERO
        num = den = ONE
        for i in range(k):
            num = num * qnum(n - i)
            den = den * qnum(i + 1)
        return num / den

    def one(spec):
        n, k = spec["n"], spec["k"]
        t0 = _perf()
        if spec["kind"] == "pascal":
            lhs = gauss(n, k)
            if spec["form"] == 0:
                rhs = gauss(n - 1, k - 1) + q_power(2 * k) * gauss(n - 1, k)
            else:
                rhs = q_power(2 * (n - k)) * gauss(n - 1, k - 1) \
                    + gauss(n - 1, k)
        else:
            lhs = Q * (ONE - Q * Q) * (ONE + Q * Q).inv() * qnum(n) \
                * qnum(n - 1)
            rhs = Q * (ONE - q_power(2 * n)) * qnum(n - 1) / (ONE + Q * Q)
        zero = (lhs - rhs).is_zero
        values = [(lhs.eval_at(v), rhs.eval_at(v)) for v in spec["points"]]
        return _perf() - t0, (zero, values)

    return wl.scalar_rounds, one, dict


def _scalars_checker(cfg):
    def check(batch):
        verdicts = []
        for spec, (zero, values) in batch:
            n, k = spec["n"], spec["k"]
            if spec["kind"] == "pascal":
                refs = [wl.ref_gauss(n, k, v) for v in spec["points"]]
            else:
                refs = [wl.ref_kappa(n, v) for v in spec["points"]]
            where = f"{spec['kind']} n={n} k={k}"
            if not zero:
                verdicts.append(f"{where}: nonzero residual")
            elif any(a != ref or b != ref
                     for (a, b), ref in zip(values, refs)):
                verdicts.append(f"{where}: eval_at disagrees with the "
                                "reference")
            else:
                verdicts.append(None)
        return verdicts

    return check


# -- running a job ------------------------------------------------------------

_WORKLOADS = {
    "verify": (_verify_ops, _verify_checker),
    "nf": (_nf_ops, _nf_checker),
    "scalars": (_scalars_ops, _scalars_checker),
}


def _rounds(cfg, stream, one, check, tracer):
    """Closed loop over whole rounds, for cfg seconds or cfg rounds.

    The reference loop runs before every operation and after the last one.
    Returns (op seconds, reference seconds, verdicts, unchecked (input,
    payload) pairs).
    """
    samples, refs, verdicts, pending = [], [], [], []
    rounds = stream(cfg["seed"], cfg["smoke"])
    t0 = _perf()
    r = 0
    while True:
        for item in next(rounds):
            if tracer is not None:
                tracer.request += 1
            refs.append(reference_s())
            dt, payload = one(item)
            samples.append(dt)
            pending.append((item, payload))
        r += 1
        if tracer is None:
            verdicts += check(pending)
            pending.clear()
        if cfg["rounds"] is not None:
            if r >= cfg["rounds"]:
                break
        elif (_perf() - t0) * (r + 1) / r > cfg["seconds"]:
            break  # another round would overrun the time
    refs.append(reference_s())
    return samples, refs, verdicts, pending


def _trace_summary(tracer):
    calls = tracer.calls
    c = tracer.counters
    return {
        "self_s": tracer.self_s,
        "qfield_calls": sum(n for n, _ in tracer.qfield.values()),
        "qfield_general": c["qfield_general"],
        "qfield_max_deg": c["qfield_max_deg"],
        "nf_calls": calls.get("Presentation.normal_form", 0),
        "mul_calls": calls.get("Element.__mul__", 0),
        "inv_calls": calls.get("invert_quasi_unit", 0),
        "mul_pairs": c["mul_pairs"],
        "mul_terms": c["mul_terms"],
        "render_s": sum((s[5] - s[4] for s in tracer.spans
                         if s[3] == "render_element"), 0.0),
        "parsing_calls": tracer.layer_calls["parsing"],
        "raw_terms": c["raw_terms"],
        "element_terms": c["element_terms"],
        "presentations_calls": tracer.layer_calls["presentations"],
        "presentation_objects": c["presentation_objects"],
        "matmul_calls": calls.get("matmul", 0),
        "pattern_calls": calls.get("check_dual_pattern", 0)
        + calls.get("check_gl_pattern", 0),
        "spans": len(tracer.spans),
    }


def run(cfg):
    tracer = Tracer() if cfg["trace"] else None
    import qdual  # noqa: F401  (import cost is measured by the setup job)

    make_ops, make_checker = _WORKLOADS[cfg["workload"]]
    check = make_checker(cfg)
    if tracer is not None:
        install(tracer)
    stream, one, extra = make_ops(cfg)
    samples, refs, verdicts, pending = _rounds(cfg, stream, one, check,
                                               tracer)
    if tracer is not None:
        tracer.uninstall()
    verdicts += check(pending)
    failures = [v for v in verdicts if v is not None]
    result = {
        "samples_s": samples,
        "scaled_s": [dt * REF_S / ((a + b) / 2)
                     for dt, a, b in zip(samples, refs, refs[1:])],
        "attempted": len(verdicts),
        "failed": len(failures),
        "failures": failures[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **extra(),
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
        if cfg.get("spans_path"):
            tracer.write_spans(cfg["spans_path"])
    return result


def main():
    cfg = json.loads(sys.argv[1])
    result = _setup(cfg) if cfg["job"] == "setup" else run(cfg)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
