"""Record the known answers that benchmark runs are compared against.

    python3 perfbench/record.py

Writes ``perfbench/expected/``: the ``qdual verify --format machine`` bytes
at the workload's N (and the smoke N) for every fuzz seed of the pool, and
the stdout and exit code of every ``qdual nf`` query the seeded streams can
draw.
Record only from a commit whose outputs are trusted: the benchmark counts
every later byte difference as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from worker import _call_cli  # noqa: E402


def main():
    from qdual import cli

    out_dir = wl.EXPECTED_DIR
    out_dir.mkdir(exist_ok=True)
    for max_n in (wl.VERIFY_MAX_N, wl.SMOKE_MAX_N):
        for seed in wl.VERIFY_SEEDS:
            _, (out, err, rc, exc) = _call_cli(cli, [
                "verify", "--max-n", str(max_n), "--format", "machine",
                "--seed", str(seed)])
            if rc != 0 or err or exc:
                raise SystemExit(f"verify --max-n {max_n} --seed {seed} "
                                 f"failed: {err}{exc}")
            wl.verify_expected_path(max_n, seed).write_bytes(
                out.encode("utf-8"))
    answers = {}
    for alg, expr in wl.nf_universe() + wl.nf_universe(smoke=True):
        _, (out, err, rc, exc) = _call_cli(
            cli, ["nf", "--algebra", alg, "--", expr])
        if exc:
            raise SystemExit(f"nf {alg} {expr} raised {exc}")
        answers[wl.nf_key(alg, expr)] = {"stdout": out, "exit_code": rc}
    with open(out_dir / "nf.json", "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(answers)} nf answers and "
          f"{2 * len(wl.VERIFY_SEEDS)} verify outputs in {out_dir}")


if __name__ == "__main__":
    main()
