"""Steadiness and determinism check of the benchmark itself.

    python3 bench/selfcheck.py

For each workload in BENCHMARK.json it runs ``run.py`` with seed 1 and
the file's ``run_seconds`` twice untraced and fails if any
end-to-end metric of the second run differs from the first by more than
the metric's bound in BENCHMARK.json.  It then runs the traced mode twice
and fails unless both runs agree exactly on every count, on the digest
of all op results and reference checks, and on the fail ratio.  Times
(``*.self_s``, ``trace.overhead_ratio``) and ``python.gc_gen2`` are left
out of the exact comparison: they depend on the machine, not the seed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOT_EXACT = ("trace.overhead_ratio", "python.gc_gen2")
SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems = []
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run(name, SEED, seconds, 0)[1] for _ in range(2)]
        for r in runs:
            if not r["correct"]:
                problems.append(f"{name}: a timed run got a wrong result")
        for metric, bound in bounds.items():
            a = runs[0]["metrics"][metric]["value"]
            b = runs[1]["metrics"][metric]["value"]
            diff = abs(b - a) / a
            status = "ok" if diff <= bound else "OUT OF BOUND"
            print(f"{name:10} {metric:22} {a:14.6g} {b:14.6g} "
                  f"{diff:7.1%} <= {bound:.0%} {status}")
            if diff > bound:
                problems.append(f"{name}: {metric} moved {diff:.1%}")
        traced = [run(name, SEED, seconds, 1) for _ in range(2)]
        (i1, r1), (i2, r2) = traced
        same = (i1["digest"] == i2["digest"]
                and i1["fail_ratio"] == i2["fail_ratio"]
                and (r1["attempted"], r1["failed"])
                == (r2["attempted"], r2["failed"]))
        counts = [k for k in r1["metrics"]
                  if not k.endswith("self_s") and k not in NOT_EXACT]
        differ = [k for k in counts
                  if r1["metrics"][k] != r2["metrics"][k]]
        print(f"{name:10} traced: digest {i1['digest'][:12]} "
              f"fail_ratio {i1['fail_ratio']:.4f} "
              f"{len(counts) - len(differ)}/{len(counts)} counts equal")
        if not same or differ:
            problems.append(f"{name}: traced runs differ: digest/fail "
                            f"{'same' if same else 'differ'}, {differ}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
