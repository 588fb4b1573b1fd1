"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py

Runs ``run.py`` five times per workload in each of two sets, every run
with another seed, and prints for each end-to-end metric its median and
quartile spread (the distance between the first and third quartile as a
share of the median) per set and over all runs, and how far the second
set's median moved from the first set's, signed so that a positive
shift is a change for the worse.  The workloads, the run length and the
bounds come from ``BENCHMARK.json``.  Raw results go to
``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 5  # per workload and set


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    declared = {m["name"]: m for m in config["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                t0 = time.perf_counter()
                res = one_run(w, seed, seconds)
                results[w][s].append(res)
                values = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                )
                print(f"set {s + 1} seed {seed} {w}: {values} "
                      f"correct={res['correct']} failed={res['failed']}/"
                      f"{res['attempted']} ({time.perf_counter() - t0:.0f} s)",
                      file=sys.stderr, flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out / f"steady-{stamp}.json").write_text(json.dumps(results, indent=1))

    header = ("workload", "metric", "median/set", "spread/set", "spread all",
              "shift", "bound")
    print(" | ".join(header))
    print(" | ".join("---" for _ in header))
    for w in workloads:
        sets = results[w]
        for metric, spec in declared.items():
            per_set = [[r["metrics"][metric]["value"] for r in runs]
                       for runs in sets]
            first, second = (statistics.median(v) for v in per_set)
            sign = 1 if spec["better"] == "lower" else -1
            every = [v for values in per_set for v in values]
            print(" | ".join([
                w, metric, f"{first:.4g} {second:.4g}",
                " ".join(f"{spread(v):.3f}" for v in per_set),
                f"{spread(every):.3f}",
                f"{(second - first) / first * sign:+.3f}",
                f"{spec['bound']}",
            ]))
        shares = [sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{w} | failed share per set: "
              + " ".join(f"{x:.4f}" for x in shares)
              + f" | all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
