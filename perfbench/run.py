"""rmlab benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from
its ``src`` directory.  Workloads: analyze, equivalence, search,
table9 (see README.md).  With ``--trace 0`` the last line of output
holds the end-to-end metrics ``setup_s``, ``ops_per_s`` and
``peak_rss_mb``; with ``--trace 1`` it holds the per-layer metrics of
a traced run.

Every child process runs with one BLAS and OpenMP thread, and only one
runs at a time.  ``setup_s`` is the median, over several fresh
interpreters, of the time from starting the interpreter until the
workload's inputs are built and verified; the last of them goes on to
run the operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze", "equivalence", "search", "table9")
SETUP_SAMPLES = 4  # fresh interpreters timed per run, the worker included
DEADLINE_S = 170.0

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Child:
    """A worker process whose protocol lines are read with a deadline."""

    def __init__(self, args: list, env: dict, deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
        )
        self.timer = threading.Timer(
            max(deadline - time.perf_counter(), 0.0), self.proc.kill
        )
        self.timer.start()

    def expect(self, tag: str) -> str:
        """The rest of the next line starting with ``tag``."""
        for line in self.proc.stdout:
            if line.startswith(tag):
                return line[len(tag):].strip()
        raise RuntimeError(f"worker ended before {tag.strip()}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdout.read()
        self.proc.stdout.close()
        self.code = self.proc.wait()
        self.timer.cancel()


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = dict(os.environ)
    # Cached bytecode, as an installed package has; in a fresh checkout
    # the first interpreter writes it, and the median absorbs that.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("RMLAB_SEED", None)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    out_dir = HERE / "out" / f"{workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", str(out_dir)]
    setup = []
    try:
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                with Child(base + ["--setup-only"], env, deadline) as child:
                    child.expect("READY")
                    setup.append(time.perf_counter() - child.started)
                if child.code != 0:
                    raise RuntimeError("set-up process failed")
        with Child(base, env, deadline) as child:
            child.expect("READY")
            setup.append(time.perf_counter() - child.started)
            result = json.loads(child.expect("RESULT"))
        if child.code != 0:
            raise RuntimeError("worker failed")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = result.pop("rounds")
    print(f"{workload}: {rounds} round(s), {result['attempted']} operations",
          file=sys.stderr)
    for name, seconds in result.pop("op_seconds").items():
        print(f"  {name}: {seconds:.3f} s", file=sys.stderr)
    if trace:
        return result
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": result.pop("ops_per_s"), "unit": "1/s"},
        "peak_rss_mb": {"value": result.pop("peak_rss_mb"), "unit": "MB"},
    }
    return {**result, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rmlab" / "cli.py").is_file():
        print(f"no rmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
