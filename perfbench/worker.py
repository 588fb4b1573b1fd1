"""One benchmark process: set up a workload, then run it in whole rounds.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``READY`` once its inputs are built and verified,
then (unless ``--setup-only``) a line ``RESULT {json}`` at the end.
Operation output goes to buffers, never to this process's stdout.

Rounds repeat until ``--seconds`` have passed, so a run measures at
least that long and always ends on a whole round.  With
``--trace 1`` each unit of work is an untraced round followed by a
traced round of the same operations: their outputs must be identical,
and the difference of their times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from spans import Tracer


def _run_op(cli, workload, op):
    """Run one operation; return (failed, seconds, exit code, stdout)."""
    workload.prepare(op)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # an operation that raises counts as failed
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return True, seconds, None, out.getvalue()
    seconds = time.perf_counter() - start
    if code not in op.ok_codes:
        sys.stderr.write(f"{op.name}: exit {code}: {err.getvalue()}\n")
        return True, seconds, code, out.getvalue()
    return False, seconds, code, out.getvalue()


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.per_op: dict = {}  # name -> seconds of every run of it
        self.first_outputs: dict = {}

    def round(self) -> tuple[float, dict]:
        """One pass over the operation list: (seconds in ops, outputs)."""
        seconds = 0.0
        outputs = {}
        for op in self.workload.ops:
            self.attempted += 1
            failed, dt, code, stdout = _run_op(self.cli, self.workload, op)
            seconds += dt
            self.per_op.setdefault(op.name, []).append(dt)
            if failed:
                self.failed += 1
                continue
            try:
                bad = self.workload.check(op, code, stdout)
                outputs[op.name] = self.workload.output(op, stdout)
            except (OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                bad = [f"output unreadable: {exc!r}"]
            else:
                first = self.first_outputs.setdefault(op.name,
                                                      outputs[op.name])
                if outputs[op.name] != first:
                    bad.append("output differs between rounds")
            self.problems += [f"{op.name}: {p}" for p in bad]
        return seconds, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import rmlab.cli as cli

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(cli, workload)
    tracer = Tracer() if args.trace else None
    overheads = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        plain_s, plain_out = runner.round()
        if tracer:
            tracer.install()
            try:
                traced_s, traced_out = runner.round()
            finally:
                tracer.uninstall()
            overheads.append(traced_s - plain_s)
            if traced_out != plain_out:
                runner.problems.append("traced outputs differ from untraced")
        rounds += 1

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": rounds,
        "problems": runner.problems[:20],
        "op_seconds": {name: sum(v) / len(v)
                       for name, v in runner.per_op.items()},
    }
    if tracer:
        result["metrics"] = tracer.metrics(rounds, sum(overheads) / rounds)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        op_seconds = sum(sum(v) for v in runner.per_op.values())
        result["ops_per_s"] = runner.attempted / op_seconds
        result["peak_rss_mb"] = peak_kb / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
