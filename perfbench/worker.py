"""Run one in-process workload in a fresh interpreter; started by run.py.

The first op is a warm-up: it ends the set-up phase (import, planning and
lazy first-call work) and is checked but not timed.  Timed ops follow
back to back for ``--seconds``.  With ``--trace 1`` the first half of the
window runs untraced, the spans are installed, and the second half runs
traced; the ratio of the two median op times is the tracing overhead.
With ``--setup-only`` the process exits after the warm-up op and one
timed op.

The last stdout line is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads


class Runner:
    """Runs, times and checks ops of one workload."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import sigchain.scenario as sc

        self.sc = sc
        self.workload = workload
        self.op = workloads.OPS[workload]
        self.inputs = workloads.INPUTS[workload](seed)
        self.work = work
        self.ref_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run_op(self) -> float:
        out = self.work / f"op{self.attempted}"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            values = self.op(self.sc, self.inputs, out)
        except Exception as e:  # noqa: BLE001  a raising op is a failed op
            elapsed = time.perf_counter() - t0
            problems = [f"raised {e!r}"]
        else:
            elapsed = time.perf_counter() - t0
            problems = checks.check_values(self.workload, values)
            digest = checks.digest_tree(out)
            if self.ref_digest is None:
                self.ref_digest = digest
            elif digest != self.ref_digest:
                problems.append("output files differ from the first op's")
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return elapsed

    def run_for(self, seconds: float, min_ops: int = 1) -> tuple:
        times = []
        start = time.perf_counter()
        while not times or len(times) < min_ops \
                or time.perf_counter() - start < seconds:
            times.append(self.run_op())
        return times, time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed, args.work)
    runner.run_op()
    result = {"first_op_end": time.monotonic()}
    if args.setup_only:
        result["next_op_s"] = runner.run_op()
    elif args.trace:
        from tracer import Tracer, layer_metrics

        plain, _ = runner.run_for(args.seconds / 2, min_ops=3)
        tracer = Tracer()
        tracer.install()
        traced = []
        start = time.perf_counter()
        while len(traced) < 3 \
                or time.perf_counter() - start < args.seconds / 2:
            tracer.op = len(traced)
            traced.append(runner.run_op())
        tracer.uninstall()
        tracer.dump(args.work.parent / f"spans-{args.workload}.jsonl")
        layers = layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_ratio"] = \
            statistics.median(traced) / statistics.median(plain)
        layers["trace.untraced_op_ms"] = 1e3 * statistics.median(plain)
        result["layers"] = layers
    else:
        times, wall = runner.run_for(args.seconds)
        result.update(op_times=times, wall=wall, next_op_s=times[0])
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:10])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
