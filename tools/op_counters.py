"""Print what each op of a benchmark workload costs the process.

Run from a checkout, no install needed::

    python tools/op_counters.py link_budget --ops 10

One op of the named in-process workload (``OPS`` in
``perfbench/workloads.py``, at its baseline seed) runs first as a warm-up
and is not printed.  Then each of ``--ops`` ops prints one row: its wall
time, the CPU time of the process (user plus system, every thread), the
system time alone and the minor page faults, all read with
``resource.getrusage`` around the op.  A last row gives the median of each
column.  ``perfbench/workloads.py`` is imported, never changed, as
``output_digests.py`` imports it, and each op writes into a temporary
directory removed after it.

Unlike op rates, fault counts do not move with the host's speed, so they
compare across runs made at different times.  Unix only.
"""
from __future__ import annotations

import argparse
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from output_digests import ROOT, load_workloads

COLUMNS = ("wall_ms", "cpu_ms", "sys_ms", "minflt")


def _counters() -> tuple:
    """Wall clock, CPU and system seconds and minor faults so far."""
    use = resource.getrusage(resource.RUSAGE_SELF)
    return (time.perf_counter(), use.ru_utime + use.ru_stime, use.ru_stime,
            use.ru_minflt)


def main() -> None:
    wl = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=tuple(wl.OPS))
    ap.add_argument("--ops", type=int, default=10,
                    help="ops printed after the warm-up (default 10)")
    args = ap.parse_args()
    if args.ops < 1:
        ap.error("--ops must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from sigchain import scenario

    op, inputs = wl.OPS[args.workload], \
        wl.INPUTS[args.workload](wl.BASELINE_SEED)
    rows = []
    with tempfile.TemporaryDirectory() as d:
        for k in range(args.ops + 1):
            out = Path(d) / f"op{k}"
            before = _counters()
            op(scenario, inputs, out)
            after = _counters()
            shutil.rmtree(out)
            wall, cpu, sys_s, minflt = (b - a for a, b in zip(before, after))
            rows.append((1e3 * wall, 1e3 * cpu, 1e3 * sys_s, minflt))
    print("op", *COLUMNS, sep="\t")
    for k, row in enumerate(rows[1:], 1):
        print(k, *(f"{v:.1f}" for v in row[:3]), row[3], sep="\t")
    print("median", *(f"{statistics.median(col):.1f}"
                      for col in zip(*rows[1:])), sep="\t")


if __name__ == "__main__":
    main()
