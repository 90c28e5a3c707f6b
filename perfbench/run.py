"""sigchain benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src`` as is,
without installing it.  Workloads and the reason for each are defined in
workloads.py, which also says why BENCHMARK.json lists only two of them;
per-op output checks are in checks.py.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off:

* ``ops_per_s``: ops completed per second of the measured window.
* ``op_p50_s``: median op wall time.  The highest percentile with at least
  ten ops beyond it is printed too, with the op count, but not reported.
* ``setup_s``: for the in-process workloads, time from spawning the
  workload process to the end of its first (warm-up) op, minus the time of
  the op right after it.  That op stands in for ``op_p50_s``: it runs at
  the same moment as the set-up, so swings in host speed, which last
  seconds, cancel instead of adding to the difference.  For ``cli_cold``,
  the wall time of a fresh ``python -c "import sigchain"``.  Median of
  several set-ups per run.
* ``peak_rss_mb``: peak resident set of the workload process; for
  ``cli_cold``, the largest over its CLI child processes.

``failed_ratio`` (failed over attempted ops) is printed with the others;
the result line carries it as ``failed`` and ``attempted``.

``--trace 1`` reports the per-layer metrics of BENCHMARK.json from a
separate traced run (see tracer.py), per op.  Layers that a workload never
reaches read 0.

Every run prints its conditions: nproc, Python, numpy and scipy versions,
and the host's steal ticks and load average at start and end, so runs
taken while the host was busy can be spotted.  The last stdout line is the
JSON result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS_IN_PROCESS = 4     # workload process set-ups per run (one is the run)
SETUPS_CLI = 5            # fresh `import sigchain` processes per run
CHILD_TIMEOUT_S = 170.0


def _steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def conditions() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "steal_ticks": _steal_ticks(), "loadavg": _loadavg()}


class Child:
    """Spawns a process and reaps it with its resource usage."""

    def __init__(self, root: Path) -> None:
        src = str(root / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv, cwd, stdout_path=None, stderr_path=None):
        """Returns (exit code, wall seconds, peak RSS in MB)."""
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            for f in (out, err):
                if f is not subprocess.DEVNULL:
                    f.close()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tail_summary(times) -> str:
    n = len(times)
    ordered = sorted(times)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            rank = max(1, math.ceil(p / 100.0 * n))
            return f"p{p:g} {ordered[rank - 1]:.4f} s over {n} ops"
    return f"no percentile has 10 ops beyond it over {n} ops"


# -------------------------------------------------------------- in-process

def run_worker(child: Child, work: Path, args, setup_only: bool):
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    out, err = work / "worker.out", work / "worker.err"
    spawned = time.monotonic()
    code, _, rss_mb = child.run(argv, work, out, err)
    lines = out.read_text().strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err.read_text()[-4000:])
        raise RuntimeError(f"workload process exited with {code}")
    result = json.loads(lines[-1])
    result["setup_total_s"] = result["first_op_end"] - spawned
    result["peak_rss_mb"] = rss_mb
    return result


def in_process(child: Child, work: Path, args) -> dict:
    if args.trace:
        res = run_worker(child, work, args, setup_only=False)
        layers = dict(res["layers"])
        layers.update(import_breakdown(
            child, work, [["-c", "import sigchain.cli"]] * 3))
        return {"attempted": res["attempted"], "failed": res["failed"],
                "problems": res["problems"], "layers": layers}
    setups = [run_worker(child, work, args, setup_only=True)
              for _ in range(SETUPS_IN_PROCESS - 1)]
    res = run_worker(child, work, args, setup_only=False)
    times = res["op_times"]
    p50 = statistics.median(times)
    setup = statistics.median(s["setup_total_s"] - s["next_op_s"]
                              for s in setups + [res])
    return {"attempted": res["attempted"] + sum(s["attempted"] for s in setups),
            "failed": res["failed"] + sum(s["failed"] for s in setups),
            "problems": res["problems"] + [p for s in setups
                                           for p in s["problems"]],
            "times": times,
            "e2e": {"ops_per_s": len(times) / res["wall"], "op_p50_s": p50,
                    "setup_s": setup,
                    "peak_rss_mb": res["peak_rss_mb"]}}


# ---------------------------------------------------------------- cli_cold

def import_breakdown(child: Child, work: Path, tails) -> dict:
    """Median import seconds by package over ``python -X importtime`` runs,
    one run per argument list in ``tails``."""
    rows = []
    err = work / "importtime.err"
    for tail in tails:
        code = child.run([sys.executable, "-X", "importtime", *tail],
                         work / "cwd", stderr_path=err)[0]
        if code != 0:
            raise RuntimeError(f"importtime pass {tail} exited with {code}")
        rows.append(parse_importtime(err.read_text()))
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def parse_importtime(text: str) -> dict:
    total = {"": 0, "scipy": 0, "numpy": 0, "sigchain": 0}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        total[""] += int(self_us)
        if top in total:
            total[top] += int(self_us)
    return {"cli.import_s": total[""] / 1e6,
            "cli.import.scipy_s": total["scipy"] / 1e6,
            "cli.import.numpy_s": total["numpy"] / 1e6,
            "cli.import.sigchain_self_s": total["sigchain"] / 1e6}


class CliOps:
    """Runs bundled CLI commands as fresh processes and checks them."""

    def __init__(self, child: Child, work: Path) -> None:
        self.child = child
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = 0.0
        self.ref_digest: dict = {}

    def run(self, command, name, prefix) -> float:
        out = self.work / f"op{self.attempted}"
        self.attempted += 1
        argv = [sys.executable, *prefix, command, name, "--out-dir", str(out)]
        err = self.work / "cli.err"
        code, wall, rss_mb = self.child.run(argv, self.work / "cwd",
                                            stderr_path=err)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if code != 0:
            problems = [f"{command} {name} exited {code}: "
                        f"{err.read_text()[-300:]}"]
        else:
            try:
                values = checks.cli_values(command, name, out)
            except (OSError, KeyError, ValueError) as e:
                problems = [f"{command} {name} outputs unreadable: {e!r}"]
            else:
                problems = checks.check_values("cli_cold", values)
                digest = checks.digest_tree(out)
                ref = self.ref_digest.setdefault(name, digest)
                if digest != ref:
                    problems.append(f"{name} outputs differ from its first run")
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall


def cli_cold(child: Child, work: Path, args) -> dict:
    order = workloads.cli_cold_inputs(args.seed)
    ops = CliOps(child, work)
    plain = ["-m", "sigchain.cli"]
    if args.trace:
        # one full cycle per mode, so the counts repeat exactly
        untraced = [ops.run(c, n, plain) for c, n in order]
        traced, spans, compute = [], [], []
        for k, (c, n) in enumerate(order):
            spans_file = work / f"spans-op{k}.jsonl"
            traced.append(ops.run(c, n, [str(HERE / "cli_boot.py"),
                                         str(spans_file)]))
            if not spans_file.is_file():
                continue        # the op failed and is counted as failed
            lines = spans_file.read_text().splitlines()
            compute.append(json.loads(lines[-1])["compute_s"])
            for line in lines[:-1]:
                s = json.loads(line)
                off = (k + 1) * 10**7
                spans.append((s["id"] + off, s["parent"] and s["parent"] + off,
                              s["name"], s["start"], s["end"], k,
                              s["counts"], s["key"]))
        with open(work.parent / "spans-cli_cold.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        layers = tracer.layer_metrics(spans, len(order))
        out = str(work / "importtime-out")
        layers.update(import_breakdown(child, work, [
            ["-m", "sigchain.cli", c, n, "--out-dir", out] for c, n in order]))
        layers["cli.compute_s"] = statistics.mean(compute)
        layers["trace.overhead_ratio"] = \
            statistics.median(traced) / statistics.median(untraced)
        layers["trace.untraced_op_ms"] = 1e3 * statistics.median(untraced)
        return {"attempted": ops.attempted, "failed": ops.failed,
                "problems": ops.problems, "layers": layers}

    setups = []
    for _ in range(SETUPS_CLI):
        code, wall, _ = child.run([sys.executable, "-c", "import sigchain"],
                                  work / "cwd")
        if code != 0:
            raise RuntimeError(f"`import sigchain` exited with {code}")
        setups.append(wall)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        command, name = order[len(times) % len(order)]
        times.append(ops.run(command, name, plain))
    wall = time.perf_counter() - start
    return {"attempted": ops.attempted, "failed": ops.failed,
            "problems": ops.problems, "times": times,
            "e2e": {"ops_per_s": len(times) / wall,
                    "op_p50_s": statistics.median(times),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": ops.peak_rss_mb}}


# ------------------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "sigchain" / "__init__.py").is_file() \
            or not spec_file.is_file():
        print("perfbench: run from the root of a sigchain checkout "
              "(src/sigchain and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    before = conditions()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = base / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cwd").mkdir(parents=True)
    try:
        child = Child(root)
        run = cli_cold if args.workload == "cli_cold" else in_process
        res = run(child, work, args)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = conditions()
    print("conditions " + json.dumps({
        k: before[k] for k in ("nproc", "affinity", "python", "numpy",
                               "scipy")} | {
        "steal_ticks": [before["steal_ticks"], after["steal_ticks"]],
        "loadavg": [before["loadavg"], after["loadavg"]]}))

    attempted, failed = res["attempted"], res["failed"]
    for p in res["problems"][:10]:
        print(f"FAILED CHECK: {p}")
    values = res["layers"] if args.trace else res["e2e"]
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
        print(f"{name:48s} {metrics[name]['value']:.6g} {unit}")
    print(f"{'failed_ratio':48s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    if args.trace:
        # Sweep threads overlap, so their self times can sum past the wall
        # time the spans cover.  A CLI op is mostly interpreter start and
        # import, which no span sees, so compare with the time in main().
        base_ms = 1e3 * values["cli.compute_s"] if args.workload == "cli_cold" \
            else values["trace.untraced_op_ms"]
        base = "cli.compute_s" if args.workload == "cli_cold" \
            else "untraced op time"
        print(f"per op: self-time sum / {base} "
              f"{values['trace.self_sum_ms'] / base_ms:.4f}, time covered by "
              f"spans / {base} {values['trace.covered_ms'] / base_ms:.4f}, "
              f"tracing overhead ratio {values['trace.overhead_ratio']:.4f}")
    else:
        print(f"op tail: {tail_summary(res['times'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
