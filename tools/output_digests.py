"""Print a SHA-256 digest of every output file of a fixed set of runs.

Run from a checkout, no install needed::

    python tools/output_digests.py > digests.txt

Two sets of inputs run, in process, against this checkout's ``src``:

* the nine bundled CLI commands (``CLI_COMMANDS`` in
  ``perfbench/workloads.py``); each command's stdout is kept as
  ``cli/<command>-<scenario>.stdout``, with the temporary output directory
  replaced by a fixed token;
* the benchmark's link_budget, qubit_gate and cal_sweep inputs at seeds 1
  and 90210, written under ``<workload>-<seed>/``.

``perfbench/workloads.py`` is imported, never changed.  Each output line is
``sha256  relative/path``, sorted by path, so two checkouts write the same
bytes exactly when ``diff`` of their outputs is empty.

Some outputs move in their last bits with the kernel OpenBLAS picks for the
CPU, so digests compare only between runs on one kernel.  Its name (such as
``SkylakeX``, or ``unknown`` where it cannot be read) goes first, to stderr,
as ``openblas core: <name>``; stdout holds only the digest lines.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 90210)
WORKLOADS = ("link_budget", "qubit_gate", "cal_sweep")


def load_workloads():
    """``perfbench/workloads.py``, loaded as a module of its own."""
    # no bytecode cache beside the benchmark's files
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def openblas_core() -> str:
    """The name of the CPU kernel numpy's bundled OpenBLAS runs, read
    through the library's ``scipy_openblas_get_corename64_``, or
    ``unknown``."""
    import numpy as np

    here = Path(np.__file__).resolve().parent
    for lib in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                       *here.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename()
        return name.decode() if name else "unknown"
    return "unknown"


def _run_all(tmp: Path) -> None:
    from sigchain import scenario
    from sigchain.cli import main

    wl = load_workloads()
    (tmp / "cli").mkdir()
    for command, name in wl.CLI_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, name, "--out-dir", str(tmp / "cli" / "out")])
        if code != 0:
            raise SystemExit(f"{command} {name} exited {code}")
        (tmp / "cli" / f"{command}-{name}.stdout").write_text(
            out.getvalue().replace(str(tmp), "<tmp>"))
    for workload in WORKLOADS:
        for seed in SEEDS:
            out_dir = tmp / f"{workload}-{seed}"
            out_dir.mkdir()
            wl.OPS[workload](scenario, wl.INPUTS[workload](seed), out_dir)


def main() -> None:
    print(f"openblas core: {openblas_core()}", file=sys.stderr)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        _run_all(tmp)
        lines = sorted(
            (p.relative_to(tmp).as_posix(),
             hashlib.sha256(p.read_bytes()).hexdigest())
            for p in tmp.rglob("*") if p.is_file())
    for rel, digest in lines:
        print(f"{digest}  {rel}")


if __name__ == "__main__":
    main()
