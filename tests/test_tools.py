"""``tools/output_digests.py`` names the OpenBLAS kernel its digests were
made on, since some output bits move with that kernel, and
``tools/op_counters.py`` prints one row of counters per op."""
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DIGESTS = TOOLS / "output_digests.py"


def _load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_openblas_core_is_one_word(monkeypatch):
    name = _load(monkeypatch).openblas_core()
    assert name and name.split() == [name]


def test_openblas_core_is_the_running_kernel(monkeypatch):
    if _load(monkeypatch).openblas_core() == "unknown" \
            or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("no bundled x86-64 OpenBLAS to read the kernel of")
    # only this child's environment picks the kernel
    code = (f"import runpy; m = runpy.run_path({str(DIGESTS)!r}); "
            "print(m['openblas_core']())")
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"})
    assert out.stdout.strip() == "Sandybridge"


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource")
def test_op_counters_prints_a_row_per_op():
    out = subprocess.run(
        [sys.executable, "-B", str(TOOLS / "op_counters.py"), "cal_sweep",
         "--ops", "2"], capture_output=True, text=True, check=True,
        timeout=120)
    rows = [line.split("\t") for line in out.stdout.splitlines()]
    assert rows[0] == ["op", "wall_ms", "cpu_ms", "sys_ms", "minflt"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "median"]
    for row in rows[1:]:
        wall, cpu, sys_ms, minflt = map(float, row[1:])
        assert wall > 0 and cpu >= sys_ms >= 0 and minflt >= 0
