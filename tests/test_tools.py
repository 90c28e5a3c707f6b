"""``tools/output_digests.py`` names the OpenBLAS kernel its digests were
made on, since some output bits move with that kernel."""
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


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
