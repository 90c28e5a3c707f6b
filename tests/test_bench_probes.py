"""The benchmark's tracer finds the functions it probes by name.

``perfbench/tracer.py`` wraps sigchain functions by their module and name,
and a few of its layer metrics count work through probes on named
arguments.  If a function it probes is renamed or loses that argument, the
benchmark does not fail: the metric just reads 0.  This test runs the
tracer around one small link run and one small qubit run and checks that
every probed metric is nonzero.
"""
import importlib.util
import sys
from pathlib import Path

from sigchain import calibration as cal
from sigchain import scenario as scn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # leave no bytecode cache beside the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _link():
    return {
        "name": "probe-link", "mode": "comm", "sample_rate": 8.0e9,
        "chain": {"architecture": "cartesian", "stages": [
            {"kind": "amplitude_error", "params": {"eps_a": 0.02}}]},
        "comm": {"constellation": {"scheme": "m_psk", "m": 4},
                 "pulse": {"kind": "root_raised_cosine", "rolloff": 0.35,
                           "span_symbols": 8, "samples_per_symbol": 8},
                 "n_symbols": 32, "bit_seed": 3,
                 "outputs": ["constellation"]},
    }


def _qubit():
    return {
        "name": "probe-qubit", "mode": "qubit", "sample_rate": 1.0e9,
        "qubit": {"model": {"levels": 2,
                            "drive_gain": 4.908738521234052e7},
                  "envelope": {"shape": "rect", "duration_s": 6.4e-8},
                  "gate": {"rotation_angle": 3.141592653589793},
                  "outputs": ["bloch"]},
    }


def test_probed_metrics_are_nonzero(tmp_path, monkeypatch):
    tracer = _load_tracer(monkeypatch)
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 0
        scn.run_scenario(_link(), tmp_path)
        scn.run_scenario(_qubit(), tmp_path)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t.spans, 1)
    for name in ("scenario.bytes_written", "chains.run_chain.calls",
                 "modulation.shape_symbols.calls", "qubit.propagate.calls",
                 "qubit.bloch_trajectory.calls"):
        assert metrics.get(name, 0.0) > 0.0, name


def test_tracer_names_every_calibration_routine(monkeypatch):
    assert _load_tracer(monkeypatch).ROUTINES == tuple(cal.ROUTINES)
