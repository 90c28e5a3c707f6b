"""Working-memory guard: no stage or link metric holds more than a few
copies of its record at once.

Every stage kind in ``chains.STAGES`` runs through ``apply_stage`` on a
2**16-sample record with ``tracemalloc`` on; its peak allocation must stay
within ``BOUND`` times the bytes of its input plus its output.  The same
bound holds for ``to_polar`` and the link metrics a scenario runs, and
``shape_symbols`` holds at most 1.75 times its output record.  A kernel
that materializes a per-sample filter bank over the whole record (about 30
input records for the Farrow bank of ``sample_jitter``) fails here.
``scenario._csv`` holds at most 2.25 times the text it returns.

Freed record memory stays mapped: a child process that runs a 2**16-sample
link scenario again and again takes almost no fresh pages per run.

The same parameter table checks that every stage kind's output record is
read-only and shares no memory with an array its caller can still write.

A kernel that sizes a record from a number refuses one past the sample
budget, ``envelope.MAX_SAMPLES``, with InputError at that number's key
before it allocates: the tests run it with ``np.arange``, ``np.full`` and
``np.repeat`` made to raise for a result that long.
"""
import ctypes
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sigchain import chains as ch
from sigchain import envelope
from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain import scenario as scn
from sigchain.envelope import MAX_SAMPLES, ComplexEnvelope, InputError, to_polar

BOUND = 4.0
FS = 8.0e9
SHAPE = mod.PulseShape("root_raised_cosine", rolloff=0.35, span_symbols=16,
                       samples_per_symbol=8)
SYMBOL_PERIOD = SHAPE.samples_per_symbol / FS
CONST = mod.build_constellation("square_qam", m=16)

# One valid parameter set per stage kind, at the record's sample rate FS.
PARAMS = {
    "amplitude_error": {"eps_a": 0.02},
    "static_phase_error": {"phi_e": 0.015},
    "phase_noise": {"rate": 100.0, "seed": 1},
    "iq_imbalance": {"gain_mismatch": 0.03, "quad_skew": 0.02},
    "lo_feedthrough": {"offset": 0.004 + 0.003j},
    "bandwidth_limit": {"cutoff_hz": 1.6e9},
    "quantize": {"bits": 8, "full_scale": 2.0},
    "sample_jitter": {"sigma_s": 3.0e-12, "seed": 1},
    "am_ampm": {"gain_poly": [1.0, -0.03], "phase_poly": [0.0, 0.0, 0.02]},
    "dpd": {"gain_poly": [1.0, 0.03], "phase_poly": [0.0, 0.0, -0.02]},
    "onoff_leakage": {"off_ratio_db": 50.0},
    "path_skew": {"tau_i": 1.3e-10, "tau_q": -7.0e-11},
    "iq_paths": {"bits": 10, "full_scale": 2.0, "cutoff_hz": 1.6e9,
                 "tau_i": 1.3e-10, "tau_q": 0.0},
    "polar_paths": {"am_bits": 8, "am_cutoff_hz": 3.0e9, "tau_a": 1.0e-10,
                    "pm_bits": 10, "pm_cutoff_hz": 3.0e9, "tau_p": 6.0e-11,
                    "comp_delay_s": 0.0},
    "rfdac_core": {"bits": 10, "full_scale": 2.0, "hold_factor": 2,
                   "mismatch_sigma": 0.01, "seed": 1, "trim_bits": 4},
    "harmonic_multiply": {"factor": 2},
    "rise_fall": {"cutoff_hz": 1.6e9},
    "spur_inject": {"offset_hz": 1.0e8, "level_dbc": -40.0},
    "state_errors": {"levels": [0.5, 1.0, 1.5], "sigma": 0.01, "seed": 1},
    "iq_correction": {"matrix": [[1.01, 0.02], [0.0, 0.99]],
                      "offset": 0.001},
    "gated_offset": {"offset": 0.001},
}


def _record(n: int) -> ComplexEnvelope:
    """A shaped 16-QAM record of exactly ``n`` samples at FS."""
    tails = SHAPE.span_symbols * SHAPE.samples_per_symbol
    n_symbols = (n - tails) // SHAPE.samples_per_symbol
    bits = np.random.default_rng(3).integers(
        0, 2, n_symbols * CONST.bits_per_symbol)
    env = mod.shape_symbols(mod.map_bits(bits, CONST, SYMBOL_PERIOD), SHAPE)
    assert len(env) == n
    return env


def _nbytes(out) -> int:
    """Bytes of the arrays a result holds."""
    if isinstance(out, np.ndarray):
        return out.nbytes
    if dataclasses.is_dataclass(out):
        return sum(_nbytes(getattr(out, f.name))
                   for f in dataclasses.fields(out))
    return 0


def _peak(fn, *args):
    """``fn(*args)`` and the peak bytes it had allocated at once."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _assert_bounded(fn, env, *args):
    out, peak = _peak(fn, env, *args)
    budget = BOUND * (env.samples.nbytes + _nbytes(out))
    assert peak <= budget, (
        f"peak {peak / 2**20:.1f} MiB is {peak / budget * BOUND:.1f}x input "
        f"plus output, above {BOUND:g}x")


@pytest.fixture(scope="module")
def record():
    return _record(1 << 16)


def test_every_stage_kind_has_parameters():
    assert set(PARAMS) == set(ch.STAGES)


@pytest.mark.parametrize("kind", sorted(ch.STAGES))
def test_stage_working_memory(kind, record):
    spec = ch.StageSpec(kind, PARAMS[kind])
    # a fresh record each time: stages memoize the polar split on it
    env = ComplexEnvelope(record.samples, record.sample_rate)
    _assert_bounded(ch.apply_stage, env, spec)


@pytest.mark.parametrize("metric, args", [
    (to_polar, ()),
    (met.demodulate, (CONST, SHAPE, SYMBOL_PERIOD)),
    (met.demodulate, (CONST, SHAPE, SYMBOL_PERIOD, None, True)),
    (met.eye_metrics, (SYMBOL_PERIOD, 4)),
    (met.psd_welch, (1024,)),
], ids=["to_polar", "demodulate", "demodulate_timing_search", "eye_metrics",
        "psd_welch"])
def test_metric_working_memory(metric, args, record):
    _assert_bounded(metric, record, *args)


@pytest.mark.parametrize("kind", sorted(ch.STAGES))
def test_stage_output_is_read_only_and_its_own(kind, record):
    # the record adopts the array its stage made; the caller's array, kept
    # writeable, must never be (or be viewed by) the output
    x = record.samples.copy()
    env = ComplexEnvelope(x, record.sample_rate)
    out = ch.apply_stage(env, ch.StageSpec(kind, PARAMS[kind]))
    view = out.samples
    while isinstance(view, np.ndarray):     # the array and all it views
        assert not view.flags.writeable
        view = view.base
    assert not np.shares_memory(out.samples, x)
    want = out.samples.tobytes()
    x[:] = 1.0
    assert out.samples.tobytes() == want


def test_shape_symbols_working_memory():
    # the shaped record (adopted by its ComplexEnvelope, not copied) is 1x
    # and the blocked polyphase kernel adds about 0.57x; a copy into the
    # record would add 1x more, a zero-stuffed convolution peaks at 3.0x
    # and windows copied over the whole stream at about 3.2x
    bits = np.random.default_rng(3).integers(0, 2, 8192 * CONST.bits_per_symbol)
    stream = mod.map_bits(bits, CONST, SYMBOL_PERIOD)
    env, peak = _peak(mod.shape_symbols, stream, SHAPE)
    assert peak <= 1.75 * env.samples.nbytes, (
        f"peak is {peak / env.samples.nbytes:.2f}x the shaped record")


def test_sample_jitter_long_record():
    # a whole-record Farrow bank would need about 474 MB here
    env = _record(1 << 20)
    spec = ch.StageSpec("sample_jitter", PARAMS["sample_jitter"])
    _assert_bounded(ch.apply_stage, env, spec)


def test_csv_working_memory():
    # the blocks' texts and their join are 2x the text; one block's byte
    # matrix adds about 0.85 MB at any row count, so any transient that
    # grows with the rows, such as a whole-column index, fails here
    n = 1 << 16
    rng = np.random.default_rng(3)
    labels = np.array([f"{k:04d}" for k in rng.integers(0, 10000, n)])
    text, peak = _peak(scn._csv, "b,w,x,y,z", labels,
                       *rng.standard_normal((4, n)))
    assert text.count("\n") == n + 1
    assert peak <= 2.25 * len(text), (
        f"peak is {peak / len(text):.2f}x the text")


# A 2**16-sample link: the benchmark link_budget QAM chain, every output.
LINK_RUNS = """
import json, resource, sys, tempfile
from sigchain.scenario import run_scenario

scenario = {
    "name": "fault_link", "mode": "comm", "sample_rate": 8.0e9,
    "chain": {"architecture": "cartesian", "stages": [
        {"kind": "amplitude_error", "params": {"eps_a": 0.02}},
        {"kind": "am_ampm", "params": {"gain_poly": [1.0, -0.03],
                                       "phase_poly": [0.0, 0.0, 0.02]}},
        {"kind": "static_phase_error", "params": {"phi_e": 0.015}},
        {"kind": "phase_noise", "params": {"rate": 100.0, "seed": 5}},
        {"kind": "sample_jitter", "params": {"sigma_s": 3.0e-12, "seed": 6}},
        {"kind": "iq_imbalance",
         "params": {"gain_mismatch": 0.03, "quad_skew": 0.02}},
        {"kind": "lo_feedthrough", "params": {"offset": [0.004, 0.003]}},
        {"kind": "bandwidth_limit", "params": {"cutoff_hz": 1.6e9}},
    ]},
    "comm": {
        "constellation": {"scheme": "square_qam", "m": 16},
        "pulse": {"kind": "root_raised_cosine", "rolloff": 0.35,
                  "span_symbols": 16, "samples_per_symbol": 8},
        "n_symbols": 8176, "bit_seed": 7, "eye_levels": 4,
        "outputs": ["budget", "eye", "psd", "constellation"],
    },
}
faults = []
with tempfile.TemporaryDirectory() as d:
    for k in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_scenario(scenario, d)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
print(json.dumps(faults[1:]))
"""


def _has_glibc_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _has_glibc_mallopt(),
                    reason="the heap thresholds are glibc malloc's")
def test_link_runs_keep_their_pages():
    # glibc's default thresholds hand each freed record back to the
    # kernel, so every run faults its memory in again: about 5600 minor
    # faults per run of this scenario, against 0 with them raised after
    # one run more than the warm-up (10 to 171 on that run, by heap layout)
    src = str(Path(envelope.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-B", "-c", LINK_RUNS], capture_output=True,
        text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    faults = json.loads(out.stdout.splitlines()[-1])
    assert max(faults) <= 256, f"minor faults per run: {faults}"


class _NoMallopt:
    """A loaded C library without ``mallopt``."""


def _refuse(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("load", [lambda name: _NoMallopt(), _refuse],
                         ids=["no_mallopt", "no_libc"])
def test_heap_policy_needs_mallopt(load):
    assert envelope._keep_heap_mapped(load) is None


class _Oversized(Exception):
    """An array past ``MAX_SAMPLES`` was asked for."""


def _arange_length(*args, **kw):
    start, stop, step = (0, args[0], 1) if len(args) == 1 else (*args, 1)[:3]
    return max(0, math.ceil((stop - start) / step))


_LENGTHS = {
    "arange": _arange_length,
    "full": lambda shape, *a, **kw: math.prod(np.atleast_1d(shape).tolist()),
    "repeat": lambda a, repeats, *r, **kw: np.size(a) * int(np.max(repeats)),
}


@pytest.fixture
def no_oversized_arrays(monkeypatch):
    """``np.arange``, ``np.full`` and ``np.repeat`` raise ``_Oversized``
    instead of making an array longer than ``MAX_SAMPLES``."""
    def guard(name, length):
        make = getattr(np, name)

        def guarded(*args, **kw):
            if length(*args, **kw) > MAX_SAMPLES:
                raise _Oversized(f"np.{name} asked for "
                                 f"{length(*args, **kw)} elements")
            return make(*args, **kw)
        return guarded

    for name, length in _LENGTHS.items():
        monkeypatch.setattr(np, name, guard(name, length))


@pytest.mark.parametrize("make", [
    lambda n: np.arange(n), lambda n: np.arange(0.5, n + 0.5),
    lambda n: np.full(n, 0.0), lambda n: np.repeat(np.zeros(2), n // 2)],
    ids=["arange", "arange_start", "full", "repeat"])
def test_guard_refuses_oversized_arrays(make, no_oversized_arrays):
    assert len(make(64)) == 64
    with pytest.raises(_Oversized):
        make(MAX_SAMPLES + 2)


_HUGE_GATE = mod.GateEnvelopeSpec("rect", 1.0, 1.0)   # 10**12 samples at 1e12


@pytest.mark.parametrize("synth", [
    lambda: mod.gate_envelope(_HUGE_GATE, 1e12),
    lambda: mod.gate_envelopes(_HUGE_GATE, 1e12, [1.0]),
    lambda: ch.synth_qubit_pulse(_HUGE_GATE, 1e12)],
    ids=["gate_envelope", "gate_envelopes", "synth_qubit_pulse"])
def test_oversized_gate_is_refused_before_it_is_sampled(
        synth, no_oversized_arrays):
    with pytest.raises(InputError, match="asks for 1e[+]12 samples") as e:
        synth()
    assert e.value.key == "duration_s"


@pytest.mark.parametrize("run", [qb.propagate, qb.bloch_trajectory])
def test_oversized_substeps_are_refused_before_the_drive_is_refined(
        run, no_oversized_arrays):
    env = mod.gate_envelope(mod.GateEnvelopeSpec("rect", 64e-9, 0.1), 1e9)
    model = qb.QubitModel(drive_gain=1.0e8)
    with pytest.raises(InputError, match="asks for 6.711e[+]07 samples") as e:
        run(model, env, substeps=2 ** 20)
    assert e.value.key == "substeps"


def test_oversized_hold_is_refused_before_the_record_is_held(
        no_oversized_arrays):
    env = _record(1024)
    spec = ch.StageSpec("rfdac_core", {"bits": 12, "hold_factor": 2 ** 20})
    with pytest.raises(InputError, match="stage 'rfdac_core' asks for "
                       "1.074e[+]09 samples") as e:
        ch.apply_stage(env, spec)
    assert e.value.key == "params.hold_factor"
