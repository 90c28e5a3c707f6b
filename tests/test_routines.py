"""Calibration input contracts: each routine checks its own rules, once,
the same for a library call and a calibration file, and finite numbers in
every config."""
import inspect
import json
import math
from dataclasses import is_dataclass

import pytest

from sigchain import calibration as cal
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain import scenario as scn
from sigchain.chains import InputError, StageSpec, TxChain
from sigchain.cli import main
from sigchain.envelope import MAX_SAMPLES

RFDAC = {"kind": "rfdac_core", "params": {"bits": 12, "hold_factor": 1}}
HELD = {"kind": "rfdac_core", "params": {"bits": 12, "hold_factor": 2}}
POLAR = {"kind": "polar_paths", "params": {"tau_p": 1.5e-10}}
SKEW = {"kind": "iq_imbalance", "params": {"quad_skew": 0.05}}
GATED = {"kind": "onoff_leakage", "params": {"off_ratio_db": 40.0}}
RABI = {"model": {"drive_gain": math.pi / 64e-9},
        "envelope": {"shape": "rect", "duration_s": 64e-9},
        "scales": [0.05 * (k + 1) for k in range(24)]}
ALIGN = {"symbol_period": 1e-9, "window_s": 4e-10, "step_s": 5e-11}
# a grid of 2**16 candidates over a 256-sample probe fills the budget
# exactly; the dyadic window and step keep the count exact
STEP = 2.0 ** -45
EDGE = {"symbol_period": 1e-9, "n_symbols": 24, "step_s": STEP,
        "window_s": (2 ** 15 - 0.25) * STEP}
PAST = {**EDGE, "window_s": (2 ** 15 + 0.25) * STEP}
FS = {"rabi_amplitude_cal": 1e9, "iq_cal": 4e9, "polar_delay_align": 8e9,
      "dpd_fit": 4e9, "leakage_cancel": 4e9}

# one bad value per rule: routine, chain stages (None for no chain), the
# routine's keys and the dotted path the config error names
CASES = [
    ("rabi_amplitude_cal", None,
     {**RABI, "envelope": {"shape": "rect", "duration_s": 63e-9}},
     "calibration.routine.envelope.duration_s"),
    ("rabi_amplitude_cal", None,
     {**RABI, "envelope": {"shape": "rect", "duration_s": 1e300}},
     "calibration.routine.envelope.duration_s"),
    ("rabi_amplitude_cal", None, {**RABI, "scales": [0.1, 0.2, "x", 0.4, 0.5]},
     "calibration.routine.scales.2"),
    ("rabi_amplitude_cal", None, {**RABI, "scales": [0.1, 0.2, 0.3, 0.4]},
     "calibration.routine.scales"),
    ("rabi_amplitude_cal", None, {**RABI, "scales": [0.1, 0.3, 0.2, 0.4, 0.5]},
     "calibration.routine.scales"),
    ("iq_cal", None, {}, "calibration.chain"),
    ("iq_cal", [RFDAC], {"n_samples": 4}, "calibration.routine.n_samples"),
    ("iq_cal", [HELD], {"n_samples": 2 ** 24},
     "calibration.routine.n_samples"),
    ("iq_cal", [RFDAC], {"n_samples": 64, "tone_freq": 3e9},
     "calibration.routine.tone_freq"),
    ("polar_delay_align", None, ALIGN, "calibration.chain"),
    ("polar_delay_align", [SKEW], ALIGN, "calibration.chain.stages"),
    ("polar_delay_align", [POLAR], {**ALIGN, "window_s": 0.0},
     "calibration.routine.window_s"),
    ("polar_delay_align", [POLAR], {**ALIGN, "step_s": -5e-11},
     "calibration.routine.step_s"),
    ("polar_delay_align", [POLAR], {**ALIGN, "symbol_period": 1.05e-9},
     "calibration.routine.symbol_period"),
    ("polar_delay_align", [POLAR], {**ALIGN, "n_symbols": 16},
     "calibration.routine.n_symbols"),
    ("polar_delay_align", [POLAR], {**ALIGN, "n_symbols": 10 ** 9},
     "calibration.routine.n_symbols"),
    ("polar_delay_align", [POLAR], PAST, "calibration.routine.step_s"),
    ("polar_delay_align", [POLAR],
     {**ALIGN, "n_symbols": 17, "window_s": 7e-9, "step_s": 1e-9},
     "calibration.routine.window_s"),
    ("dpd_fit", None, {}, "calibration.chain"),
    ("dpd_fit", [RFDAC], {"order": 4}, "calibration.routine.order"),
    ("dpd_fit", [RFDAC], {"n_levels": 6}, "calibration.routine.n_levels"),
    ("dpd_fit", [HELD], {"hold_samples": 1},
     "calibration.routine.hold_samples"),
    ("dpd_fit", [RFDAC], {"n_levels": 2 ** 13, "hold_samples": 2 ** 12},
     "calibration.routine.n_levels"),
    ("leakage_cancel", None, {}, "calibration.chain"),
    ("leakage_cancel", [RFDAC], {"on_samples": 0},
     "calibration.routine.on_samples"),
    ("leakage_cancel", [RFDAC], {"guard_samples": -4},
     "calibration.routine.guard_samples"),
    ("leakage_cancel", [RFDAC], {"off_samples": 16},
     "calibration.routine.off_samples"),
    ("leakage_cancel", [RFDAC], {"on_samples": 2 ** 24},
     "calibration.routine.on_samples"),
    ("rabi_amplitude_cal", None, {**RABI, "saturation": 1.5},
     "calibration.routine.saturation"),
    ("rabi_amplitude_cal", None, {**RABI, "saturation": -1.0},
     "calibration.routine.saturation"),
    ("rabi_amplitude_cal", None, {**RABI, "residual_tol": -0.1},
     "calibration.routine.residual_tol"),
    ("rabi_amplitude_cal", [HELD, GATED], RABI,
     "calibration.chain.stages.1.kind"),
    ("iq_cal", [HELD], {"n_samples": 64}, "calibration.chain"),
    ("iq_cal", [{"kind": "path_skew", "params": {"tau_i": 3e-7}}], {},
     "calibration.chain.stages.0.params.tau_i"),
    ("polar_delay_align", [POLAR], {**ALIGN, "seed": -1},
     "calibration.routine.seed"),
    ("dpd_fit", [RFDAC], {"full_scale": 0.0},
     "calibration.routine.full_scale"),
    ("dpd_fit", [RFDAC], {"full_scale": -1.0},
     "calibration.routine.full_scale"),
    ("dpd_fit", [RFDAC, {"kind": "bandwidth_limit",
                         "params": {"cutoff_hz": 2e9}}], {},
     "calibration.chain.stages.1.params.cutoff_hz"),
    ("leakage_cancel", [HELD, GATED], {}, "calibration.chain.stages.1.kind"),
    # integer counts past the float range
    ("iq_cal", [RFDAC], {"n_samples": 10 ** 400},
     "calibration.routine.n_samples"),
    ("leakage_cancel", [RFDAC], {"off_samples": 10 ** 400},
     "calibration.routine.off_samples"),
    ("dpd_fit", [RFDAC], {"hold_samples": 10 ** 400},
     "calibration.routine.hold_samples"),
    ("polar_delay_align", [POLAR], {**ALIGN, "n_symbols": 10 ** 400},
     "calibration.routine.n_symbols"),
    # a scale is a gate peak
    ("rabi_amplitude_cal", None,
     {**RABI, "scales": [-0.05, 0.1, 0.2, 0.3, 0.4]},
     "calibration.routine.scales.0"),
    # a bound at the probe's rate, an ulp below the calibration's
    ("polar_delay_align",
     [{"kind": "polar_paths", "params": {"am_cutoff_hz": 3999999999.9999995}}],
     ALIGN, "calibration.chain.stages.0.params.am_cutoff_hz"),
]


def _config(kind, stages, keys):
    cfg = {"name": "rule", "sample_rate": FS[kind],
           "routine": {"kind": kind, **keys}}
    if stages is not None:
        cfg["chain"] = {"stages": stages}
    return cfg


def _library_args(kind, stages, keys):
    """The same call made through the library."""
    args = dict(keys)
    if kind == "rabi_amplitude_cal":
        args["model"] = qb.QubitModel(**args["model"])
        args["envelope"] = mod.GateEnvelopeSpec(**args["envelope"])
    chain = None if stages is None else TxChain("custom", tuple(
        StageSpec(s["kind"], s["params"]) for s in stages))
    return {"chain": chain, "sample_rate": FS[kind], **args}


@pytest.fixture
def no_compute(monkeypatch):
    """Every way a routine starts computing fails the test."""
    def compute(*args, **kwargs):
        raise AssertionError("compute started")

    for name in ("run_chain", "run_chain_per_trim", "synth_comm_waveform"):
        monkeypatch.setattr(cal, name, compute)
    monkeypatch.setattr(qb, "rabi_protocol", compute)


def _calibrate(tmp_path, cfg) -> int:
    p = tmp_path / "cal.json"
    p.write_text(json.dumps(cfg))
    return main(["calibrate", str(p), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("name", cal.ROUTINES)
def test_every_routine_key_has_a_kind(name):
    kinds, defaults = scn._ROUTINE_KEYS[name]
    params = inspect.signature(getattr(cal, name)).parameters
    assert set(kinds) == set(params) - {"chain", "sample_rate"}
    assert set(defaults) <= set(kinds)
    for kind in kinds.values():
        assert kind in scn._KINDS or is_dataclass(kind)


def test_a_rebound_routine_keeps_the_file_keys(tmp_path, monkeypatch):
    seen = []

    def spy(**kwargs):
        seen.append(sorted(kwargs))
        return TxChain("custom", (StageSpec("iq_correction", {
            "matrix": [[1.0, 0.0], [0.0, 1.0]]}),))

    monkeypatch.setattr(cal, "iq_cal", spy)
    assert _calibrate(tmp_path, _config("iq_cal", [RFDAC],
                                        {"n_samples": 64})) == 0
    assert seen == [["chain", "n_samples", "sample_rate", "tone_freq"]]


@pytest.mark.parametrize("kind, stages, keys", [
    ("rabi_amplitude_cal", None, RABI),
    ("iq_cal", [RFDAC], {"n_samples": 64}),
    ("polar_delay_align", [POLAR], {**ALIGN, "n_symbols": 24}),
    ("dpd_fit", [RFDAC], {}),
    ("leakage_cancel", [RFDAC], {}),
])
def test_a_calibration_file_checks_the_rules_once(kind, stages, keys,
                                                  tmp_path, monkeypatch):
    # each routine's rules check its record exactly once
    calls = []
    check_record = cal.check_record

    def counted(*args, **kwargs):
        calls.append(args)
        return check_record(*args, **kwargs)

    monkeypatch.setattr(cal, "check_record", counted)
    assert _calibrate(tmp_path, _config(kind, stages, keys)) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("kind, stages, keys, where", CASES)
def test_library_and_config_fail_with_the_same_text(
        kind, stages, keys, where, tmp_path, capsys, no_compute):
    with pytest.raises(InputError) as info:
        getattr(cal, kind)(**_library_args(kind, stages, keys))
    assert _calibrate(tmp_path, _config(kind, stages, keys)) == 2
    err = capsys.readouterr().err
    assert err == f"sigchain: config error: {where}: {info.value.problem}\n"
    assert not (tmp_path / "out").exists()


def test_align_grid_fills_the_budget_at_its_edge(no_compute):
    chain = TxChain("polar", (StageSpec("polar_paths", {}),))
    with pytest.raises(AssertionError, match="compute started"):
        cal.polar_delay_align(chain, 8e9, **EDGE)
    shape = cal.align_probe_shape(EDGE["symbol_period"], 8e9)
    duration = mod.shaped_samples(24, shape) / (
        shape.samples_per_symbol / EDGE["symbol_period"])
    assert round(duration * 8e9) == 256
    grid = cal.align_candidates(EDGE["window_s"], STEP, duration)
    assert grid.size * 256 == MAX_SAMPLES
    with pytest.raises(InputError, match="a grid of 65537 trim delay") as e:
        cal.polar_delay_align(chain, 8e9, **PAST)
    assert e.value.key == "step_s"


def test_a_fine_grid_is_refused_before_it_is_built(no_compute):
    chain = TxChain("polar", (StageSpec("polar_paths", {}),))
    with pytest.raises(InputError, match="2000001 trim delay") as e:
        cal.polar_delay_align(chain, 8e9, 1e-9, window_s=4e-10,
                              step_s=4e-16)
    assert e.value.key == "step_s"


def _bundled(name):
    return json.loads(scn.bundled_scenario_path(name).read_text())


def _set(cfg, dotted, value):
    *keys, last = dotted.split(".")
    node = cfg
    for k in keys:
        node = node[k]
    node[last] = value
    return cfg


@pytest.mark.parametrize("command, name, key, value", [
    ("simulate", "pi_pulse_ideal", "sample_rate", math.inf),
    ("calibrate", "iq_cal_demo", "sample_rate", math.inf),
    ("simulate", "drag_leakage", "qubit.model.drive_gain", math.inf),
    ("simulate", "drag_leakage", "qubit.model.detuning", math.inf),
    ("simulate", "drag_leakage", "qubit.model.detuning", math.nan),
    ("simulate", "drag_leakage", "qubit.gate.axis_phase", -math.inf),
    ("simulate", "drag_leakage", "qubit.envelope.drag_coefficient_s",
     math.inf),
])
def test_nonfinite_numbers_are_config_errors(command, name, key, value,
                                             tmp_path, capsys):
    cfg = _set(_bundled(name), key, value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([command, str(p), "--out-dir", str(tmp_path / "out")]) == 2
    top = "calibration" if command == "calibrate" else "scenario"
    assert (f"config error: {top}.{key}: expected finite number, got "
            f"{value!r}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_null_routine_key_takes_its_default(tmp_path):
    cfg = _config("iq_cal", [RFDAC], {"n_samples": 64, "tone_freq": None})
    assert _calibrate(tmp_path, cfg) == 0


def test_nonfinite_constellation_size_is_a_config_error(tmp_path, capsys):
    cfg = _set(_bundled("qpsk_ideal"), "comm.constellation.m", math.inf)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert ("config error: scenario.comm.constellation.m: expected integer, "
            "got inf") in capsys.readouterr().err
