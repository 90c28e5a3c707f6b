"""Scenario files: JSON descriptions of a full simulation or calibration.

A scenario names a chain, a stimulus, and the reports to write.  Parsing
is strict: unknown keys, wrong types, and missing seeds on stochastic
stages are configuration errors with the offending key path in the
message, raised before any computation starts.  All emitted files go
through a deterministic serializer (sorted keys, fixed float formatting,
atomic replace) so rerunning a scenario reproduces its outputs byte for
byte.
"""
from __future__ import annotations

import copy
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from sigchain import calibration as cal
from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain.chains import (ARCHITECTURES, STAGES, ParamError, StageSpec,
                             TxChain, _real, run_chain, synth_comm_waveform,
                             synth_qubit_pulse)

__all__ = [
    "ConfigError",
    "read_config",
    "load_scenario",
    "run_scenario",
    "run_sweep",
    "run_calibration",
    "emit_json",
    "write_text_atomic",
    "bundled_scenario_path",
    "list_bundled_scenarios",
]

log = logging.getLogger("sigchain")

COMM_OUTPUTS = ("constellation", "psd", "eye", "budget")
QUBIT_OUTPUTS = ("bloch",)
ROUTINES = ("rabi_amplitude_cal", "iq_cal", "polar_delay_align", "dpd_fit",
            "leakage_cancel")
MAX_SAMPLES = 1 << 24     # largest record a scenario may ask for, in samples


class ConfigError(ValueError):
    """A scenario file is malformed; the message carries the key path."""


# ---------------------------------------------------------------- emitter

def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.1f}"
    return format(v, ".17g")


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return (f"[{_fmt_float(float(obj.real))}, "
                f"{_fmt_float(float(obj.imag))}]")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {_emit(obj[k], indent + 1)}'
                for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        scalar = all(isinstance(v, (int, float, complex, np.number, bool))
                     for v in items)
        if scalar and len(items) <= 8:
            return "[" + ", ".join(_emit(v, 0) for v in items) + "]"
        rows = [f"{inner}{_emit(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float format, trailing
    newline.  Complex numbers become [re, im]; inf and nan become strings."""
    return _emit(obj, 0) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


# Rows per %-formatting pass: bounds the transient tuple of cell values
_CSV_BLOCK = 4096
# A cell holding any of these is quoted (RFC 4180)
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_cell(v) -> str:
    if isinstance(v, str):
        text = v
    elif isinstance(v, (int, np.integer)):
        return str(int(v))
    elif isinstance(v, (list, dict)) or v is None:
        text = json.dumps(v, separators=(",", ":"))
    else:
        return "%.17g" % float(v)
    if not _CSV_QUOTED.isdisjoint(text):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv(header: str, *columns) -> str:
    """CSV text from equal-length columns, one row per index.

    A float ndarray column goes through one C-level ``%.17g`` pass per block
    of ``_CSV_BLOCK`` rows; any other column is formatted cell by cell:
    strings as they are, integers in decimal, floats as ``%.17g`` and lists,
    objects and null as compact JSON.  ``%.17g`` spells nan and infinities
    ``nan``, ``inf`` and ``-inf``.  A cell holding a comma, quote or line
    break is quoted per RFC 4180.
    """
    cols, fmts = [], []
    for c in columns:
        if isinstance(c, np.ndarray) and c.dtype.kind == "f":
            cols.append(c)
            fmts.append("%.17g")
        else:
            cols.append([_csv_cell(v) for v in c])
            fmts.append("%s")
    row = ",".join(fmts) + "\n"
    n = len(cols[0])
    parts = [header + "\n"]
    for start in range(0, n, _CSV_BLOCK):
        block = np.empty((min(_CSV_BLOCK, n - start), len(cols)), dtype=object)
        for j, c in enumerate(cols):
            block[:, j] = c[start:start + _CSV_BLOCK]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


# ------------------------------------------------------------- validation

def _check(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _typename(v) -> str:
    return type(v).__name__


def _want_dict(v, path: str) -> dict:
    _check(isinstance(v, dict), path, f"expected object, got {_typename(v)}")
    return v


def _no_extras(d: dict, allowed, path: str) -> None:
    extras = sorted(set(d) - set(allowed))
    _check(not extras, path, f"unknown key {extras[0]!r}" if extras else "")


# JSON value kinds: (test, the name messages use)
_KINDS = {"number": (_real, "number"),
          "int": (lambda v: _real(v) and isinstance(v, int), "integer"),
          "str": (lambda v: isinstance(v, str), "string"),
          "bool": (lambda v: isinstance(v, bool), "boolean"),
          "list": (lambda v: isinstance(v, list), "array"),
          "dict": (lambda v: isinstance(v, dict), "object")}


def _get(d: dict, key: str, path: str, kind: str, required: bool = True,
         default=None):
    if key not in d:
        _check(not required, path, f"missing required key {key!r}")
        return default
    v = d[key]
    test, name = _KINDS[kind]
    _check(test(v), f"{path}.{key}", f"expected {name}, got {_typename(v)}")
    return float(v) if kind == "number" else v


def _parse_stage(obj, path: str, fs: float) -> tuple[StageSpec, float]:
    """A stage checked against its schema at the sample rate ``fs`` it sees,
    and its output rate.  Complex parameters may be [re, im] pairs."""
    d = _want_dict(obj, path)
    _no_extras(d, ("kind", "params"), path)
    kind = _get(d, "kind", path, "str")
    params = dict(_get(d, "params", path, "dict", required=False,
                       default={}))
    for key, par in (STAGES[kind].params if kind in STAGES else {}).items():
        v = params.get(key)
        if par.type == "complex" and isinstance(v, list) and len(v) == 2 \
                and all(map(_real, v)):
            params[key] = complex(*v)
        if par.below and _real(v) and not v < par.below(fs):
            raise ConfigError(f"{path}.params.{key}: must stay below "
                              f"{par.below(fs):g} at the {fs:g} Hz sample "
                              f"rate this stage sees, got {v!r}")
    try:
        spec = StageSpec(kind, params)
    except ParamError as e:
        raise ConfigError(f"{path}.params.{e.key}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return spec, fs * (params.get("hold_factor") or 1)


def _parse_chain(obj, path: str, fs: float) -> tuple[TxChain | None, float]:
    """The chain at input sample rate ``fs``, and its sample rate factor."""
    if obj is None:
        return None, 1.0
    d = _want_dict(obj, path)
    _no_extras(d, ("architecture", "stages"), path)
    arch = _get(d, "architecture", path, "str", required=False,
                default="custom")
    _check(arch in ARCHITECTURES, f"{path}.architecture",
           f"expected one of {ARCHITECTURES}, got {arch!r}")
    specs, rate = [], fs
    for i, s in enumerate(_get(d, "stages", path, "list")):
        spec, rate = _parse_stage(s, f"{path}.stages.{i}", rate)
        specs.append(spec)
    return TxChain(arch, tuple(specs)), rate / fs


def _parse_constellation(obj, path: str):
    d = _want_dict(obj, path)
    scheme = _get(d, "scheme", path, "str")
    kwargs = {k: v for k, v in d.items() if k != "scheme"}
    try:
        return mod.build_constellation(scheme, **kwargs)
    except KeyError as e:
        raise ConfigError(f"{path}: missing parameter {e}") from None
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_pulse(obj, path: str) -> mod.PulseShape:
    d = _want_dict(obj, path)
    _no_extras(d, ("kind", "rolloff", "span_symbols", "samples_per_symbol"),
               path)
    try:
        return mod.PulseShape(
            kind=_get(d, "kind", path, "str"),
            rolloff=_get(d, "rolloff", path, "number", required=False,
                         default=0.35),
            span_symbols=_get(d, "span_symbols", path, "int",
                              required=False, default=16),
            samples_per_symbol=_get(d, "samples_per_symbol", path, "int",
                                    required=False, default=32))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_outputs(d: dict, path: str, allowed) -> tuple:
    outputs = _get(d, "outputs", path, "list", required=False, default=[])
    for i, v in enumerate(outputs):
        _check(isinstance(v, str), f"{path}.outputs.{i}",
               f"expected string, got {_typename(v)}")
        _check(v in allowed, f"{path}.outputs.{i}",
               f"expected one of {allowed}, got {v!r}")
    return tuple(outputs)


def _parse_gate_envelope(obj, path: str) -> mod.GateEnvelopeSpec:
    d = _want_dict(obj, path)
    _no_extras(d, ("shape", "duration_s", "peak_amplitude", "sigma_fraction",
                   "drag_enabled", "drag_coefficient_s"), path)
    peak = d.get("peak_amplitude", None)
    if peak is not None:
        peak = _get(d, "peak_amplitude", path, "number")
    try:
        return mod.GateEnvelopeSpec(
            shape=_get(d, "shape", path, "str"),
            duration_s=_get(d, "duration_s", path, "number"),
            peak_amplitude=peak,
            sigma_fraction=_get(d, "sigma_fraction", path, "number",
                                required=False, default=0.25),
            drag_enabled=_get(d, "drag_enabled", path, "bool",
                              required=False, default=False),
            drag_coefficient_s=_get(d, "drag_coefficient_s", path, "number",
                                    required=False, default=0.0))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_qubit_model(obj, path: str) -> qb.QubitModel:
    d = _want_dict(obj, path)
    _no_extras(d, ("levels", "drive_gain", "detuning", "anharmonicity"),
               path)
    try:
        return qb.QubitModel(
            drive_gain=_get(d, "drive_gain", path, "number"),
            detuning=_get(d, "detuning", path, "number", required=False,
                          default=0.0),
            levels=_get(d, "levels", path, "int", required=False, default=2),
            anharmonicity=_get(d, "anharmonicity", path, "number",
                               required=False, default=0.0))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def read_config(source):
    """Parse a scenario, sweep or calibration file without validating it."""
    path = Path(source)
    try:
        return json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None


def load_scenario(source) -> dict:
    """Read and validate a scenario file; returns the raw config dict."""
    raw = read_config(source)
    plan_scenario(raw)
    return raw


def _check_name(d: dict, path: str) -> str:
    name = _get(d, "name", path, "str")
    ok = name and all(c.isalnum() or c in "_-" for c in name)
    _check(ok, f"{path}.name",
           "name must be letters, digits, '_' or '-'")
    return name


def _check_samples(n_samples: float, path: str) -> None:
    _check(n_samples <= MAX_SAMPLES, path, f"asks for {n_samples:.4g} "
           f"samples, more than the budget of {MAX_SAMPLES}")


def _check_delays(chain: TxChain | None, duration: float) -> None:
    """Delay parameters against the record's ``duration`` in seconds, which
    a hold keeps: their magnitude must stay below a quarter of it."""
    for i, spec in enumerate(chain.stages if chain is not None else ()):
        for key, par in STAGES[spec.kind].params.items():
            v = spec.params.get(key)
            if par.delay and v is not None and not abs(v) < duration / 4.0:
                raise ConfigError(
                    f"scenario.chain.stages.{i}.params.{key}: |{key}| must "
                    f"stay below a quarter of the {duration:g} s record, "
                    f"got {v!r}")


def _check_gate(spec: mod.GateEnvelopeSpec, fs: float, path: str) -> None:
    """A gate must span ``MIN_GATE_SAMPLES`` at rate ``fs``, counted as
    ``gate_envelope`` counts.  Check the sample budget first, so the count
    is finite."""
    n = round(spec.duration_s * fs)
    _check(n >= mod.MIN_GATE_SAMPLES, f"{path}.duration_s",
           f"the gate spans {n} samples at {fs:g} Hz, fewer than "
           f"{mod.MIN_GATE_SAMPLES}")


def plan_scenario(raw) -> dict:
    """Validate a scenario config and build the objects it describes."""
    d = _want_dict(raw, "scenario")
    _no_extras(d, ("name", "mode", "sample_rate", "chain", "comm", "qubit"),
               "scenario")
    name = _check_name(d, "scenario")
    mode = _get(d, "mode", "scenario", "str")
    _check(mode in ("comm", "qubit"), "scenario.mode",
           f"expected 'comm' or 'qubit', got {mode!r}")
    fs = _get(d, "sample_rate", "scenario", "number")
    _check(fs > 0.0, "scenario.sample_rate", "must be positive")
    chain, hold = _parse_chain(d.get("chain"), "scenario.chain", fs)
    plan = {"name": name, "mode": mode, "sample_rate": fs, "chain": chain}

    if mode == "comm":
        c = _get(d, "comm", "scenario", "dict")
        _no_extras(c, ("constellation", "pulse", "n_symbols", "bit_seed",
                       "timing_search", "eye_levels", "outputs"),
                   "scenario.comm")
        plan["constellation"] = _parse_constellation(
            _get(c, "constellation", "scenario.comm", "dict"),
            "scenario.comm.constellation")
        plan["pulse"] = _parse_pulse(
            _get(c, "pulse", "scenario.comm", "dict"), "scenario.comm.pulse")
        n_symbols = _get(c, "n_symbols", "scenario.comm", "int")
        _check(n_symbols >= 16, "scenario.comm.n_symbols", "must be >= 16")
        _check_samples(n_symbols * plan["pulse"].samples_per_symbol * hold,
                       "scenario.comm.n_symbols")
        plan["symbol_period"] = plan["pulse"].samples_per_symbol / fs
        _check_delays(chain, mod.shaped_duration(n_symbols, plan["pulse"],
                                                 plan["symbol_period"]))
        plan["n_symbols"] = n_symbols
        plan["bit_seed"] = _get(c, "bit_seed", "scenario.comm", "int")
        plan["timing_search"] = _get(c, "timing_search", "scenario.comm",
                                     "bool", required=False, default=False)
        plan["eye_levels"] = _get(c, "eye_levels", "scenario.comm", "int",
                                  required=False, default=2)
        plan["outputs"] = _parse_outputs(c, "scenario.comm", COMM_OUTPUTS)
        if "budget" in plan["outputs"]:
            _check(chain is not None, "scenario.comm.outputs",
                   "a budget report needs a chain")
            for i, spec in enumerate(chain.stages):
                _check(STAGES[spec.kind].term is not None,
                       f"scenario.chain.stages.{i}.kind",
                       f"stage {spec.kind!r} cannot be attributed to a "
                       "budget term")
    else:
        q = _get(d, "qubit", "scenario", "dict")
        _no_extras(q, ("model", "envelope", "gate", "substeps", "outputs"),
                   "scenario.qubit")
        plan["model"] = _parse_qubit_model(
            _get(q, "model", "scenario.qubit", "dict"),
            "scenario.qubit.model")
        plan["envelope"] = _parse_gate_envelope(
            _get(q, "envelope", "scenario.qubit", "dict"),
            "scenario.qubit.envelope")
        g = _get(q, "gate", "scenario.qubit", "dict")
        _no_extras(g, ("rotation_angle", "axis_phase"), "scenario.qubit.gate")
        angle = _get(g, "rotation_angle", "scenario.qubit.gate", "number")
        _check(0.0 < angle <= 2.0 * math.pi, "scenario.qubit.gate"
               ".rotation_angle", "must lie in (0, two half turns]")
        plan["rotation_angle"] = angle
        plan["axis_phase"] = _get(g, "axis_phase", "scenario.qubit.gate",
                                  "number", required=False, default=0.0)
        substeps = _get(q, "substeps", "scenario.qubit", "int",
                        required=False, default=1)
        _check(substeps >= 1, "scenario.qubit.substeps", "must be >= 1")
        n_samples = plan["envelope"].duration_s * fs * hold
        _check_samples(n_samples, "scenario.qubit.envelope.duration_s")
        _check_samples(n_samples * substeps, "scenario.qubit.substeps")
        _check_gate(plan["envelope"], fs, "scenario.qubit.envelope")
        _check_delays(chain, round(plan["envelope"].duration_s * fs) / fs)
        plan["substeps"] = substeps
        plan["outputs"] = _parse_outputs(q, "scenario.qubit", QUBIT_OUTPUTS)
        if "bloch" in plan["outputs"]:
            _check(plan["model"].levels == 2, "scenario.qubit.outputs",
                   "a bloch track needs a two-level model")
    return plan


# --------------------------------------------------------------- compute
#
# A run has two stages.  The input stage makes what the chain is fed: for
# comm the bits, symbol stream and clean waveform, for qubit the gate pulse.
# The chain-plus-score stage runs the chain on it and scores the result.
# Nothing in the input depends on the chain, and every piece of it is
# read-only, so a sweep over chain parameters makes it once and shares it.

def _comm_input(plan: dict) -> tuple:
    const = plan["constellation"]
    rng = np.random.default_rng(plan["bit_seed"])
    bits = rng.integers(0, 2, size=plan["n_symbols"] * const.bits_per_symbol)
    bits.setflags(write=False)
    stream, clean = synth_comm_waveform(bits, const, plan["pulse"],
                                        symbol_period=plan["symbol_period"])
    return bits, stream, clean


def _compute_comm(plan: dict, made: tuple) -> tuple[dict, dict]:
    const = plan["constellation"]
    shape = plan["pulse"]
    bits, stream, clean = made
    symbol_period = plan["symbol_period"]
    env = clean if plan["chain"] is None else run_chain(plan["chain"], clean)
    scorer = met.LinkScorer(stream, const, shape, plan["timing_search"])
    rx, ref, report = scorer(env)
    summary = {"evm_rms": report.evm_rms, "evm_db": report.evm_db,
               "num_symbols": report.num_symbols}
    artifacts = {}

    if "constellation" in plan["outputs"]:
        bps = const.bits_per_symbol
        skip = shape.span_symbols
        sent = bits.reshape(-1, bps)[skip:skip + rx.size] + ord("0")
        labels = sent.astype(np.uint8).view(f"S{bps}").ravel().astype(str)
        artifacts["constellation.csv"] = _csv(
            "bits,i_ref,q_ref,i_rx,q_rx", labels, ref.real, ref.imag,
            rx.real, rx.imag)
    if "psd" in plan["outputs"]:
        spectrum = met.psd_welch(env, nperseg=min(1024, len(env)))
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(spectrum.psd)
        artifacts["psd.csv"] = _csv("freq_hz,db", spectrum.freqs, db)
    if "eye" in plan["outputs"]:
        eye = met.eye_metrics(env, symbol_period, n_levels=plan["eye_levels"])
        summary["eye"] = {"height": eye.eye_height,
                          "width_fraction": eye.eye_width_fraction,
                          "sample_instant_fraction":
                              eye.sample_instant_fraction}
        sps = int(round(symbol_period * env.sample_rate))
        instant = int(round(eye.sample_instant_fraction * sps))
        offs = (np.arange(len(env)) - instant + sps // 2) % sps
        artifacts["eye.csv"] = _csv("t_frac,i,q", offs / sps,
                                    env.samples.real, env.samples.imag)
    if "budget" in plan["outputs"]:
        budget = met.evm_budget(scorer, clean, plan["chain"], report)
        summary["budget"] = {"terms": dict(budget.terms),
                             "total_rss": budget.total_rss,
                             "total_measured": budget.total_measured,
                             "rss_deviation": budget.rss_deviation}
        artifacts["budget.csv"] = _csv(
            "term,evm", [*budget.terms, "rss", "measured"],
            [*budget.terms.values(), budget.total_rss, budget.total_measured])
    return summary, artifacts


def _qubit_input(plan: dict):
    return synth_qubit_pulse(
        None, plan["envelope"], plan["sample_rate"],
        rotation_angle=(None if plan["envelope"].peak_amplitude is not None
                        else plan["rotation_angle"]),
        axis_phase=plan["axis_phase"], drive_gain=plan["model"].drive_gain)


def _compute_qubit(plan: dict, pulse) -> tuple[dict, dict]:
    model = plan["model"]
    env = pulse if plan["chain"] is None else run_chain(plan["chain"], pulse)
    u = qb.propagate(model, env, substeps=plan["substeps"])
    target = qb.target_unitary(qb.GateSpec(plan["rotation_angle"],
                                           plan["axis_phase"]))
    report = qb.average_gate_fidelity(u, target)
    summary = {"fidelity": report.fidelity,
               "infidelity": report.infidelity,
               "amp_error": report.amp_error,
               "phase_error": report.phase_error,
               "leakage": report.leakage,
               "pulse_area": qb.pulse_area(env, model.drive_gain),
               "rotation_angle": plan["rotation_angle"]}
    artifacts = {}
    if "bloch" in plan["outputs"]:
        times, pts = qb.bloch_trajectory(model, env,
                                         substeps=plan["substeps"])
        artifacts["bloch.csv"] = _csv("t,x,y,z", times, pts[:, 0], pts[:, 1],
                                      pts[:, 2])
    return summary, artifacts


# mode -> (input stage, chain-plus-score stage)
_MODES = {"comm": (_comm_input, _compute_comm),
          "qubit": (_qubit_input, _compute_qubit)}


def _compute(raw: dict, made=None) -> tuple[dict, dict]:
    """Plan, make the input (unless ``made`` is given: the input stage's
    result for a plan that differs from this one only in its chain), then
    run the chain and score."""
    plan = plan_scenario(raw)
    make, score = _MODES[plan["mode"]]
    summary, artifacts = score(plan, make(plan) if made is None else made)
    summary = {"name": plan["name"], "mode": plan["mode"], **summary}
    return summary, artifacts


def run_scenario(raw: dict, out_dir) -> dict:
    """Run one scenario and write metrics.json plus requested reports."""
    summary, artifacts = _compute(raw)
    dest = Path(out_dir) / summary["name"]
    dest.mkdir(parents=True, exist_ok=True)
    write_text_atomic(dest / "metrics.json", emit_json(summary))
    for fname, text in sorted(artifacts.items()):
        write_text_atomic(dest / fname, text)
    log.info("wrote %s", dest / "metrics.json")
    return summary


# ----------------------------------------------------------------- sweep

def _set_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        if isinstance(node, list):
            try:
                node = node[int(k)]
            except (ValueError, IndexError):
                raise ConfigError(
                    f"sweep path {dotted!r}: bad index {k!r}") from None
        elif isinstance(node, dict):
            if k not in node:
                node[k] = {}
            node = node[k]
        else:
            raise ConfigError(f"sweep path {dotted!r}: {k!r} is not "
                              "traversable")
    last = keys[-1]
    if isinstance(node, list):
        try:
            node[int(last)] = value
        except (ValueError, IndexError):
            raise ConfigError(
                f"sweep path {dotted!r}: bad index {last!r}") from None
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ConfigError(f"sweep path {dotted!r}: cannot assign")


def _sweep_columns(mode: str) -> tuple:
    if mode == "comm":
        return ("evm_rms", "evm_db")
    return ("fidelity", "infidelity", "leakage")


def run_sweep(raw: dict, out_dir, threads: int = 1) -> Path:
    """Run a one- or two-axis parameter sweep; failures become FAILED rows.

    Each point is planned and checked on its own config.  When every swept
    path lies under ``chain.``, the points share one input (bits, symbols
    and clean waveform, or gate pulse), made once from the base.  When any
    point fails, ``failures.json`` beside ``sweep.csv`` lists each
    failed point's ``{path: value}`` map with its error message."""
    d = _want_dict(raw, "sweep-file")
    _no_extras(d, ("base", "sweep"), "sweep-file")
    base = _get(d, "base", "sweep-file", "dict")
    sw = _get(d, "sweep", "sweep-file", "dict")
    _no_extras(sw, ("paths", "values"), "sweep-file.sweep")
    paths = _get(sw, "paths", "sweep-file.sweep", "list")
    values = _get(sw, "values", "sweep-file.sweep", "list")
    _check(1 <= len(paths) <= 2, "sweep-file.sweep.paths",
           "need one or two sweep paths")
    _check(len(values) == len(paths), "sweep-file.sweep.values",
           "need one value list per path")
    for i, p in enumerate(paths):
        _check(isinstance(p, str), f"sweep-file.sweep.paths.{i}",
               "expected string")
        _check(isinstance(values[i], list) and values[i],
               f"sweep-file.sweep.values.{i}", "expected nonempty array")
    base_plan = plan_scenario(base)
    for p, vals in zip(paths, values):
        _set_path(copy.deepcopy(base), p, vals[0])

    grid = [(a,) for a in values[0]] if len(paths) == 1 else \
        [(a, b) for a in values[0] for b in values[1]]

    made = None
    if all(p.startswith("chain.") for p in paths):
        # Every point feeds its chain the base's input: make it once.  If
        # that fails, each point makes its own and fails with its own row.
        try:
            made = _MODES[base_plan["mode"]][0](base_plan)
        except Exception:  # noqa: BLE001
            log.debug("shared sweep input failed", exc_info=True)

    def one(point):
        cfg = copy.deepcopy(base)
        for p, v in zip(paths, point):
            _set_path(cfg, p, v)
        try:
            summary, _ = _compute(cfg, made)
            return point, summary, None
        except Exception as e:  # noqa: BLE001  one bad point must not end the sweep
            log.debug("sweep point %s traceback", point, exc_info=True)
            return point, None, str(e)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, grid))
    else:
        results = [one(p) for p in grid]

    cols = _sweep_columns(base_plan["mode"])
    failures = []
    for point, summary, err in results:
        if summary is None:
            where = dict(zip(paths, point))
            log.warning("sweep point %s failed: %s", ", ".join(
                f"{p}={v!r}" for p, v in where.items()), err)
            failures.append({"point": where, "error": err})
    metric_cols = [["FAILED" if s is None else
                    (math.nan if s.get(c) is None else s[c])
                    for _, s, _ in results] for c in cols]
    dest = Path(out_dir) / base_plan["name"]
    dest.mkdir(parents=True, exist_ok=True)
    header = ",".join(list(paths) + list(cols))
    target = dest / "sweep.csv"
    write_text_atomic(target, _csv(header, *zip(*grid), *metric_cols))
    if failures:
        write_text_atomic(dest / "failures.json", emit_json(failures))
    else:
        (dest / "failures.json").unlink(missing_ok=True)
    log.info("wrote %s (%d points, %d failed)", target, len(grid),
             len(failures))
    return target


# ----------------------------------------------------------- calibration

def _serialize_chain(chain: TxChain) -> dict:
    return {"architecture": chain.architecture,
            "stages": [{"kind": s.kind, "params": dict(s.params)}
                       for s in chain.stages]}


def run_calibration(raw: dict, out_dir, procedure: str | None = None) -> dict:
    """Run one calibration routine; writes report.json and, for routines
    that modify the chain, corrected_chain.json.  ``procedure`` (the CLI
    --procedure flag) selects the routine when the config leaves "kind"
    out, and must agree with it when both are given."""
    d = _want_dict(raw, "calibration")
    _no_extras(d, ("name", "sample_rate", "chain", "routine"), "calibration")
    name = _check_name(d, "calibration")
    fs = _get(d, "sample_rate", "calibration", "number")
    _check(fs > 0.0, "calibration.sample_rate", "must be positive")
    chain, hold = _parse_chain(d.get("chain"), "calibration.chain", fs)
    r = dict(_get(d, "routine", "calibration", "dict", required=False,
                  default={}))
    kind = _get(r, "kind", "calibration.routine", "str", required=False)
    if procedure is not None:
        _check(kind is None or kind == procedure, "calibration.routine.kind",
               f"config says {kind!r} but --procedure says {procedure!r}")
        kind = procedure
        r["kind"] = kind
    _check(kind is not None, "calibration.routine",
           "missing required key 'kind' (or pass --procedure)")
    _check(kind in ROUTINES, "calibration.routine.kind",
           f"expected one of {ROUTINES}, got {kind!r}")
    path = "calibration.routine"

    corrected = None
    if kind == "rabi_amplitude_cal":
        _no_extras(r, ("kind", "model", "envelope", "scales",
                       "residual_tol", "saturation"), path)
        model = _parse_qubit_model(_get(r, "model", path, "dict"),
                                   f"{path}.model")
        envelope = _parse_gate_envelope(_get(r, "envelope", path, "dict"),
                                        f"{path}.envelope")
        _check_samples(envelope.duration_s * fs * hold,
                       f"{path}.envelope.duration_s")
        _check_gate(envelope, fs, f"{path}.envelope")
        scales = _get(r, "scales", path, "list")
        for k, v in enumerate(scales):
            _check(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v), f"{path}.scales.{k}",
                   f"expected finite number, got {v!r}")
        _check(len(scales) >= 5, f"{path}.scales",
               "need at least 5 sweep points")
        _check(all(lo < hi for lo, hi in zip(scales, scales[1:])),
               f"{path}.scales", "must be strictly increasing")
        lut = cal.rabi_amplitude_cal(
            model, envelope, fs, scales, chain=chain,
            residual_tol=_get(r, "residual_tol", path, "number",
                              required=False, default=0.15),
            saturation=_get(r, "saturation", path, "number",
                            required=False, default=0.995))
        report = {"routine": kind, "pi_code": lut.pi_code,
                  "codes": lut.codes, "theta": lut.theta,
                  "theta_raw": lut.theta_raw, "residual": lut.residual}
    elif kind == "iq_cal":
        _no_extras(r, ("kind", "tone_freq", "n_samples"), path)
        _check(chain is not None, "calibration.chain",
               "iq_cal needs a chain")
        tone = r.get("tone_freq")
        if tone is not None:
            tone = _get(r, "tone_freq", path, "number")
        n_samples = _get(r, "n_samples", path, "int", required=False,
                         default=4096)
        _check(n_samples >= 8, f"{path}.n_samples", "must be at least 8")
        _check_samples(n_samples * hold, f"{path}.n_samples")
        try:
            cal.iq_tone_bin(fs, n_samples, tone)
        except ValueError as e:
            raise ConfigError(f"{path}.tone_freq: {e}") from None
        corrected = cal.iq_cal(chain, fs, tone_freq=tone, n_samples=n_samples)
        stage = corrected.stages[0]
        report = {"routine": kind, "matrix": stage.params["matrix"],
                  "offset": stage.params["offset"]}
    elif kind == "polar_delay_align":
        _no_extras(r, ("kind", "symbol_period", "window_s", "step_s",
                       "n_symbols", "seed"), path)
        _check(chain is not None, "calibration.chain",
               "polar_delay_align needs a chain")
        _check(any(st.kind == "polar_paths" for st in chain.stages),
               "calibration.chain.stages",
               "polar_delay_align needs a 'polar_paths' stage")
        window_s = _get(r, "window_s", path, "number")
        _check(window_s > 0.0, f"{path}.window_s", "must be positive")
        step_s = _get(r, "step_s", path, "number")
        _check(step_s > 0.0, f"{path}.step_s", "must be positive")
        symbol_period = _get(r, "symbol_period", path, "number")
        try:
            shape = cal.align_probe_shape(symbol_period, fs)
        except ValueError as e:
            raise ConfigError(f"{path}.symbol_period: {e}") from None
        n_symbols = _get(r, "n_symbols", path, "int", required=False,
                         default=96)
        edge = cal.ALIGN_SPAN_SYMBOLS
        _check(n_symbols > 2 * edge, f"{path}.n_symbols",
               f"must be above {2 * edge}: the first and last {edge} "
               "symbols are not scored")
        _check_samples(n_symbols * symbol_period * fs * hold,
                       f"{path}.n_symbols")
        try:
            cal.align_candidates(window_s, step_s, mod.shaped_duration(
                n_symbols, shape, symbol_period))
        except ValueError as e:
            raise ConfigError(f"{path}.window_s: {e}") from None
        corrected, delay, scores = cal.polar_delay_align(
            chain, fs, symbol_period=symbol_period, window_s=window_s,
            step_s=step_s, n_symbols=n_symbols,
            seed=_get(r, "seed", path, "int", required=False, default=7))
        report = {"routine": kind, "best_delay_s": delay,
                  "evm_per_candidate": scores}
    elif kind == "dpd_fit":
        _no_extras(r, ("kind", "order", "n_levels", "full_scale",
                       "hold_samples"), path)
        _check(chain is not None, "calibration.chain", "dpd_fit needs a "
               "chain")
        order = _get(r, "order", path, "int", required=False, default=5)
        _check(order in (3, 5, 7), f"{path}.order", "must be 3, 5 or 7")
        n_levels = _get(r, "n_levels", path, "int", required=False,
                        default=32)
        _check(n_levels >= order + 2, f"{path}.n_levels",
               f"must be at least order + 2 = {order + 2}")
        hold_samples = _get(r, "hold_samples", path, "int", required=False,
                            default=64)
        _check(hold_samples * hold >= 4, f"{path}.hold_samples",
               "must hold each level for at least 4 samples after the "
               "chain's hold")
        _check_samples(n_levels * hold_samples * hold, f"{path}.n_levels")
        corrected, gain_poly, phase_poly = cal.dpd_fit(
            chain, fs, order=order, n_levels=n_levels,
            full_scale=_get(r, "full_scale", path, "number", required=False,
                            default=1.0),
            hold_samples=hold_samples)
        report = {"routine": kind, "gain_poly": gain_poly,
                  "phase_poly": phase_poly}
    else:
        _no_extras(r, ("kind", "on_samples", "off_samples", "guard_samples"),
                   path)
        _check(chain is not None, "calibration.chain",
               "leakage_cancel needs a chain")
        on_samples = _get(r, "on_samples", path, "int", required=False,
                          default=256)
        off_samples = _get(r, "off_samples", path, "int", required=False,
                           default=256)
        guard_samples = _get(r, "guard_samples", path, "int", required=False,
                             default=8)
        _check(on_samples >= 1, f"{path}.on_samples", "must be at least 1")
        _check(guard_samples >= 0, f"{path}.guard_samples",
               "must be nonnegative")
        _check(off_samples > guard_samples + 8, f"{path}.off_samples",
               "must exceed guard_samples + 8")
        _check_samples((on_samples + off_samples) * hold,
                       f"{path}.on_samples")
        corrected, level = cal.leakage_cancel(
            chain, fs, on_samples=on_samples, off_samples=off_samples,
            guard_samples=guard_samples)
        report = {"routine": kind, "off_level": level}

    dest = Path(out_dir) / name
    dest.mkdir(parents=True, exist_ok=True)
    report = {"name": name, **report}
    write_text_atomic(dest / "report.json", emit_json(report))
    if corrected is not None:
        write_text_atomic(dest / "corrected_chain.json",
                          emit_json(_serialize_chain(corrected)))
    log.info("wrote %s", dest / "report.json")
    return report


# ------------------------------------------------------------- bundling

def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario that ships with the package."""
    root = resources.files("sigchain") / "scenarios"
    candidate = root / f"{name}.json"
    with resources.as_file(candidate) as p:
        path = Path(p)
    if not path.exists():
        known = ", ".join(sorted(list_bundled_scenarios()))
        raise ConfigError(f"no bundled scenario {name!r} (have: {known})")
    return path


def list_bundled_scenarios() -> list[str]:
    root = resources.files("sigchain") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))
