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
from sigchain.chains import (StageSpec, TxChain, synth_comm_waveform,
                             synth_qubit_pulse)

__all__ = [
    "ConfigError",
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

ARCHITECTURES = ("cartesian", "polar", "rfdac", "harmonic", "custom")
COMM_OUTPUTS = ("constellation", "psd", "eye", "budget")
QUBIT_OUTPUTS = ("bloch",)
ROUTINES = ("rabi_amplitude_cal", "iq_cal", "polar_delay_align", "dpd_fit",
            "leakage_cancel")


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


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                v = float(v)
                if math.isnan(v):
                    cells.append("nan")
                elif math.isinf(v):
                    cells.append("inf" if v > 0 else "-inf")
                else:
                    cells.append(format(v, ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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


def _get(d: dict, key: str, path: str, kind: str, required: bool = True,
         default=None):
    if key not in d:
        _check(not required, path, f"missing required key {key!r}")
        return default
    v = d[key]
    p = f"{path}.{key}"
    if kind == "number":
        _check(isinstance(v, (int, float)) and not isinstance(v, bool), p,
               f"expected number, got {_typename(v)}")
        return float(v)
    if kind == "int":
        _check(isinstance(v, int) and not isinstance(v, bool), p,
               f"expected integer, got {_typename(v)}")
        return v
    if kind == "str":
        _check(isinstance(v, str), p, f"expected string, got {_typename(v)}")
        return v
    if kind == "bool":
        _check(isinstance(v, bool), p,
               f"expected boolean, got {_typename(v)}")
        return v
    if kind == "list":
        _check(isinstance(v, list), p, f"expected array, got {_typename(v)}")
        return v
    if kind == "dict":
        _check(isinstance(v, dict), p,
               f"expected object, got {_typename(v)}")
        return v
    raise AssertionError(kind)


def _maybe_complex(value, path: str):
    """Stage params written as [re, im] become complex scalars."""
    if isinstance(value, list) and len(value) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in value):
        return complex(value[0], value[1])
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    raise ConfigError(f"{path}: expected number or [re, im] pair")


_SEEDED_ALWAYS = ("phase_noise", "sample_jitter")


def _parse_stage(obj, path: str) -> StageSpec:
    d = _want_dict(obj, path)
    _no_extras(d, ("kind", "params"), path)
    kind = _get(d, "kind", path, "str")
    params = dict(_get(d, "params", path, "dict", required=False,
                       default={}))
    for key in ("offset",):
        if key in params:
            params[key] = _maybe_complex(params[key], f"{path}.params.{key}")
    try:
        spec = StageSpec(kind, params)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    needs_seed = kind in _SEEDED_ALWAYS \
        or (kind == "rfdac_core" and params.get("mismatch_sigma", 0.0) > 0.0) \
        or (kind == "state_errors" and "sigma" in params)
    if needs_seed:
        _check("seed" in params, f"{path}.params",
               f"stage kind {kind!r} is stochastic and needs an explicit "
               "seed for reproducible runs")
    return spec


def _parse_chain(obj, path: str) -> TxChain | None:
    if obj is None:
        return None
    d = _want_dict(obj, path)
    _no_extras(d, ("architecture", "stages"), path)
    arch = _get(d, "architecture", path, "str", required=False,
                default="custom")
    _check(arch in ARCHITECTURES, f"{path}.architecture",
           f"expected one of {ARCHITECTURES}, got {arch!r}")
    stages = _get(d, "stages", path, "list")
    specs = tuple(_parse_stage(s, f"{path}.stages.{i}")
                  for i, s in enumerate(stages))
    return TxChain(arch, specs)


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


def load_scenario(source) -> dict:
    """Read and validate a scenario file; returns the raw config dict."""
    path = Path(source)
    try:
        raw = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    plan_scenario(raw)
    return raw


def _check_name(d: dict, path: str) -> str:
    name = _get(d, "name", path, "str")
    ok = name and all(c.isalnum() or c in "_-" for c in name)
    _check(ok, f"{path}.name",
           "name must be letters, digits, '_' or '-'")
    return name


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
    chain = _parse_chain(d.get("chain"), "scenario.chain")
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
        plan["substeps"] = substeps
        plan["outputs"] = _parse_outputs(q, "scenario.qubit", QUBIT_OUTPUTS)
        if "bloch" in plan["outputs"]:
            _check(plan["model"].levels == 2, "scenario.qubit.outputs",
                   "a bloch track needs a two-level model")
    return plan


# --------------------------------------------------------------- compute

def _labels_from_bits(bits: np.ndarray, bps: int) -> np.ndarray:
    weights = 1 << np.arange(bps - 1, -1, -1)
    return bits.reshape(-1, bps) @ weights


def _compute_comm(plan: dict) -> tuple[dict, dict]:
    const = plan["constellation"]
    shape = plan["pulse"]
    fs = plan["sample_rate"]
    symbol_period = shape.samples_per_symbol / fs
    rng = np.random.default_rng(plan["bit_seed"])
    bits = rng.integers(0, 2, size=plan["n_symbols"] * const.bits_per_symbol)
    stream, env = synth_comm_waveform(bits, const, shape,
                                      chain=plan["chain"],
                                      symbol_period=symbol_period)
    skip = shape.span_symbols
    result = met.demodulate(env, const, shape, symbol_period,
                            timing_search=plan["timing_search"],
                            skip_edge_symbols=skip)
    sent_labels = _labels_from_bits(bits, const.bits_per_symbol)[skip:-skip]
    ref = stream.symbols[skip:-skip]
    n = min(len(result.rx_symbols), len(ref))
    report = met.evm(result.rx_symbols[:n], ref[:n])
    summary = {"evm_rms": report.evm_rms, "evm_db": report.evm_db,
               "num_symbols": report.num_symbols}
    artifacts = {}

    if "constellation" in plan["outputs"]:
        bps = const.bits_per_symbol
        rows = []
        for k in range(n):
            label = int(sent_labels[k])
            rows.append((format(label, f"0{bps}b"),
                         ref[k].real, ref[k].imag,
                         result.rx_symbols[k].real,
                         result.rx_symbols[k].imag))
        artifacts["constellation.csv"] = _csv("bits,i_ref,q_ref,i_rx,q_rx",
                                              rows)
    if "psd" in plan["outputs"]:
        spectrum = met.psd_welch(env, nperseg=min(1024, len(env)))
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(spectrum.psd)
        artifacts["psd.csv"] = _csv("freq_hz,db",
                                    zip(spectrum.freqs, db))
    if "eye" in plan["outputs"]:
        eye = met.eye_metrics(env, symbol_period, n_levels=plan["eye_levels"])
        summary["eye"] = {"height": eye.eye_height,
                          "width_fraction": eye.eye_width_fraction,
                          "sample_instant_fraction":
                              eye.sample_instant_fraction}
        sps = int(round(symbol_period * env.sample_rate))
        instant = int(round(eye.sample_instant_fraction * sps))
        offs = (np.arange(len(env)) - instant + sps // 2) % sps
        artifacts["eye.csv"] = _csv("t_frac,i,q", zip(
            offs / sps, env.samples.real, env.samples.imag))
    if "budget" in plan["outputs"]:
        budget = met.evm_budget(bits, const, shape, plan["chain"],
                                symbol_period=symbol_period)
        summary["budget"] = {"terms": dict(budget.terms),
                             "total_rss": budget.total_rss,
                             "total_measured": budget.total_measured,
                             "rss_deviation": budget.rss_deviation}
        rows = [(term, value) for term, value in budget.terms.items()]
        rows.append(("rss", budget.total_rss))
        rows.append(("measured", budget.total_measured))
        artifacts["budget.csv"] = _csv("term,evm", rows)
    return summary, artifacts


def _compute_qubit(plan: dict) -> tuple[dict, dict]:
    model = plan["model"]
    env = synth_qubit_pulse(plan["chain"], plan["envelope"],
                            plan["sample_rate"],
                            rotation_angle=(
                                None
                                if plan["envelope"].peak_amplitude is not None
                                else plan["rotation_angle"]),
                            axis_phase=plan["axis_phase"],
                            drive_gain=model.drive_gain)
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
        artifacts["bloch.csv"] = _csv("t,x,y,z", zip(
            times, pts[:, 0], pts[:, 1], pts[:, 2]))
    return summary, artifacts


def _compute(raw: dict) -> tuple[dict, dict]:
    plan = plan_scenario(raw)
    if plan["mode"] == "comm":
        summary, artifacts = _compute_comm(plan)
    else:
        summary, artifacts = _compute_qubit(plan)
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
    """Run a one- or two-axis parameter sweep; failures become FAILED rows."""
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

    def one(point):
        cfg = copy.deepcopy(base)
        for p, v in zip(paths, point):
            _set_path(cfg, p, v)
        try:
            summary, _ = _compute(cfg)
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
    rows = []
    n_failed = 0
    for point, summary, err in results:
        cells = list(point)
        if summary is None:
            n_failed += 1
            log.warning("sweep point %s failed: %s", point, err)
            cells.extend(["FAILED"] * len(cols))
        else:
            for c in cols:
                v = summary.get(c)
                cells.append(math.nan if v is None else v)
        rows.append(cells)
    dest = Path(out_dir) / base_plan["name"]
    dest.mkdir(parents=True, exist_ok=True)
    header = ",".join(list(paths) + list(cols))
    target = dest / "sweep.csv"
    write_text_atomic(target, _csv(header, rows))
    log.info("wrote %s (%d points, %d failed)", target, len(rows), n_failed)
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
    chain = _parse_chain(d.get("chain"), "calibration.chain")
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
        scales = _get(r, "scales", path, "list")
        lut = cal.rabi_amplitude_cal(
            model, envelope, fs, scales, chain=chain,
            residual_tol=_get(r, "residual_tol", path, "number",
                              required=False, default=0.15),
            saturation=_get(r, "saturation", path, "number",
                            required=False, default=0.995))
        report = {"routine": kind, "pi_code": lut.pi_code,
                  "codes": lut.codes, "theta": lut.theta,
                  "theta_raw": lut.theta_raw}
    elif kind == "iq_cal":
        _no_extras(r, ("kind", "tone_freq", "n_samples"), path)
        _check(chain is not None, "calibration.chain",
               "iq_cal needs a chain")
        tone = r.get("tone_freq")
        if tone is not None:
            tone = _get(r, "tone_freq", path, "number")
        corrected = cal.iq_cal(chain, fs, tone_freq=tone,
                               n_samples=_get(r, "n_samples", path, "int",
                                              required=False, default=4096))
        stage = corrected.stages[0]
        report = {"routine": kind, "matrix": stage.params["matrix"],
                  "offset": stage.params["offset"]}
    elif kind == "polar_delay_align":
        _no_extras(r, ("kind", "symbol_period", "window_s", "step_s",
                       "n_symbols", "seed"), path)
        _check(chain is not None, "calibration.chain",
               "polar_delay_align needs a chain")
        corrected, delay, scores = cal.polar_delay_align(
            chain, fs,
            symbol_period=_get(r, "symbol_period", path, "number"),
            window_s=_get(r, "window_s", path, "number"),
            step_s=_get(r, "step_s", path, "number"),
            n_symbols=_get(r, "n_symbols", path, "int", required=False,
                           default=96),
            seed=_get(r, "seed", path, "int", required=False, default=7))
        report = {"routine": kind, "best_delay_s": delay,
                  "evm_per_candidate": scores}
    elif kind == "dpd_fit":
        _no_extras(r, ("kind", "order", "n_levels", "full_scale",
                       "hold_samples"), path)
        _check(chain is not None, "calibration.chain", "dpd_fit needs a "
               "chain")
        corrected, gain_poly, phase_poly = cal.dpd_fit(
            chain, fs,
            order=_get(r, "order", path, "int", required=False, default=5),
            n_levels=_get(r, "n_levels", path, "int", required=False,
                          default=32),
            full_scale=_get(r, "full_scale", path, "number", required=False,
                            default=1.0),
            hold_samples=_get(r, "hold_samples", path, "int",
                              required=False, default=64))
        report = {"routine": kind, "gain_poly": gain_poly,
                  "phase_poly": phase_poly}
    else:
        _no_extras(r, ("kind", "on_samples", "off_samples", "guard_samples"),
                   path)
        _check(chain is not None, "calibration.chain",
               "leakage_cancel needs a chain")
        corrected, level = cal.leakage_cancel(
            chain, fs,
            on_samples=_get(r, "on_samples", path, "int", required=False,
                            default=256),
            off_samples=_get(r, "off_samples", path, "int", required=False,
                             default=256),
            guard_samples=_get(r, "guard_samples", path, "int",
                               required=False, default=8))
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
