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
import dataclasses
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
from sigchain.calibration import ROUTINES
from sigchain.chains import (ARCHITECTURES, MAX_SAMPLES, STAGES, InputError,
                             ParamError, StageSpec, TxChain, _real,
                             check_budget, check_gate, rate_factor, run_chain,
                             synth_comm_waveform, synth_qubit_pulse)

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
    # a float is named by its value, since only a nonfinite one is wrong
    return repr(v) if isinstance(v, float) else type(v).__name__


def _no_extras(d: dict, allowed, path: str) -> None:
    extras = sorted(set(d) - set(allowed))
    _check(not extras, path, f"unknown key {extras[0]!r}" if extras else "")


# JSON value kinds: (test, the name messages use).  ``json`` reads Infinity
# and NaN, so a number must also be finite.
_KINDS = {"number": (lambda v: _real(v) and math.isfinite(v),
                     "finite number"),
          "int": (lambda v: _real(v) and isinstance(v, int), "integer"),
          "str": (lambda v: isinstance(v, str), "string"),
          "bool": (lambda v: isinstance(v, bool), "boolean"),
          "list": (lambda v: isinstance(v, list), "array"),
          "dict": (lambda v: isinstance(v, dict), "object")}


def _value(v, kind, path: str):
    """``v`` checked as a JSON kind, or read as the record class ``kind``."""
    if isinstance(kind, type):
        return _parse_record(kind, v, path)
    test, name = _KINDS[kind]
    _check(test(v), path, f"expected {name}, got {_typename(v)}")
    return float(v) if kind == "number" else v


def _get(d: dict, key: str, path: str, kind: str | type,
         required: bool = True, default=None):
    if key not in d:
        _check(not required, path, f"missing required key {key!r}")
        return default
    return _value(d[key], kind, f"{path}.{key}")


def _read(d: dict, kinds: dict, optional, path: str,
          config: dict | None = None) -> dict:
    """The checked arguments section ``d`` gives for ``kinds`` (name ->
    kind), each under key ``config.get(name, name)``.  A name not in
    ``optional`` is required; a key set to null counts as absent."""
    config = config or {}
    _no_extras(d, [config.get(name, name) for name in kinds], path)
    args = {}
    for name, kind in kinds.items():
        key = config.get(name, name)
        if d.get(key) is not None:
            args[name] = _value(d[key], kind, f"{path}.{key}")
        else:
            _check(name in optional, path, f"missing required key {key!r}")
    return args


# A record field's JSON kind, from its annotation (str, int and bool name it)
_ANNOTATED = {"float": "number", "float | None": "number"}
# Absent record fields that are not their default: a gate peak is solved
# from the rotation angle
_ABSENT = {mod.GateEnvelopeSpec: {"peak_amplitude": None}}


def _parse_record(cls, obj, path: str):
    """The record ``cls`` an object describes; its defaults fill the rest."""
    fields = dataclasses.fields(cls)
    args = _read(_value(obj, "dict", path),
                 {f.name: _ANNOTATED.get(f.type, f.type) for f in fields},
                 [f.name for f in fields
                  if f.default is not dataclasses.MISSING], path)
    try:
        return cls(**{**_ABSENT.get(cls, {}), **args})
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_stage(obj, path: str, fs: float) -> tuple[StageSpec, float]:
    """A stage checked against its schema at the sample rate ``fs`` it sees,
    and its output rate.  Complex parameters may be [re, im] pairs."""
    d = _value(obj, "dict", path)
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


def _parse_chain(obj, path: str, fs: float) -> TxChain | None:
    """The chain, checked at input sample rate ``fs``."""
    if obj is None:
        return None
    d = _value(obj, "dict", path)
    _no_extras(d, ("architecture", "stages"), path)
    arch = _get(d, "architecture", path, "str", required=False,
                default="custom")
    _check(arch in ARCHITECTURES, f"{path}.architecture",
           f"expected one of {ARCHITECTURES}, got {arch!r}")
    specs, rate = [], fs
    for i, s in enumerate(_get(d, "stages", path, "list")):
        spec, rate = _parse_stage(s, f"{path}.stages.{i}", rate)
        specs.append(spec)
    return TxChain(arch, tuple(specs))


def _parse_constellation(obj, path: str):
    d = _value(obj, "dict", path)
    scheme = _get(d, "scheme", path, "str")
    kwargs = {k: v for k, v in d.items() if k != "scheme"}
    try:
        return mod.build_constellation(scheme, **kwargs)
    except KeyError as e:
        raise ConfigError(f"{path}: missing parameter {e}") from None
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_outputs(d: dict, path: str, allowed) -> tuple:
    outputs = _get(d, "outputs", path, "list", required=False, default=[])
    for i, v in enumerate(outputs):
        _check(_value(v, "str", f"{path}.outputs.{i}") in allowed,
               f"{path}.outputs.{i}", f"expected one of {allowed}, got {v!r}")
    return tuple(outputs)


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


def _checked(check, *args):
    """``check(*args)``, its InputError (keyed by a path) a config error."""
    try:
        return check(*args)
    except InputError as e:
        raise ConfigError(str(e)) from None


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


def plan_scenario(raw) -> dict:
    """Validate a scenario config and build the objects it describes."""
    d = _value(raw, "dict", "scenario")
    _no_extras(d, ("name", "mode", "sample_rate", "chain", "comm", "qubit"),
               "scenario")
    name = _check_name(d, "scenario")
    mode = _get(d, "mode", "scenario", "str")
    _check(mode in ("comm", "qubit"), "scenario.mode",
           f"expected 'comm' or 'qubit', got {mode!r}")
    fs = _get(d, "sample_rate", "scenario", "number")
    _check(fs > 0.0, "scenario.sample_rate", "must be positive")
    chain = _parse_chain(d.get("chain"), "scenario.chain", fs)
    hold = rate_factor(chain)
    plan = {"name": name, "mode": mode, "sample_rate": fs, "chain": chain}

    if mode == "comm":
        c = _get(d, "comm", "scenario", "dict")
        _no_extras(c, ("constellation", "pulse", "n_symbols", "bit_seed",
                       "timing_search", "eye_levels", "outputs"),
                   "scenario.comm")
        plan["constellation"] = _parse_constellation(
            _get(c, "constellation", "scenario.comm", "dict"),
            "scenario.comm.constellation")
        plan["pulse"] = _get(c, "pulse", "scenario.comm", mod.PulseShape)
        n_symbols = _get(c, "n_symbols", "scenario.comm", "int")
        _check(n_symbols >= 16, "scenario.comm.n_symbols", "must be >= 16")
        _checked(check_budget, n_symbols * plan["pulse"].samples_per_symbol
                 * hold, "scenario.comm.n_symbols")
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
        plan["model"] = _get(q, "model", "scenario.qubit", qb.QubitModel)
        plan["envelope"] = _get(q, "envelope", "scenario.qubit",
                                mod.GateEnvelopeSpec)
        plan["gate"] = _get(q, "gate", "scenario.qubit", qb.GateSpec)
        substeps = _get(q, "substeps", "scenario.qubit", "int",
                        required=False, default=1)
        _check(substeps >= 1, "scenario.qubit.substeps", "must be >= 1")
        n_gate = _checked(check_gate, plan["envelope"], fs, hold,
                          "scenario.qubit.envelope.duration_s")
        _checked(check_budget, plan["envelope"].duration_s * fs * hold
                 * substeps, "scenario.qubit.substeps")
        _check_delays(chain, n_gate / fs)
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
                        else plan["gate"].rotation_angle),
        axis_phase=plan["gate"].axis_phase,
        drive_gain=plan["model"].drive_gain)


def _compute_qubit(plan: dict, pulse) -> tuple[dict, dict]:
    model = plan["model"]
    env = pulse if plan["chain"] is None else run_chain(plan["chain"], pulse)
    u = qb.propagate(model, env, substeps=plan["substeps"])
    target = qb.target_unitary(plan["gate"])
    report = qb.average_gate_fidelity(u, target)
    summary = {"fidelity": report.fidelity,
               "infidelity": report.infidelity,
               "amp_error": report.amp_error,
               "phase_error": report.phase_error,
               "leakage": report.leakage,
               "pulse_area": qb.pulse_area(env, model.drive_gain),
               "rotation_angle": plan["gate"].rotation_angle}
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
    d = _read(_value(raw, "dict", "sweep-file"),
              {"base": "dict", "sweep": "dict"}, (), "sweep-file")
    sw = _read(d["sweep"], {"paths": "list", "values": "list"}, (),
               "sweep-file.sweep")
    base, paths, values = d["base"], sw["paths"], sw["values"]
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
    d = _value(raw, "dict", "calibration")
    _no_extras(d, ("name", "sample_rate", "chain", "routine"), "calibration")
    name = _check_name(d, "calibration")
    fs = _get(d, "sample_rate", "calibration", "number")
    _check(fs > 0.0, "calibration.sample_rate", "must be positive")
    chain = _parse_chain(d.get("chain"), "calibration.chain", fs)
    r = _get(d, "routine", "calibration", "dict", required=False, default={})
    kind = _get(r, "kind", "calibration.routine", "str", required=False)
    if procedure is not None:
        _check(kind is None or kind == procedure, "calibration.routine.kind",
               f"config says {kind!r} but --procedure says {procedure!r}")
        kind = procedure
    _check(kind is not None, "calibration.routine",
           "missing required key 'kind' (or pass --procedure)")
    _check(kind in ROUTINES, "calibration.routine.kind",
           f"expected one of {tuple(ROUTINES)}, got {kind!r}")
    path = "calibration.routine"
    row = ROUTINES[kind]
    given = {k: v for k, v in r.items() if k != "kind"}
    args = {**row.defaults, **_read(given, row.keys, row.defaults, path,
                                    row.config),
            "chain": chain, "sample_rate": fs}
    try:
        row.rule(**args)
    except InputError as e:
        head, dot, rest = e.key.partition(".")
        where = "calibration" if head == "chain" else path
        raise ConfigError(f"{where}.{row.config.get(head, head)}{dot}{rest}: "
                          f"{e.problem}") from None
    corrected, fields = row.report(getattr(cal, kind)(**args))

    dest = Path(out_dir) / name
    dest.mkdir(parents=True, exist_ok=True)
    report = {"name": name, "routine": kind, **fields}
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
