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
import functools
import inspect
import itertools
import json
import logging
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from sigchain import calibration as cal
from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain.calibration import ROUTINES
from sigchain.chains import (ARCHITECTURES, STAGES, StageSpec, TxChain,
                             _finite, _real, check_budget, check_gate,
                             check_record, run_chain, synth_comm_waveform,
                             synth_qubit_pulse)
from sigchain.envelope import InputError, require

__all__ = [
    "ConfigError",
    "read_config",
    "run_scenario",
    "run_sweep",
    "run_calibration",
    "emit_json",
    "write_text_atomic",
    "bundled_scenario_path",
    "list_bundled_scenarios",
]

log = logging.getLogger("sigchain")

# Symbol periods eye.csv holds at most; eye_metrics still scores them all
EYE_TRACES = 256


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


def _write_run(out_dir, name: str, files: dict, note: str = "") -> Path:
    """Write a run's directory, ``out_dir/name``, and return it.  ``files``
    maps each file this kind of run can write to its text, or to None if
    this run did not write it: one an earlier run left is removed."""
    dest = Path(out_dir) / name
    dest.mkdir(parents=True, exist_ok=True)
    for fname, text in sorted(files.items()):
        if text is None:
            (dest / fname).unlink(missing_ok=True)
        else:
            write_text_atomic(dest / fname, text)
    log.info("wrote %s%s", dest, note)
    return dest


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
    objects and null as compact JSON.  Another ndarray column formats each
    distinct value once.  ``%.17g`` spells nan and infinities ``nan``,
    ``inf`` and ``-inf``.  A cell holding a comma, quote or line break is
    quoted per RFC 4180.
    """
    cols, fmts = [], []
    for c in columns:
        if isinstance(c, np.ndarray) and c.dtype.kind == "f":
            cols.append(c)
            fmts.append("%.17g")
        elif isinstance(c, np.ndarray) and c.dtype.kind != "O":
            values, index = np.unique(c, return_inverse=True)
            texts = np.array([_csv_cell(v) for v in values], dtype=object)
            cols.append(texts[index])
            fmts.append("%s")
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


# JSON value kinds: (test, the name messages use).  ``json`` reads Infinity,
# NaN and ints past the float range, so a number must also be finite.
_KINDS = {"number": (_finite, "finite number"),
          "int": (lambda v: _real(v) and isinstance(v, int), "integer"),
          "str": (lambda v: isinstance(v, str), "string"),
          "bool": (lambda v: isinstance(v, bool), "boolean"),
          "list": (lambda v: isinstance(v, list), "array"),
          "dict": (lambda v: isinstance(v, dict), "object")}


def _value(v, kind, path: str):
    """``v`` checked as a JSON kind, as one of a tuple of values, or for
    ``[kind]`` as an array of ``kind`` (read as a tuple); or read as the
    record class ``kind``, a constellation from its scheme."""
    if kind is mod.Constellation:
        return _parse_constellation(v, path)
    if isinstance(kind, type):
        return _parse_record(kind, v, path)
    if isinstance(kind, list):
        return tuple(_value(x, kind[0], f"{path}.{i}")
                     for i, x in enumerate(_value(v, "list", path)))
    if isinstance(kind, tuple):
        _check(v in kind, path, f"expected one of {kind}, got {v!r}")
        return v
    test, name = _KINDS[kind]
    _check(test(v), path, f"expected {name}, got {_typename(v)}")
    return float(v) if kind == "number" else v


def _get(d: dict, key: str, path: str, kind):
    _check(d.get(key) is not None, path, f"missing required key {key!r}")
    return _value(d[key], kind, f"{path}.{key}")


def _read(d: dict, kinds: dict, optional, path: str) -> dict:
    """The checked arguments section ``d`` gives for ``kinds`` (key ->
    kind).  A key not in ``optional`` is required; a key set to null counts
    as absent."""
    _no_extras(d, kinds, path)
    args = {}
    for key, kind in kinds.items():
        if d.get(key) is not None:
            args[key] = _value(d[key], kind, f"{path}.{key}")
        else:
            _check(key in optional, path, f"missing required key {key!r}")
    return args


def _keyed(e: InputError, section: str, top: str = "") -> ConfigError:
    """``e`` as a config error at its key within ``section``: a key under
    ``chain.`` lies in ``top``."""
    where = top if e.key.partition(".")[0] == "chain" and top else section
    return ConfigError(f"{where}.{e.key}: {e.problem}")


# A parameter's JSON kind, from its resolved annotation; any other class
# names itself, such as a record class
_ANNOTATED = {float: "number", float | None: "number", list[float]: ["number"],
              int: "int", str: "str", bool: "bool", list: "list"}
# Absent record fields that are not their default: a gate peak is solved
# from the rotation angle
_ABSENT = {mod.GateEnvelopeSpec: {"peak_amplitude": None}}


@functools.cache
def _signature(fn) -> tuple[dict, dict]:
    """``fn``'s parameters to their kinds, and to their defaults if any."""
    ps = inspect.signature(fn).parameters.values()
    hints = typing.get_type_hints(fn.__init__ if isinstance(fn, type) else fn)
    return ({p.name: _ANNOTATED.get(hints.get(p.name), hints.get(p.name))
             for p in ps},
            {p.name: p.default for p in ps if p.default is not p.empty})


# Each routine's config keys to their kinds, and to their defaults if any:
# its parameters but chain and sample_rate.  Read once, so a rebound
# ``calibration.<name>`` keeps the file's keys.
_ROUTINE_KEYS = {name: tuple({k: v for k, v in part.items()
                              if k not in ("chain", "sample_rate")}
                             for part in _signature(getattr(cal, name)))
                 for name in ROUTINES}


def _parse_record(cls, obj, path: str):
    """The record ``cls`` an object describes; its defaults fill the rest."""
    args = _read(_value(obj, "dict", path), *_signature(cls), path)
    try:
        return cls(**{**_ABSENT.get(cls, {}), **args})
    except InputError as e:
        raise _keyed(e, path) from None


def _parse_stage(obj, path: str) -> StageSpec:
    """A stage checked against its schema; complex values may be [re, im]."""
    d = _read(_value(obj, "dict", path), {"kind": "str", "params": "dict"},
              ("params",), path)
    kind, params = d["kind"], dict(d.get("params", {}))
    for key, par in (STAGES[kind].params if kind in STAGES else {}).items():
        v = params.get(key)
        if par.type == "complex" and isinstance(v, list) and len(v) == 2 \
                and all(map(_finite, v)):
            params[key] = complex(*v)
    try:
        return StageSpec(kind, params)
    except InputError as e:
        raise _keyed(e, path) from None


def _parse_chain(obj, path: str) -> TxChain | None:
    """The chain, each stage checked against its schema."""
    if obj is None:
        return None
    d = _read(_value(obj, "dict", path),
              {"architecture": ARCHITECTURES, "stages": "list"},
              ("architecture",), path)
    return TxChain(d.get("architecture", "custom"), tuple(
        _parse_stage(s, f"{path}.stages.{i}")
        for i, s in enumerate(d["stages"])))


def _parse_constellation(obj, path: str) -> mod.Constellation:
    """The constellation of a ``scheme`` and that scheme's keys, which are
    the parameters of its builder in ``modulation.SCHEMES``."""
    d = _value(obj, "dict", path)
    scheme = _get(d, "scheme", path, tuple(mod.SCHEMES))
    kwargs = _read({k: v for k, v in d.items() if k != "scheme"},
                   *_signature(mod.SCHEMES[scheme]), path)
    try:
        return mod.build_constellation(scheme, **kwargs)
    except InputError as e:
        raise _keyed(e, path) from None
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def read_config(source):
    """Parse a scenario, sweep or calibration file without validating it."""
    path = Path(source)
    try:
        return json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except ValueError as e:  # also an integer past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON ({e})") from None


def _read_head(d: dict, path: str, keys: tuple) -> tuple:
    """A file's name, sample rate and chain; ``keys`` are its other keys."""
    _no_extras(d, ("name", "sample_rate", "chain", *keys), path)
    name = _get(d, "name", path, "str")
    _check(name and all(c.isalnum() or c in "_-" for c in name),
           f"{path}.name", "name must be letters, digits, '_' or '-'")
    fs = _get(d, "sample_rate", path, "number")
    _check(fs > 0.0, f"{path}.sample_rate", "must be positive")
    return name, fs, _parse_chain(d.get("chain"), f"{path}.chain")


def plan_scenario(raw) -> dict:
    """Validate a scenario config and build the objects it describes."""
    d = _value(raw, "dict", "scenario")
    mode = _get(d, "mode", "scenario", tuple(_MODES))
    name, fs, chain = _read_head(d, "scenario", ("mode", mode))
    row, path = _MODES[mode], f"scenario.{mode}"
    plan = {"name": name, "mode": mode, "sample_rate": fs, "chain": chain,
            **row.defaults, **_read(_get(d, mode, "scenario", "dict"),
                                    row.keys, row.defaults, path)}
    try:
        plan.update(row.check(plan))
    except InputError as e:
        raise _keyed(e, path, "scenario") from None
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
    summary = {**vars(report)}
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
        # whole periods past the pulse tails at either end, EYE_TRACES at most
        skip = shape.span_symbols
        keep = min(EYE_TRACES, max(0, len(env) // sps - 2 * skip))
        lo, hi = skip * sps, (skip + keep) * sps
        offs = (np.arange(lo, hi) - instant + sps // 2) % sps
        artifacts["eye.csv"] = _csv("t_frac,i,q", offs / sps,
                                    env.samples.real[lo:hi],
                                    env.samples.imag[lo:hi])
    if "budget" in plan["outputs"]:
        budget = met.evm_budget(scorer, clean, plan["chain"], report)
        summary["budget"] = {**vars(budget),
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
    summary = {**vars(report),
               "pulse_area": qb.pulse_area(env, model.drive_gain),
               "rotation_angle": plan["gate"].rotation_angle}
    artifacts = {}
    if "bloch" in plan["outputs"]:
        times, pts = qb.bloch_trajectory(model, env,
                                         substeps=plan["substeps"])
        # the drive sample instants; the last of them is the gate's end
        at = slice(None, None, plan["substeps"])
        artifacts["bloch.csv"] = _csv("t,x,y,z", times[at], pts[at, 0],
                                      pts[at, 1], pts[at, 2])
    return summary, artifacts


def _comm_check(plan: dict) -> dict:
    pulse, n_symbols, chain = plan["pulse"], plan["n_symbols"], plan["chain"]
    require(n_symbols >= 16, "n_symbols", "must be >= 16")
    require(2 * pulse.span_symbols < n_symbols, "pulse.span_symbols",
            f"must stay below half of n_symbols, {n_symbols}: the first and "
            "last span_symbols symbols are not scored")
    sps, fs = pulse.samples_per_symbol, plan["sample_rate"]
    check_budget(sps, "pulse.samples_per_symbol", "one symbol ")
    # the shaped record, its pulse tails included, at its own rate
    n = mod.shaped_samples(n_symbols, pulse)
    check_record(chain, n, fs, "n_symbols", sps / (sps / fs))
    require(plan["bit_seed"] >= 0, "bit_seed", "must be nonnegative")
    met.check_eye_levels(plan["eye_levels"], n // sps, "eye_levels")
    if "budget" in plan["outputs"]:
        require(chain is not None, "outputs", "a budget report needs a chain")
        met.check_budget_terms(chain)
    return {"symbol_period": sps / fs}


def _qubit_check(plan: dict) -> dict:
    fs, envelope = plan["sample_rate"], plan["envelope"]
    qb.check_substeps(plan["substeps"])
    n_gate = check_gate(envelope, fs, "envelope.duration_s")
    hold = check_record(plan["chain"], n_gate, fs, "envelope.duration_s")
    check_budget(n_gate * hold * plan["substeps"], "substeps")
    require(plan["model"].levels == 2 or "bloch" not in plan["outputs"],
            "outputs", "a bloch track needs a two-level model")
    return {}


class Mode(NamedTuple):
    """A run mode: its section's ``keys`` to their kinds (``outputs`` names
    its reports) and ``defaults``; ``check`` (the plan) raises
    InputError at a section key or under ``chain.`` and returns derived plan
    entries; a sweep row's metric ``columns``; the ``line`` ``simulate``
    prints; and the run's two stages, ``make`` and ``score``."""

    keys: dict
    defaults: dict
    check: Callable
    columns: tuple
    line: Callable
    make: Callable
    score: Callable


# Every mode, described once.  A row's functions look the library up by
# name on each call, so a rebound ``metrics.eye_metrics`` is the one called.
_MODES: dict[str, Mode] = {
    "comm": Mode(
        {"constellation": mod.Constellation, "pulse": mod.PulseShape,
         "n_symbols": "int", "bit_seed": "int", "timing_search": "bool",
         "eye_levels": "int",
         "outputs": [("constellation", "psd", "eye", "budget")]},
        {"timing_search": _signature(met.LinkScorer)[1]["timing_search"],
         "eye_levels": _signature(met.eye_metrics)[1]["n_levels"],
         "outputs": ()},
        _comm_check, ("evm_rms", "evm_db"),
        lambda s: (f"{s['name']}: evm_rms={s['evm_rms']:.6g} "
                   f"({s['evm_db']:.2f} dB) over {s['num_symbols']} symbols"),
        _comm_input, _compute_comm),
    "qubit": Mode(
        {"model": qb.QubitModel, "envelope": mod.GateEnvelopeSpec,
         "gate": qb.GateSpec, "substeps": "int", "outputs": [("bloch",)]},
        {"substeps": _signature(qb.propagate)[1]["substeps"], "outputs": ()},
        _qubit_check, ("fidelity", "infidelity", "leakage"),
        lambda s: f"{s['name']}: infidelity={s['infidelity']:.6g}" + (
            "" if s["leakage"] is None else f" leakage={s['leakage']:.3g}"),
        _qubit_input, _compute_qubit),
}


def _compute(raw: dict, made=None) -> tuple[dict, dict]:
    """Plan, make the input (unless ``made`` is given: the input stage's
    result for a plan that differs from this one only in its chain), then
    run the chain and score."""
    plan = plan_scenario(raw)
    row = _MODES[plan["mode"]]
    summary, artifacts = row.score(plan,
                                   row.make(plan) if made is None else made)
    summary = {"name": plan["name"], "mode": plan["mode"], **summary}
    return summary, artifacts


# Every report a scenario can write beside metrics.json, one per output
_SCENARIO_REPORTS = {f"{out}.csv": None for row in _MODES.values()
                     for out in row.keys["outputs"][0]}


def run_scenario(raw: dict, out_dir) -> dict:
    """Run one scenario and write metrics.json plus requested reports."""
    summary, artifacts = _compute(raw)
    _write_run(out_dir, summary["name"], {
        **_SCENARIO_REPORTS, **artifacts, "metrics.json": emit_json(summary)})
    return summary


# ----------------------------------------------------------------- sweep

def _set_path(cfg: dict, dotted: str, value) -> None:
    """Set the entry at a dotted path, making absent objects on the way."""
    keys = dotted.split(".")
    node = cfg
    for depth, k in enumerate(keys, 1):
        last = depth == len(keys)
        if isinstance(node, list):
            try:
                k = range(len(node))[int(k)]
            except (ValueError, IndexError):
                raise ConfigError(
                    f"sweep path {dotted!r}: bad index {k!r}") from None
        elif not isinstance(node, dict):
            raise ConfigError(f"sweep path {dotted!r}: " + (
                "cannot assign" if last else f"{k!r} is not traversable"))
        if last:
            node[k] = value
        else:
            node = node.setdefault(k, {}) if isinstance(node, dict) \
                else node[k]


def run_sweep(raw: dict, out_dir, threads: int = 1) -> Path:
    """Run a one- or two-axis parameter sweep; failures become FAILED rows.

    Each point is planned and checked on its own config.  When every swept
    path lies under ``chain.``, the points share one input (bits, symbols
    and clean waveform, or gate pulse), made once from the base.  When any
    point fails, ``failures.json`` beside ``sweep.csv`` lists each
    failed point's ``{path: value}`` map with its error message."""
    d = _read(_value(raw, "dict", "sweep-file"),
              {"base": "dict", "sweep": "dict"}, (), "sweep-file")
    sw = _read(d["sweep"], {"paths": ["str"], "values": ["list"]}, (),
               "sweep-file.sweep")
    base, paths, values = d["base"], sw["paths"], sw["values"]
    _check(1 <= len(paths) <= 2, "sweep-file.sweep.paths",
           "need one or two sweep paths")
    _check(len(values) == len(paths), "sweep-file.sweep.values",
           "need one value list per path")
    for i, v in enumerate(values):
        _check(v, f"sweep-file.sweep.values.{i}", "expected nonempty array")
    base_plan = plan_scenario(base)
    for p, vals in zip(paths, values):
        _set_path(copy.deepcopy(base), p, vals[0])

    grid = list(itertools.product(*values))

    made = None
    if all(p.startswith("chain.") for p in paths):
        # Every point feeds its chain the base's input: make it once.  If
        # that fails, each point makes its own and fails with its own row.
        try:
            made = _MODES[base_plan["mode"]].make(base_plan)
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

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one, grid))

    cols = _MODES[base_plan["mode"]].columns
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
    header = ",".join(list(paths) + list(cols))
    dest = _write_run(out_dir, base_plan["name"], {
        "sweep.csv": _csv(header, *zip(*grid), *metric_cols),
        "failures.json": emit_json(failures) if failures else None},
        f" ({len(grid)} points, {len(failures)} failed)")
    return dest / "sweep.csv"


# ----------------------------------------------------------- calibration

def run_calibration(raw: dict, out_dir) -> dict:
    """Run the calibration routine the file's ``routine.kind`` names; writes
    report.json and, for routines that modify the chain,
    corrected_chain.json."""
    d = _value(raw, "dict", "calibration")
    name, fs, chain = _read_head(d, "calibration", ("routine",))
    path = "calibration.routine"
    r = _get(d, "routine", "calibration", "dict")
    kind = _get(r, "kind", path, tuple(ROUTINES))
    row, (kinds, defaults) = ROUTINES[kind], _ROUTINE_KEYS[kind]
    given = {k: v for k, v in r.items() if k != "kind"}
    args = {**defaults, **_read(given, kinds, defaults, path),
            "chain": chain, "sample_rate": fs}
    try:
        row.rule(**args)
    except InputError as e:
        raise _keyed(e, path, "calibration") from None
    corrected, fields = row.report(getattr(cal, kind)(**args))
    report = {"name": name, "routine": kind, **fields}
    _write_run(out_dir, name, {
        "report.json": emit_json(report),
        "corrected_chain.json": None if corrected is None
        else emit_json(asdict(corrected))})
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
