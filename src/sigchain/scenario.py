"""Scenario files: JSON descriptions of a full simulation or calibration.

A scenario names a chain, a stimulus, and the reports to write.  Parsing
is strict: unknown keys, wrong types, and missing seeds on stochastic
stages are configuration errors with the offending key path in the
message, raised before any computation starts.  All emitted files go
through a deterministic serializer (sorted keys, fixed float formatting)
into a staging directory that is swapped in whole, so rerunning a
scenario reproduces its outputs byte for byte.
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
import tempfile
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
from sigchain.chains import (STAGES, StageSpec, TxChain, _finite, _real,
                             check_record, run_chain, synth_comm_waveform,
                             synth_qubit_pulse)
from sigchain.envelope import InputError, check_budget, require

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
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_run(out_dir, name: str, files: dict, note: str = "") -> Path:
    """Write a run's directory, ``out_dir/name``, and return it.  ``files``
    maps each file name the run writes to its text.  The run is staged
    beside ``name`` and swapped in whole, so the directory holds exactly
    these files, or the old run if a write fails."""
    dest = Path(out_dir) / name
    dest.parent.mkdir(parents=True, exist_ok=True)
    # not named after ``name``, which may fill the 255-byte limit alone
    with tempfile.TemporaryDirectory(prefix=".sigchain-", dir=out_dir) as stage:
        run, old = Path(stage, "run"), Path(stage, "old")
        run.mkdir()
        for fname, text in sorted(files.items()):
            write_text_atomic(run / fname, text)
        if dest.is_dir():
            dest.rename(old)
        try:
            run.rename(dest)  # refuses a file at dest
        except OSError:
            if old.is_dir():
                old.rename(dest)
            raise
    log.info("wrote %s%s", dest, note)
    return dest


# Rows per byte matrix: bounds the transient cells of a block
_CSV_BLOCK = 4096
# A cell holding any of these is quoted (RFC 4180)
_CSV_QUOTED = frozenset(',"\r\n')
# Fill byte of cell matrices, dropped from the text; UTF-8 never holds it
_PAD = 0xFF
# Bytes of a float cell: the longest %.17g text, "-2.2250738585072014e-308"
_FLOAT_WIDTH = 24
# 10**k, exact for k <= 22
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _four_digit_tables():
    """0 to 9999 as four ASCII digits, first digit in the low byte, and
    the trailing zeros of each as four digits."""
    n = np.arange(10000)
    ascii4 = (n // 1000 | n // 100 % 10 << 8 | n // 10 % 10 << 16
              | n % 10 << 24 | 0x30303030).astype(np.uint64)
    return ascii4, sum(n % 10 ** k == 0 for k in range(1, 5))


_ASCII4, _TZ4 = _four_digit_tables()

# Cell layouts of %.17g in fixed notation, one row per exponent e = -4..15
# of the 17 digits: the sign and the digits up to the units digit stay in
# place (_KEEP bytes), "." follows (or "0." and -e - 1 zeros when e < 0:
# _GAP bytes), then the rest of the digits.  Masks are 24 bytes as three
# little-endian words.
_EXP = np.arange(-4, 16)
_KEEP = np.where(_EXP < 0, 1, _EXP + 2)
_GAP = np.where(_EXP < 0, 1 - _EXP, 1)


def _words(rows) -> np.ndarray:
    """Rows of 24 bytes as rows of three little-endian words."""
    return np.ascontiguousarray(rows, np.uint8).view("<u8").astype(np.uint64)


# Each byte's place after the kept bytes, by layout
_BYTE = np.arange(_FLOAT_WIDTH) - _KEEP[:, None]
_LOW = _words(np.where(_BYTE < 0, _PAD, 0))
_FILL = _words(np.where((_BYTE < 0) | (_BYTE >= _GAP[:, None]), 0,
                        np.where(_BYTE == (_EXP < 0)[:, None], ord("."),
                                 ord("0"))))
# Bits each word of the rest of the digits moves up, by layout
_SHIFT = np.repeat(8 * _GAP[:, None], 3, axis=1).astype(np.uint64)
# Bytes from the text's end on, by its length
_TAIL = _words(np.where(np.arange(_FLOAT_WIDTH) >= np.arange(25)[:, None],
                        _PAD, 0))


def _split(x):
    """Veltkamp's split: ``x == hi + lo``, each half of 26 bits or fewer."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits17(a, e):
    """``a * 10**(16 - e)`` rounded half to even, exactly, as int64.

    Dekker's two-product makes ``hi + lo`` the exact product.  Where the
    result has 17 digits, ``hi`` is an even integer (at least 2**53), so
    rounding ``lo`` half to even rounds the sum half to even."""
    k = 16 - e
    hi = a * _POW10[k]
    ah, al = _split(a)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed17(v):
    """``"%.17g" % x`` for each ``x`` of ``v`` with 1e-4 <= |x| < 1e16, as
    ``_FLOAT_WIDTH`` bytes of ASCII per row, padded with ``_PAD``.

    In that range ``%.17g`` is fixed notation: the 17 significant digits
    of ``|x|`` with the point after the units digit, trailing fraction
    zeros dropped, and the point too when no fraction is left."""
    a = np.abs(v)
    e = np.floor(np.log10(a)).astype(np.int64)
    d = _digits17(a, e)
    # log10 may miss by one beside a power of ten, and rounding may carry
    # into the next decade: step e until d has exactly 17 digits
    bad = np.flatnonzero((d < 10**16) | (d >= 10**17))
    while bad.size:
        e[bad] += np.where(d[bad] < 10**16, -1, 1)
        d[bad] = _digits17(a[bad], e[bad])
        bad = bad[(d[bad] < 10**16) | (d[bad] >= 10**17)]
    # d is a1 (3 digits), a2, b1, b2 (4 each) and c (2)
    q = d // 10**10
    r = d - q * 10**10
    b = r // 100
    c = r - b * 100
    a1 = q // 10**4
    a2 = q - a1 * 10**4
    b1 = b // 10**4
    b2 = b - b1 * 10**4
    # g: the sign in byte 0 (the "0" of a1's four digits), digit k in byte
    # k + 1
    g = np.empty((len(v), 3), np.uint64)
    g[:, 0] = (_ASCII4[a1] ^ np.where(np.signbit(v), ord("-") ^ ord("0"),
                                      _PAD ^ ord("0")).astype(np.uint64)
               | _ASCII4[a2] << 32)
    g[:, 1] = _ASCII4[b1] | _ASCII4[b2] << 32
    g[:, 2] = _ASCII4[c] >> 16
    # trailing zeros of d
    tz = _TZ4[a1]
    for part, width in ((a2, 4), (b1, 4), (b2, 4), (c, 2)):
        tz = np.where(part == 0, tz + width, _TZ4[part])
    i = e + 4  # the layout row
    kept = g & np.take(_LOW, i, axis=0)
    rest = g ^ kept
    # the rest moves up by _GAP bytes, each word taking the top bytes of
    # the word before it; none move into a row's first word
    carry = np.empty_like(rest)
    carry.ravel()[1:] = rest.ravel()[:-1]
    carry[:, 0] = 0
    shift = np.take(_SHIFT, i, axis=0)
    moved = rest << shift | carry >> (64 - shift)
    # the text ends after its last nonzero fraction digit, or before the
    # point when the fraction is all zeros
    end = np.where(tz < 16 - e, 18 - tz + _GAP[i], _KEEP[i])
    out = (kept | moved | np.take(_FILL, i, axis=0)
           | np.take(_TAIL, end, axis=0))
    return out.astype("<u8", copy=False).view(np.uint8)


def _csv_cell(v) -> str:
    if isinstance(v, str):
        text = v
    elif isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    elif isinstance(v, (int, np.integer)):
        return str(int(v))
    elif isinstance(v, (list, dict)) or v is None:
        text = json.dumps(v, separators=(",", ":"))
    else:
        return "%.17g" % float(v)
    if not _CSV_QUOTED.isdisjoint(text):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _text_matrix(texts) -> np.ndarray:
    """The UTF-8 bytes of each text as a row, padded with ``_PAD``."""
    cells = [t.encode() for t in texts]
    width = max(map(len, cells), default=0)
    flat = b"".join(c.ljust(width, b"\xff") for c in cells)
    return np.frombuffer(flat, np.uint8).reshape(len(cells), width)


class Table(NamedTuple):
    """A CSV column whose cell in row r is the cell of
    ``table[index[r]]``: each entry of ``table`` is formatted once."""

    table: np.ndarray | list
    index: np.ndarray


def _cells(values) -> np.ndarray:
    """The cells of a sequence of values.  A float array's cells with
    1e-4 <= |x| < 1e16 are ``_fixed17``'s, its others ``_csv_cell``'s,
    once per distinct bit pattern; any other value's are ``_csv_cell``'s."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "f":
        values = values.tolist()
    if not isinstance(values, np.ndarray):
        return _text_matrix([_csv_cell(v) for v in values])
    v = values.astype(np.float64, copy=False)
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e16)
    out = _fixed17(np.where(fixed, v, 1.0))
    rest = np.flatnonzero(~fixed)
    _, first, index = np.unique(v[rest].view(np.int64), return_index=True,
                                return_inverse=True)
    cells = _text_matrix([_csv_cell(x) for x in v[rest[first]].tolist()])
    out[rest, :cells.shape[1]] = cells[index]
    out[rest, cells.shape[1]:] = _PAD
    return out


def _csv(header: str, *columns) -> str:
    """CSV text from equal-length columns, one row per index.

    A cell is formatted as ``_csv_cell`` does: strings as they are,
    booleans as ``true`` and ``false``, integers in decimal, floats as
    ``%.17g`` (which spells nan and infinities ``nan``, ``inf`` and
    ``-inf``) and lists, objects and null as compact JSON.  A cell
    holding a comma, quote or line break is quoted per RFC 4180.

    A column is a ``Table``, whose table ``_cells`` formats once and
    whose rows' cells are gathered by index, or any other sequence of
    values, which ``_cells`` formats one block of ``_CSV_BLOCK`` rows at a
    time.  Each block is one byte matrix of cells, commas and line ends,
    its ``_PAD`` bytes dropped, so no transient grows with the row count.
    """
    cols = []
    for c in columns:
        if isinstance(c, Table):
            cols.append(lambda s, t=_cells(c.table), i=c.index: t[i[s]])
            c = c.index
        else:
            cols.append(lambda s, c=c: _cells(c[s]))
        if len(cols) == 1:
            n = len(c)
    parts = [header + "\n"]
    for start in range(0, n, _CSV_BLOCK):
        cells = [col(slice(start, start + _CSV_BLOCK)) for col in cols]
        block = np.empty((len(cells[0]),
                          sum(c.shape[1] + 1 for c in cells)), np.uint8)
        at = 0
        for c in cells:
            block[:, at:at + c.shape[1]] = c
            at += c.shape[1] + 1
            block[:, at - 1] = ord(",")
        block[:, -1] = ord("\n")
        parts.append(block.tobytes().translate(None, b"\xff").decode())
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
    record class ``kind``, a constellation or a stage by its own reader."""
    if kind is mod.Constellation:
        return _parse_constellation(v, path)
    if kind is StageSpec:
        return _parse_stage(v, path)
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
              int: "int", str: "str", bool: "bool", list: "list",
              dict: "dict", tuple[StageSpec, ...]: [StageSpec]}
# Absent record fields that take other than their default: a gate peak is
# solved from the rotation angle, and a chain's architecture is "custom"
_ABSENT = {mod.GateEnvelopeSpec: {"peak_amplitude": None},
           TxChain: {"architecture": "custom"}}


@functools.cache
def _signature(fn) -> tuple[dict, dict]:
    """``fn``'s parameters to their kinds, and to their absent values."""
    ps = inspect.signature(fn).parameters.values()
    hints = typing.get_type_hints(fn.__init__ if isinstance(fn, type) else fn)
    return ({p.name: _ANNOTATED.get(hints.get(p.name), hints.get(p.name))
             for p in ps},
            {**{p.name: p.default for p in ps if p.default is not p.empty},
             **_ABSENT.get(fn, {})})


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
    """A stage read as a record; a complex parameter may be [re, im]."""
    d = _value(obj, "dict", path)
    kind, params = d.get("kind"), d.get("params")
    if isinstance(kind, str) and kind in STAGES and isinstance(params, dict):
        d = {**d, "params": dict(params)}
        for key, par in STAGES[kind].params.items():
            v = params.get(key)
            if par.type == "complex" and isinstance(v, list) \
                    and len(v) == 2 and all(map(_finite, v)):
                d["params"][key] = complex(*v)
    return _parse_record(StageSpec, d, path)


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
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except ValueError as e:  # also an integer past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON ({e})") from None


def _read_head(d: dict, path: str, keys: tuple) -> tuple:
    """A file's name, sample rate and chain; ``keys`` are its other keys."""
    _no_extras(d, ("name", "sample_rate", "chain", *keys), path)
    name = _get(d, "name", path, "str")
    # it names a directory: at most 255 bytes (NAME_MAX)
    _check(name and all(c.isalnum() or c in "_-" for c in name)
           and len(name.encode()) <= 255, f"{path}.name",
           "name must be letters, digits, '_' or '-', at most 255 bytes")
    fs = _get(d, "sample_rate", path, "number")
    _check(fs > 0.0, f"{path}.sample_rate", "must be positive")
    chain = d.get("chain")
    return name, fs, None if chain is None else _value(chain, TxChain,
                                                       f"{path}.chain")


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
    rx, _, report = scorer(env)
    summary = {**vars(report)}
    artifacts = {}

    if "constellation" in plan["outputs"]:
        # the scorer's reference symbols are points[labels]: each row's bits
        # and reference point are the table entries of its label
        bps = const.bits_per_symbol
        skip = shape.span_symbols
        labels = mod.symbol_labels(bits, bps)[skip:-skip]
        pts = const.points
        names = [format(k, f"0{bps}b") for k in range(pts.size)]
        artifacts["constellation.csv"] = _csv(
            "bits,i_ref,q_ref,i_rx,q_rx", Table(names, labels),
            Table(pts.real, labels), Table(pts.imag, labels),
            rx.real, rx.imag)
    if "psd" in plan["outputs"]:
        spectrum = met.psd_welch(env)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(spectrum.psd)
        artifacts["psd.csv"] = _csv("freq_hz,db", spectrum.freqs, db)
    if "eye" in plan["outputs"]:
        eye = met.eye_metrics(env, symbol_period, n_levels=plan["eye_levels"])
        summary["eye"] = {"height": eye.eye_height,
                          "width_fraction": eye.eye_width_fraction,
                          "sample_instant_fraction":
                              eye.sample_instant_fraction}
        sps = mod.symbol_samples(symbol_period, env.sample_rate, 4)
        instant = int(round(eye.sample_instant_fraction * sps))
        # whole periods past the pulse tails at either end, EYE_TRACES at most
        skip = shape.span_symbols
        keep = min(EYE_TRACES, max(0, len(env) // sps - 2 * skip))
        lo, hi = skip * sps, (skip + keep) * sps
        offs = (np.arange(lo, hi) - instant + sps // 2) % sps
        artifacts["eye.csv"] = _csv("t_frac,i,q",
                                    Table(np.arange(sps) / sps, offs),
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
        plan["envelope"], plan["sample_rate"],
        rotation_angle=plan["gate"].rotation_angle,
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
    met.check_scored(n_symbols, pulse.span_symbols, "pulse.span_symbols")
    sps, fs = pulse.samples_per_symbol, plan["sample_rate"]
    check_budget(sps, "pulse.samples_per_symbol", "one symbol ")
    # the shaped record, its pulse tails included, at its own rate
    n = mod.shaped_samples(n_symbols, pulse)
    check_record(chain, n, sps / (sps / fs), "n_symbols")
    require(plan["bit_seed"] >= 0, "bit_seed", "must be nonnegative")
    met.check_eye_levels(plan["eye_levels"], n // sps, "eye_levels")
    if "budget" in plan["outputs"]:
        require(chain is not None and chain.stages, "outputs",
                "a budget report needs a chain of at least one stage")
        met.check_budget_terms(chain)
    return {"symbol_period": sps / fs}


def _qubit_check(plan: dict) -> dict:
    fs, envelope = plan["sample_rate"], plan["envelope"]
    qb.check_substeps(plan["substeps"])
    n_gate = mod.gate_samples(envelope.duration_s, fs, "envelope.duration_s")
    hold = check_record(plan["chain"], n_gate, fs, "envelope.duration_s")
    check_budget(n_gate * hold * plan["substeps"], "substeps")
    if "bloch" in plan["outputs"]:
        qb.check_bloch(plan["model"], "outputs")
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


def run_scenario(raw: dict, out_dir) -> dict:
    """Run one scenario and write metrics.json plus requested reports."""
    summary, artifacts = _compute(raw)
    _write_run(out_dir, summary["name"],
               {**artifacts, "metrics.json": emit_json(summary)})
    return summary


# ----------------------------------------------------------------- sweep

def _set_path(cfg: dict, dotted: str, value) -> list:
    """Set the entry at a dotted path, making absent objects on the way, and
    return the path's keys, each list index as the position it names."""
    keys = dotted.split(".")
    node = cfg
    for depth, k in enumerate(keys, 1):
        last = depth == len(keys)
        if isinstance(node, list):
            try:
                k = keys[depth - 1] = range(len(node))[int(k)]
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
    return keys


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
    keys = [_set_path(copy.deepcopy(base), p, vals[0])
            for p, vals in zip(paths, values)]
    n = min(map(len, keys))
    _check(len(keys) == 1 or keys[0][:n] != keys[1][:n],
           "sweep-file.sweep.paths.1", f"{paths[-1]!r} names the entry "
           f"{paths[0]!r} names, or one inside or around it; one axis "
           "would overwrite the other")

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
    header = ",".join(_csv_cell(c) for c in [*paths, *cols])
    files = {"sweep.csv": _csv(header, *zip(*grid), *metric_cols)}
    if failures:
        files["failures.json"] = emit_json(failures)
    dest = _write_run(out_dir, base_plan["name"], files,
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
    kinds, defaults = _ROUTINE_KEYS[kind]
    given = {k: v for k, v in r.items() if k != "kind"}
    args = {**defaults, **_read(given, kinds, defaults, path),
            "chain": chain, "sample_rate": fs}
    # the routine checks its rules before any compute
    try:
        result = getattr(cal, kind)(**args)
    except InputError as e:
        raise _keyed(e, path, "calibration") from None
    corrected, fields = ROUTINES[kind](result)
    report = {"name": name, "routine": kind, **fields}
    files = {"report.json": emit_json(report)}
    if corrected is not None:
        files["corrected_chain.json"] = emit_json(asdict(corrected))
    _write_run(out_dir, name, files)
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
