"""Transmitter architecture models built from shared impairment stages.

A chain is an ordered list of stages applied to a complex envelope.  The
common direct-modulation architectures are stage lists, each shown by a
bundled scenario:

* cartesian (``qam16_budget``): separate I and Q converter paths,
  quadrature mixing (path mismatch, quadrature imbalance, carrier
  feedthrough)
* polar (``polar_skew``): amplitude and phase converted separately and
  recombined (track bandwidths, differential delay, gated-carrier leakage)
* rfdac (``rfdac_images``): a single high-rate converter synthesizes the
  modulated carrier (per-code mismatch, zero-order-hold images)
* harmonic (``harmonic_ask``): the phase path runs at a sub-harmonic and is
  multiplied up (phase-noise multiplication, keying-state errors, switch
  dynamics, spurs)

Stages carry only plain parameter values, so chains serialize cleanly and a
calibration can be expressed as a parameter update or an extra stage.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from sigchain import impairments as imp
from sigchain import modulation as mod
from sigchain.envelope import (
    ComplexEnvelope,
    InputError,
    check_budget,
    check_delay,
    delay_real_track,
    phasor,
    require,
)

__all__ = [
    "InputError",
    "StageSpec",
    "TxChain",
    "apply_stage",
    "run_chain",
    "run_chain_per_trim",
    "with_stage_param",
    "synth_comm_waveform",
    "synth_qubit_pulse",
]

ARCHITECTURES = ("cartesian", "polar", "rfdac", "harmonic", "custom")


@dataclass(frozen=True)
class StageSpec:
    """One chain stage: a kind from the registry plus its parameters, which
    construction checks against the kind's schema, raising InputError at
    ``kind``, ``params`` or ``params.<name>``.  A parameter given as None
    counts as absent."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        row = STAGES.get(self.kind)
        if row is None:
            raise InputError("kind", f"unknown stage kind {self.kind!r}; "
                             f"expected one of {sorted(STAGES)}")
        unknown = set(self.params) - set(row.params)
        if unknown:
            raise InputError("params", f"stage {self.kind!r} got unknown "
                             f"parameters {sorted(unknown)}")
        for key, par in row.params.items():
            par.check(self.kind, key, self.params.get(key))
        if row.seeded(self.params) and self.params.get("seed") is None:
            raise _param_error(self.kind, "seed", "is stochastic and needs an "
                               "explicit seed for reproducible runs")
        if row.check is not None:
            row.check(self.params)


@dataclass(frozen=True)
class TxChain:
    """An architecture label plus an ordered stage list."""

    architecture: str
    stages: tuple[StageSpec, ...] = ()

    def __post_init__(self) -> None:
        require(self.architecture in ARCHITECTURES, "architecture",
                f"expected one of {ARCHITECTURES}, got {self.architecture!r}")
        stages = tuple(self.stages)
        for st in stages:
            if not isinstance(st, StageSpec):
                raise TypeError("stages must be StageSpec instances")
        object.__setattr__(self, "stages", stages)


# ------------------------------------------------------ parameter schema

def _real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) \
        and not isinstance(v, bool)


def _finite(v) -> bool:
    """A real number that a float holds, neither infinite nor nan."""
    return _real(v) and abs(v) <= sys.float_info.max


def _vector(v, n: int = 0, item=None) -> bool:
    """A nonempty list, tuple or array (of ``n`` items, if given) of finite
    reals, or of items that pass ``item``."""
    if not isinstance(v, (list, tuple, np.ndarray)) \
            or getattr(v, "ndim", 1) == 0 or not len(v) or n and len(v) != n:
        return False
    return all(item(x) if item else _finite(x) for x in v)


_TYPES = {
    "int": lambda v: _real(v) and isinstance(v, (int, np.integer)),
    # any float (its bounds judge it), or an int that a float holds
    "number": lambda v: _finite(v) or _real(v) and not isinstance(v, int),
    "complex": lambda v: _finite(v) or isinstance(
        v, (complex, np.complexfloating)) and abs(v) < math.inf,
    "numbers": _vector,
    "matrix": lambda v: _vector(v, 2, lambda row: _vector(row, 2)),
}


_REQUIRED = object()


def _param_error(kind: str, key: str, problem: str) -> InputError:
    """A stage parameter breaking its schema, at ``params.<key>``."""
    return InputError(f"params.{key}", f"stage {kind!r} {problem}")


@dataclass(frozen=True)
class Param:
    """A stage parameter.  Its type is "int", "number" (real), "complex"
    (finite), "numbers" (a nonempty list of finite reals) or "matrix" (2x2
    finite reals); int and number types have bounds, an interval such as
    "(0, inf)".  A parameter without a default is required; a default of
    None means the stage skips what the parameter controls.  ``below`` maps
    the sample rate the stage sees to an exclusive upper bound.  ``delay``
    marks a delay in seconds whose magnitude must stay below a quarter of
    the record duration.  ``check_stage`` checks both against the record
    the stage sees."""

    type: str
    bounds: str = "(-inf, inf)"
    default: object = _REQUIRED
    below: Callable | None = None
    delay: bool = False

    def check(self, kind: str, key: str, v) -> None:
        if v is None:
            if self.default is _REQUIRED:
                raise _param_error(kind, key, f"requires parameter {key!r}")
            return
        if not _TYPES[self.type](v):
            raise _param_error(kind, key, f"parameter {key!r} must be of "
                               f"type {self.type!r}, got {v!r}")
        lo, hi = (float(b) for b in self.bounds[1:-1].split(","))
        if self.type in ("int", "number") and not (
                (lo < v if self.bounds[0] == "(" else lo <= v)
                and (v < hi if self.bounds[-1] == ")" else v <= hi)):
            raise _param_error(kind, key, f"parameter {key!r} must lie in "
                               f"{self.bounds}, got {v!r}")


class Stage(NamedTuple):
    """A registry row.  ``apply`` names an impairments function, called
    with the parameters as keywords, or is a function of (envelope,
    parameters).  ``seeded`` says whether given parameters make the stage
    draw random numbers; ``check`` raises InputError.  A ``gated`` stage
    also gets the chain input's on/off gate, as ``gate_mask``."""

    apply: str | Callable
    term: str | None
    params: dict
    seeded: Callable = lambda p: False
    check: Callable | None = None
    gated: bool = False


def _args(spec: StageSpec) -> dict:
    """The stage's parameters in schema order, defaults for absent ones."""
    return {k: par.default if spec.params.get(k) is None else spec.params[k]
            for k, par in STAGES[spec.kind].params.items()}


def apply_stage(env: ComplexEnvelope, spec: StageSpec,
                gate_mask: np.ndarray | None = None) -> ComplexEnvelope:
    """Apply one stage to an envelope, as its registry row describes, after
    ``check_stage`` on the record it sees (held unless ``gate_mask``, the
    chain input's gate, fits it).  A gated stage gets ``gate_mask``, or the
    record's own gate when none is given."""
    check_stage(spec, env.sample_rate, env.duration,
                gate_mask is not None and gate_mask.shape != (len(env),))
    row, p = STAGES[spec.kind], _args(spec)
    if row.gated:
        p["gate_mask"] = _gate_mask(env) if gate_mask is None else gate_mask
    if isinstance(row.apply, str):  # by name: a rebound imp.<name> is used
        return getattr(imp, row.apply)(env, **p)
    return row.apply(env, p)


# ----------------------------------------------------- apply functions

def _gate_mask(env: ComplexEnvelope) -> np.ndarray:
    """The record's on/off gate: a sample of exactly zero amplitude is off."""
    return np.abs(env.samples) > 0.0


def _apply_iq_paths(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    if p["bits"] is not None:
        env = imp.quantize(env, p["bits"], p["full_scale"])
    if p["cutoff_hz"] is not None:
        env = imp.bandwidth_limit(env, p["cutoff_hz"])
    # kept: path_skew rebuilds i + 1j*q, turning a -0.0 real part to +0.0
    if p["tau_i"] != 0.0 or p["tau_q"] != 0.0:
        env = imp.path_skew(env, p["tau_i"], p["tau_q"])
    return env


def _polar_tracks(env: ComplexEnvelope, p: dict):
    """AM and PM tracks of a polar_paths stage, up to the AM trim delay."""
    fs = env.sample_rate
    amp, phase = env.polar.amplitude, env.polar.phase

    if p["am_bits"] is not None:
        fsr = p["am_full_scale"]
        if fsr is None:
            fsr = float(amp.max()) if amp.max() > 0.0 else 1.0
        amp = imp.quantize_track(amp, p["am_bits"], fsr, lo=0.0)
    if p["am_cutoff_hz"] is not None:
        amp = imp.lowpass_track(amp, p["am_cutoff_hz"], fs)

    if p["pm_bits"] is not None:
        # phase accumulator has unbounded range; quantize step only, no clip
        step = 2.0 * math.pi / 2.0 ** p["pm_bits"]
        phase = np.round(phase / step) * step
    if p["pm_cutoff_hz"] is not None:
        phase = imp.lowpass_track(phase, p["pm_cutoff_hz"], fs)
    return amp, delay_real_track(phase, p["tau_p"], fs)


def _join_polar_tracks(env: ComplexEnvelope, amp: np.ndarray,
                       pm: np.ndarray, tau_a: float) -> ComplexEnvelope:
    """Delay the AM track by ``tau_a`` and recombine it with the PM track's
    phasor ``pm``: the one place amplitude and phase are joined."""
    fs = env.sample_rate
    amp = delay_real_track(amp, tau_a, fs)
    # filtering and interpolation can undershoot; amplitude is physical
    amp = np.maximum(amp, 0.0)
    return ComplexEnvelope._fresh(amp * pm, fs)


def _apply_polar_paths(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    amp, phase = _polar_tracks(env, p)
    return _join_polar_tracks(env, amp, phasor(phase),
                              p["tau_a"] + p["comp_delay_s"])


def _apply_rfdac_core(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    check_budget(len(env) * p["hold_factor"], "params.hold_factor",
                 "stage 'rfdac_core' ")
    bits, full_scale, sigma = p["bits"], p["full_scale"], p["mismatch_sigma"]
    rails = [imp.quantize_track(x, bits, full_scale)
             for x in (env.samples.real, env.samples.imag)]
    if sigma > 0.0:
        rng = np.random.default_rng(p["seed"])
        tables = [rng.normal(0.0, sigma, 2**bits + 1) for _ in rails]
        step = 2.0 * full_scale / 2.0**bits
        for k, table in enumerate(tables):
            if p["trim_bits"] > 0:
                # factory trim measures each code and stores a coarse
                # correction
                table -= imp.quantize_track(table, p["trim_bits"], 2.0 * sigma)
            # a level's code, counted from the most negative, picks its gain
            codes = np.round(rails[k] / step).astype(np.int64) + 2**(bits - 1)
            rails[k] = rails[k] * (1.0 + table[codes])
    samples = np.repeat(rails[0] + 1j * rails[1], p["hold_factor"])
    return ComplexEnvelope._fresh(samples, env.sample_rate * p["hold_factor"])


def _apply_harmonic_multiply(env: ComplexEnvelope, p: dict):
    tracks = env.polar
    return _join_polar_tracks(env, tracks.amplitude,
                              phasor(p["factor"] * tracks.phase), 0.0)


def _apply_rise_fall(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    """The AM low-pass of a polar path, and nothing else of it."""
    spec = StageSpec("polar_paths", {"am_cutoff_hz": p["cutoff_hz"]})
    return _apply_polar_paths(env, _args(spec))


def _rms(x: np.ndarray) -> float:
    """Root mean square of ``x``, finite for a finite record wherever it is
    below the largest double.  Where the plain mean of squares overflows,
    it is taken of ``x`` scaled by its largest component instead."""
    with np.errstate(over="ignore"):
        ms = float(np.mean(np.abs(x) ** 2))
    if ms != math.inf:
        return math.sqrt(ms)
    scale = float(max(np.max(np.abs(x.real)), np.max(np.abs(x.imag))))
    if scale == math.inf:  # an infinite sample
        return math.inf
    return scale * math.sqrt(float(np.mean(np.abs(x / scale) ** 2)))


def _apply_spur_inject(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    rms = _rms(env.samples)
    amp = rms * 10.0 ** (p["level_dbc"] / 20.0)
    t = np.arange(len(env)) / env.sample_rate
    spur = amp * phasor(2.0 * math.pi * p["offset_hz"] * t + p["phase"])
    return ComplexEnvelope._fresh(env.samples + spur, env.sample_rate)


def _apply_state_errors(env: ComplexEnvelope, p: dict):
    levels = np.asarray(p["levels"], dtype=np.float64)
    errors = p["errors"]
    if errors is None:
        errors = np.random.default_rng(p["seed"]).normal(
            0.0, p["sigma"], levels.size)
    errors = np.asarray(errors, dtype=np.float64)
    tracks = env.polar
    idx = np.argmin(np.abs(tracks.amplitude[:, None] - levels[None, :]), axis=1)
    amp = tracks.amplitude * (1.0 + errors[idx])
    return _join_polar_tracks(env, amp, phasor(tracks.phase), 0.0)


def _apply_iq_correction(env: ComplexEnvelope, p: dict):
    (a, b), (c, d) = np.asarray(p["matrix"], dtype=np.float64)
    i, q = env.samples.real, env.samples.imag
    out = a * i + b * q + 1j * (c * i + d * q) + p["offset"]
    return ComplexEnvelope._fresh(out, env.sample_rate)


def _apply_gated_offset(env: ComplexEnvelope, p: dict):
    samples = np.where(p["gate_mask"], env.samples,
                       env.samples + p["offset"])
    return ComplexEnvelope._fresh(samples, env.sample_rate)


def _mismatched(p: dict) -> bool:
    return (p.get("mismatch_sigma") or 0.0) > 0.0


def _check_rfdac(p: dict) -> None:
    if _mismatched(p):
        check_budget(2 ** p["bits"] + 1, "params.bits", "stage 'rfdac_core' "
                     "mismatch table (2**bits + 1 gains) ")


def _check_state_errors(p: dict) -> None:
    if p.get("errors") is None and p.get("sigma") is None:
        raise _param_error("state_errors", "sigma", "requires parameter "
                           "'sigma' when 'errors' is absent")
    if p.get("errors") is not None and len(p["errors"]) != len(p["levels"]):
        raise _param_error("state_errors", "errors", "needs as many "
                           "errors as levels")


# ------------------------------------------------------------- registry

_SEED = Param("int", "[0, inf)", default=None)
_BITS = Param("int", "[1, 32]", default=None)
_ZERO = Param("number", default=0.0)
_DELAY = replace(_ZERO, delay=True)
_FULL_SCALE = Param("number", "(0, inf)", default=1.0)
_CUTOFF = Param("number", "(0, inf)", below=lambda fs: fs / 2.0)
_CUTOFF_OR_NONE = replace(_CUTOFF, default=None)

# Every stage kind, described once: how it is applied, its budget term
# (None for a composite stage), its parameter schema and its seed rule.
STAGES: dict[str, Stage] = {
    "amplitude_error": Stage("amplitude_error", "amp",
                             {"eps_a": Param("number", "(-1, inf)")}),
    "static_phase_error": Stage("static_phase_error", "phase",
                                {"phi_e": Param("number")}),
    "phase_noise": Stage("phase_noise", "pn", {
        "rate": Param("number", "[0, inf)"), "seed": _SEED}, lambda p: True),
    "iq_imbalance": Stage("iq_imbalance", "iq_lo",
                          {"gain_mismatch": _ZERO, "quad_skew": _ZERO}),
    "lo_feedthrough": Stage("lo_feedthrough", "iq_lo",
                            {"offset": Param("complex")}),
    "bandwidth_limit": Stage("bandwidth_limit", "bw", {"cutoff_hz": _CUTOFF}),
    "quantize": Stage("quantize", "amp", {
        "bits": Param("int", "[1, 32]"), "full_scale": _FULL_SCALE}),
    "sample_jitter": Stage("sample_jitter", "pn", {
        "sigma_s": Param("number", "[0, inf)", below=lambda fs: 0.1 / fs),
        "seed": _SEED}, lambda p: True),
    "am_ampm": Stage("am_ampm", "amp", {
        "gain_poly": Param("numbers"),
        "phase_poly": Param("numbers", default=(0.0,))}),
    "onoff_leakage": Stage("onoff_leakage", "iq_lo", {
        "off_ratio_db": Param("number", "[0, inf]")}, gated=True),
    "path_skew": Stage("path_skew", "bw", {"tau_i": _DELAY, "tau_q": _DELAY}),
    "iq_paths": Stage(_apply_iq_paths, None, {
        "bits": _BITS, "full_scale": _FULL_SCALE,
        "cutoff_hz": _CUTOFF_OR_NONE, "tau_i": _DELAY, "tau_q": _DELAY}),
    "polar_paths": Stage(_apply_polar_paths, None, {
        "am_bits": _BITS, "am_cutoff_hz": _CUTOFF_OR_NONE, "tau_a": _DELAY,
        "am_full_scale": Param("number", "(0, inf)", default=None),
        "pm_bits": _BITS, "pm_cutoff_hz": _CUTOFF_OR_NONE, "tau_p": _DELAY,
        "comp_delay_s": _DELAY}),
    "rfdac_core": Stage(_apply_rfdac_core, None, {
        "bits": Param("int", "[1, 32]"), "full_scale": _FULL_SCALE,
        "hold_factor": Param("int", "[1, inf)", default=1),
        "mismatch_sigma": Param("number", "[0, inf)", default=0.0),
        "seed": _SEED, "trim_bits": Param("int", "[0, 32]", default=0)},
        _mismatched, _check_rfdac),
    "harmonic_multiply": Stage(_apply_harmonic_multiply, None,
                               {"factor": Param("int", "[2, 4]")}),
    "rise_fall": Stage(_apply_rise_fall, "bw", {"cutoff_hz": _CUTOFF}),
    "spur_inject": Stage(_apply_spur_inject, "iq_lo", {
        # far past any real spur; 10 ** (level_dbc / 20) overflows past 6165
        "offset_hz": Param("number"),
        "level_dbc": Param("number", "(-inf, 300]"), "phase": _ZERO}),
    "state_errors": Stage(_apply_state_errors, "amp", {
        "levels": Param("numbers"), "errors": Param("numbers", default=None),
        "sigma": Param("number", "[0, inf)", default=None), "seed": _SEED},
        lambda p: p.get("errors") is None, _check_state_errors),
    "iq_correction": Stage(_apply_iq_correction, "iq_lo", {
        "matrix": Param("matrix"), "offset": Param("complex", default=0.0)}),
    "gated_offset": Stage(_apply_gated_offset, "iq_lo",
                          {"offset": Param("complex")}, gated=True),
}
STAGES["dpd"] = STAGES["am_ampm"]   # a predistorter is an AM-AM/AM-PM pair


def run_chain(chain: TxChain, env: ComplexEnvelope) -> ComplexEnvelope:
    """Fold the chain's stages over an envelope.

    The commanded on/off gate, ``_gate_mask`` (samples of exactly zero
    amplitude are "off"), is derived once from the chain input, so gated
    stages see the intent even after earlier stages smear the waveform.
    It is derived when the first gated stage is reached, and not at all
    in a chain without one.
    """
    return _fold(chain.stages, env, env)[0]


def _fold(stages, out: ComplexEnvelope, chain_input: ComplexEnvelope,
          mask: np.ndarray | None = None):
    """Apply ``stages`` in order to ``out``, and return the result and
    the chain input's gate: ``mask``, or made from ``chain_input`` at the
    first gated stage when ``mask`` is None (None if there is none)."""
    for spec in stages:
        if mask is None and STAGES[spec.kind].gated:
            mask = _gate_mask(chain_input)
        out = apply_stage(out, spec, mask)
    return out, mask


def run_chain_per_trim(chain: TxChain, env: ComplexEnvelope, comp_delays):
    """Outputs of the chain for each AM trim delay of its polar_paths stage.

    Yields what ``run_chain(with_stage_param(chain, "polar_paths",
    comp_delay_s=d), env)`` returns for each ``d`` in ``comp_delays``, in
    order.  The stages before the first polar_paths stage, its AM and PM
    tracks and the PM phasor run once, before this returns; each output
    then costs only the AM delay, the recombination and the stages after
    it.
    """
    at = _stage_index(chain, "polar_paths")
    chain_input = env
    env, mask = _fold(chain.stages[:at], env, chain_input)
    check_stage(chain.stages[at], env.sample_rate, env.duration)
    p = _args(chain.stages[at])
    amp, phase = _polar_tracks(env, p)
    pm = phasor(phase)

    def outputs():
        nonlocal mask
        for delay in comp_delays:
            check_delay(delay, env.duration, "comp_delay_s",
                        "params.comp_delay_s")
            out = _join_polar_tracks(env, amp, pm, p["tau_a"] + delay)
            out, mask = _fold(chain.stages[at + 1:], out, chain_input, mask)
            yield out

    return outputs()


def _stage_index(chain: TxChain, kind: str) -> int:
    for k, spec in enumerate(chain.stages):
        if spec.kind == kind:
            return k
    raise ValueError(f"chain has no {kind!r} stage")


def with_stage_param(chain: TxChain, kind: str, **updates) -> TxChain:
    """Copy the chain with parameters updated on its first ``kind`` stage."""
    stages = list(chain.stages)
    k = _stage_index(chain, kind)
    stages[k] = StageSpec(kind, {**stages[k].params, **updates})
    return TxChain(chain.architecture, tuple(stages))


def check_stage(spec: StageSpec, fs: float, duration: float,
                held: bool = False, at: str = "") -> None:
    """Raise InputError under ``at`` unless ``spec`` fits the record it sees,
    ``duration`` s at ``fs`` Hz, ``held`` if a hold made it: at ``kind`` for
    a gated stage on a held record, at ``params.<name>`` for a broken
    ``below`` bound or a ``delay`` past a quarter of ``duration``."""
    row = STAGES[spec.kind]
    require(not (row.gated and held), f"{at}kind", f"gated stage "
            f"{spec.kind!r} cannot follow a hold_factor above 1")
    for name, par in row.params.items():
        v, where = spec.params.get(name), f"{at}params.{name}"
        if v is not None and par.below and not v < par.below(fs):
            raise InputError(where, f"must stay below {par.below(fs):g} at "
                             f"the {fs:g} Hz sample rate this stage sees, "
                             f"got {v!r}")
        if v is not None and par.delay:
            check_delay(v, duration, name, where)


def check_record(chain: TxChain | None, n_samples: int, sample_rate: float,
                 key: str) -> int:
    """Check ``chain`` against the record it runs on, ``n_samples`` samples
    at the rate it carries, ``sample_rate`` (``sps / symbol_period`` for a
    shaped record), and return its hold product.  Raises InputError at
    ``key`` unless the held record fits ``MAX_SAMPLES``, and under
    ``chain.stages.<i>.`` where ``check_stage`` refuses a stage at the rate
    it sees."""
    stages = chain.stages if chain is not None else ()
    hold = math.prod(spec.params.get("hold_factor") or 1 for spec in stages)
    check_budget(n_samples * hold, key)
    duration = n_samples / sample_rate
    fs = sample_rate
    for i, spec in enumerate(stages):
        check_stage(spec, fs, duration, fs != sample_rate,
                    f"chain.stages.{i}.")
        fs *= spec.params.get("hold_factor") or 1
    return hold


def synth_comm_waveform(
    bits,
    constellation: mod.Constellation,
    shape: mod.PulseShape,
    symbol_period: float = 1.0,
):
    """Map bits to symbols and pulse-shape them.

    Returns (symbol stream, ideal envelope); empty ``bits`` raise ValueError.
    """
    stream = mod.map_bits(bits, constellation, symbol_period)
    return stream, mod.shape_symbols(stream, shape)


def synth_qubit_pulse(
    envelope_spec: mod.GateEnvelopeSpec,
    sample_rate: float,
    rotation_angle: float | None = None,
    axis_phase: float = 0.0,
    drive_gain: float = 1.0,
) -> ComplexEnvelope:
    """Synthesize the ideal drive pulse of a gate.

    When the envelope spec leaves peak_amplitude unset, the peak is solved so
    a resonant drive of strength ``drive_gain`` rotates by ``rotation_angle``:
    peak = angle / (gain * unit-peak pulse area).  ``axis_phase`` rotates the
    drive quadrature and is folded into the envelope.
    """
    spec = envelope_spec
    if spec.peak_amplitude is None:
        if rotation_angle is None:
            raise ValueError(
                "rotation_angle is needed to solve for the envelope peak"
            )
        if not drive_gain > 0.0:
            raise ValueError("drive_gain must be positive")
        peak = rotation_angle / (drive_gain * mod.gate_envelope_unit_area(spec))
        spec = mod.with_peak(spec, peak)
    env = mod.gate_envelope(spec, sample_rate)
    # kept: a product with 1+0j would change the signs of zero samples
    if axis_phase != 0.0:
        env = imp.static_phase_error(env, axis_phase)
    return env
