"""Transmitter architecture models built from shared impairment stages.

A chain is an ordered list of stages applied to a complex envelope.  Four
builders cover the common direct-modulation architectures:

* cartesian: separate I and Q converter paths, quadrature mixing (path
  mismatch, quadrature imbalance, carrier feedthrough)
* polar: amplitude and phase converted separately and recombined (track
  bandwidths, differential delay, gated-carrier leakage)
* rfdac: a single high-rate converter synthesizes the modulated carrier
  (per-code mismatch, zero-order-hold images)
* harmonic: the phase path runs at a sub-harmonic and is multiplied up
  (phase-noise multiplication, keying-state errors, switch dynamics, spurs)

Stages carry only plain parameter values, so chains serialize cleanly and a
calibration can be expressed as a parameter update or an extra stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sigchain import impairments as imp
from sigchain import modulation as mod
from sigchain.envelope import (
    ComplexEnvelope,
    PolarTracks,
    delay_real_track,
    from_polar,
    to_polar,
)

__all__ = [
    "StageSpec",
    "TxChain",
    "apply_stage",
    "run_chain",
    "run_chain_per_trim",
    "cartesian_chain",
    "polar_chain",
    "rfdac_chain",
    "harmonic_chain",
    "with_stage_param",
    "prepend_stage",
    "append_stage",
    "synth_comm_waveform",
    "synth_qubit_pulse",
    "zoh_image_ratio_db",
]

HARMONIC_FACTORS = (2, 3, 4)


@dataclass(frozen=True)
class StageSpec:
    """One chain stage: a kind from the registry plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _STAGES:
            raise ValueError(
                f"unknown stage kind {self.kind!r}; expected one of "
                f"{sorted(_STAGES)}"
            )
        unknown = set(self.params) - _STAGES[self.kind]
        if unknown:
            raise ValueError(
                f"stage {self.kind!r} got unknown parameters {sorted(unknown)}"
            )


@dataclass(frozen=True)
class TxChain:
    """An architecture label plus an ordered stage list."""

    architecture: str
    stages: tuple = ()

    def __post_init__(self) -> None:
        if self.architecture not in ("cartesian", "polar", "rfdac", "harmonic",
                                     "custom"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        stages = tuple(self.stages)
        for st in stages:
            if not isinstance(st, StageSpec):
                raise TypeError("stages must be StageSpec instances")
        object.__setattr__(self, "stages", stages)


# parameter vocabulary per stage kind; apply-time code fills in defaults
_STAGES: dict[str, set] = {
    "amplitude_error": {"eps_a"},
    "static_phase_error": {"phi_e"},
    "phase_noise": {"rate", "seed"},
    "iq_imbalance": {"gain_mismatch", "quad_skew"},
    "lo_feedthrough": {"offset"},
    "bandwidth_limit": {"cutoff_hz"},
    "quantize": {"bits", "full_scale"},
    "sample_jitter": {"sigma_s", "seed"},
    "am_ampm": {"gain_poly", "phase_poly"},
    "onoff_leakage": {"off_ratio_db"},
    "path_skew": {"tau_i", "tau_q"},
    "iq_paths": {"bits", "full_scale", "cutoff_hz", "tau_i", "tau_q"},
    "polar_paths": {
        "am_bits", "am_full_scale", "am_cutoff_hz", "tau_a",
        "pm_bits", "pm_cutoff_hz", "tau_p", "comp_delay_s",
    },
    "rfdac_core": {
        "bits", "full_scale", "hold_factor", "mismatch_sigma", "seed",
        "trim_bits",
    },
    "harmonic_multiply": {"factor"},
    "rise_fall": {"cutoff_hz"},
    "spur_inject": {"offset_hz", "level_dbc", "phase"},
    "state_errors": {"levels", "errors", "sigma", "seed"},
    "iq_correction": {"matrix", "offset"},
    "dpd": {"gain_poly", "phase_poly"},
    "gated_offset": {"offset"},
}


def _require(params: dict, stage: str, *names):
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise ValueError(f"stage {stage!r} requires parameter {name!r}")
        out.append(params[name])
    return out if len(out) > 1 else out[0]


def _gate_mask(env: ComplexEnvelope, context: dict | None) -> np.ndarray:
    """Commanded on/off mask, taken from the chain input when available."""
    if context is not None and "gate_mask" in context:
        mask = context["gate_mask"]
        if mask.shape != (len(env),):
            raise ValueError(
                "gate mask no longer matches the record; a length-changing "
                "stage cannot precede a gated one"
            )
        return mask
    return np.abs(env.samples) > 0.0


def _apply_iq_paths(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    bits = p.get("bits")
    if bits is not None:
        env = imp.quantize(env, bits, p.get("full_scale", 1.0))
    cutoff = p.get("cutoff_hz")
    if cutoff is not None:
        env = imp.bandwidth_limit(env, cutoff)
    tau_i = p.get("tau_i", 0.0)
    tau_q = p.get("tau_q", 0.0)
    if tau_i != 0.0 or tau_q != 0.0:
        env = imp.path_skew(env, tau_i, tau_q)
    return env


def _polar_tracks(env: ComplexEnvelope, p: dict):
    """AM and PM tracks of a polar_paths stage, up to the AM trim delay."""
    fs = env.sample_rate
    tracks = to_polar(env)
    amp = np.array(tracks.amplitude)
    phase = np.array(tracks.phase)

    am_bits = p.get("am_bits")
    if am_bits is not None:
        fsr = p.get("am_full_scale")
        if fsr is None:
            fsr = float(amp.max()) if amp.max() > 0.0 else 1.0
        amp = imp.quantize_track(amp, am_bits, fsr, lo=0.0)
    am_cut = p.get("am_cutoff_hz")
    if am_cut is not None:
        amp = imp.lowpass_track(amp, am_cut, fs)

    pm_bits = p.get("pm_bits")
    if pm_bits is not None:
        # phase accumulator has unbounded range; quantize step only, no clip
        step = 2.0 * math.pi / 2.0 ** pm_bits
        phase = np.round(phase / step) * step
    pm_cut = p.get("pm_cutoff_hz")
    if pm_cut is not None:
        phase = imp.lowpass_track(phase, pm_cut, fs)
    tau_p = p.get("tau_p", 0.0)
    if tau_p != 0.0:
        phase = delay_real_track(phase, tau_p, fs)
    return amp, phase


def _join_polar_tracks(env: ComplexEnvelope, amp: np.ndarray,
                       phase: np.ndarray, tau_a: float) -> ComplexEnvelope:
    """Delay the AM track by ``tau_a`` and recombine it with the PM track."""
    fs = env.sample_rate
    if tau_a != 0.0:
        amp = delay_real_track(amp, tau_a, fs)
    # filtering and interpolation can undershoot; amplitude is physical
    amp = np.maximum(amp, 0.0)
    return from_polar(PolarTracks(amp, phase, fs), t0=env.t0)


def _apply_polar_paths(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    amp, phase = _polar_tracks(env, p)
    return _join_polar_tracks(
        env, amp, phase, p.get("tau_a", 0.0) + p.get("comp_delay_s", 0.0))


def _apply_rfdac_core(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    bits = _require(p, "rfdac_core", "bits")
    full_scale = p.get("full_scale", 1.0)
    sigma = p.get("mismatch_sigma", 0.0)
    trim_bits = p.get("trim_bits", 0)
    hold = int(p.get("hold_factor", 1))
    if hold < 1:
        raise ValueError("hold_factor must be a positive integer")

    step = 2.0 * full_scale / 2.0 ** bits
    half_codes = int(round(2.0 ** bits / 2.0))

    def convert(track: np.ndarray, table: np.ndarray | None) -> np.ndarray:
        codes = np.round(np.clip(track, -full_scale, full_scale) / step)
        codes = np.clip(codes, -half_codes, half_codes).astype(np.int64)
        out = codes * step
        if table is not None:
            out = out * (1.0 + table[codes + half_codes])
        return out

    table_i = table_q = None
    if sigma > 0.0:
        seed = p.get("seed")
        if seed is None:
            raise ValueError("rfdac_core with mismatch_sigma > 0 needs a seed")
        rng = np.random.default_rng(seed)
        n_codes = 2 * half_codes + 1
        table_i = rng.normal(0.0, sigma, n_codes)
        table_q = rng.normal(0.0, sigma, n_codes)
        if trim_bits > 0:
            # factory trim measures each code and stores a coarse correction
            tstep = 4.0 * sigma / 2.0 ** trim_bits
            for table in (table_i, table_q):
                corr = np.clip(np.round(table / tstep) * tstep,
                               -2.0 * sigma, 2.0 * sigma)
                table -= corr

    i = convert(env.samples.real, table_i)
    q = convert(env.samples.imag, table_q)
    samples = i + 1j * q
    if hold > 1:
        samples = np.repeat(samples, hold)
    return ComplexEnvelope(samples, env.sample_rate * hold, env.t0)


def _apply_harmonic_multiply(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    factor = _require(p, "harmonic_multiply", "factor")
    if factor not in HARMONIC_FACTORS:
        raise ValueError(f"harmonic factor must be one of {HARMONIC_FACTORS}")
    tracks = to_polar(env)
    out = tracks.amplitude * np.exp(1j * factor * tracks.phase)
    return ComplexEnvelope(out, env.sample_rate, env.t0)


def _apply_rise_fall(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    cutoff = _require(p, "rise_fall", "cutoff_hz")
    tracks = to_polar(env)
    amp = np.maximum(imp.lowpass_track(tracks.amplitude, cutoff,
                                       env.sample_rate), 0.0)
    out = amp * np.exp(1j * tracks.phase)
    return ComplexEnvelope(out, env.sample_rate, env.t0)


def _apply_spur_inject(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    offset_hz, level_dbc = _require(p, "spur_inject", "offset_hz", "level_dbc")
    phase = p.get("phase", 0.0)
    rms = math.sqrt(float(np.mean(np.abs(env.samples) ** 2)))
    amp = rms * 10.0 ** (level_dbc / 20.0)
    t = np.arange(len(env)) / env.sample_rate
    spur = amp * np.exp(1j * (2.0 * math.pi * offset_hz * t + phase))
    return ComplexEnvelope(env.samples + spur, env.sample_rate, env.t0)


def _apply_state_errors(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    levels = np.asarray(_require(p, "state_errors", "levels"), dtype=np.float64)
    if levels.size == 0:
        raise ValueError("state_errors needs at least one level")
    errors = p.get("errors")
    if errors is None:
        sigma = p.get("sigma")
        seed = p.get("seed")
        if sigma is None or seed is None:
            raise ValueError(
                "state_errors needs either explicit errors or sigma plus seed"
            )
        errors = np.random.default_rng(seed).normal(0.0, sigma, levels.size)
    errors = np.asarray(errors, dtype=np.float64)
    if errors.shape != levels.shape:
        raise ValueError("errors must match levels in length")
    tracks = to_polar(env)
    idx = np.argmin(np.abs(tracks.amplitude[:, None] - levels[None, :]), axis=1)
    amp = tracks.amplitude * (1.0 + errors[idx])
    out = np.maximum(amp, 0.0) * np.exp(1j * tracks.phase)
    return ComplexEnvelope(out, env.sample_rate, env.t0)


def _apply_iq_correction(env: ComplexEnvelope, p: dict) -> ComplexEnvelope:
    matrix = np.asarray(_require(p, "iq_correction", "matrix"), dtype=np.float64)
    if matrix.shape != (2, 2):
        raise ValueError("iq_correction matrix must be 2x2")
    offset = p.get("offset", 0.0)
    i, q = env.samples.real, env.samples.imag
    ip = matrix[0, 0] * i + matrix[0, 1] * q
    qp = matrix[1, 0] * i + matrix[1, 1] * q
    return ComplexEnvelope(ip + 1j * qp + offset, env.sample_rate, env.t0)


def apply_stage(
    env: ComplexEnvelope, spec: StageSpec, context: dict | None = None
) -> ComplexEnvelope:
    """Apply one stage to an envelope.  Stochastic stages need a seed."""
    p = spec.params
    kind = spec.kind
    if kind == "amplitude_error":
        return imp.amplitude_error(env, _require(p, kind, "eps_a"))
    if kind == "static_phase_error":
        return imp.static_phase_error(env, _require(p, kind, "phi_e"))
    if kind == "phase_noise":
        rate, seed = _require(p, kind, "rate", "seed")
        return imp.phase_noise(env, rate, seed)
    if kind == "iq_imbalance":
        return imp.iq_imbalance(env, p.get("gain_mismatch", 0.0),
                                p.get("quad_skew", 0.0))
    if kind == "lo_feedthrough":
        return imp.lo_feedthrough(env, _require(p, kind, "offset"))
    if kind == "bandwidth_limit":
        return imp.bandwidth_limit(env, _require(p, kind, "cutoff_hz"))
    if kind == "quantize":
        bits = _require(p, kind, "bits")
        return imp.quantize(env, bits, p.get("full_scale", 1.0))
    if kind == "sample_jitter":
        sigma_s, seed = _require(p, kind, "sigma_s", "seed")
        return imp.sample_jitter(env, sigma_s, seed)
    if kind == "am_ampm":
        return imp.am_ampm(env, _require(p, kind, "gain_poly"),
                           p.get("phase_poly", [0.0]))
    if kind == "onoff_leakage":
        ratio = _require(p, kind, "off_ratio_db")
        return imp.onoff_leakage(env, ratio, _gate_mask(env, context))
    if kind == "path_skew":
        return imp.path_skew(env, p.get("tau_i", 0.0), p.get("tau_q", 0.0))
    if kind == "iq_paths":
        return _apply_iq_paths(env, p)
    if kind == "polar_paths":
        return _apply_polar_paths(env, p)
    if kind == "rfdac_core":
        return _apply_rfdac_core(env, p)
    if kind == "harmonic_multiply":
        return _apply_harmonic_multiply(env, p)
    if kind == "rise_fall":
        return _apply_rise_fall(env, p)
    if kind == "spur_inject":
        return _apply_spur_inject(env, p)
    if kind == "state_errors":
        return _apply_state_errors(env, p)
    if kind == "iq_correction":
        return _apply_iq_correction(env, p)
    if kind == "dpd":
        return imp.am_ampm(env, _require(p, kind, "gain_poly"),
                           p.get("phase_poly", [0.0]))
    if kind == "gated_offset":
        mask = _gate_mask(env, context)
        offset = _require(p, kind, "offset")
        samples = np.where(mask, env.samples, env.samples + offset)
        return ComplexEnvelope(samples, env.sample_rate, env.t0)
    raise ValueError(f"unknown stage kind {kind!r}")  # unreachable


def run_chain(chain: TxChain, env: ComplexEnvelope) -> ComplexEnvelope:
    """Fold the chain's stages over an envelope.

    The commanded on/off gate is derived once from the chain input (samples of
    exactly zero amplitude are "off"), so gated stages see the intent even
    after earlier stages smear the waveform.
    """
    context = {"gate_mask": np.abs(env.samples) > 0.0}
    out = env
    for spec in chain.stages:
        out = apply_stage(out, spec, context)
    return out


def run_chain_per_trim(chain: TxChain, env: ComplexEnvelope, comp_delays):
    """Outputs of the chain for each AM trim delay of its polar_paths stage.

    Yields what ``run_chain(with_stage_param(chain, "polar_paths",
    comp_delay_s=d), env)`` returns for each ``d`` in ``comp_delays``, in
    order.  The stages before the first polar_paths stage and its track
    preparation run once, before this returns; each output then costs only
    the AM delay, the recombination and the stages after it.
    """
    at = _stage_index(chain, "polar_paths")
    context = {"gate_mask": np.abs(env.samples) > 0.0}
    for spec in chain.stages[:at]:
        env = apply_stage(env, spec, context)
    p = chain.stages[at].params
    amp, phase = _polar_tracks(env, p)

    def outputs():
        for delay in comp_delays:
            out = _join_polar_tracks(env, amp, phase,
                                     p.get("tau_a", 0.0) + delay)
            for spec in chain.stages[at + 1:]:
                out = apply_stage(out, spec, context)
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


def prepend_stage(chain: TxChain, spec: StageSpec) -> TxChain:
    return TxChain(chain.architecture, (spec,) + chain.stages)


def append_stage(chain: TxChain, spec: StageSpec) -> TxChain:
    return TxChain(chain.architecture, chain.stages + (spec,))


def cartesian_chain(
    bits: int | None = None,
    full_scale: float = 1.0,
    cutoff_hz: float | None = None,
    tau_i: float = 0.0,
    tau_q: float = 0.0,
    gain_mismatch: float = 0.0,
    quad_skew: float = 0.0,
    lo_offset: complex = 0.0,
    extra_stages=(),
) -> TxChain:
    """Two-path quadrature transmitter; identity stages are omitted."""
    stages = []
    if bits is not None or cutoff_hz is not None or tau_i != 0.0 or tau_q != 0.0:
        stages.append(StageSpec("iq_paths", {
            "bits": bits, "full_scale": full_scale, "cutoff_hz": cutoff_hz,
            "tau_i": tau_i, "tau_q": tau_q,
        }))
    if gain_mismatch != 0.0 or quad_skew != 0.0:
        stages.append(StageSpec("iq_imbalance", {
            "gain_mismatch": gain_mismatch, "quad_skew": quad_skew,
        }))
    if lo_offset != 0.0:
        stages.append(StageSpec("lo_feedthrough", {"offset": lo_offset}))
    return TxChain("cartesian", tuple(stages) + tuple(extra_stages))


def polar_chain(
    am_bits: int | None = None,
    am_full_scale: float | None = None,
    am_cutoff_hz: float | None = None,
    tau_a: float = 0.0,
    pm_bits: int | None = None,
    pm_cutoff_hz: float | None = None,
    tau_p: float = 0.0,
    comp_delay_s: float = 0.0,
    off_ratio_db: float = math.inf,
    extra_stages=(),
) -> TxChain:
    """Amplitude/phase transmitter.  The path-decomposition stage is always
    present (it defines the architecture and carries the alignment knob)."""
    stages = [StageSpec("polar_paths", {
        "am_bits": am_bits, "am_full_scale": am_full_scale,
        "am_cutoff_hz": am_cutoff_hz, "tau_a": tau_a,
        "pm_bits": pm_bits, "pm_cutoff_hz": pm_cutoff_hz, "tau_p": tau_p,
        "comp_delay_s": comp_delay_s,
    })]
    if not math.isinf(off_ratio_db):
        stages.append(StageSpec("onoff_leakage", {"off_ratio_db": off_ratio_db}))
    return TxChain("polar", tuple(stages) + tuple(extra_stages))


def rfdac_chain(
    bits: int,
    full_scale: float = 1.0,
    hold_factor: int = 1,
    mismatch_sigma: float = 0.0,
    seed: int | None = None,
    trim_bits: int = 0,
    cutoff_hz: float | None = None,
    extra_stages=(),
) -> TxChain:
    """Direct digital synthesis with one high-rate converter."""
    stages = [StageSpec("rfdac_core", {
        "bits": bits, "full_scale": full_scale, "hold_factor": hold_factor,
        "mismatch_sigma": mismatch_sigma, "seed": seed, "trim_bits": trim_bits,
    })]
    if cutoff_hz is not None:
        stages.append(StageSpec("bandwidth_limit", {"cutoff_hz": cutoff_hz}))
    return TxChain("rfdac", tuple(stages) + tuple(extra_stages))


def harmonic_chain(
    factor: int,
    phase_noise_rate: float = 0.0,
    phase_noise_seed: int | None = None,
    rise_fall_cutoff_hz: float | None = None,
    amp_states=None,
    state_gain_errors=None,
    spur_offset_hz: float | None = None,
    spur_level_dbc: float | None = None,
    extra_stages=(),
) -> TxChain:
    """Sub-harmonic phase path multiplied up to the carrier."""
    stages = []
    if phase_noise_rate > 0.0:
        if phase_noise_seed is None:
            raise ValueError("phase noise needs an explicit seed")
        stages.append(StageSpec("phase_noise", {
            "rate": phase_noise_rate, "seed": phase_noise_seed,
        }))
    stages.append(StageSpec("harmonic_multiply", {"factor": factor}))
    if amp_states is not None:
        stages.append(StageSpec("state_errors", {
            "levels": list(amp_states), "errors": list(state_gain_errors),
        }))
    if rise_fall_cutoff_hz is not None:
        stages.append(StageSpec("rise_fall", {"cutoff_hz": rise_fall_cutoff_hz}))
    if spur_offset_hz is not None:
        stages.append(StageSpec("spur_inject", {
            "offset_hz": spur_offset_hz, "level_dbc": spur_level_dbc,
            "phase": 0.0,
        }))
    return TxChain("harmonic", tuple(stages) + tuple(extra_stages))


def synth_comm_waveform(
    bits,
    constellation: mod.Constellation,
    shape: mod.PulseShape,
    chain: TxChain | None = None,
    symbol_period: float = 1.0,
):
    """Map bits to symbols, pulse-shape, and run the transmit chain.

    Returns (symbol stream, output envelope); both are None for empty input.
    """
    bits = np.asarray(bits)
    if bits.size == 0:
        return None, None
    stream = mod.map_bits(bits, constellation, symbol_period)
    env = mod.shape_symbols(stream, shape)
    if chain is not None:
        env = run_chain(chain, env)
    return stream, env


def synth_qubit_pulse(
    chain: TxChain | None,
    envelope_spec: mod.GateEnvelopeSpec,
    sample_rate: float,
    rotation_angle: float | None = None,
    axis_phase: float = 0.0,
    drive_gain: float = 1.0,
) -> ComplexEnvelope:
    """Synthesize a drive pulse and run it through the transmit chain.

    When the envelope spec leaves peak_amplitude unset, the peak is solved so
    a resonant drive of strength ``drive_gain`` rotates by ``rotation_angle``:
    peak = angle / (gain * unit-peak pulse area).  ``axis_phase`` rotates the
    drive quadrature and is folded into the envelope before the chain.
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
    if axis_phase != 0.0:
        env = ComplexEnvelope(env.samples * np.exp(1j * axis_phase),
                              env.sample_rate, env.t0)
    if chain is not None:
        env = run_chain(chain, env)
    return env


def zoh_image_ratio_db(f_tone: float, f_image: float, f_update: float) -> float:
    """Predicted level of a zero-order-hold image relative to the wanted tone.

    A converter updating at ``f_update`` weights its output spectrum by
    sinc(f / f_update); the first image of a tone appears at f_update - f_tone.
    """
    want = np.sinc(f_tone / f_update)
    img = np.sinc(f_image / f_update)
    return float(20.0 * math.log10(abs(img) / abs(want)))
