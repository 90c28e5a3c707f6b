"""End-to-end calibration routines.

Each routine probes a transmit chain with a known stimulus, measures the
distortion it cares about, and returns a new chain with a correction stage
attached.  All of them are meant to be idempotent: running a calibration on
an already-corrected chain should produce a correction close to identity.
Routines raise CalibrationError instead of returning a bad correction when
the measurement says the model does not apply.  Each routine is its own
input contract: it checks its rules first and raises InputError, at the
argument's key, before any compute.  ``ROUTINES`` maps each routine name to
the adapter that turns its result into a report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain.chains import (InputError, StageSpec, TxChain, _finite,
                             check_budget, check_gate, check_record, require,
                             run_chain, run_chain_per_trim,
                             synth_comm_waveform, with_stage_param)
from sigchain.envelope import ComplexEnvelope, check_delay, fractional_delay
from sigchain.metrics import LinkScorer, check_scored

__all__ = [
    "CalibrationError",
    "InputError",
    "ROUTINES",
    "AmplitudeLut",
    "rabi_amplitude_cal",
    "iq_cal",
    "polar_delay_align",
    "dpd_fit",
    "leakage_cancel",
]


# The alignment probe's pulse spans this many symbols; its scorer leaves as
# many out at each end of the record.
ALIGN_SPAN_SYMBOLS = 8


class CalibrationError(RuntimeError):
    """A calibration probe measured something its model cannot correct."""


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Nondecreasing least-squares fit by pooling adjacent violators."""
    vals: list[float] = []
    counts: list[int] = []
    for v in np.asarray(y, dtype=np.float64):
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, n2 = vals.pop(), counts.pop()
            v1, n1 = vals.pop(), counts.pop()
            vals.append((v1 * n1 + v2 * n2) / (n1 + n2))
            counts.append(n1 + n2)
    out = np.empty(len(y))
    at = 0
    for v, n in zip(vals, counts):
        out[at:at + n] = v
        at += n
    return out


def _parabola_vertex(x: np.ndarray, y: np.ndarray) -> float:
    """Abscissa of the parabola through three points."""
    d21 = (y[1] - y[0]) / (x[1] - x[0])
    d32 = (y[2] - y[1]) / (x[2] - x[1])
    curv = (d32 - d21) / (x[2] - x[0])
    if curv >= 0.0:
        raise CalibrationError("population peak is not locally concave")
    return 0.5 * (x[0] + x[1] - d21 / curv)


@dataclass(frozen=True)
class AmplitudeLut:
    """Drive code versus measured rotation angle, monotone by construction.

    The top knot is the interpolated code for an exact half-turn, so
    ``code_for_angle(pi)`` never extrapolates.  ``residual`` is the largest
    distance, in radians, between the measured angles and their monotone fit.
    """

    codes: np.ndarray
    theta: np.ndarray
    theta_raw: np.ndarray
    residual: float

    @property
    def pi_code(self) -> float:
        return float(self.codes[-1])

    def code_for_angle(self, angle: float) -> float:
        if not self.theta[0] <= angle <= self.theta[-1] + 1e-12:
            raise CalibrationError(
                f"angle {angle:.4f} is outside the calibrated range")
        return float(np.interp(angle, self.theta, self.codes))


def rabi_amplitude_cal(model: qb.QubitModel, envelope: mod.GateEnvelopeSpec,
                       sample_rate: float, scales: list,
                       chain: TxChain | None = None,
                       residual_tol: float = 0.15,
                       saturation: float = 0.995) -> AmplitudeLut:
    """Map drive amplitude codes to rotation angles from a population sweep.

    Sweeps the envelope peak through ``scales``, reads the excited-state
    population, and inverts it on the first half turn.  The population peak
    is refined with a three-point parabola so the half-turn code does not
    inherit the flat top of the sine.  A nonmonotone angle map beyond
    ``residual_tol`` radians means the inversion is untrustworthy.
    """
    n_gate = check_gate(envelope, sample_rate, "envelope.duration_s")
    check_record(chain, n_gate, sample_rate, "envelope.duration_s")
    for k, v in enumerate(scales):
        require(_finite(v), f"scales.{k}",
                f"expected finite number, got {v!r}")
        require(v >= 0.0, f"scales.{k}", f"a scale is a gate peak and must "
                f"be nonnegative, got {v!r}")
    require(len(scales) >= 5, "scales", "need at least 5 sweep points")
    require(all(lo < hi for lo, hi in zip(scales, scales[1:])), "scales",
            "must be strictly increasing")
    require(residual_tol >= 0.0, "residual_tol", "must be nonnegative")
    require(0.0 < saturation <= 1.0, "saturation", "must lie in (0, 1]")
    codes = np.asarray(scales, dtype=np.float64)
    p1 = qb.rabi_protocol(model, envelope, sample_rate, codes,
                          chain=chain)

    peak = int(np.argmax(p1))
    if p1[peak] < saturation:
        raise CalibrationError(
            "sweep never reaches a half turn; extend the amplitude range")
    if peak == 0 or peak == codes.size - 1:
        raise CalibrationError(
            "population peak sits on the sweep edge; extend the range")
    pi_code = _parabola_vertex(codes[peak - 1:peak + 2], p1[peak - 1:peak + 2])

    keep = codes < pi_code
    theta_raw = 2.0 * np.arcsin(np.sqrt(np.clip(p1[keep], 0.0, 1.0)))
    theta_fit = _isotonic(theta_raw)
    residual = float(np.max(np.abs(theta_raw - theta_fit), initial=0.0))
    if residual > residual_tol:
        raise CalibrationError(
            f"rotation map deviates {residual:.3f} rad from monotone; "
            "the drive is too distorted for a single-valued inversion")

    lut_codes = np.append(codes[keep], pi_code)
    lut_theta = np.append(np.minimum(theta_fit, math.pi), math.pi)
    return AmplitudeLut(lut_codes, lut_theta, theta_raw, residual)


def iq_tone_bin(sample_rate: float, n_samples: int,
                tone_freq: float | None = None) -> int:
    """FFT bin of the ``iq_cal`` probe tone: the bin nearest ``tone_freq``,
    or ``n_samples // 8`` when no tone is given.  Raises InputError unless
    the bin lies strictly inside (0, n_samples // 2)."""
    if tone_freq is None:
        k = n_samples // 8
    else:
        pos = tone_freq * n_samples / sample_rate
        k = int(round(pos)) if math.isfinite(pos) else 0
    require(0 < k < n_samples // 2, "tone_freq", "tone must land strictly "
            "inside the first Nyquist zone on an analysis bin")
    return k


def iq_cal(chain: TxChain, sample_rate: float, tone_freq: float | None = None,
           n_samples: int = 4096) -> TxChain:
    """Prepend the exact inverse of the chain's quadrature error.

    A single complex tone separates the direct gain, the image gain, and
    the static offset into three FFT bins.  The correction solves the
    2x2 mixing exactly, so a second pass measures identity.
    """
    require(chain is not None, "chain", "iq_cal needs a chain")
    require(n_samples >= 8, "n_samples", "must be at least 8")
    hold = check_record(chain, n_samples, sample_rate, "n_samples")
    require(hold == 1, "chain", "iq_cal needs a chain that keeps the record "
            "length, with no hold_factor above 1")
    k = iq_tone_bin(sample_rate, n_samples, tone_freq)
    t = np.arange(n_samples)
    probe = ComplexEnvelope(np.exp(2j * np.pi * k * t / n_samples),
                            sample_rate)
    spec = np.fft.fft(run_chain(chain, probe).samples)
    mu = spec[k] / n_samples
    nu = spec[-k] / n_samples
    offs = spec[0] / n_samples
    det = abs(mu) ** 2 - abs(nu) ** 2
    if abs(det) < 1e-12:
        raise CalibrationError("image is as strong as the carrier; "
                               "quadrature mixing is not invertible")
    a = np.conj(mu) / det
    b = -nu / det
    d = (-offs * np.conj(mu) + nu * np.conj(offs)) / det
    matrix = [[float(np.real(a + b)), float(-np.imag(a - b))],
              [float(np.imag(a + b)), float(np.real(a - b))]]
    stage = StageSpec("iq_correction", {"matrix": matrix, "offset": complex(d)})
    return replace(chain, stages=(stage, *chain.stages))


def align_probe_shape(symbol_period: float,
                      sample_rate: float) -> mod.PulseShape:
    """Pulse of the ``polar_delay_align`` probe.  Raises InputError unless
    ``symbol_period`` spans a whole number of samples (within 1e-6), at
    least 4."""
    return mod.PulseShape("raised_cosine", span_symbols=ALIGN_SPAN_SYMBOLS,
                          samples_per_symbol=mod.symbol_samples(
                              symbol_period, sample_rate, 4))


def align_candidates(window_s: float, step_s: float,
                     duration: float) -> np.ndarray:
    """Trim delays ``polar_delay_align`` scores, from ``-window_s`` to
    ``window_s`` in steps of ``step_s`` (both positive).  Each is removed
    from a probe record ``duration`` seconds long as its ``comp_delay_s``,
    so raises InputError at ``window_s`` unless every candidate passes
    ``check_delay``."""
    candidates = np.arange(-window_s, window_s + 0.5 * step_s, step_s)
    check_delay(float(np.abs(candidates).max()), duration, "comp_delay_s",
                "window_s")
    return candidates


def polar_delay_align(chain: TxChain, sample_rate: float,
                      symbol_period: float, window_s: float, step_s: float,
                      n_symbols: int = 96, seed: int = 7):
    """Grid-search the amplitude-path trim delay that minimizes waveform EVM.

    Returns (aligned_chain, best_delay_s, evm_per_candidate).  Each trial
    removes the candidate delay from the whole record before scoring, the
    way receiver timing recovery absorbs a bulk delay, so the score tracks
    the residual skew between the paths rather than the common shift.  The
    best candidate landing on either end of the grid raises, since the
    true optimum may sit outside the window.  ``n_symbols`` must leave
    symbols to score past the probe's edges (``metrics.check_scored``).
    """
    require(chain is not None, "chain", "polar_delay_align needs a chain")
    require(any(st.kind == "polar_paths" for st in chain.stages),
            "chain.stages", "polar_delay_align needs a 'polar_paths' stage")
    require(window_s > 0.0, "window_s", "must be positive")
    require(step_s > 0.0, "step_s", "must be positive")
    shape = align_probe_shape(symbol_period, sample_rate)
    check_scored(n_symbols, ALIGN_SPAN_SYMBOLS, "n_symbols")
    require(seed >= 0, "seed", "must be nonnegative")
    # the probe record at its own rate
    rate = shape.samples_per_symbol / symbol_period
    n_probe = mod.shaped_samples(n_symbols, shape)
    hold = check_record(chain, n_probe, sample_rate, "n_symbols", rate)
    # the chain runs once per candidate: count them as np.arange will
    span = (window_s + 0.5 * step_s + window_s) / step_s
    n_cand = math.ceil(span) if math.isfinite(span) else span
    check_budget(n_cand * n_probe * hold, "step_s", f"a grid of {n_cand} "
                 f"trim delay candidates over the {n_probe}-sample probe ")
    candidates = align_candidates(window_s, step_s, n_probe / rate)

    const = mod.build_constellation("m_psk", m=4)
    bits = np.random.default_rng(seed).integers(
        0, 2, size=n_symbols * const.bits_per_symbol)

    stream, probe = synth_comm_waveform(bits, const, shape,
                                        symbol_period=symbol_period)
    outputs = run_chain_per_trim(chain, probe, candidates.tolist())
    scorer = LinkScorer(stream, const, shape)
    scores = np.empty(candidates.size)
    for idx, (cand, env) in enumerate(zip(candidates, outputs)):
        scores[idx] = scorer(fractional_delay(env, -float(cand)))[2].evm_rms
    best = int(np.argmin(scores))
    if best in (0, candidates.size - 1):
        raise CalibrationError("best trim delay sits on the search boundary; "
                               "widen the window")
    best_delay = float(candidates[best])
    aligned = with_stage_param(chain, "polar_paths", comp_delay_s=best_delay)
    return aligned, best_delay, scores


def dpd_fit(chain: TxChain, sample_rate: float, order: int = 5,
            n_levels: int = 32, full_scale: float = 1.0,
            hold_samples: int = 64):
    """Fit an odd-polynomial predistorter from an amplitude staircase.

    Returns (corrected_chain, gain_poly, phase_poly).  The staircase walks
    ``n_levels`` amplitudes up to full_scale, each held long enough to
    settle; the settled output versus input gives the AM-AM and AM-PM
    curves.  The forward curve is fit first and then inverted by Newton
    iteration exactly on the drive range the predistorter will see, so
    the fit never extrapolates.  A nonmonotone AM-AM curve, or a forward
    fit whose slope collapses inside the range, raises: no static
    predistorter can undo a fold, and full_scale outputs the chain cannot
    reach have no preimage.
    """
    require(chain is not None, "chain", "dpd_fit needs a chain")
    require(order in (3, 5, 7), "order", "must be 3, 5 or 7")
    require(n_levels >= order + 2, "n_levels",
            f"must be at least order + 2 = {order + 2}")
    require(full_scale > 0.0, "full_scale", "must be positive")
    check_budget(hold_samples, "hold_samples", "one level ")
    hold = check_record(chain, n_levels * hold_samples, sample_rate,
                        "n_levels")
    require(hold_samples * hold >= 4, "hold_samples", "must hold each level "
            "for at least 4 samples after the chain's hold")
    levels = full_scale * np.arange(1, n_levels + 1) / n_levels
    probe = ComplexEnvelope(
        np.repeat(levels, hold_samples).astype(np.complex128), sample_rate)
    # the rules leave each level held for at least 4 output samples
    steps = run_chain(chain, probe).samples.reshape(n_levels, -1)
    settled = steps[:, 3 * steps.shape[1] // 4:].mean(axis=1)
    amp_out = np.abs(settled)
    phase_out = np.unwrap(np.angle(settled))
    if np.any(np.diff(amp_out) <= 0.0):
        raise CalibrationError("amplitude response folds over; static "
                               "predistortion cannot invert it")

    powers = np.arange(1, order + 1, 2)
    fwd, *_ = np.linalg.lstsq(levels[:, None] ** powers, amp_out, rcond=None)
    drive = levels.copy()
    for _ in range(60):
        val = (drive[:, None] ** powers) @ fwd
        slope = (drive[:, None] ** (powers - 1)) @ (fwd * powers)
        if np.any(slope <= 0.0):
            raise CalibrationError("amplitude response folds over; static "
                                   "predistortion cannot invert it")
        drive = drive - (val - levels) / slope
    if np.max(np.abs((drive[:, None] ** powers) @ fwd - levels)) > \
            1e-6 * full_scale:
        raise CalibrationError("forward amplitude fit has no preimage for "
                               "the requested range")
    gain_poly, *_ = np.linalg.lstsq(levels[:, None] ** powers, drive,
                                    rcond=None)

    all_powers = np.arange(1, order + 1)
    phase_fwd, *_ = np.linalg.lstsq(levels[:, None] ** all_powers,
                                    phase_out, rcond=None)
    phase_at_drive = (drive[:, None] ** all_powers) @ phase_fwd
    phase_fit, *_ = np.linalg.lstsq(levels[:, None] ** all_powers,
                                    -phase_at_drive, rcond=None)
    phase_poly = np.concatenate([[0.0], phase_fit])
    stage = StageSpec("dpd", {"gain_poly": [float(c) for c in gain_poly],
                              "phase_poly": [float(c) for c in phase_poly]})
    return replace(chain, stages=(stage, *chain.stages)), gain_poly, phase_poly


def leakage_cancel(chain: TxChain, sample_rate: float,
                   on_samples: int = 256, off_samples: int = 256,
                   guard_samples: int = 8):
    """Append a gated offset that nulls the static level in gate gaps.

    Returns (corrected_chain, measured_off_level).  The probe is a unit
    burst followed by silence; the mean output over the silent window
    (past a settling guard) becomes the correction.  An off level that
    wobbles by more than 10 percent of itself is not static, so it raises
    rather than baking a wrong constant into the chain.
    """
    require(chain is not None, "chain", "leakage_cancel needs a chain")
    require(on_samples >= 1, "on_samples", "must be at least 1")
    require(guard_samples >= 0, "guard_samples", "must be nonnegative")
    require(off_samples > guard_samples + 8, "off_samples", "must exceed "
            "guard_samples + 8: the off window must outlast the guard")
    check_budget(off_samples, "off_samples", "the off window ")
    check_record(chain, on_samples + off_samples, sample_rate, "on_samples")
    probe = ComplexEnvelope(
        np.concatenate([np.ones(on_samples), np.zeros(off_samples)])
        .astype(np.complex128), sample_rate)
    out = run_chain(chain, probe)
    ratio = len(out) / len(probe)
    start = int(round((on_samples + guard_samples) * ratio))
    tail = out.samples[start:]
    level = complex(tail.mean())
    wobble = float(np.std(tail))
    on_rms = float(np.sqrt(np.mean(np.abs(
        out.samples[:int(round(on_samples * ratio))]) ** 2)))
    floor = max(abs(level), 1e-9 * max(on_rms, 1e-30))
    if wobble > 0.1 * floor:
        raise CalibrationError("off-state level is not static; a constant "
                               "offset cannot cancel it")
    stage = StageSpec("gated_offset", {"offset": -level})
    return replace(chain, stages=(*chain.stages, stage)), level


# --------------------------------------------------------------- registry

# Each routine's report adapter: the routine's result to (corrected chain or
# None, report fields).  A routine checks its own input contract first, so
# this holds only what its signature does not say.  Callers look the routine
# itself up by name, so a rebound ``calibration.<name>`` is the one called.
ROUTINES: dict[str, Callable] = {
    "rabi_amplitude_cal": lambda lut: (
        None, {**vars(lut), "pi_code": lut.pi_code}),
    "iq_cal": lambda chain: (chain, dict(chain.stages[0].params)),
    "polar_delay_align": lambda out: (
        out[0], {"best_delay_s": out[1], "evm_per_candidate": out[2]}),
    "dpd_fit": lambda out: (
        out[0], {"gain_poly": out[1], "phase_poly": out[2]}),
    "leakage_cancel": lambda out: (out[0], {"off_level": out[1]}),
}
