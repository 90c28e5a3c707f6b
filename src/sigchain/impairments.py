"""Hardware impairment transforms shared by every architecture model.

Each transform maps a ComplexEnvelope to a new ComplexEnvelope, is pure and
deterministic (stochastic ones take an explicit seed), and models one
physical nonideality: gain error, static phase error, oscillator phase noise,
quadrature imbalance, carrier feedthrough, finite analog bandwidth,
quantization, clock jitter, amplifier compression, gated-carrier leakage, and
inter-path timing skew.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import signal

from sigchain.envelope import ComplexEnvelope, _delayed_samples, _samples_at

__all__ = [
    "amplitude_error",
    "static_phase_error",
    "phase_noise",
    "iq_imbalance",
    "iq_imbalance_mu_nu",
    "lo_feedthrough",
    "bandwidth_limit",
    "quantize",
    "quantize_track",
    "sample_jitter",
    "am_ampm",
    "onoff_leakage",
    "path_skew",
]


def _rebuild(env: ComplexEnvelope, samples: np.ndarray) -> ComplexEnvelope:
    return ComplexEnvelope(samples, env.sample_rate, env.t0)


def amplitude_error(env: ComplexEnvelope, eps_a: float) -> ComplexEnvelope:
    """Uniform gain error: x -> (1 + eps_a) x.  Requires eps_a > -1."""
    if eps_a <= -1.0:
        raise ValueError("eps_a must exceed -1 (gain must stay positive)")
    return _rebuild(env, env.samples * (1.0 + eps_a))


def static_phase_error(env: ComplexEnvelope, phi_e: float) -> ComplexEnvelope:
    """Static carrier-phase rotation: x -> x * exp(j phi_e)."""
    return _rebuild(env, env.samples * np.exp(1j * phi_e))


def phase_noise(env: ComplexEnvelope, rate: float, seed: int) -> ComplexEnvelope:
    """Random-walk (Wiener) carrier phase noise.

    Per-sample increments are N(0, rate / sample_rate), so the phase variance
    grows as rate * t.  The walk starts at exactly zero: the first sample is
    unperturbed.
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    n = len(env)
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, math.sqrt(rate / env.sample_rate), n - 1)
    theta = np.concatenate(([0.0], np.cumsum(steps)))
    return _rebuild(env, env.samples * np.exp(1j * theta))


def iq_imbalance_mu_nu(gain_mismatch: float, quad_skew: float) -> tuple[complex, complex]:
    """Closed-form direct/conjugate coefficients of the imbalance map.

    With I' = (1 + g/2) I and Q' = (1 - g/2)(Q cos(phi) + I sin(phi)) the
    output is x' = mu x + nu conj(x); the image-rejection ratio of the
    transmitter is |mu / nu|^2.
    """
    gp = 1.0 + gain_mismatch / 2.0
    gm = 1.0 - gain_mismatch / 2.0
    mu = 0.5 * (gp + gm * np.exp(1j * quad_skew))
    nu = 0.5 * (gp - gm * np.exp(-1j * quad_skew))
    return complex(mu), complex(nu)


def iq_imbalance(
    env: ComplexEnvelope, gain_mismatch: float, quad_skew: float
) -> ComplexEnvelope:
    """Quadrature gain/phase imbalance.

    Gain mismatch is split symmetrically (+g/2 on I, -g/2 on Q) and the
    quadrature skew rotates the Q axis: Q' = (1-g/2)(Q cos + I sin).
    """
    i, q = env.samples.real, env.samples.imag
    ip = (1.0 + gain_mismatch / 2.0) * i
    qp = (1.0 - gain_mismatch / 2.0) * (
        q * math.cos(quad_skew) + i * math.sin(quad_skew)
    )
    return _rebuild(env, ip + 1j * qp)


def lo_feedthrough(env: ComplexEnvelope, offset: complex) -> ComplexEnvelope:
    """Residual carrier: a constant complex offset added to the envelope."""
    return _rebuild(env, env.samples + offset)


def _one_pole_coeffs(cutoff_hz: float, sample_rate: float):
    if not 0.0 < cutoff_hz < sample_rate / 2.0:
        raise ValueError("cutoff must lie in (0, sample_rate/2)")
    # bilinear transform of 1/(1 + s/wa), prewarped so -3 dB lands on cutoff
    wa = 2.0 * sample_rate * math.tan(math.pi * cutoff_hz / sample_rate)
    b0 = wa / (wa + 2.0 * sample_rate)
    a1 = (wa - 2.0 * sample_rate) / (wa + 2.0 * sample_rate)
    return [b0, b0], [1.0, a1]


def bandwidth_limit(env: ComplexEnvelope, cutoff_hz: float) -> ComplexEnvelope:
    """Single-pole low-pass with unity DC gain (finite analog bandwidth)."""
    b, a = _one_pole_coeffs(cutoff_hz, env.sample_rate)
    return _rebuild(env, signal.lfilter(b, a, env.samples))


def lowpass_track(track: np.ndarray, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """One-pole low-pass applied to a real-valued track."""
    b, a = _one_pole_coeffs(cutoff_hz, sample_rate)
    return signal.lfilter(b, a, np.asarray(track, dtype=np.float64))


def quantize_track(
    track: np.ndarray, bits: int, full_scale: float, lo: float | None = None
) -> np.ndarray:
    """Mid-tread uniform quantizer on a real track, clipped to its range.

    The default range is [-full_scale, +full_scale] with step
    2*full_scale/2**bits; pass ``lo=0.0`` for unipolar tracks (amplitude
    paths), which uses step full_scale/2**bits over [0, full_scale].
    """
    if bits < 1 or bits > 32:
        raise ValueError("bits must lie in [1, 32]")
    if not full_scale > 0.0:
        raise ValueError("full_scale must be positive")
    if lo is None:
        lo = -full_scale
    step = (full_scale - lo) / 2.0**bits
    out = np.round(np.asarray(track, dtype=np.float64) / step) * step
    return np.clip(out, lo, full_scale)


def quantize(env: ComplexEnvelope, bits: int, full_scale: float) -> ComplexEnvelope:
    """Quantize I and Q independently (mid-tread, clipped at +-full_scale)."""
    i = quantize_track(env.samples.real, bits, full_scale)
    q = quantize_track(env.samples.imag, bits, full_scale)
    return _rebuild(env, i + 1j * q)


def sample_jitter(env: ComplexEnvelope, sigma_s: float, seed: int) -> ComplexEnvelope:
    """Random sampling-instant error: each output sample is the envelope
    re-interpolated at t_k + delta_k, delta_k ~ N(0, sigma_s), i.i.d.

    The re-interpolation runs the fractional-delay interpolator's Farrow
    table as a filter bank: one 16-tap FIR per polynomial order over the
    record, combined per sample by Horner's rule in that sample's fraction.
    It matches delaying each sample with its own ``_interp_kernels`` row.
    Requires sigma_s < 0.1 / sample_rate so offsets stay deep inside one
    sample, the small-jitter regime this model describes.
    """
    if sigma_s < 0.0:
        raise ValueError("sigma_s must be nonnegative")
    if sigma_s >= 0.1 / env.sample_rate:
        raise ValueError("sigma_s must stay below a tenth of a sample")
    if sigma_s == 0.0:
        return env
    rng = np.random.default_rng(seed)
    d = rng.normal(0.0, sigma_s * env.sample_rate, len(env))
    return _rebuild(env, _samples_at(env.samples, d))


def am_ampm(env: ComplexEnvelope, gain_poly, phase_poly) -> ComplexEnvelope:
    """Memoryless amplifier compression: AM-AM and AM-PM polynomials.

    ``gain_poly`` holds odd-power coefficients [c1, c3, c5, ...] of the
    amplitude transfer A' = c1 A + c3 A^3 + ...; ``phase_poly`` holds
    ascending-power coefficients [p0, p1, ...] of the phase shift in radians
    as a polynomial in A.  A non-monotone amplitude transfer over the signal
    range is allowed but flagged with a warning.
    """
    gain_poly = np.asarray(gain_poly, dtype=np.float64)
    phase_poly = np.asarray(phase_poly, dtype=np.float64)
    if gain_poly.size == 0:
        raise ValueError("gain_poly must contain at least the linear term")
    amp = np.abs(env.samples)
    amax = float(amp.max())
    if amax > 0.0:
        grid = np.linspace(0.0, amax, 64)
        if np.any(np.diff(_odd_poly(grid, gain_poly)) < 0.0):
            warnings.warn("AM-AM transfer is non-monotone over the signal range",
                          stacklevel=2)
    new_amp = _odd_poly(amp, gain_poly)
    phase_shift = _ascending_poly(amp, phase_poly)
    scale = np.where(amp > 0.0, new_amp / np.where(amp > 0.0, amp, 1.0), 0.0)
    return _rebuild(env, env.samples * scale * np.exp(1j * phase_shift))


def _odd_poly(a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for k, c in enumerate(coeffs):
        out += c * a ** (2 * k + 1)
    return out


def _ascending_poly(a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for k, c in enumerate(coeffs):
        out += c * a**k
    return out


def onoff_leakage(env: ComplexEnvelope, off_ratio_db: float, gate_mask) -> ComplexEnvelope:
    """Finite on/off power ratio of a gated carrier.

    ON samples pass unchanged.  OFF samples are replaced by a residual
    carrier: the most recent ON sample's value scaled by 10^(-ratio/20)
    (zero before the first ON segment).  ``off_ratio_db=inf`` gates cleanly.
    """
    mask = np.asarray(gate_mask, dtype=bool)
    if mask.shape != (len(env),):
        raise ValueError("gate_mask length must match the record")
    if off_ratio_db < 0.0:
        raise ValueError("off_ratio_db must be nonnegative")
    leak = 0.0 if math.isinf(off_ratio_db) else 10.0 ** (-off_ratio_db / 20.0)
    x = env.samples
    last_on = np.where(mask, np.arange(len(env)), -1)
    np.maximum.accumulate(last_on, out=last_on)
    template = np.where(last_on >= 0, x[np.maximum(last_on, 0)], 0.0)
    return _rebuild(env, np.where(mask, x, template * leak))


def path_skew(env: ComplexEnvelope, tau_i: float, tau_q: float) -> ComplexEnvelope:
    """Independent timing skew of the I and Q paths (seconds each)."""
    for tau in (tau_i, tau_q):
        if abs(tau) >= env.duration / 4.0:
            raise ValueError("|tau| must be below a quarter of the record duration")
    fs = env.sample_rate
    i = _delayed_samples(env.samples.real.astype(np.float64), tau_i * fs)
    q = _delayed_samples(env.samples.imag.astype(np.float64), tau_q * fs)
    return _rebuild(env, i + 1j * q)
