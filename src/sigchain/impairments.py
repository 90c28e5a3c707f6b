"""Hardware impairment transforms shared by every architecture model.

Each transform maps a ComplexEnvelope to a new ComplexEnvelope, is pure and
deterministic (stochastic ones take an explicit seed), and models one
physical nonideality: gain error, static phase error, oscillator phase noise,
quadrature imbalance, carrier feedthrough, finite analog bandwidth,
quantization, clock jitter, amplifier compression, gated-carrier leakage, and
inter-path timing skew.
"""
from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from sigchain.envelope import (ComplexEnvelope, _hold_last, _samples_at,
                               check_delay, delay_real_track, phasor)

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


def amplitude_error(env: ComplexEnvelope, eps_a: float) -> ComplexEnvelope:
    """Uniform gain error: x -> (1 + eps_a) x.  Requires eps_a > -1."""
    if eps_a <= -1.0:
        raise ValueError("eps_a must exceed -1 (gain must stay positive)")
    return ComplexEnvelope._fresh(env.samples * (1.0 + eps_a), env.sample_rate)


def static_phase_error(env: ComplexEnvelope, phi_e: float) -> ComplexEnvelope:
    """Static carrier-phase rotation: x -> x * exp(j phi_e)."""
    return ComplexEnvelope._fresh(env.samples * np.exp(1j * phi_e),
                                  env.sample_rate)


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
    return ComplexEnvelope._fresh(env.samples * phasor(theta), env.sample_rate)


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
    return ComplexEnvelope._fresh(ip + 1j * qp, env.sample_rate)


def lo_feedthrough(env: ComplexEnvelope, offset: complex) -> ComplexEnvelope:
    """Residual carrier: a constant complex offset added to the envelope."""
    return ComplexEnvelope._fresh(env.samples + offset, env.sample_rate)


def _one_pole_coeffs(cutoff_hz: float, sample_rate: float):
    if not 0.0 < cutoff_hz < sample_rate / 2.0:
        raise ValueError("cutoff must lie in (0, sample_rate/2)")
    # bilinear transform of 1/(1 + s/wa), prewarped so -3 dB lands on cutoff
    wa = 2.0 * sample_rate * math.tan(math.pi * cutoff_hz / sample_rate)
    b0 = wa / (wa + 2.0 * sample_rate)
    a1 = (wa - 2.0 * sample_rate) / (wa + 2.0 * sample_rate)
    return [b0, b0], [1.0, a1]


# Inside one scan block the powers |p|^-k stay at or below 1e150.  Blocks
# are of equal length, at least half the longest such block, so the carry
# one block further back is below 1e-75 relative and is dropped.
_SCAN_RANGE = 150.0 * math.log(10.0)


@functools.lru_cache(maxsize=64)
def _scan_tables(b0: float, p: float, block: int):
    """b0 p^k and p^-k for k < block (read-only arrays), and p^block.

    Powers of |p| come from ``pow`` one by one, so no rounding accumulates
    along the block; a negative p only flips the sign of odd k.
    """
    k = np.arange(block, dtype=np.float64)
    scale = np.power(abs(p), k)
    grow = np.power(abs(p), -k)
    if p < 0.0:
        scale[1::2] *= -1.0
        grow[1::2] *= -1.0
    scale *= b0
    scale.flags.writeable = False
    grow.flags.writeable = False
    return scale, grow, p**block


def _one_pole(x: np.ndarray, b0: float, a1: float) -> np.ndarray:
    """y[n] = b0 (x[n] + x[n-1]) - a1 y[n-1] from a zero state.

    ``x`` is float64 or complex128.  A blocked scan: with p = -a1, each
    block of L samples is y = b0 p^k cumsum((x[n] + x[n-1]) p^-k) plus
    p^(k+1) times the last value of the block before.  The record is cut
    into the fewest equal blocks with |p|^-(L-1) <= 1e150, so the carry
    from two blocks back, below 1e-75 relative, is left out.
    """
    n = x.size
    p = -a1
    if p == 0.0 or n == 0:
        s = x.copy()
        s[1:] += x[:-1]
        return b0 * s
    n_blocks = min(n, max(1, math.ceil(-math.log(abs(p)) * n / _SCAN_RANGE)))
    block = -(-n // n_blocks)
    s = np.zeros(n_blocks * block, dtype=x.dtype)
    s[0] = x[0]
    np.add(x[1:], x[:-1], out=s[1:n])
    scale, grow, carry = _scan_tables(b0, p, block)
    y = s.reshape(n_blocks, block)    # scanned in place
    y *= grow
    # The carry p^(k+1) c, with c = b0 p^(L-1) (sum of the block before),
    # equals b0 p^k (p^L times that sum): one more cumsum term at k = 0.
    y[1:, 0] += carry * y[:-1].sum(axis=1)
    np.cumsum(y, axis=1, out=y)
    y *= scale
    return s[:n]


def bandwidth_limit(env: ComplexEnvelope, cutoff_hz: float) -> ComplexEnvelope:
    """Single-pole low-pass with unity DC gain (finite analog bandwidth)."""
    b, a = _one_pole_coeffs(cutoff_hz, env.sample_rate)
    return ComplexEnvelope._fresh(_one_pole(env.samples, b[0], a[1]),
                                  env.sample_rate)


def lowpass_track(track: np.ndarray, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """One-pole low-pass applied to a real-valued track."""
    b, a = _one_pole_coeffs(cutoff_hz, sample_rate)
    return _one_pole(np.asarray(track, dtype=np.float64), b[0], a[1])


def quantize_track(
    track: np.ndarray, bits: int, full_scale: float, lo: float | None = None
) -> np.ndarray:
    """Mid-tread uniform quantizer on a real track, clipped to its range.

    The default range is [-full_scale, +full_scale] with step
    2*full_scale/2**bits; pass ``lo=0.0`` for unipolar tracks (amplitude
    paths), which uses step full_scale/2**bits over [0, full_scale].  The
    zero level is +0.0 whatever the sign of the input rounded to it.
    """
    if bits < 1 or bits > 32:
        raise ValueError("bits must lie in [1, 32]")
    if not full_scale > 0.0:
        raise ValueError("full_scale must be positive")
    if lo is None:
        lo = -full_scale
    # each bound scaled first: their difference may pass the float range
    step = full_scale / 2.0**bits - lo / 2.0**bits
    out = np.round(np.asarray(track, dtype=np.float64) / step) * step
    return np.clip(out, lo, full_scale) + 0.0


def quantize(env: ComplexEnvelope, bits: int, full_scale: float) -> ComplexEnvelope:
    """Quantize I and Q independently (mid-tread, clipped at +-full_scale)."""
    i = quantize_track(env.samples.real, bits, full_scale)
    q = quantize_track(env.samples.imag, bits, full_scale)
    return ComplexEnvelope._fresh(i + 1j * q, env.sample_rate)


def sample_jitter(env: ComplexEnvelope, sigma_s: float, seed: int) -> ComplexEnvelope:
    """Random sampling-instant error: each output sample is the envelope
    re-interpolated at t_k + delta_k, delta_k ~ N(0, sigma_s), i.i.d.

    The re-interpolation runs the fractional-delay interpolator's Farrow
    table as a filter bank: one 16-tap FIR per polynomial order, combined
    per sample by Horner's rule in that sample's fraction.  It matches
    delaying each sample with its own ``_interp_kernels`` row.  The bank
    runs over fixed blocks of output samples, so its working memory past
    the record and its offsets is bounded by the block, not the record.
    Requires sigma_s < 0.1 / sample_rate so offsets stay deep inside one
    sample, the small-jitter regime this model describes.
    """
    if sigma_s < 0.0:
        raise ValueError("sigma_s must be nonnegative")
    if sigma_s >= 0.1 / env.sample_rate:
        raise ValueError("sigma_s must stay below a tenth of a sample")
    if sigma_s == 0.0:  # kept: the Farrow taps at fraction 0 are no delta
        return env
    rng = np.random.default_rng(seed)
    d = rng.normal(0.0, sigma_s * env.sample_rate, len(env))
    return ComplexEnvelope._fresh(_samples_at(env.samples, d), env.sample_rate)


def am_ampm(env: ComplexEnvelope, gain_poly, phase_poly) -> ComplexEnvelope:
    """Memoryless amplifier compression: AM-AM and AM-PM polynomials.

    ``gain_poly`` holds odd-power coefficients [c1, c3, c5, ...] of the
    amplitude transfer A' = c1 A + c3 A^3 + ...; ``phase_poly`` holds
    ascending-power coefficients [p0, p1, ...] of the phase shift in radians
    as a polynomial in A.  A non-monotone amplitude transfer over the signal
    range is allowed but flagged with a warning; an infinite or nan
    amplitude raises ValueError.
    """
    gain_poly = np.asarray(gain_poly, dtype=np.float64)
    phase_poly = np.asarray(phase_poly, dtype=np.float64)
    if gain_poly.size == 0:
        raise ValueError("gain_poly must contain at least the linear term")
    amp = np.abs(env.samples)
    amax = float(amp.max())     # nan if any amplitude is nan
    if not math.isfinite(amax):
        raise ValueError(f"am_ampm needs finite samples, got amplitude {amax}")
    grid = np.linspace(0.0, amax, 64)
    if np.any(np.diff(_poly(grid, gain_poly, odd=True)) < 0.0):
        warnings.warn("AM-AM transfer is non-monotone over the signal range",
                      stacklevel=2)
    new_amp = _poly(amp, gain_poly, odd=True)
    phase_shift = _poly(amp, phase_poly)
    scale = np.where(amp > 0.0, new_amp / np.where(amp > 0.0, amp, 1.0), 0.0)
    return ComplexEnvelope._fresh(env.samples * scale * phasor(phase_shift),
                                  env.sample_rate)


def _poly(a: np.ndarray, coeffs: np.ndarray, odd: bool = False) -> np.ndarray:
    """``sum_k coeffs[k] a**k``, or ``a**(2k + 1)`` if ``odd``."""
    out = np.zeros_like(a)
    for k, c in enumerate(coeffs):
        out += c * a ** (2 * k + 1 if odd else k)
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
    return ComplexEnvelope._fresh(
        np.where(mask, x, _hold_last(x, mask) * leak), env.sample_rate)


def path_skew(env: ComplexEnvelope, tau_i: float, tau_q: float) -> ComplexEnvelope:
    """Independent timing skew of the I and Q paths (seconds each)."""
    check_delay(tau_i, env.duration, "tau_i")
    check_delay(tau_q, env.duration, "tau_q")
    fs = env.sample_rate
    i = delay_real_track(env.samples.real, tau_i, fs)
    q = delay_real_track(env.samples.imag, tau_q, fs)
    return ComplexEnvelope._fresh(i + 1j * q, fs)
