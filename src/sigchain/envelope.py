"""Sampled complex-envelope records and elementary transforms.

The complex envelope x(t) = I(t) + jQ(t) = A(t) e^{j phi(t)} is the common
currency of this package: modulators produce it, impairment stages transform
it, and both the communication metrics and the qubit propagator consume it.
Records are uniformly sampled baseband arrays; no passband carrier is ever
represented explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "ComplexEnvelope",
    "PolarTracks",
    "Spectrum",
    "DELAY_KERNEL_HALF",
    "to_polar",
    "phasor",
    "fractional_delay",
    "delay_real_track",
]

# Fractional-delay interpolator support, samples each side of the output
# point: 16 taps at integer offsets -7..8, stored as the Farrow table
# ``_FARROW`` built at import.  Samples within this distance of a record end
# are edge-contaminated after a fractional delay and must be excluded from
# metric windows.
DELAY_KERNEL_HALF = 8
# Output samples per pass of the per-sample Farrow bank (``_samples_at``):
# its branch outputs and window gather are this many columns, whatever the
# record length.
_FARROW_BLOCK = 4096
# Each tap is a polynomial of this order in the fraction (fit error 2.5e-12).
_FARROW_ORDER = 12
# The taps reproduce records that are polynomials up to this degree exactly.
_EXACT_DEGREE = 4


class InputError(ValueError):
    """An argument breaks a rule: ``key`` names it (dotted into a record or
    list, such as ``scales.2``) and ``problem`` says what is wrong."""

    def __init__(self, key: str, problem: str) -> None:
        super().__init__(f"{key}: {problem}")
        self.key, self.problem = key, problem


def require(cond: bool, key: str, problem: str) -> None:
    """Raise InputError at ``key`` unless ``cond``."""
    if not cond:
        raise InputError(key, problem)


def check_delay(tau: float, duration: float, name: str = "tau",
                key: str | None = None) -> None:
    """Raise InputError at ``key`` (``name`` unless given) unless the delay
    ``name`` of ``tau`` seconds stays below a quarter of a record
    ``duration`` seconds long."""
    if not abs(tau) < duration / 4.0:
        raise InputError(key or name, f"|{name}| must stay below a quarter "
                         f"of the {duration:g} s record, got {tau!r}")


def _frozen(record, name: str, dtype) -> np.ndarray:
    """Store a read-only ``dtype`` copy of the array field ``name`` in the
    frozen dataclass ``record``, and return it."""
    arr = np.array(getattr(record, name), dtype=dtype, copy=True)
    arr.flags.writeable = False
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True)
class ComplexEnvelope:
    """Uniformly sampled complex baseband record, its first sample at time 0.

    Parameters
    ----------
    samples : ndarray of complex128
        Envelope samples, one-dimensional, at least one sample.
    sample_rate : float
        Sample rate in Hz, strictly positive.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        samples = _frozen(self, "samples", np.complex128)
        if samples.ndim != 1:
            raise ValueError("envelope samples must be one-dimensional")
        if samples.size == 0:
            raise ValueError("envelope must contain at least one sample")
        if not np.isfinite(self.sample_rate) or self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive and finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Record length in seconds (number of samples over sample rate)."""
        return self.samples.size / self.sample_rate

    @cached_property
    def polar(self) -> PolarTracks:
        """``to_polar`` of this record, split on first use and then kept:
        the record is immutable, so every stage that reads it shares one."""
        return to_polar(self)


class PolarTracks(NamedTuple):
    """Amplitude/phase decomposition of a complex envelope, as ``to_polar``
    returns it: a read-only result, both tracks set read-only in place.

    ``phase`` is unwrapped: it carries no 2*pi discontinuities, so filtering
    or delaying it is well posed.  Amplitude is nonnegative by construction.
    """

    amplitude: np.ndarray
    phase: np.ndarray


class Spectrum(NamedTuple):
    """Two-sided power spectral density on a strictly increasing frequency
    grid, as ``metrics.psd_welch`` returns it: a read-only result, both
    arrays set read-only in place."""

    freqs: np.ndarray
    psd: np.ndarray
    resolution_bw: float


def _hold_last(x: np.ndarray, on: np.ndarray) -> np.ndarray:
    """``x`` where ``on``; elsewhere the value ``x`` last had where ``on``,
    or 0 before the first such sample."""
    last = np.where(on, np.arange(x.size), -1)
    np.maximum.accumulate(last, out=last)
    return np.where(last >= 0, x[np.maximum(last, 0)], 0.0)


def to_polar(env: ComplexEnvelope) -> PolarTracks:
    """Decompose into amplitude and unwrapped phase.

    At samples of exactly zero amplitude the phase is undefined; the previous
    valid phase is carried forward (0.0 if the record starts at zero) so the
    track stays continuous through gated-off segments.
    """
    x = env.samples
    amp = np.abs(x)
    raw = _hold_last(np.angle(x), amp > 0.0)
    # np.unwrap(raw), its wrap correction worked out only at the steps that
    # get one, those where abs(step) < pi is false (a nan step included),
    # and summed in place
    correct = np.diff(raw)
    jump = np.flatnonzero(~(np.abs(correct) < np.pi))
    d = correct[jump]
    dmod = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    dmod[(dmod == -np.pi) & (d > 0)] = np.pi   # a step of +pi stays +pi
    correct.fill(0.0)
    correct[jump] = dmod - d
    np.cumsum(correct, out=correct)
    phase = np.empty_like(raw)
    phase[0] = raw[0]
    np.add(raw[1:], correct, out=phase[1:])
    amp.flags.writeable = phase.flags.writeable = False
    return PolarTracks(amp, phase)


def phasor(phase: np.ndarray) -> np.ndarray:
    """The unit phasor ``exp(1j * phase)`` of a phase track."""
    return np.exp(1j * phase)


def _farrow_table() -> np.ndarray:
    """Design the fractional-delay interpolator as a Farrow coefficient table.

    Row p of the returned ``(_FARROW_ORDER + 1, 16)`` matrix multiplies
    ``frac**p``: the taps for a fraction are ``sum_p table[p] * frac**p``.
    Tap j weights the sample at integer offset ``m_j`` (-7..8) from the
    output point.  The design has two steps:

    1. A Blackman-windowed sinc, fitted tap by tap as a polynomial in the
       fraction by least squares at 64 Chebyshev nodes in (0, 1).
    2. The least change of the taps, in tap energy, that makes
       ``sum_j h_j m_j**k == frac**k`` for every ``k <= _EXACT_DEGREE``.
       Records that are polynomials up to that degree then delay exactly,
       so cascaded delays compose instead of accumulating passband droop.
       The constraint is linear in the taps, with a target that is itself a
       polynomial in the fraction, so the correction is one fixed projection
       applied to the table rows: no system is solved per fraction.
    """
    m = np.arange(-DELAY_KERNEL_HALF + 1, DELAY_KERNEL_HALF + 1,
                  dtype=np.float64)
    nodes = 64
    frac = 0.5 + 0.5 * np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    d = m - frac[:, None]
    # Blackman taper with support exactly (-8, 8); endpoints evaluate to 0.
    w = 0.42 + 0.5 * np.cos(np.pi * d / DELAY_KERNEL_HALF) + 0.08 * np.cos(
        2.0 * np.pi * d / DELAY_KERNEL_HALF
    )
    vander = np.vander(frac, _FARROW_ORDER + 1, increasing=True)
    table = np.linalg.lstsq(vander, np.sinc(d) * w, rcond=None)[0]
    # powers[j, k] = m_j**k; row p of table @ powers must equal row p of target
    powers = m[:, None] ** np.arange(_EXACT_DEGREE + 1)
    target = np.eye(_FARROW_ORDER + 1, _EXACT_DEGREE + 1)
    return table - (table @ powers - target) @ np.linalg.pinv(powers)


_FARROW = _farrow_table()
_FARROW.flags.writeable = False


def _horner(coefs, x):
    """``sum_p coefs[p] * x**p`` by Horner's rule; ``coefs`` has >= 2 rows."""
    out = coefs[-1] * x + coefs[-2]
    for c in coefs[-3::-1]:
        out *= x
        out += c
    return out


def _interp_kernels(fracs: np.ndarray) -> np.ndarray:
    """Interpolation taps for fractional offsets, one row per entry.

    16 taps at integer offsets -7..8 around each output point; ``fracs``
    holds fractional sample positions in [0, 1).  Each row is the Farrow
    table evaluated at its fraction.  Over the whole range the taps have an
    L1 norm below 1.93, reproduce polynomials up to degree 4 exactly, and
    delay a unit tone with error below 1e-4 up to 0.2*fs and below 4e-3 at
    0.35*fs (away from the record edges).
    """
    fracs = np.atleast_1d(np.asarray(fracs, dtype=np.float64))
    return _horner(_FARROW, fracs[:, None])


def _samples_at(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Interpolate ``x`` at the positions ``k + offsets[k]``, one per sample.

    The Farrow structure: one 16-tap FIR per row of the coefficient table,
    and each output combines those branch outputs at its own integer
    position by Horner's rule in its own fraction.  Equal to gathering an
    ``_interp_kernels`` row per sample, at a fraction of the cost.  Content
    from beyond the record is zero.

    The bank runs over blocks of ``_FARROW_BLOCK`` output samples: each
    block gathers the 16-sample window at every output's integer position,
    filters it through all 13 branches in one product with the table and
    applies Horner into its slice of the output.  Whole-record arrays are
    only the zero-padded copy of ``x``, the integer and fractional parts of
    ``offsets`` and the output; the rest of the working memory is bounded by
    the block, whatever the record length or the spread of the offsets.
    """
    base = np.floor(offsets).astype(np.int64)
    frac = offsets - base
    pad = DELAY_KERNEL_HALF + int(np.abs(base).max())
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, pad), 2 * DELAY_KERNEL_HALF)
    base += pad - DELAY_KERNEL_HALF + 1    # window row of output k: base[k] + k
    out = np.empty(x.size, dtype=np.result_type(x, frac))
    for lo in range(0, x.size, _FARROW_BLOCK):
        hi = min(lo + _FARROW_BLOCK, x.size)
        rows = windows[np.arange(lo, hi) + base[lo:hi]]
        out[lo:hi] = _horner(_FARROW @ rows.T, frac[lo:hi])
    return out


def _delayed_samples(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Shift a sample array by a (possibly fractional) number of samples.

    Content shifted in from beyond the record is zero.  Integer shifts are
    exact; fractional shifts use one ``_interp_kernels`` row.
    """
    n = x.size
    base = int(np.floor(delay_samples))
    frac = delay_samples - base
    if frac > 1.0 - 1e-9:  # snap float-noise fractions to the next integer
        base += 1
        frac = 0.0
    elif frac < 1e-9:
        frac = 0.0

    # kept, and exact: the Farrow taps at fraction 0 are not a delta
    if frac == 0.0:
        out = np.zeros(n, dtype=x.dtype)
        lo, hi = max(0, base), min(n, n + base)
        if hi > lo:
            out[lo:hi] = x[lo - base : hi - base]
        return out

    h = _interp_kernels(frac)[0].astype(x.dtype)
    full = np.convolve(x, h)
    # full[i] = sum_j h[j] x[i-j]; output k picks i = k - base + (half - 1).
    start = -base + DELAY_KERNEL_HALF - 1
    out = np.zeros(n, dtype=x.dtype)
    lo = max(0, -start)
    hi = min(n, full.size - start)
    if hi > lo:
        out[lo:hi] = full[start + lo : start + hi]
    return out


def fractional_delay(env: ComplexEnvelope, tau: float) -> ComplexEnvelope:
    """Delay the envelope by ``tau`` seconds (negative advances).

    Integer-sample delays are exact shifts; fractional parts are interpolated
    with the 16-tap Farrow interpolator (``_interp_kernels``: a
    Blackman-windowed sinc corrected to reproduce polynomials up to degree 4
    exactly, accurate at every fraction).  The first and last
    ``DELAY_KERNEL_HALF`` samples (plus the integer shift) are
    edge-contaminated and should not enter metric windows.
    """
    check_delay(tau, env.duration)
    out = _delayed_samples(env.samples, tau * env.sample_rate)
    return ComplexEnvelope(out, env.sample_rate)


def delay_real_track(track: np.ndarray, tau: float, sample_rate: float) -> np.ndarray:
    """Fractionally delay a real-valued track (amplitude or phase path)."""
    track = np.asarray(track, dtype=np.float64)
    return _delayed_samples(track, tau * sample_rate)


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
