"""Constellations, pulse shaping, and gate-envelope generation.

This is the "ideal waveform" layer: everything here is noiseless and
impairment-free.  Communication waveforms come from bit->symbol mapping plus
Nyquist pulse shaping; qubit drives come from parametric gate envelopes
(optionally with a derivative quadrature for leakage suppression).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from sigchain.envelope import ComplexEnvelope, _frozen, check_budget, require

__all__ = [
    "Constellation",
    "SymbolStream",
    "PulseShape",
    "GateEnvelopeSpec",
    "build_constellation",
    "map_bits",
    "symbol_labels",
    "shape_filter",
    "shape_symbols",
    "shaped_samples",
    "symbol_samples",
    "gate_samples",
    "gate_envelope",
    "gate_envelopes",
    "gate_envelope_unit_area",
    "with_peak",
]

_NORM_TOL = 1e-12
# Fewest samples a gate envelope may span
MIN_GATE_SAMPLES = 64
# Most points a constellation may hold; its distinctness check is O(m^2)
MAX_POINTS = 4096
# Most window samples, and most outputs, per matrix product of the polyphase
# shaping kernel: bounds its working memory whatever the stream length, span
# or samples per symbol
_SHAPE_BLOCK = 1 << 15


def _gray_inverse(g: int) -> int:
    n = 0
    while g:
        n ^= g
        g >>= 1
    return n


@dataclass(frozen=True, eq=False)
class Constellation:
    """A labeled set of complex symbol points, normalized to unit RMS.

    ``points[label]`` is the point whose bit pattern is the
    ``bits_per_symbol``-bit big-endian expansion of ``label``.
    """

    points: np.ndarray
    bits_per_symbol: int
    scheme: str

    def __post_init__(self) -> None:
        pts = _frozen(self, "points", np.complex128)
        if pts.ndim != 1 or pts.size != 2**self.bits_per_symbol:
            raise ValueError("points must hold 2**bits_per_symbol entries")
        rms = math.sqrt(float(np.mean(np.abs(pts) ** 2)))
        if abs(rms - 1.0) > _NORM_TOL:
            raise ValueError("constellation must be normalized to unit RMS")

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class SymbolStream:
    """A run of complex symbols at a fixed symbol period."""

    symbols: np.ndarray
    symbol_period: float

    def __post_init__(self) -> None:
        if _frozen(self, "symbols", np.complex128).ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if not self.symbol_period > 0.0:
            raise ValueError("symbol_period must be positive")

    def __len__(self) -> int:
        return self.symbols.size


@dataclass(frozen=True)
class PulseShape:
    """Shaping-filter recipe.

    kind: "rect", "sinc", "raised_cosine", "root_raised_cosine", "gaussian".
    ``rolloff`` is the Nyquist roll-off for the raised-cosine family and the
    bandwidth-time product for "gaussian" (0 selects a default of 0.3).
    """

    kind: str
    rolloff: float = 0.35
    span_symbols: int = 16
    samples_per_symbol: int = 32

    def __post_init__(self) -> None:
        require(self.kind in ("rect", "sinc", "raised_cosine",
                              "root_raised_cosine", "gaussian"),
                "kind", f"unknown pulse shape {self.kind!r}")
        require(0.0 <= self.rolloff <= 1.0, "rolloff", "must lie in [0, 1]")
        require(self.span_symbols >= 4, "span_symbols", "must be at least 4")
        require(self.samples_per_symbol >= 4, "samples_per_symbol",
                "must be at least 4")


@dataclass(frozen=True)
class GateEnvelopeSpec:
    """Parametric qubit drive envelope.

    shape: "rect", "gaussian", or "cosine" over ``duration_s``.  Gaussian
    pulses use sigma = sigma_fraction * duration and are truncated to the
    gate window with the edge value subtracted, so they start and end at
    exactly zero (the quoted peak_amplitude is the pre-subtraction peak).
    When ``drag_enabled``, the imaginary quadrature is
    -drag_coefficient_s * d(amplitude)/dt with the derivative evaluated
    analytically.  ``peak_amplitude=None`` lets the synthesizer solve the
    peak for a requested rotation angle.
    """

    shape: str
    duration_s: float
    peak_amplitude: float | None = 1.0
    sigma_fraction: float = 0.25
    drag_enabled: bool = False
    drag_coefficient_s: float = 0.0

    def __post_init__(self) -> None:
        require(self.shape in ("rect", "gaussian", "cosine"), "shape",
                f"unknown gate envelope shape {self.shape!r}")
        require(self.duration_s > 0.0, "duration_s", "must be positive")
        require(self.peak_amplitude is None or self.peak_amplitude >= 0.0,
                "peak_amplitude", "must be nonnegative")
        require(0.0 < self.sigma_fraction <= 1.0, "sigma_fraction",
                "must lie in (0, 1]")


def _normalize(points: np.ndarray) -> np.ndarray:
    rms = math.sqrt(float(np.mean(np.abs(points) ** 2)))
    if rms == 0.0:
        raise ValueError("degenerate constellation: zero RMS")
    return points / rms


def _check_distinct(points: np.ndarray, scheme: str) -> None:
    for i in range(points.size):
        d = np.abs(points[i + 1 :] - points[i])
        if d.size and d.min() < 1e-9:
            raise ValueError(f"degenerate {scheme} constellation: coincident points")


def _count(n: int, key: str, least: int = 2) -> int:
    """``n`` as an int, a power of two from ``least`` to ``MAX_POINTS``."""
    n = operator.index(n)
    require(n >= least and n & (n - 1) == 0, key,
            f"must be a power of two, at least {least}")
    require(n <= MAX_POINTS, key, f"asks for {n} points, more than "
            f"{MAX_POINTS}")
    return n


def _m_ask(m: int) -> np.ndarray:
    """m unipolar amplitude levels (includes on-off keying)."""
    m = _count(m, "m")
    return np.array([_gray_inverse(label) / (m - 1) for label in range(m)],
                    dtype=np.complex128)


def _m_psk(m: int) -> np.ndarray:
    """m phase states on the unit circle; a quadrature offset for m >= 4
    puts QPSK on the diagonals."""
    m = _count(m, "m")
    offset = np.pi / m if m >= 4 else 0.0
    return np.array([np.exp(1j * (2.0 * np.pi * _gray_inverse(label) / m
                                  + offset)) for label in range(m)])


def _square_qam(m: int) -> np.ndarray:
    """Independent Gray-coded amplitude levels on I (label MSBs) and Q
    (label LSBs); m must be a square power of 4."""
    m = _count(m, "m")
    side = math.isqrt(m)
    require(side * side == m, "m", "must be in {4, 16, 64, 256, ...}")
    half = (m.bit_length() - 1) // 2
    pts = np.empty(m, dtype=np.complex128)
    for label in range(m):
        i_lab, q_lab = label >> half, label & (side - 1)
        i_level = 2 * _gray_inverse(i_lab) - (side - 1)
        q_level = 2 * _gray_inverse(q_lab) - (side - 1)
        pts[label] = i_level + 1j * q_level
    return pts


def _qpsk_sum(ratios: list[float]) -> np.ndarray:
    """Superposition of one QPSK point per entry of ``ratios``, scaled by
    that ratio; the label's MSB pair drives the largest-amplitude path."""
    n_paths, m = len(ratios), 4**len(ratios)
    require(4 <= m <= MAX_POINTS, "ratios", f"asks for 4^{n_paths} points, "
            f"where 4 to {MAX_POINTS} are allowed")
    for i, r in enumerate(ratios):
        require(0.0 < r < math.inf, f"ratios.{i}",
                "qpsk_sum requires positive finite path ratios")
    ratios = sorted((float(r) for r in ratios), reverse=True)
    qpsk = _m_psk(4)
    pts = np.zeros(m, dtype=np.complex128)
    for label in range(m):
        for path in range(n_paths):
            pair = (label >> (2 * (n_paths - 1 - path))) & 0b11
            pts[label] += ratios[path] * qpsk[pair]
    return pts


def _star_qam(rings: int, phases: int) -> np.ndarray:
    """Concentric rings in geometric ratio 2 crossed with equally spaced
    phases; ring bits are the label MSBs."""
    rings, phases = _count(rings, "rings", 1), _count(phases, "phases", 1)
    m = _count(rings * phases, "phases")
    ring_amp = 2.0 ** np.arange(rings)
    offset = np.pi / phases if phases >= 4 else 0.0
    angles = 2.0 * np.pi * np.arange(phases) / phases + offset
    phase_bits = phases.bit_length() - 1
    pts = np.empty(m, dtype=np.complex128)
    for label in range(m):
        r_lab, p_lab = label >> phase_bits, label & (phases - 1)
        r, p = _gray_inverse(r_lab), _gray_inverse(p_lab)
        pts[label] = ring_amp[r] * np.exp(1j * angles[p])
    return pts


# Each constellation scheme's builder.  Its keyword parameters are the
# scheme's keys; it returns the label-indexed points before normalization,
# and raises InputError at a key (at most ``MAX_POINTS`` points, checked
# before any is built).
SCHEMES = {"m_ask": _m_ask, "m_psk": _m_psk, "square_qam": _square_qam,
           "qpsk_sum": _qpsk_sum, "star_qam": _star_qam}


def build_constellation(scheme: str, **params) -> Constellation:
    """Construct the constellation ``SCHEMES[scheme](**params)`` describes,
    Gray-labeled and unit-RMS."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown constellation scheme {scheme!r}")
    pts = _normalize(SCHEMES[scheme](**params))
    _check_distinct(pts, scheme)
    return Constellation(pts, pts.size.bit_length() - 1, scheme)


def map_bits(bits, constellation: Constellation, symbol_period: float = 1.0) -> SymbolStream:
    """Map a bit array (values 0/1, MSB first per symbol) onto symbols."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must contain only 0 and 1")
    b = constellation.bits_per_symbol
    if bits.size % b != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {b}")
    labels = symbol_labels(bits, b)
    return SymbolStream(constellation.points[labels], symbol_period)


def symbol_labels(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """The label of each symbol's bits, ``bits_per_symbol`` of 0/1 values
    in a row, the most significant first: ``map_bits`` sends
    ``points[label]``."""
    weights = 1 << np.arange(bits_per_symbol - 1, -1, -1)
    return bits.reshape(-1, bits_per_symbol) @ weights


@lru_cache(maxsize=64)
def shape_filter(shape: PulseShape) -> np.ndarray:
    """Impulse-response taps for a pulse shape, made once per shape and
    returned read-only.

    Nyquist kinds are evaluated on a grid of span_symbols*samples_per_symbol+1
    points (odd length, symmetric).  Raised-cosine taps are peak-normalized
    (h(0)=1, zeros at nonzero symbol multiples); root-raised-cosine taps are
    unit-energy so a matched-filter cascade restores symbol amplitudes.
    """
    sps = shape.samples_per_symbol
    n_half = shape.span_symbols * sps // 2
    t = np.arange(-n_half, n_half + 1, dtype=np.float64) / sps  # symbol units
    beta = shape.rolloff

    if shape.kind == "rect":
        taps = np.ones(sps, dtype=np.float64)
    elif shape.kind == "sinc":
        taps = np.sinc(t)
    elif shape.kind == "raised_cosine":
        taps = np.sinc(t) * np.cos(np.pi * beta * t)
        denom = 1.0 - (2.0 * beta * t) ** 2
        singular = np.isclose(denom, 0.0, atol=1e-12)
        taps = np.where(singular, 0.0, taps) / np.where(singular, 1.0, denom)
        if beta > 0.0:
            taps[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))
    elif shape.kind == "root_raised_cosine":
        taps = np.empty_like(t)
        for i, ti in enumerate(t):
            if abs(ti) < 1e-12:
                taps[i] = 1.0 - beta + 4.0 * beta / np.pi
            elif beta > 0.0 and abs(abs(ti) - 1.0 / (4.0 * beta)) < 1e-12:
                taps[i] = (beta / math.sqrt(2.0)) * (
                    (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * beta))
                    + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * beta))
                )
            else:
                num = math.sin(np.pi * ti * (1.0 - beta)) + 4.0 * beta * ti * math.cos(
                    np.pi * ti * (1.0 + beta)
                )
                taps[i] = num / (np.pi * ti * (1.0 - (4.0 * beta * ti) ** 2))
        taps /= math.sqrt(float(np.sum(taps**2)))
    elif shape.kind == "gaussian":
        bt = shape.rolloff if shape.rolloff > 0.0 else 0.3
        sigma = math.sqrt(math.log(2.0)) / (2.0 * np.pi * bt)  # symbol units
        taps = np.exp(-(t**2) / (2.0 * sigma**2))
    else:  # pragma: no cover - guarded by PulseShape validation
        raise ValueError(shape.kind)
    taps.flags.writeable = False
    return taps


def shape_symbols(stream: SymbolStream, shape: PulseShape) -> ComplexEnvelope:
    """Upsample symbols and convolve with the shaping filter.

    The output sample rate is samples_per_symbol / symbol_period.  Symbol k's
    decision instant sits at sample k*sps + (ntaps-1)//2 ("full" convolution
    group delay).  The tails are span/2 symbols long at each end; the link
    scorer leaves out the first and last span_symbols symbols.  The
    convolution is polyphase (``_polyphase``), so the zeros between the
    upsampled symbols are never multiplied.
    """
    if len(stream) == 0:
        raise ValueError("cannot shape an empty symbol stream")
    sps = shape.samples_per_symbol
    if shape.kind == "rect":
        # hold each symbol for exactly one period; no spill, zero group delay
        samples = np.repeat(stream.symbols, sps)
    else:
        samples = _polyphase(stream.symbols, shape_filter(shape), sps)
    return ComplexEnvelope._fresh(samples, sps / stream.symbol_period)


def _polyphase(symbols: np.ndarray, taps: np.ndarray, sps: int) -> np.ndarray:
    """``np.convolve(up, taps)``, where ``up`` holds each of ``symbols``
    followed by ``sps - 1`` zeros, without multiplying by those zeros.

    Output row ``r`` (samples ``r*sps`` to ``r*sps + sps - 1``) is the
    window of ``span`` symbols ending at symbol ``r`` times the branch
    matrix: the taps padded to ``span`` rows of ``sps``, the rows reversed.
    Each rail takes its windows a block of rows at a time, copied
    contiguous and reduced by one real matrix product; a block holds at
    most ``_SHAPE_BLOCK`` window samples and as many outputs (or one row),
    so the working memory past the output is bounded whatever the stream
    length.  The sums run in another order than ``np.convolve``'s, so the
    two may differ in the last places."""
    n_out = symbols.size * sps + taps.size - 1
    span = -(-taps.size // sps)
    branches = np.zeros(span * sps)
    branches[:taps.size] = taps
    branches = branches.reshape(span, sps)[::-1].copy()
    n_rows = -(-n_out // sps)
    out = np.empty((n_rows, sps), dtype=np.complex128)
    rail = np.zeros(span - 1 + n_rows)   # zeros before and after the symbols
    windows = np.lib.stride_tricks.sliding_window_view(rail, span)
    rows = max(1, _SHAPE_BLOCK // max(span, sps))
    for part, src in ((out.real, symbols.real), (out.imag, symbols.imag)):
        rail[span - 1:span - 1 + src.size] = src
        for lo in range(0, n_rows, rows):
            block = np.ascontiguousarray(windows[lo:lo + rows])
            part[lo:lo + rows] = block @ branches
    return out.ravel()[:n_out]


def shaped_samples(n_symbols: int, shape: PulseShape) -> int:
    """Length of the record ``shape_symbols`` makes from ``n_symbols``
    symbols: one period per symbol plus the filter's tails."""
    sps = shape.samples_per_symbol
    tails = 0 if shape.kind == "rect" else 2 * (shape.span_symbols * sps // 2)
    return n_symbols * sps + tails


def symbol_samples(symbol_period: float, sample_rate: float,
                   least: int = 1) -> int:
    """Samples per symbol, ``symbol_period * sample_rate``.  Raises
    InputError at ``symbol_period`` unless that is a whole number (within
    1e-6) of at least ``least``."""
    sps = symbol_period * sample_rate
    require(math.isfinite(sps) and abs(sps - round(sps)) <= 1e-6
            and round(sps) >= least, "symbol_period", "symbol_period must "
            f"span an integer number of samples, at least {least} samples "
            f"per symbol, got {sps:g}")
    return round(sps)


def _gaussian_params(spec: GateEnvelopeSpec) -> tuple[float, float]:
    sigma = spec.sigma_fraction * spec.duration_s
    baseline = math.exp(-((spec.duration_s / 2.0) ** 2) / (2.0 * sigma**2))
    return sigma, baseline


def gate_envelope_unit_area(spec: GateEnvelopeSpec) -> float:
    """Analytic area (integral of amplitude over the gate) at unit peak."""
    tau = spec.duration_s
    if spec.shape == "rect":
        return tau
    if spec.shape == "cosine":
        return tau / 2.0
    sigma, baseline = _gaussian_params(spec)
    z = tau / (2.0 * sigma)
    return sigma * math.sqrt(2.0 * np.pi) * math.erf(z / math.sqrt(2.0)) - tau * baseline


def gate_samples(duration_s: float, sample_rate: float,
                 key: str = "duration_s") -> int:
    """Samples a gate of ``duration_s`` spans at ``sample_rate``,
    ``round(duration_s * sample_rate)``.  Raises InputError at ``key`` unless
    that fits ``MAX_SAMPLES`` and is at least ``MIN_GATE_SAMPLES``."""
    check_budget(duration_s * sample_rate, key)
    n = round(duration_s * sample_rate)
    require(n >= MIN_GATE_SAMPLES, key, f"the gate spans {n} samples at "
            f"{sample_rate:g} Hz, fewer than {MIN_GATE_SAMPLES}")
    return n


def gate_envelope(spec: GateEnvelopeSpec, sample_rate: float) -> ComplexEnvelope:
    """Sample a gate envelope at midpoint instants over [0, duration].

    The gate must span ``gate_samples`` samples.  With DRAG enabled the
    imaginary quadrature is the scaled analytic derivative of the real
    amplitude shape.
    """
    if spec.peak_amplitude is None:
        raise ValueError("peak_amplitude unset; synthesize via a gate target")
    return next(gate_envelopes(spec, sample_rate, [spec.peak_amplitude]))


def gate_envelopes(spec: GateEnvelopeSpec, sample_rate: float, peaks):
    """``gate_envelope(with_peak(spec, peak), sample_rate)`` for each peak
    in ``peaks``, in order, as an iterator.

    The parts of the gate that no peak changes (the sample instants, the
    gaussian bell and its baseline, the cosine terms and the DRAG slope) are
    computed once, before this returns; each envelope then costs only the
    products with its peak.
    """
    n = gate_samples(spec.duration_s, sample_rate)
    t = (np.arange(n) + 0.5) / sample_rate
    tc = spec.duration_s / 2.0
    drag = spec.drag_enabled

    if spec.shape == "rect":
        amp = lambda peak: np.full(n, peak)
        deriv = lambda peak: np.zeros(n)
    elif spec.shape == "cosine":
        rise = 1.0 - np.cos(2.0 * np.pi * t / spec.duration_s)
        amp = lambda peak: 0.5 * peak * rise
        if drag:
            sine = np.sin(2.0 * np.pi * t / spec.duration_s)
            deriv = lambda peak: peak * (np.pi / spec.duration_s) * sine
    else:
        sigma, baseline = _gaussian_params(spec)
        bell = np.exp(-((t - tc) ** 2) / (2.0 * sigma**2))
        lifted = bell - baseline
        amp = lambda peak: peak * lifted
        if drag:
            slope = -(t - tc) / sigma**2
            deriv = lambda peak: peak * bell * slope

    def envelope(peak):
        if drag:
            samples = amp(peak) - 1j * spec.drag_coefficient_s * deriv(peak)
        else:
            samples = amp(peak).astype(np.complex128)
        return ComplexEnvelope._fresh(samples, sample_rate)

    return map(envelope, peaks)


def with_peak(spec: GateEnvelopeSpec, peak: float) -> GateEnvelopeSpec:
    return replace(spec, peak_amplitude=peak)

