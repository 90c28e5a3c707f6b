"""Link-quality metrics: symbol decisions, EVM, error budgets, eye diagrams
and spectra.

Decision sampling is deliberately dumb: fixed instants from the pulse shape's
group delay, an optional blind integer timing search, and no carrier, phase,
or scale recovery.  What the hardware distorts, the metric reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from sigchain import modulation as mod
from sigchain.envelope import ComplexEnvelope, Spectrum, _periodic_hann
from sigchain.chains import STAGES, TxChain, run_chain

__all__ = [
    "DemodResult",
    "EvmReport",
    "BudgetReport",
    "EyeReport",
    "LinkScorer",
    "demodulate",
    "evm",
    "evm_budget",
    "eye_metrics",
    "psd_welch",
    "image_rejection",
]


@dataclass(frozen=True, eq=False)
class DemodResult:
    """Decision-point samples of one record and the integer timing offset
    they were taken at."""

    rx_symbols: np.ndarray
    timing_offset: int


@dataclass(frozen=True)
class EvmReport:
    evm_rms: float
    evm_db: float
    num_symbols: int


@dataclass(frozen=True)
class BudgetReport:
    """Per-mechanism EVM terms and their root-sum-square versus the measured
    total for the full chain."""

    terms: dict
    total_rss: float
    total_measured: float

    @property
    def rss_deviation(self) -> float:
        """Relative deviation of the RSS prediction from the measured total."""
        if self.total_measured == 0.0:
            return 0.0 if self.total_rss == 0.0 else math.inf
        return abs(self.total_rss - self.total_measured) / self.total_measured


@dataclass(frozen=True, eq=False)
class EyeReport:
    eye_height: float
    eye_width_fraction: float
    sample_instant_fraction: float
    levels: np.ndarray


def _decision_grid(shape: mod.PulseShape, sps_out: int,
                   n_total: int) -> tuple[int, int]:
    """First decision index and inferred symbol count on the output grid."""
    if shape.kind == "rect":
        first = sps_out // 2
        n_sym = n_total // sps_out
    else:
        # the tails are 2 * half samples long, as shaped_samples counts them
        half = shape.span_symbols * sps_out // 2
        first = 2 * half if shape.kind == "root_raised_cosine" else half
        n_sym = (n_total - 2 * half) // sps_out
    return first, n_sym


# Window samples gathered per matrix-vector product of the decimating matched
# filter: bounds its working memory whatever the record length
_DEMOD_BLOCK = 1 << 16


def _convolve_at(x: np.ndarray, taps: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """``np.convolve(x, taps)[idx]`` for complex ``x`` and real ``taps``,
    computing only the outputs at ``idx`` (each in ``[0, x.size +
    taps.size - 1)``).

    Output n is the window ``x[n - taps.size + 1:n + 1]``, zero outside the
    record, dotted with the reversed taps.  Each rail copies the span of
    ``x`` the windows cover into one zero-padded buffer, and its windows are
    gathered a block at a time and reduced by one real matrix-vector
    product."""
    n_taps = taps.size
    starts = idx - (n_taps - 1)
    lo, hi = int(starts.min()), int(starts.max()) + n_taps
    a, b = max(lo, 0), min(hi, x.size)
    rev = taps[::-1].copy()
    # BLAS may round a row by its place in a block and by the block's size
    # (its kernels reduce rows in groups, the remainder apart): every block
    # has the same size, a multiple of 16 rows, so an output's bytes do not
    # depend on which other outputs one call asks for
    rows = 16 * max(1, _DEMOD_BLOCK // (16 * n_taps))
    at = np.pad(starts - lo, (0, -idx.size % rows), mode="edge")
    out = np.empty(idx.size, dtype=np.complex128)
    rail = np.zeros(hi - lo)
    windows = np.lib.stride_tricks.sliding_window_view(rail, n_taps)
    for part, src in ((out.real, x.real), (out.imag, x.imag)):
        rail[a - lo:b - lo] = src[a:b]
        for k in range(0, idx.size, rows):
            part[k:k + rows] = (windows[at[k:k + rows]] @ rev)[:idx.size - k]
    return out


def _matched_taps(shape: mod.PulseShape, sps: int) -> np.ndarray:
    """Root-raised-cosine receive taps at ``sps`` samples per symbol, scaled
    so the transmit-receive cascade has unit gain on a record whose rate
    differs from the pulse's by a ``hold_factor``."""
    taps = mod.shape_filter(replace(shape, samples_per_symbol=sps))
    return taps * math.sqrt(shape.samples_per_symbol / sps)


def check_scored(n_symbols: int, span: int, key: str) -> None:
    """Raise InputError at ``key`` unless some of ``n_symbols`` symbols are
    left to score once the first and last ``span`` are cut off."""
    mod.require(2 * span < n_symbols, key, "leaves no symbol to score: the "
                f"first and last {span} of {n_symbols} symbols are not "
                "scored")


def demodulate(
    env: ComplexEnvelope,
    constellation: mod.Constellation,
    shape: mod.PulseShape,
    symbol_period: float,
    n_symbols: int | None = None,
    timing_search: bool = False,
    skip_edge_symbols: int = 0,
) -> DemodResult:
    """Recover decision-point symbols from a waveform.

    Root-raised-cosine shapes get the matched receive filter, which is
    evaluated only at the decision instants (and at each ``timing_search``
    candidate): the full convolution's output there, a block of windows at a
    time, with the same bytes at an instant whatever ``n_symbols`` and
    ``skip_edge_symbols`` are.  Its taps are scaled to unit cascade gain
    when the record's rate is a multiple of the pulse's, and a record under
    4 samples per symbol is refused with InputError.  Every other shape is
    sampled directly at its group delay.  ``timing_search`` scans integer
    sample offsets within half a symbol, each sampled as the decisions are,
    and keeps the one whose first symbols (at most 64) sit closest to the
    constellation.  ``skip_edge_symbols`` off each end (0 cuts none) must
    be nonnegative and leave symbols (``check_scored``), or InputError.
    There is no carrier, phase, or amplitude recovery.
    """
    mod.require(skip_edge_symbols >= 0, "skip_edge_symbols",
                "must be nonnegative")
    x = env.samples
    rrc = shape.kind == "root_raised_cosine"
    sps = mod.symbol_samples(symbol_period, env.sample_rate, 4 if rrc else 1)

    taps = None
    n_out = x.size
    if rrc:
        taps = _matched_taps(shape, sps)
        n_out += taps.size - 1

    def sample(idx: np.ndarray) -> np.ndarray:
        return x[idx] if taps is None else _convolve_at(x, taps, idx)

    first, n_auto = _decision_grid(shape, sps, len(env))
    if n_symbols is None:
        n_symbols = n_auto
    if n_symbols < 1:
        raise ValueError("record too short to carry a symbol")

    offset = 0
    if timing_search:
        best = math.inf
        for cand in range(-(sps // 2), sps // 2 + 1):
            idx = first + cand + sps * np.arange(min(64, n_symbols))
            idx = idx[(idx >= 0) & (idx < n_out)]
            if idx.size == 0:
                continue
            d2 = np.abs(sample(idx)[:, None] - constellation.points) ** 2
            cost = float(np.mean(np.min(d2, axis=1)))
            if cost < best:
                best, offset = cost, cand

    idx = first + offset + sps * np.arange(n_symbols)
    if idx[0] < 0 or idx[-1] >= n_out:
        raise ValueError("decision instants fall outside the record")
    if skip_edge_symbols > 0:
        check_scored(n_symbols, skip_edge_symbols, "skip_edge_symbols")
        idx = idx[skip_edge_symbols:-skip_edge_symbols]
    return DemodResult(sample(idx), offset)


def evm(rx_symbols, ref_symbols) -> EvmReport:
    """Error vector magnitude, normalized by the reference RMS."""
    rx = np.asarray(rx_symbols, dtype=np.complex128)
    ref = np.asarray(ref_symbols, dtype=np.complex128)
    if rx.shape != ref.shape or rx.ndim != 1 or rx.size == 0:
        raise ValueError("rx and ref must be matching nonempty 1-d arrays")
    ref_power = float(np.mean(np.abs(ref) ** 2))
    if ref_power == 0.0:
        raise ValueError("reference power is zero")
    e = math.sqrt(float(np.mean(np.abs(rx - ref) ** 2)) / ref_power)
    e_db = -math.inf if e == 0.0 else 20.0 * math.log10(e)  # nan stays nan
    return EvmReport(e, e_db, rx.size)


@dataclass(frozen=True, eq=False)
class LinkScorer:
    """Scores any envelope of one record against its transmitted symbols.

    A call returns the decision-point and reference symbols of every sent
    symbol but the first and last ``shape.span_symbols``, where the pulse
    tails are cut off, and their EvmReport."""

    stream: mod.SymbolStream
    constellation: mod.Constellation
    shape: mod.PulseShape
    timing_search: bool = False

    def __call__(self, env: ComplexEnvelope
                 ) -> tuple[np.ndarray, np.ndarray, EvmReport]:
        span = self.shape.span_symbols
        ref = self.stream.symbols[span:-span]
        rx = demodulate(env, self.constellation, self.shape,
                        self.stream.symbol_period, n_symbols=len(self.stream),
                        timing_search=self.timing_search,
                        skip_edge_symbols=span).rx_symbols
        return rx, ref, evm(rx, ref)


# Additive error budget terms: the distinct stage terms, in registry order
BUDGET_TERMS = tuple(dict.fromkeys(row.term for row in STAGES.values()
                                   if row.term))


def check_budget_terms(chain: TxChain) -> None:
    """Raise InputError at ``chain.stages.<i>.kind`` at a composite stage."""
    for i, spec in enumerate(chain.stages):
        mod.require(STAGES[spec.kind].term is not None,
                    f"chain.stages.{i}.kind", f"stage {spec.kind!r} cannot be "
                    "attributed to a budget term; build the chain from atomic "
                    "impairment stages")


def evm_budget(scorer: LinkScorer, clean: ComplexEnvelope, chain: TxChain,
               total: EvmReport) -> BudgetReport:
    """Split a chain's EVM into additive mechanism terms.

    Each term's EVM is the ``scorer``'s score of the ``clean`` waveform run
    through only that term's stages (in chain order); their root sum of
    squares is compared with ``total``, the same scorer's report on the full
    chain's output.  Chains must be built from atomic impairment stages so
    each one attributes to a single term (``check_budget_terms``).
    """
    check_budget_terms(chain)
    terms = {}
    for term in BUDGET_TERMS:
        stages = tuple(s for s in chain.stages if STAGES[s.kind].term == term)
        if stages:
            sub = TxChain(chain.architecture, stages)
            terms[term] = scorer(run_chain(sub, clean))[2].evm_rms
    rss = math.sqrt(sum(v * v for v in terms.values()))
    return BudgetReport(terms, rss, total.evm_rms)


def _runs(s: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Bounds of each center's run in sorted ``s``: run j is
    ``s[bounds[j]:bounds[j + 1]]``.  Runs are cut at the midpoints between
    centers, with ties and repeated centers going to the lower index, as a
    nearest-center ``argmin`` would assign them."""
    mids = np.where(centers[:-1] < centers[1:],
                    0.5 * (centers[:-1] + centers[1:]), np.inf)
    mids = np.minimum.accumulate(mids[::-1])[::-1]
    cuts = np.searchsorted(s, mids, side="right")
    return np.concatenate(([0], cuts, [s.size]))


def _kmeans_1d(s: np.ndarray, k: int, n_iter: int = 64) -> np.ndarray:
    """Deterministic 1-d Lloyd iteration on sorted ``s``; centers returned
    sorted.  Each step cuts ``s`` into contiguous runs and takes run means
    from a prefix sum; an empty run keeps its previous center."""
    csum = np.concatenate(([0.0], np.cumsum(s)))
    centers = np.quantile(s, (np.arange(k) + 0.5) / k)
    # inf - inf in the convergence test is nan, which reads as not close
    with np.errstate(invalid="ignore"):
        for _ in range(n_iter):
            bounds = _runs(s, centers)
            counts = np.diff(bounds)
            new = centers.copy()
            filled = counts > 0
            new[filled] = np.diff(csum[bounds])[filled] / counts[filled]
            new = np.sort(new)
            # np.allclose(new, centers, rtol=0.0, atol=1e-12) without its
            # per-call overhead: equal infinities count as close
            done = ((new == centers) | (np.abs(new - centers) <= 1e-12)).all()
            centers = new
            if done:
                break
    return centers


def _recut_traces(x: np.ndarray, n_traces: int, sps: int,
                  instant: int) -> np.ndarray:
    """One-period traces centered on a candidate sampling phase: a view of
    ``x`` with one trace per row."""
    start = instant - sps // 2
    k_first = 0 if start >= 0 else 1
    k_last = n_traces - 1 if start + n_traces * sps <= x.size \
        else n_traces - 2
    return x[start + k_first * sps:start + (k_last + 1) * sps].reshape(-1, sps)


def _identity_gaps(traces: np.ndarray, n_levels: int):
    """Classify traces by their center value, then track the worst opening
    between classes at every phase with trace identity held fixed.

    A phase's gap is the smallest opening between neighboring classes,
    negative where they interleave and inf with fewer than two classes."""
    center = traces.shape[1] // 2
    # tied center values fall in one run, so their order changes no class
    order = np.argsort(traces[:, center])
    ranked = traces[order]
    s = ranked[:, center]
    counts = np.diff(_runs(s, _kmeans_1d(s, n_levels)))
    classes = np.empty(order.size, dtype=np.int64)
    classes[order] = np.repeat(np.arange(n_levels), counts)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    if starts.size < 2:
        return np.full(traces.shape[1], math.inf), classes
    lows = np.minimum.reduceat(ranked, starts, axis=0)
    highs = np.maximum.reduceat(ranked, starts, axis=0)
    return np.min(lows[1:] - highs[:-1], axis=0), classes


def check_eye_levels(n_levels: int, n_periods: int,
                     key: str = "n_levels") -> None:
    """Raise InputError at ``key`` unless ``n_levels`` is at least 1 and at
    most ``n_periods``, the whole symbol periods in the record."""
    mod.require(n_levels >= 1, key, "an eye needs at least 1 level")
    mod.require(n_levels <= n_periods, key, "an eye needs at most one level "
                f"per symbol period, {n_periods} in this record")


def eye_metrics(env: ComplexEnvelope, symbol_period: float,
                n_levels: int = 2) -> EyeReport:
    """Eye opening of the in-phase rail.

    Every candidate sampling phase is scored by re-cutting one-period traces
    around it, classifying each trace once by its center value, and taking
    the smallest opening between classes over a small window of neighboring
    phases.  Holding trace identity fixed means intersymbol interference that
    drives a trace across the eye registers as closure rather than as a
    clean crossing into another level, so closed eyes report as closed.
    Each phase classifies by a 1-d Lloyd quantizer on the sorted center
    values, so every class is one contiguous run, and the winning phase's
    traces, gaps and classes are kept rather than recomputed.
    """
    sps = mod.symbol_samples(symbol_period, env.sample_rate, 4)
    x = env.samples.real
    n_traces = x.size // sps
    if n_traces < 8:
        raise ValueError("need at least 8 symbol periods for an eye")
    check_eye_levels(n_levels, n_traces)

    center = sps // 2
    halfwin = max(1, sps // 8)
    window = (center + np.arange(-halfwin, halfwin + 1)) % sps

    def open_run(open_cols: np.ndarray) -> int:
        # the longest circular run of open columns
        doubled = np.concatenate([open_cols, open_cols])
        best = run = 0
        for v in doubled:
            run = run + 1 if v else 0
            best = max(best, run)
        return min(best, open_cols.size)

    # score = worst opening near the instant; ties broken by total open width
    best_key, opt = (-math.inf, -1), 0
    for p in range(sps):
        traces = _recut_traces(x, n_traces, sps, p)
        gaps, classes = _identity_gaps(traces, n_levels)
        key = (float(np.min(gaps[window])), open_run(gaps > 0.0))
        if key > best_key:
            best_key, opt = key, p
        if opt == p:
            best = (traces, gaps, classes)

    traces, gaps, classes = best
    width = open_run(gaps > 0.0) / sps
    levels = np.array([
        traces[classes == j, center].mean()
        for j in range(n_levels) if np.any(classes == j)
    ])
    return EyeReport(float(gaps[center]), float(width), opt / sps, levels)


# Welch segments transformed at once: bounds the spectrum's working memory
_WELCH_FRAMES = 16


def psd_welch(env: ComplexEnvelope, nperseg: int = 1024) -> Spectrum:
    """Two-sided Welch power spectral density, centered on zero frequency.

    Periodic Hann segments with 50% overlap, no detrending, density
    scaling; the resolution bandwidth is the window's equivalent noise
    bandwidth.  ``nperseg``, clipped to the record, must be at least 8.
    """
    nperseg = min(nperseg, len(env))
    if nperseg < 8:
        raise ValueError(f"a Welch segment needs 8 samples, got {nperseg}")
    fs = env.sample_rate
    w = _periodic_hann(nperseg)
    power = np.sum(w * w)
    segs = np.lib.stride_tricks.sliding_window_view(env.samples, nperseg)
    segs = segs[::nperseg - nperseg // 2]
    # transform _WELCH_FRAMES segments at a time; carrying the running sum
    # into each block's first row adds the segments in order, so the mean
    # is bit-identical to one whole-record reduction
    total = None
    for lo in range(0, len(segs), _WELCH_FRAMES):
        spec = np.fft.fft(segs[lo:lo + _WELCH_FRAMES] * w, axis=1)
        p = np.square(spec.real)
        p += np.square(spec.imag)
        if total is not None:
            p[0] += total
        total = np.add.reduce(p, axis=0)
    psd = total / len(segs) / (fs * power)
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, 1.0 / fs))
    psd = np.fft.fftshift(psd)
    freqs.flags.writeable = psd.flags.writeable = False
    enbw = fs * power / np.sum(w) ** 2
    return Spectrum(freqs, psd, float(enbw))


def image_rejection(env: ComplexEnvelope, tone_freq: float) -> float:
    """Power ratio (dB) of a tone to its mirror at minus the frequency.

    Uses the second half of the record (filters settled) and requires the
    tone to land on an exact analysis bin of that slice.
    """
    x = env.samples[len(env) // 2:]
    n = x.size
    k_f = tone_freq * n / env.sample_rate
    k = int(round(k_f))
    if abs(k_f - k) > 1e-6 or k == 0:
        raise ValueError("tone must land on a nonzero analysis bin; "
                         "adjust the record length")
    spec = np.fft.fft(x) / n
    p_sig = abs(spec[k % n]) ** 2
    p_img = abs(spec[-k % n]) ** 2
    if p_img == 0.0:
        return math.inf
    return 10.0 * math.log10(p_sig / p_img)

