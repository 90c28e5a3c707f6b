"""Metric-layer tests: decision sampling, EVM identities, budget additivity,
eye openings and spectra."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from sigchain import chains as ch
from sigchain import impairments as imp
from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain.envelope import (ComplexEnvelope, InputError, _periodic_hann,
                               fractional_delay)


def _loopback(kind: str, n_sym: int = 200, sps: int = 8, seed: int = 0,
              scheme: str = "square_qam", m: int = 16):
    const = mod.build_constellation(scheme, m=m)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, const.bits_per_symbol * n_sym)
    if kind == "rect":
        shape = mod.PulseShape("rect", samples_per_symbol=sps)
    else:
        shape = mod.PulseShape(kind, rolloff=0.35, span_symbols=16,
                               samples_per_symbol=sps)
    stream, env = ch.synth_comm_waveform(bits, const, shape, None, 1e-6)
    return const, shape, stream, env


class TestDemodulate:
    @pytest.mark.parametrize("kind,limit_db", [
        ("rect", -250.0),
        ("raised_cosine", -250.0),
        ("sinc", -250.0),
        ("root_raised_cosine", -45.0),
    ])
    def test_loopback_evm(self, kind, limit_db):
        const, shape, stream, env = _loopback(kind)
        res = met.demodulate(env, const, shape, 1e-6)
        assert res.rx_symbols.size == len(stream)
        rep = met.evm(res.rx_symbols, stream.symbols)
        assert rep.evm_db < limit_db
        ref_labels = np.argmin(
            np.abs(stream.symbols[:, None] - const.points[None, :]), axis=1)
        labels = np.argmin(
            np.abs(res.rx_symbols[:, None] - const.points[None, :]), axis=1)
        assert np.array_equal(labels, ref_labels)

    def test_rect_loopback_is_exact(self):
        const, shape, stream, env = _loopback("rect")
        res = met.demodulate(env, const, shape, 1e-6)
        assert met.evm(res.rx_symbols, stream.symbols).evm_db == -math.inf

    def test_timing_search_finds_integer_shift(self):
        # raised cosine: only the true instant is free of intersymbol
        # interference, so the search has a unique optimum
        const, shape, stream, env = _loopback("raised_cosine", n_sym=80)
        shifted = fractional_delay(env, 3.0 / env.sample_rate)
        res = met.demodulate(shifted, const, shape, 1e-6, n_symbols=70,
                             timing_search=True)
        assert res.timing_offset == 3
        rep = met.evm(res.rx_symbols, stream.symbols[:70])
        assert rep.evm_rms < 1e-9

    def test_skip_edge_symbols(self):
        const, shape, stream, env = _loopback("rect", n_sym=50)
        res = met.demodulate(env, const, shape, 1e-6, skip_edge_symbols=5)
        assert res.rx_symbols.size == 40
        assert np.max(np.abs(res.rx_symbols - stream.symbols[5:-5])) < 1e-12

    def test_negative_edge_cut_rejected(self, monkeypatch):
        const, shape, stream, env = _loopback("root_raised_cosine")
        assert met.demodulate(env, const, shape, 1e-6, skip_edge_symbols=0
                              ).rx_symbols.size == 200
        # refused before any instant is sampled, timing search included
        monkeypatch.setattr(met, "_convolve_at", None)
        with pytest.raises(InputError, match="must be nonnegative") as e:
            met.demodulate(env, const, shape, 1e-6, timing_search=True,
                           skip_edge_symbols=-3)
        assert e.value.key == "skip_edge_symbols"

    def test_non_integer_symbol_period_rejected(self):
        const, shape, stream, env = _loopback("rect")
        with pytest.raises(ValueError, match="integer"):
            met.demodulate(env, const, shape, 1.05e-6)

    def test_resampled_record_still_decodes(self):
        # a hold stage doubles the rate; decisions follow the new grid
        const, shape, stream, env = _loopback("rect", n_sym=60)
        chain = ch.TxChain("rfdac", (
            ch.StageSpec("rfdac_core", {"bits": 14, "hold_factor": 2}),))
        held = ch.run_chain(chain, env)
        res = met.demodulate(held, const, shape, 1e-6)
        rep = met.evm(res.rx_symbols, stream.symbols[:res.rx_symbols.size])
        assert rep.evm_rms < 1e-3


def _demodulate_oracle(env, constellation, shape, symbol_period,
                       n_symbols=None, timing_search=False):
    """Root-raised-cosine decision samples and timing offset as demodulate
    found them before the decimating filter: the whole record runs through
    np.convolve, and the decision instants are picked from its output."""
    sps = int(round(symbol_period * env.sample_rate))
    rx_shape = mod.PulseShape(shape.kind, shape.rolloff, shape.span_symbols,
                              max(sps, 4))
    x = np.convolve(env.samples, mod.shape_filter(rx_shape))
    first = 2 * (shape.span_symbols * sps // 2)
    if n_symbols is None:
        n_symbols = (len(env) - shape.span_symbols * sps) // sps
    offset = 0
    if timing_search:
        n_pre = min(64, n_symbols)
        pts = constellation.points
        best = math.inf
        for cand in range(-(sps // 2), sps // 2 + 1):
            idx = first + cand + sps * np.arange(n_pre)
            idx = idx[(idx >= 0) & (idx < x.size)]
            if idx.size == 0:
                continue
            d2 = np.min(
                np.abs(x[idx][:, None] - pts[None, :]) ** 2, axis=1)
            cost = float(np.mean(d2))
            if cost < best:
                best, offset = cost, cand
    idx = first + offset + sps * np.arange(n_symbols)
    if idx[0] < 0 or idx[-1] >= x.size:
        raise ValueError("decision instants fall outside the record")
    return x[idx], offset


class TestDecimatingMatchedFilter:
    """The matched filter evaluated only at the decision instants against
    the whole-record convolution it replaces."""

    @staticmethod
    def _record(sps, shift=2):
        const, shape, _, env = _loopback("root_raised_cosine", n_sym=120,
                                         sps=sps, seed=sps)
        noise = np.random.default_rng(sps).standard_normal((2, len(env)))
        env = ComplexEnvelope(env.samples + 0.01 * (noise[0] + 1j * noise[1]),
                              env.sample_rate)
        return const, shape, fractional_delay(env, shift / env.sample_rate)

    @pytest.mark.parametrize("n_symbols", [None, 37])
    @pytest.mark.parametrize("timing_search", [False, True])
    @pytest.mark.parametrize("sps", [4, 5, 8, 16])
    def test_matches_full_convolution(self, sps, timing_search, n_symbols):
        const, shape, env = self._record(sps)
        got = met.demodulate(env, const, shape, 1e-6, n_symbols=n_symbols,
                             timing_search=timing_search)
        want, offset = _demodulate_oracle(env, const, shape, 1e-6,
                                          n_symbols, timing_search)
        assert got.timing_offset == offset == (2 if timing_search else 0)
        assert got.rx_symbols.shape == want.shape
        assert np.max(np.abs(got.rx_symbols - want)) <= 1e-13

    @pytest.mark.parametrize("block", [met._DEMOD_BLOCK, 100])
    @pytest.mark.parametrize("idx", [
        np.arange(300 + 41 - 1),      # every output, both tails included
        np.array([0, 1, 5]),          # padded on both sides of the record
        np.array([339, 200, 40, 40]),  # unordered and repeated
    ], ids=["all", "head", "unordered"])
    def test_convolve_at_any_output(self, idx, block, monkeypatch):
        monkeypatch.setattr(met, "_DEMOD_BLOCK", block)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        taps = rng.standard_normal(41)
        want = np.convolve(x, taps)[idx]
        assert np.max(np.abs(met._convolve_at(x, taps, idx) - want)) <= 1e-13

    @pytest.mark.parametrize("span, sps, hold, n_sym", [
        (5, 5, 2, 256),    # held by a 16-bit converter at hold_factor 2
        (8, 5, 1, 4000),   # decisions over several blocks of windows
    ], ids=["rrc-5x5-held", "blocks"])
    def test_decision_bytes_do_not_depend_on_the_batch(self, span, sps,
                                                       hold, n_sym):
        const = mod.build_constellation("m_psk", m=4)
        shape = mod.PulseShape("root_raised_cosine", rolloff=0.35,
                               span_symbols=span, samples_per_symbol=sps)
        bits = np.random.default_rng(span).integers(0, 2, 2 * n_sym)
        chain = ch.TxChain("custom", (ch.StageSpec("rfdac_core", {
            "bits": 16, "hold_factor": hold}),))
        _, env = ch.synth_comm_waveform(bits, const, shape, chain, 1e-6)
        full = met.demodulate(env, const, shape, 1e-6).rx_symbols
        n = full.size
        # cuts at the end, at both ends, and the scorer's window
        for n_symbols, skip in [(n - 1, 0), (n - 7, 0), (n // 2, 0),
                                (n, 1), (n, 2), (n, 3), (n, 7), (n, n // 4),
                                (n - 5, 3), (n_sym, span), (n_sym - 1, span),
                                (n_sym, span + 1)]:
            got = met.demodulate(env, const, shape, 1e-6, n_symbols=n_symbols,
                                 skip_edge_symbols=skip).rx_symbols
            assert got.tobytes() == full[skip:n_symbols - skip].tobytes()

    def test_last_instant_at_the_record_end(self):
        # the latest decision window runs past the last sample
        const, shape, env = self._record(8, shift=0)
        n_out = len(env) + shape.span_symbols * 8
        n = (n_out - 1 - shape.span_symbols * 8) // 8 + 1
        got = met.demodulate(env, const, shape, 1e-6, n_symbols=n)
        want, _ = _demodulate_oracle(env, const, shape, 1e-6, n)
        assert np.max(np.abs(got.rx_symbols - want)) <= 1e-13
        for fn in (met.demodulate, _demodulate_oracle):
            with pytest.raises(ValueError, match="outside the record"):
                fn(env, const, shape, 1e-6, n_symbols=n + 1)

    def test_skip_edge_symbols_cuts_the_same_samples(self):
        const, shape, env = self._record(8)
        got = met.demodulate(env, const, shape, 1e-6, timing_search=True,
                             skip_edge_symbols=16)
        want, _ = _demodulate_oracle(env, const, shape, 1e-6,
                                     timing_search=True)
        assert np.max(np.abs(got.rx_symbols - want[16:-16])) <= 1e-13


class TestMatchedFilterRate:
    def test_taps_unscaled_at_the_pulse_rate(self):
        shape = mod.PulseShape("root_raised_cosine", 0.35, 16, 8)
        assert np.array_equal(met._matched_taps(shape, 8),
                              mod.shape_filter(shape))

    @pytest.mark.parametrize("hold", [1, 2, 4])
    def test_rate_raised_record_keeps_unit_gain(self, hold):
        # unit-energy taps at the held rate would double the symbols at 4
        const, shape, stream, env = _loopback("root_raised_cosine", n_sym=192,
                                              seed=9)
        chain = ch.TxChain("rfdac", (ch.StageSpec(
            "rfdac_core", {"bits": 14, "hold_factor": hold}),))
        rx, ref, report = met.LinkScorer(stream, const, shape)(
            ch.run_chain(chain, env))
        gain = np.vdot(ref, rx) / np.vdot(ref, ref)
        assert abs(gain - 1.0) < 0.05
        assert report.evm_rms < 0.1

    def test_record_under_four_samples_per_symbol_rejected(self):
        const = mod.build_constellation("m_psk", m=4)
        shape = mod.PulseShape("root_raised_cosine", 0.35, 16, 8)
        env = ComplexEnvelope(np.ones(400, dtype=complex), 3e6)
        with pytest.raises(InputError, match="4 samples per symbol") as err:
            met.demodulate(env, const, shape, 1e-6)
        assert err.value.key == "symbol_period"


def _batched_timing_search(env, constellation, shape, symbol_period,
                           n_symbols=None):
    """Timing offset and decisions as demodulate found them when its search
    sampled every candidate in one batch: a 2-D grid of candidate instants,
    masked to the output record, sampled by one call and split back into a
    row per candidate.  The decisions are None where they fall outside."""
    x = env.samples
    rrc = shape.kind == "root_raised_cosine"
    sps = mod.symbol_samples(symbol_period, env.sample_rate, 4 if rrc else 1)
    taps = met._matched_taps(shape, sps) if rrc else None
    n_out = x.size + (taps.size - 1 if rrc else 0)

    def sample(idx):
        return x[idx] if taps is None else met._convolve_at(x, taps, idx)

    first, n_auto = met._decision_grid(shape, sps, len(env))
    n_symbols = n_auto if n_symbols is None else n_symbols
    cands = range(-(sps // 2), sps // 2 + 1)
    grid = first + np.array(cands)[:, None] \
        + sps * np.arange(min(64, n_symbols))[None, :]
    inside = (grid >= 0) & (grid < n_out)
    pts = constellation.points
    d2 = np.min(np.abs(sample(grid[inside])[:, None] - pts[None, :]) ** 2,
                axis=1)
    rows = np.split(d2, np.cumsum(inside.sum(axis=1))[:-1])
    best, offset = math.inf, 0
    for cand, row in zip(cands, rows):
        if row.size and float(np.mean(row)) < best:
            best, offset = float(np.mean(row)), cand
    idx = first + offset + sps * np.arange(n_symbols)
    if idx[0] < 0 or idx[-1] >= n_out:
        return offset, None
    return offset, sample(idx)


class TestTimingSearchOracle:
    """Each candidate sampled on its own gives the batched search's offset
    and decision bytes."""

    @pytest.mark.parametrize("hold", [1, 2, 3])
    @pytest.mark.parametrize("sps", [4, 5, 8, 16])
    @pytest.mark.parametrize("kind", ["root_raised_cosine", "raised_cosine",
                                      "sinc", "gaussian", "rect"])
    def test_matches_the_batched_search(self, kind, sps, hold):
        const, shape, _, env = _loopback(kind, n_sym=96, sps=sps, seed=sps,
                                         scheme="m_psk", m=4)
        chain = ch.TxChain("rfdac", (ch.StageSpec(
            "rfdac_core", {"bits": 16, "hold_factor": hold}),))
        env = ch.run_chain(chain, env)
        noise = np.random.default_rng(hold).standard_normal((2, len(env)))
        env = ComplexEnvelope(env.samples + 0.02 * (noise[0] + 1j * noise[1]),
                              env.sample_rate)
        for shift in (0.0, 1.0, -2.5, 0.4 * sps * hold):
            moved = fractional_delay(env, shift / env.sample_rate)
            for n_symbols in (None, 40, 3):
                offset, want = _batched_timing_search(moved, const, shape,
                                                      1e-6, n_symbols)
                args = (moved, const, shape, 1e-6, n_symbols, True)
                if want is None:
                    with pytest.raises(ValueError, match="outside the"):
                        met.demodulate(*args)
                    continue
                got = met.demodulate(*args)
                assert got.timing_offset == offset
                assert got.rx_symbols.tobytes() == want.tobytes()

    def test_no_candidate_inside_keeps_offset_zero(self):
        # every candidate instant of the one symbol lies past the record
        const = mod.build_constellation("m_psk", m=4)
        shape = mod.PulseShape("raised_cosine", 0.35, 8, 8)
        env = ComplexEnvelope(np.ones(10, dtype=complex), 8e6)
        assert _batched_timing_search(env, const, shape, 1e-6, 1) == (0, None)
        with pytest.raises(ValueError, match="outside the record"):
            met.demodulate(env, const, shape, 1e-6, 1, timing_search=True)


class TestEvm:
    def test_scale_identity(self):
        ref = mod.build_constellation("square_qam", m=16).points
        for eps in (0.01, 0.1, -0.05):
            rep = met.evm(ref * (1.0 + eps), ref)
            assert abs(rep.evm_rms - abs(eps)) < 1e-9

    def test_rotation_identity(self):
        ref = mod.build_constellation("m_psk", m=8).points
        for phi in (0.01, 0.2, -0.4):
            rep = met.evm(ref * np.exp(1j * phi), ref)
            assert abs(rep.evm_rms - 2.0 * abs(math.sin(phi / 2.0))) < 1e-9

    def test_offset_identity(self):
        ref = mod.build_constellation("square_qam", m=64).points
        c = 0.02 - 0.015j
        rep = met.evm(ref + c, ref)
        assert abs(rep.evm_rms - abs(c)) < 1e-9

    @given(eps=st.floats(1e-6, 0.5), phi=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_identities_hold_for_any_parameters(self, eps, phi):
        ref = mod.build_constellation("m_psk", m=4).points
        assert abs(met.evm(ref * (1 + eps), ref).evm_rms - eps) < 1e-9
        assert abs(met.evm(ref * np.exp(1j * phi), ref).evm_rms
                   - 2.0 * abs(math.sin(phi / 2.0))) < 1e-9

    def test_error_paths(self):
        with pytest.raises(ValueError):
            met.evm(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            met.evm(np.ones(3), np.zeros(3))


class TestLinkScorer:
    def test_leaves_out_the_pulse_tails(self):
        const, shape, stream, env = _loopback("raised_cosine", n_sym=80)
        rx, ref, report = met.LinkScorer(stream, const, shape)(env)
        span = shape.span_symbols
        assert np.array_equal(ref, stream.symbols[span:-span])
        assert np.max(np.abs(rx - ref)) < 1e-9
        assert report.num_symbols == 80 - 2 * span

    def test_timing_search_is_honoured(self):
        const, shape, stream, env = _loopback("raised_cosine", n_sym=80)
        shifted = fractional_delay(env, 3.0 / env.sample_rate)
        searched = met.LinkScorer(stream, const, shape, timing_search=True)
        assert searched(shifted)[2].evm_rms < 1e-9
        assert met.LinkScorer(stream, const, shape)(shifted)[2].evm_rms > 0.1


def _budget(bits, const, shape, chain, symbol_period):
    """evm_budget as a scenario runs it: one synthesis, one full-chain run."""
    stream, clean = ch.synth_comm_waveform(bits, const, shape, None,
                                           symbol_period)
    scorer = met.LinkScorer(stream, const, shape)
    total = scorer(ch.run_chain(chain, clean))[2]
    return met.evm_budget(scorer, clean, chain, total)


def _budget_oracle(bits, constellation, shape, chain, symbol_period):
    """evm_budget before the shared scorer: it re-synthesized the clean
    waveform and ran the whole chain again for its measured total."""
    by_term: dict = {}
    for spec in chain.stages:
        by_term.setdefault(ch.STAGES[spec.kind].term, []).append(spec)
    skip = shape.span_symbols
    stream, clean = ch.synth_comm_waveform(bits, constellation, shape,
                                           None, symbol_period)

    def measure(sub: tuple) -> float:
        env = ch.run_chain(ch.TxChain(chain.architecture, sub), clean)
        res = met.demodulate(env, constellation, shape, stream.symbol_period,
                             skip_edge_symbols=skip)
        ref = stream.symbols[skip:-skip][: res.rx_symbols.size]
        return met.evm(res.rx_symbols, ref).evm_rms

    terms = {term: measure(tuple(by_term[term]))
             for term in met.BUDGET_TERMS if term in by_term}
    total = measure(chain.stages)
    rss = math.sqrt(sum(v * v for v in terms.values()))
    return met.BudgetReport(terms, rss, total)


class TestBudget:
    @staticmethod
    def _setup(n_sym=400):
        const = mod.build_constellation("square_qam", m=16)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 4 * n_sym)
        shape = mod.PulseShape("root_raised_cosine", rolloff=0.35,
                               span_symbols=12, samples_per_symbol=8)
        return const, bits, shape

    def test_rss_additivity(self):
        const, bits, shape = self._setup()
        chain = ch.TxChain("cartesian", (
            ch.StageSpec("amplitude_error", {"eps_a": 0.02}),
            ch.StageSpec("static_phase_error", {"phi_e": 0.02}),
            ch.StageSpec("phase_noise", {"rate": 30.0, "seed": 5}),
            ch.StageSpec("iq_imbalance", {"gain_mismatch": 0.03,
                                          "quad_skew": 0.02}),
            ch.StageSpec("lo_feedthrough", {"offset": 0.015 + 0.01j}),
            ch.StageSpec("bandwidth_limit", {"cutoff_hz": 0.8e6}),
        ))
        rep = _budget(bits, const, shape, chain, 1e-6)
        assert set(rep.terms) == {"amp", "phase", "pn", "iq_lo", "bw"}
        assert rep.rss_deviation < 0.1
        assert all(v > 0.0 for v in rep.terms.values())

    def test_single_mechanism_chain(self):
        # full-Nyquist shape: decision instants are ISI-free, so the term
        # equals the closed-form gain-error EVM exactly
        const, bits, shape = self._setup(n_sym=200)
        shape = mod.PulseShape("raised_cosine", rolloff=0.35,
                               span_symbols=12, samples_per_symbol=8)
        chain = ch.TxChain("cartesian", (
            ch.StageSpec("amplitude_error", {"eps_a": 0.05}),))
        rep = _budget(bits, const, shape, chain, 1e-6)
        assert set(rep.terms) == {"amp"}
        assert rep.terms["amp"] == pytest.approx(0.05, abs=1e-9)
        assert rep.total_measured == pytest.approx(0.05, abs=1e-9)

    def test_composite_stage_rejected(self):
        const, bits, shape = self._setup(n_sym=50)
        chain = ch.TxChain("polar", (
            ch.StageSpec("polar_paths", {"tau_a": 1e-9}),))
        with pytest.raises(ValueError, match="budget term"):
            _budget(bits, const, shape, chain, 1e-6)


class TestBudgetOracle:
    """The budget from the shared scorer and the main run must equal the
    budget that re-synthesized and re-ran the whole chain."""

    ATOMIC = (
        ch.StageSpec("amplitude_error", {"eps_a": 0.02}),
        ch.StageSpec("am_ampm", {"gain_poly": [1.0, -0.03],
                                 "phase_poly": [0.0, 0.0, 0.02]}),
        ch.StageSpec("static_phase_error", {"phi_e": 0.015}),
        ch.StageSpec("iq_imbalance", {"gain_mismatch": 0.03,
                                      "quad_skew": 0.02}),
        ch.StageSpec("lo_feedthrough", {"offset": 0.004 + 0.003j}),
        ch.StageSpec("bandwidth_limit", {"cutoff_hz": 1.6e6}),
    )
    STOCHASTIC = (
        ch.StageSpec("amplitude_error", {"eps_a": 0.01}),
        ch.StageSpec("phase_noise", {"rate": 40.0, "seed": 5}),
        ch.StageSpec("sample_jitter", {"sigma_s": 2.0e-9, "seed": 6}),
        ch.StageSpec("bandwidth_limit", {"cutoff_hz": 2.0e6}),
    )

    @pytest.mark.parametrize("stages", [ATOMIC, STOCHASTIC],
                             ids=["atomic", "phase-noise-jitter"])
    @pytest.mark.parametrize("kind", ["root_raised_cosine", "raised_cosine",
                                      "rect"])
    def test_matches_oracle(self, kind, stages):
        const = mod.build_constellation("square_qam", m=16)
        bits = np.random.default_rng(4).integers(0, 2, 4 * 240)
        shape = mod.PulseShape(kind, rolloff=0.35, span_symbols=12,
                               samples_per_symbol=8)
        chain = ch.TxChain("cartesian", stages)
        got = _budget(bits, const, shape, chain, 1e-6)
        want = _budget_oracle(bits, const, shape, chain, 1e-6)
        assert got.terms == want.terms
        assert got.total_rss == want.total_rss
        assert got.total_measured == want.total_measured
        assert got.total_measured > 0.0


class TestEye:
    @staticmethod
    def _ook(n_sym=512, sps=32, seed=0):
        const = mod.build_constellation("m_ask", m=2)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n_sym)
        shape = mod.PulseShape("rect", samples_per_symbol=sps)
        return ch.synth_comm_waveform(bits, const, shape, None, 1e-6)

    def test_clean_rect_eye_fully_open(self):
        _, env = self._ook()
        eye = met.eye_metrics(env, 1e-6, n_levels=2)
        assert eye.eye_height == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert eye.eye_width_fraction == 1.0
        assert eye.sample_instant_fraction == pytest.approx(0.5)
        assert np.allclose(np.sort(eye.levels), [0.0, math.sqrt(2.0)],
                           atol=1e-9)

    def test_bandwidth_limit_closes_eye_monotonically(self):
        _, env = self._ook()
        heights, widths = [], []
        for fc_frac in (0.5, 0.35, 0.25, 0.15):
            eye = met.eye_metrics(imp.bandwidth_limit(env, fc_frac * 1e6),
                                  1e-6, n_levels=2)
            heights.append(eye.eye_height)
            widths.append(eye.eye_width_fraction)
        assert all(a > b for a, b in zip(heights, heights[1:]))
        assert all(w < 1.0 for w in widths)
        assert widths[-1] < 0.55  # heavy closure at 0.15/Ts
        assert widths[0] > 0.7

    def test_heavily_filtered_instant_is_late(self):
        _, env = self._ook()
        eye = met.eye_metrics(imp.bandwidth_limit(env, 0.25e6), 1e-6, 2)
        assert eye.sample_instant_fraction > 0.6

    def test_four_level_eye(self):
        const = mod.build_constellation("m_ask", m=4)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 2 * 512)
        shape = mod.PulseShape("rect", samples_per_symbol=32)
        _, env = ch.synth_comm_waveform(bits, const, shape, None, 1e-6)
        eye = met.eye_metrics(env, 1e-6, n_levels=4)
        assert eye.eye_width_fraction == 1.0
        assert eye.levels.size == 4
        spacings = np.diff(np.sort(eye.levels))
        assert np.allclose(spacings, spacings[0], atol=1e-9)
        assert eye.eye_height == pytest.approx(spacings[0], abs=1e-9)

    def test_too_few_traces_rejected(self):
        _, env = self._ook(n_sym=4)
        with pytest.raises(ValueError, match="at least 8"):
            met.eye_metrics(env, 1e-6)


def _kmeans_1d_oracle(values, k, n_iter=64):
    """The mask-based Lloyd iteration eye_metrics used before sorted runs."""
    centers = np.quantile(values, (np.arange(k) + 0.5) / k)
    for _ in range(n_iter):
        assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
        new = centers.copy()
        for j in range(k):
            sel = values[assign == j]
            if sel.size:
                new[j] = sel.mean()
        new = np.sort(new)
        if np.allclose(new, centers, rtol=0.0, atol=1e-12):
            centers = new
            break
        centers = new
    return centers


def _worst_adjacent_gap_oracle(values, classes, k):
    gaps = []
    present = [j for j in range(k) if np.any(classes == j)]
    for lo, hi in zip(present, present[1:]):
        gaps.append(float(values[classes == hi].min()
                          - values[classes == lo].max()))
    return min(gaps) if gaps else math.inf


def _eye_oracle(env, symbol_period, n_levels):
    """eye_metrics as written before sorted runs: every phase is cut and
    classified by argmin, and the winning phase is cut a second time."""
    sps = int(round(symbol_period * env.sample_rate))
    x = env.samples.real
    n_traces = x.size // sps
    center = sps // 2
    halfwin = max(1, sps // 8)
    window = (center + np.arange(-halfwin, halfwin + 1)) % sps

    def identity_gaps(traces):
        centers = _kmeans_1d_oracle(traces[:, center], n_levels)
        classes = np.argmin(
            np.abs(traces[:, center][:, None] - centers[None, :]), axis=1)
        gaps = np.array([
            _worst_adjacent_gap_oracle(traces[:, m], classes, n_levels)
            for m in range(sps)])
        return gaps, classes

    def open_run(open_cols):
        if np.all(open_cols):
            return open_cols.size
        if not np.any(open_cols):
            return 0
        best = run = 0
        for v in np.concatenate([open_cols, open_cols]):
            run = run + 1 if v else 0
            best = max(best, run)
        return min(best, open_cols.size)

    best_key, opt = (-math.inf, -1), 0
    for p in range(sps):
        gaps_p, _ = identity_gaps(met._recut_traces(x, n_traces, sps, p))
        key = (float(np.min(gaps_p[window])), open_run(gaps_p > 0.0))
        if key > best_key:
            best_key, opt = key, p
    traces = met._recut_traces(x, n_traces, sps, opt)
    gaps, classes = identity_gaps(traces)
    levels = np.array([traces[classes == j, center].mean()
                       for j in range(n_levels) if np.any(classes == j)])
    return met.EyeReport(float(gaps[center]), open_run(gaps > 0.0) / sps,
                         opt / sps, levels)


class TestEyeOracle:
    """eye_metrics must classify exactly as the argmin-based oracle does."""

    @staticmethod
    def _ask(m, kind, seed, n_sym=384, sps=16):
        const = mod.build_constellation("m_ask", m=m)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, const.bits_per_symbol * n_sym)
        shape = mod.PulseShape("rect", samples_per_symbol=sps)
        _, env = ch.synth_comm_waveform(bits, const, shape, None, 1e-6)
        if kind == "band_limited":
            env = imp.bandwidth_limit(env, 0.3e6)
        elif kind == "noisy":
            noise = rng.standard_normal(len(env)) * 0.04
            env = ComplexEnvelope(env.samples + noise, env.sample_rate)
        return env

    @staticmethod
    def _assert_same(env, n_levels):
        got = met.eye_metrics(env, 1e-6, n_levels=n_levels)
        want = _eye_oracle(env, 1e-6, n_levels)
        assert got.eye_height == want.eye_height
        assert got.eye_width_fraction == want.eye_width_fraction
        assert got.sample_instant_fraction == want.sample_instant_fraction
        assert np.array_equal(got.levels, want.levels)

    @pytest.mark.parametrize("kind", ["rect", "band_limited", "noisy"])
    @pytest.mark.parametrize("m,seed", [(2, 11), (4, 12), (8, 13)])
    def test_matches_oracle(self, m, seed, kind):
        self._assert_same(self._ask(m, kind, seed), m)

    @pytest.mark.parametrize("kind", ["rect", "band_limited", "noisy"])
    def test_two_levels_at_four_classes(self, kind):
        self._assert_same(self._ask(2, kind, 14), 4)

    def test_constant_input(self):
        env = ComplexEnvelope(np.full(16 * 64, 0.3 + 0.1j), 16e6)
        self._assert_same(env, 2)

    @pytest.mark.parametrize("values,counts,n_levels", [
        # the first Lloyd step has 0.0 exactly midway between -1 and 1
        ([-1.0, 0.0, 1.0], [100, 50, 100], 2),
        # the starting quantiles repeat -1 and 1 and stay repeated, with
        # values on both sides of -1
        ([-1.5, -1.0, -0.5, 1.0], [16, 128, 16, 160], 4),
        # repeated starting quantiles that the first step pulls apart
        ([-1.0, -0.9, 1.0], [128, 26, 102], 4),
    ])
    def test_ties_and_repeated_centers(self, values, counts, n_levels):
        symbols = np.random.default_rng(15).permutation(
            np.repeat(values, counts))
        env = ComplexEnvelope(np.repeat(symbols, 16).astype(complex), 16e6)
        self._assert_same(env, n_levels)


def _kmeans_1d_allclose(s, k, n_iter=64):
    """_kmeans_1d with its convergence test written as np.allclose."""
    csum = np.concatenate(([0.0], np.cumsum(s)))
    centers = np.quantile(s, (np.arange(k) + 0.5) / k)
    for _ in range(n_iter):
        bounds = met._runs(s, centers)
        counts = np.diff(bounds)
        new = centers.copy()
        filled = counts > 0
        new[filled] = np.diff(csum[bounds])[filled] / counts[filled]
        new = np.sort(new)
        if np.allclose(new, centers, rtol=0.0, atol=1e-12):
            centers = new
            break
        centers = new
    return centers


def _recut_traces_gather(x, n_traces, sps, instant):
    """_recut_traces as an index gather, before it returned a view."""
    start = instant - sps // 2
    k_first = 0 if start >= 0 else 1
    k_last = n_traces - 1 if start + n_traces * sps <= x.size \
        else n_traces - 2
    rows = np.arange(k_first, k_last + 1)
    return x[start + rows[:, None] * sps + np.arange(sps)[None, :]]


def _identity_gaps_stable(traces, n_levels):
    """_identity_gaps with a stable sort, so tied center values keep their
    trace order, and the np.allclose Lloyd iteration."""
    center = traces.shape[1] // 2
    order = np.argsort(traces[:, center], kind="stable")
    ranked = traces[order]
    s = ranked[:, center]
    counts = np.diff(met._runs(s, _kmeans_1d_allclose(s, n_levels)))
    classes = np.empty(order.size, dtype=np.int64)
    classes[order] = np.repeat(np.arange(n_levels), counts)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    if starts.size < 2:
        return np.full(traces.shape[1], math.inf), classes
    lows = np.minimum.reduceat(ranked, starts, axis=0)
    highs = np.maximum.reduceat(ranked, starts, axis=0)
    return np.min(lows[1:] - highs[:-1], axis=0), classes


class TestEyeSortOracle:
    """eye_metrics with view traces, an unstable sort and a direct
    convergence test against its index-gather, stable-sort, np.allclose
    form, bit for bit."""

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matches_stable_sort(self, m, noise, monkeypatch):
        # noiseless rect PAM: every trace's center value ties with a
        # quarter (or more) of the others
        env = TestEyeOracle._ask(m, "rect", 20 + m)
        if noise:
            rng = np.random.default_rng(m)
            env = ComplexEnvelope(
                env.samples + noise * rng.standard_normal(len(env)),
                env.sample_rate)
        got = met.eye_metrics(env, 1e-6, n_levels=m)
        monkeypatch.setattr(met, "_recut_traces", _recut_traces_gather)
        monkeypatch.setattr(met, "_identity_gaps", _identity_gaps_stable)
        want = met.eye_metrics(env, 1e-6, n_levels=m)
        assert got.eye_height == want.eye_height
        assert got.eye_width_fraction == want.eye_width_fraction
        assert got.sample_instant_fraction == want.sample_instant_fraction
        assert got.levels.tobytes() == want.levels.tobytes()

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 1.0, 1.0, 1.0 + 1e-13, 2.0],
        [-math.inf, 0.0, 0.5, 1.0],
        [0.0, 1.0, 2.0, math.inf, math.inf],
        [-math.inf, -math.inf, math.inf, math.inf],
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_convergence_test_is_allclose(self, values, k):
        s = np.array(values)
        with np.errstate(invalid="ignore"):
            got = met._kmeans_1d(s, k)
            want = _kmeans_1d_allclose(s, k)
        assert got.tobytes() == want.tobytes()

    def test_traces_are_a_view(self):
        x = np.arange(100.0) + 0.5j
        traces = met._recut_traces(x.real, 10, 8, 3)
        assert np.shares_memory(traces, x)
        assert np.array_equal(traces, _recut_traces_gather(x.real, 10, 8, 3))


class TestPsdWelchOracle:
    """The numpy Welch estimate against scipy.signal.welch."""

    @pytest.mark.parametrize("nperseg,n", [
        (8, 96), (1024, 8192), (2048, 16384),
        (1024, 1024),            # one segment: nperseg equals the record
        (1024, 5000),            # not a multiple of nperseg / 2
        (2048, 700),             # nperseg clipped to the record
    ])
    def test_matches_scipy(self, nperseg, n):
        fs = 3.7e6
        rng = np.random.default_rng(nperseg + n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        spec = met.psd_welch(ComplexEnvelope(x, fs), nperseg=nperseg)
        m = min(nperseg, n)
        f, p = signal.welch(x, fs=fs, window="hann", nperseg=m,
                            noverlap=m // 2, detrend=False,
                            return_onesided=False, scaling="density")
        order = np.argsort(f)
        assert np.array_equal(spec.freqs, f[order])
        assert np.max(np.abs(spec.psd - p[order]) / p[order]) <= 1e-12
        w = signal.get_window("hann", m)
        enbw = fs * np.sum(w ** 2) / np.sum(w) ** 2
        assert spec.resolution_bw == pytest.approx(enbw, rel=1e-12)


    @pytest.mark.parametrize("n_segments", [15, 16, 17, 33, 127])
    def test_blocks_match_one_whole_record_mean(self, n_segments):
        # segments are transformed in blocks; the mean must not move a bit
        nperseg, fs = 64, 3.7e6
        n = (n_segments + 1) * nperseg // 2
        rng = np.random.default_rng(n_segments)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = _periodic_hann(nperseg)
        segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)
        spec = np.fft.fft(segs[::nperseg // 2] * w, axis=1)
        assert len(spec) == n_segments
        psd = np.mean(spec.real ** 2 + spec.imag ** 2, axis=0) \
            / (fs * np.sum(w * w))
        got = met.psd_welch(ComplexEnvelope(x, fs), nperseg=nperseg)
        assert np.array_equal(got.psd, np.fft.fftshift(psd))


class TestSpectra:
    def test_psd_integrates_to_power(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8192) + 1j * rng.normal(size=8192)
        env = ComplexEnvelope(x, 1e6)
        spec = met.psd_welch(env, nperseg=1024)
        total = np.trapezoid(spec.psd, spec.freqs)
        assert total == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.02)

    def test_tone_lands_on_its_bin(self):
        fs, n = 1e6, 16384
        f0 = 64.0 / 2048.0 * fs
        t = np.arange(n) / fs
        env = ComplexEnvelope(np.exp(2j * np.pi * f0 * t), fs)
        spec = met.psd_welch(env, nperseg=2048)
        assert spec.freqs[np.argmax(spec.psd)] == pytest.approx(f0)

    @pytest.mark.parametrize("nperseg", [8, 9, 1024])
    def test_result_is_read_only_on_an_increasing_grid(self, nperseg):
        rng = np.random.default_rng(nperseg)
        x = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        spec = met.psd_welch(ComplexEnvelope(x, 1e6), nperseg=nperseg)
        assert np.all(np.diff(spec.freqs) > 0.0)
        assert np.all(spec.psd >= 0.0)
        for arr in (spec.freqs, spec.psd):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_hann_enbw(self):
        env = ComplexEnvelope(np.ones(4096, dtype=complex), 1e6)
        spec = met.psd_welch(env, nperseg=1024)
        assert spec.resolution_bw == pytest.approx(1.5 * 1e6 / 1024, rel=1e-6)

    def test_spur_detection(self):
        # a spur 35 dB below the carrier is the strongest bin outside the
        # carrier's window, 35 dB below the carrier's
        fs, n = 1e6, 32768
        t = np.arange(n) / fs
        f_c = fs / 32.0
        f_s = fs / 8.0
        x = np.exp(2j * np.pi * f_c * t) \
            + 10.0 ** (-35.0 / 20.0) * np.exp(2j * np.pi * f_s * t)
        spec = met.psd_welch(ComplexEnvelope(x, fs), nperseg=2048)
        carrier = int(np.argmax(spec.psd))
        away = np.abs(np.arange(spec.psd.size) - carrier) > 3
        spur = int(np.argmax(np.where(away, spec.psd, 0.0)))
        assert spec.freqs[carrier] == pytest.approx(f_c)
        assert spec.freqs[spur] == pytest.approx(f_s, abs=fs / 2048)
        level = 10.0 * math.log10(spec.psd[carrier] / spec.psd[spur])
        assert level == pytest.approx(35.0, abs=0.5)

    def test_clean_tone_has_no_spurs(self):
        # a tone on an analysis bin leaks only into the periodic Hann
        # window's two neighbouring bins; the rest sit below -200 dBc
        fs, n = 1e6, 32768
        t = np.arange(n) / fs
        env = ComplexEnvelope(np.exp(2j * np.pi * (fs / 32.0) * t), fs)
        spec = met.psd_welch(env, nperseg=2048)
        carrier = int(np.argmax(spec.psd))
        away = np.abs(np.arange(spec.psd.size) - carrier) > 1
        assert np.max(spec.psd[away]) < 1e-20 * spec.psd[carrier]

    def test_image_rejection_matches_closed_form(self):
        fs, n = 1e6, 8192
        f0 = 64.0 / (n // 2) * fs
        t = np.arange(n) / fs
        env = ComplexEnvelope(np.exp(2j * np.pi * f0 * t), fs)
        out = imp.iq_imbalance(env, 0.05, 0.02)
        mu, nu = imp.iq_imbalance_mu_nu(0.05, 0.02)
        expect = 10.0 * math.log10(abs(mu) ** 2 / abs(nu) ** 2)
        assert met.image_rejection(out, f0) == pytest.approx(expect,
                                                             abs=1e-6)

    def test_image_rejection_clean_tone_is_huge(self):
        # float FFT leaves a numerical residue at the image bin, so a clean
        # tone reads as a very large finite ratio
        fs, n = 1e6, 8192
        f0 = 64.0 / (n // 2) * fs
        t = np.arange(n) / fs
        env = ComplexEnvelope(np.exp(2j * np.pi * f0 * t), fs)
        assert met.image_rejection(env, f0) > 250.0

    def test_image_rejection_off_grid_rejected(self):
        env = ComplexEnvelope(np.ones(1000, dtype=complex), 1e6)
        with pytest.raises(ValueError, match="bin"):
            met.image_rejection(env, 12345.6789)

