"""Architecture chain tests.

Each architecture's defining artifact is pinned to a closed-form prediction:
hold images to the sinc envelope, harmonic phase multiplication to an exact
sample-wise identity, converter trim to monotone error reduction, and polar
track skew to its sign symmetry.  Chains are written as stage lists, as
scenario files write them.
"""
import json
import math

import numpy as np
import pytest

from sigchain import chains as ch
from sigchain import impairments as imp
from sigchain import modulation as mod
from sigchain.envelope import ComplexEnvelope, delay_real_track


def _tone(f_frac: float, n: int = 4096, fs: float = 1e6) -> ComplexEnvelope:
    t = np.arange(n) / fs
    return ComplexEnvelope(np.exp(2j * np.pi * (f_frac * fs) * t), fs)


def _evm(rx: np.ndarray, ref: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(rx - ref) ** 2)
                         / np.mean(np.abs(ref) ** 2)))


def _zoh_image_ratio_db(f_tone: float, f_image: float,
                        f_update: float) -> float:
    """Predicted level of a zero-order-hold image relative to the wanted tone.

    A converter updating at ``f_update`` weights its output spectrum by
    sinc(f / f_update); the first image of a tone appears at f_update - f_tone.
    """
    want = np.sinc(f_tone / f_update)
    img = np.sinc(f_image / f_update)
    return float(20.0 * math.log10(abs(img) / abs(want)))


def _qpsk_waveform(n_sym: int = 256, sps: int = 16, seed: int = 0):
    const = mod.build_constellation("m_psk", m=4)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_sym * 2)
    stream = mod.map_bits(bits, const, symbol_period=1.0 / 25e6)
    shape = mod.PulseShape("root_raised_cosine", rolloff=0.35,
                           span_symbols=8, samples_per_symbol=sps)
    return mod.shape_symbols(stream, shape)


class TestChainPlumbing:
    def test_empty_chain_is_identity(self):
        env = _tone(0.01)
        out = ch.run_chain(ch.TxChain("custom"), env)
        assert np.array_equal(out.samples, env.samples)

    def test_identity_polar_chain_round_trips(self):
        env = _qpsk_waveform(64)
        chain = ch.TxChain("polar", (ch.StageSpec("polar_paths"),))
        out = ch.run_chain(chain, env)
        assert np.max(np.abs(out.samples - env.samples)) < 1e-9

    def test_unknown_stage_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stage kind"):
            ch.StageSpec("wibble", {})

    def test_unknown_stage_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            ch.StageSpec("bandwidth_limit", {"cutoff": 1e4})

    def test_missing_required_param(self):
        env = _tone(0.01, n=64)
        with pytest.raises(ValueError, match="requires parameter"):
            ch.apply_stage(env, ch.StageSpec("bandwidth_limit", {}))

    def test_seed_required_for_stochastic_stage(self):
        env = _tone(0.01, n=64)
        with pytest.raises(ValueError, match="seed"):
            ch.apply_stage(env, ch.StageSpec("phase_noise", {"rate": 1.0}))

    def test_with_stage_param(self):
        chain = ch.TxChain("polar", (ch.StageSpec(
            "polar_paths", {"tau_a": 1e-9, "comp_delay_s": 0.0}),))
        tuned = ch.with_stage_param(chain, "polar_paths", comp_delay_s=-1e-9)
        assert tuned.stages[0].params["comp_delay_s"] == -1e-9
        assert chain.stages[0].params["comp_delay_s"] == 0.0

    def test_with_stage_param_missing_kind(self):
        with pytest.raises(ValueError, match="no 'rfdac_core' stage"):
            ch.with_stage_param(ch.TxChain("polar", (
                ch.StageSpec("polar_paths"),)), "rfdac_core", bits=8)

    def test_linear_chain_commutes_with_real_scale(self):
        env = _qpsk_waveform(64)
        chain = ch.TxChain("cartesian", (
            ch.StageSpec("iq_paths", {"cutoff_hz": 8e6,
                                      "tau_i": 0.2 / env.sample_rate}),
            ch.StageSpec("iq_imbalance", {"gain_mismatch": 0.03,
                                          "quad_skew": 0.02}),
        ))
        a = ch.run_chain(chain, ComplexEnvelope(0.5 * env.samples,
                                                env.sample_rate))
        b = ch.run_chain(chain, env)
        assert np.max(np.abs(a.samples - 0.5 * b.samples)) < 1e-12

    @pytest.mark.parametrize("kind, params, off", [
        ("onoff_leakage", {"off_ratio_db": 20.0}, 0.1),
        ("gated_offset", {"offset": 0.1}, 1.1),
    ])
    def test_gated_stage_takes_an_explicit_mask(self, kind, params, off):
        # every sample is on by the record's own gate; the explicit mask
        # turns the last four off
        env = ComplexEnvelope(np.ones(8, dtype=complex), 1e6)
        spec = ch.StageSpec(kind, params)
        mask = np.arange(8) < 4
        got = ch.apply_stage(env, spec, gate_mask=mask)
        assert np.array_equal(got.samples, np.where(mask, 1.0, off))
        assert np.array_equal(ch.apply_stage(env, spec).samples, env.samples)
        with pytest.raises(ch.InputError, match="cannot follow a hold"):
            ch.apply_stage(env, spec, gate_mask=mask[:4])

    def test_stage_list_serializes_plainly(self):
        chain = ch.TxChain("cartesian", (
            ch.StageSpec("iq_paths", {"bits": 10, "cutoff_hz": 1e6}),
            ch.StageSpec("iq_imbalance", {"gain_mismatch": 0.01}),
        ))
        text = json.dumps([{"kind": spec.kind, "params": spec.params}
                           for spec in chain.stages])
        back = ch.TxChain("cartesian", tuple(
            ch.StageSpec(**stage) for stage in json.loads(text)))
        assert back == chain


class TestSharedInput:
    """A chain's input may be shared (a sweep feeds one record to every
    point), so nothing may write into it or into its memoized polar split."""

    @pytest.mark.parametrize("scribble", [
        lambda env: env.samples.__setitem__(0, 0.0),
        lambda env: env.polar.amplitude.__setitem__(0, 0.0),
        lambda env: env.polar.phase.__iadd__(1.0),
    ], ids=["samples", "amplitude", "phase"])
    def test_a_stage_writing_its_input_raises(self, scribble, monkeypatch):
        def apply(env, p):
            scribble(env)
            return env

        monkeypatch.setitem(ch.STAGES, "scribble", ch.Stage(apply, None, {}))
        env = _qpsk_waveform(32)
        before = env.samples.copy()
        chain = ch.TxChain("custom", (ch.StageSpec("scribble"),))
        with pytest.raises(ValueError, match="read-only"):
            ch.run_chain(chain, env)
        assert np.array_equal(env.samples, before)

    def test_polar_stages_on_one_envelope_split_it_once(self, monkeypatch):
        import sigchain.envelope as envelope

        calls = []
        split = envelope.to_polar

        def counted(env):
            calls.append(env)
            return split(env)

        monkeypatch.setattr(envelope, "to_polar", counted)
        env = _qpsk_waveform(64)
        polar = ch.StageSpec("polar_paths", {"am_cutoff_hz": 5e7,
                                             "tau_p": 1e-9})
        for spec in (polar, ch.StageSpec("rise_fall", {"cutoff_hz": 5e7}),
                     ch.StageSpec("harmonic_multiply", {"factor": 2}),
                     ch.StageSpec("state_errors", {"levels": [1.0],
                                                   "errors": [0.1]})):
            ch.apply_stage(env, spec)
        assert calls == [env]


class TestCartesian:
    def test_matches_manual_stage_application(self):
        env = _qpsk_waveform(64)
        chain = ch.TxChain("cartesian", (
            ch.StageSpec("iq_imbalance", {"gain_mismatch": 0.04,
                                          "quad_skew": 0.03}),
            ch.StageSpec("lo_feedthrough", {"offset": 0.01 - 0.02j}),
        ))
        out = ch.run_chain(chain, env)
        manual = imp.lo_feedthrough(
            imp.iq_imbalance(env, 0.04, 0.03), 0.01 - 0.02j)
        assert np.array_equal(out.samples, manual.samples)


class TestPolar:
    def test_track_skew_sign_symmetry(self):
        # differential delay of either sign distorts about equally
        env = _qpsk_waveform(256)
        dt = 2.5 / env.sample_rate
        ref, plus, minus = (ch.run_chain(ch.TxChain("polar", (ch.StageSpec(
            "polar_paths", {"tau_a": tau}),)), env) for tau in (0.0, dt, -dt))
        e_plus = _evm(plus.samples, ref.samples)
        e_minus = _evm(minus.samples, ref.samples)
        assert e_plus > 0.01  # the skew must actually bite
        assert e_plus == pytest.approx(e_minus, rel=0.05)

    def test_comp_delay_cancels_skew(self):
        env = _qpsk_waveform(128)
        dt = 1.7 / env.sample_rate
        ref = ch.run_chain(ch.TxChain("polar", (
            ch.StageSpec("polar_paths"),)), env)
        skewed = ch.TxChain("polar", (
            ch.StageSpec("polar_paths", {"tau_a": dt}),))
        raw = ch.run_chain(skewed, env)
        fixed = ch.run_chain(
            ch.with_stage_param(skewed, "polar_paths", comp_delay_s=-dt), env)
        assert _evm(fixed.samples, ref.samples) < 0.1 * _evm(raw.samples,
                                                             ref.samples)

    def test_amplitude_quantization_only_touches_amplitude(self):
        env = _qpsk_waveform(64)
        chain = ch.TxChain("polar", (ch.StageSpec(
            "polar_paths", {"am_bits": 6, "am_full_scale": 1.5}),))
        out = ch.run_chain(chain, env)
        ref_ph = np.angle(env.samples[np.abs(env.samples) > 0.2])
        out_ph = np.angle(out.samples[np.abs(env.samples) > 0.2])
        d = np.angle(np.exp(1j * (out_ph - ref_ph)))
        assert np.max(np.abs(d)) < 1e-9

    def test_burst_off_leakage_level(self):
        # gated burst: off-segment residual sits off_ratio_db below the hold
        fs = 1e6
        n_on = 512
        sym = np.exp(1j * 0.3) * np.ones(n_on)
        x = np.concatenate([np.zeros(256), sym, np.zeros(256)]).astype(complex)
        env = ComplexEnvelope(x, fs)
        chain = ch.TxChain("polar", (
            ch.StageSpec("polar_paths"),
            ch.StageSpec("onoff_leakage", {"off_ratio_db": 40.0}),
        ))
        out = ch.run_chain(chain, env)
        off = out.samples[768 + 8:]
        assert np.max(np.abs(np.abs(off) - 1e-2)) < 1e-9
        assert np.max(np.abs(out.samples[:256])) == 0.0

    def test_per_trim_runs_match_whole_chain_runs(self):
        # a gated burst: the stage before polar_paths fills the gaps, so the
        # gated stages after it see the commanded mask only as the chain
        # input's gate
        rng = np.random.default_rng(5)
        sym = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 384))
        x = np.concatenate([np.zeros(64), sym, np.zeros(64), sym[:128]])
        env = ComplexEnvelope(x, 8e9)
        delays = [-5e-11, 0.0, 2.5e-11, 1.1e-10]
        for tau_a in (3e-11, 0.0):
            chain = ch.TxChain("polar", (
                ch.StageSpec("lo_feedthrough", {"offset": 0.02 - 0.01j}),
                ch.StageSpec("polar_paths", {
                    "am_bits": 7, "am_cutoff_hz": 1.5e9, "tau_a": tau_a,
                    "pm_bits": 9, "pm_cutoff_hz": 2e9, "tau_p": 8e-11}),
                ch.StageSpec("onoff_leakage", {"off_ratio_db": 30.0}),
                ch.StageSpec("gated_offset", {"offset": 0.01}),
            ))
            outs = list(ch.run_chain_per_trim(chain, env, delays))
            assert len(outs) == len(delays)
            for delay, out in zip(delays, outs):
                ref = ch.run_chain(ch.with_stage_param(
                    chain, "polar_paths", comp_delay_s=delay), env)
                assert out.samples.tobytes() == ref.samples.tobytes()
                assert out.sample_rate == ref.sample_rate

    def test_per_trim_refuses_a_trim_past_a_quarter(self):
        env = _tone(0.1, n=256)   # 256 us
        chain = ch.TxChain("polar", (ch.StageSpec("polar_paths"),))
        outs = ch.run_chain_per_trim(chain, env, [0.0, 64e-6])
        next(outs)
        with pytest.raises(ch.InputError, match="comp_delay_s") as info:
            next(outs)
        assert info.value.key == "params.comp_delay_s"

    def test_per_trim_refuses_a_cutoff_at_the_rate_bound(self):
        env = _tone(0.1, n=256)   # 1 MHz
        chain = ch.TxChain("polar", (
            ch.StageSpec("polar_paths", {"pm_cutoff_hz": 5e5}),))
        with pytest.raises(ch.InputError, match="must stay below 500000") \
                as info:
            ch.run_chain_per_trim(chain, env, [0.0])
        assert info.value.key == "params.pm_cutoff_hz"

    def test_per_trim_needs_polar_paths(self):
        with pytest.raises(ValueError, match="polar_paths"):
            ch.run_chain_per_trim(ch.TxChain("cartesian", (
                ch.StageSpec("iq_imbalance", {"quad_skew": 0.1}),)),
                _tone(0.1), [0.0])

    def test_gated_offset_only_touches_off_samples(self):
        x = np.concatenate([np.zeros(16), np.ones(16), np.zeros(16)])
        env = ComplexEnvelope(x.astype(complex), 1e6)
        chain = ch.TxChain("custom", (
            ch.StageSpec("gated_offset", {"offset": 0.1j}),))
        out = ch.run_chain(chain, env)
        assert np.all(out.samples[16:32] == 1.0)
        assert np.all(out.samples[:16] == 0.1j)


class TestRfdac:
    def test_quantize_only_matches_impairment(self):
        env = _qpsk_waveform(64)
        ref = imp.quantize(env, 9, 1.2)
        # a hold of 1, given or by default, leaves the quantized rails as is
        for hold in ({}, {"hold_factor": 1}):
            chain = ch.TxChain("rfdac", (ch.StageSpec(
                "rfdac_core", {"bits": 9, "full_scale": 1.2, **hold}),))
            out = ch.run_chain(chain, env)
            assert out.samples.tobytes() == ref.samples.tobytes()
            assert out.sample_rate == env.sample_rate

    def test_hold_images_follow_sinc_envelope(self):
        fs, n, k, hold = 1e6, 4096, 205, 8
        env = _tone(k / n, n=n, fs=fs)
        chain = ch.TxChain("rfdac", (
            ch.StageSpec("rfdac_core", {"bits": 14, "hold_factor": hold}),))
        out = ch.run_chain(chain, env)
        assert out.sample_rate == fs * hold
        assert len(out) == n * hold
        spec = np.abs(np.fft.fft(out.samples)) / len(out)
        f0 = k / n * fs
        carrier_db = 20.0 * math.log10(spec[k])
        for m, idx in ((1, 7 * n + k), (-1, n + k)):
            f_img = f0 - m * fs if m == 1 else f0 + fs
            img_db = 20.0 * math.log10(spec[idx])
            predicted = _zoh_image_ratio_db(f0, f_img, fs)
            assert img_db - carrier_db == pytest.approx(predicted, abs=1.0)

    def test_mismatch_needs_seed(self):
        env = _tone(0.01, n=64)
        with pytest.raises(ValueError, match="seed"):
            ch.run_chain(ch.TxChain("rfdac", (ch.StageSpec(
                "rfdac_core", {"bits": 8, "mismatch_sigma": 0.01}),)), env)

    def test_trim_monotonically_reduces_mismatch_error(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 8192) + 1j * rng.uniform(-1, 1, 8192)
        env = ComplexEnvelope(x, 1e6)
        clean = ch.run_chain(ch.TxChain("rfdac", (
            ch.StageSpec("rfdac_core", {"bits": 10}),)), env)
        errs = []
        for trim in (0, 2, 4, 6):
            out = ch.run_chain(ch.TxChain("rfdac", (ch.StageSpec(
                "rfdac_core", {"bits": 10, "mismatch_sigma": 0.01,
                               "seed": 17, "trim_bits": trim}),)), env)
            errs.append(_evm(out.samples, clean.samples))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("bits, refused", [(23, False), (24, True),
                                                (32, True)])
    def test_mismatch_table_within_the_sample_budget(self, bits, refused):
        # 2**bits + 1 gains per rail: only the spec is built, never run
        params = {"bits": bits, "mismatch_sigma": 0.01, "seed": 1}
        if refused:
            with pytest.raises(ch.InputError, match="mismatch table") as e:
                ch.StageSpec("rfdac_core", params)
            assert e.value.key == "params.bits"
        else:
            ch.StageSpec("rfdac_core", params)
        ch.StageSpec("rfdac_core", {"bits": bits})   # no table, no bound

    def test_mismatch_is_seed_deterministic(self):
        env = _qpsk_waveform(32)
        chain = ch.TxChain("rfdac", (ch.StageSpec(
            "rfdac_core", {"bits": 8, "mismatch_sigma": 0.02, "seed": 5}),))
        a = ch.run_chain(chain, env)
        b = ch.run_chain(chain, env)
        assert np.array_equal(a.samples, b.samples)


class TestHarmonic:
    def test_exact_frequency_multiplication(self):
        fs, n = 1e6, 4096
        f0 = 0.02 * fs
        env = _tone(0.02, n=n, fs=fs)
        for factor in (2, 3, 4):
            out = ch.run_chain(ch.TxChain("harmonic", (ch.StageSpec(
                "harmonic_multiply", {"factor": factor}),)), env)
            t = np.arange(n) / fs
            expect = np.exp(2j * np.pi * factor * f0 * t)
            assert np.max(np.abs(out.samples - expect)) < 1e-9

    def test_factor_validation(self):
        for factor in (1, 5):
            with pytest.raises(ValueError, match=r"must lie in \[2, 4\], "
                               f"got {factor}"):
                ch.StageSpec("harmonic_multiply", {"factor": factor})

    def test_phase_noise_multiplies_exactly(self):
        # same seed: the multiplied chain's phase error is exactly M times
        # the sub-harmonic walk, sample by sample
        fs, n, rate, factor = 1e6, 2048, 1e-3, 3
        env = _tone(0.02, n=n, fs=fs)
        noisy = imp.phase_noise(env, rate, seed=11)
        theta = np.angle(noisy.samples / env.samples)
        out = ch.run_chain(ch.TxChain("harmonic", (
            ch.StageSpec("phase_noise", {"rate": rate, "seed": 11}),
            ch.StageSpec("harmonic_multiply", {"factor": factor}),
        )), env)
        clean3 = env.samples ** factor
        d = np.angle(out.samples / (clean3 * np.exp(1j * factor * theta)))
        assert np.max(np.abs(d)) < 1e-9

    def test_keyed_state_errors(self):
        x = np.concatenate([np.zeros(32), np.ones(32), np.zeros(32),
                            0.5 * np.ones(32)]).astype(complex)
        env = ComplexEnvelope(x, 1e6)
        chain = ch.TxChain("harmonic", (
            ch.StageSpec("harmonic_multiply", {"factor": 2}),
            ch.StageSpec("state_errors", {"levels": [0.0, 0.5, 1.0],
                                          "errors": [0.0, -0.03, 0.02]}),
        ))
        out = ch.run_chain(chain, env)
        assert np.allclose(np.abs(out.samples[32:64]), 1.02)
        assert np.allclose(np.abs(out.samples[96:]), 0.5 * 0.97)
        assert np.all(out.samples[:32] == 0.0)

    def test_spur_level_is_exact(self):
        fs, n, k = 1e6, 4096, 204
        env = _tone(k / n, n=n, fs=fs)  # unit rms carrier, exact bin
        chain = ch.TxChain("harmonic", (
            ch.StageSpec("harmonic_multiply", {"factor": 2}),
            ch.StageSpec("spur_inject", {"offset_hz": 0.25 * fs,
                                         "level_dbc": -40.0}),
        ))
        out = ch.run_chain(chain, env)
        spec = np.abs(np.fft.fft(out.samples)) / n
        carrier = spec[2 * k]  # doubled tone
        spur = spec[n // 4]
        assert 20.0 * math.log10(spur / carrier) == pytest.approx(-40.0,
                                                                  abs=0.05)

    def test_spur_on_a_huge_record_stays_finite(self):
        # the plain mean of squares overflows past about 1.3e154
        env = ComplexEnvelope(np.full(64, 1e200 + 0j), 1e6)
        out = ch.apply_stage(env, ch.StageSpec(
            "spur_inject", {"offset_hz": 1e5, "level_dbc": -40.0}))
        assert np.all(np.isfinite(out.samples))
        spur = out.samples - env.samples
        assert np.abs(spur) == pytest.approx(np.full(64, 1e198), rel=1e-12)

    def test_rise_fall_smooths_keying_edge(self):
        x = np.concatenate([np.zeros(64), np.ones(192)]).astype(complex)
        env = ComplexEnvelope(x, 1e6)
        chain = ch.TxChain("harmonic", (
            ch.StageSpec("harmonic_multiply", {"factor": 2}),
            ch.StageSpec("rise_fall", {"cutoff_hz": 2e4}),
        ))
        out = ch.run_chain(chain, env)
        edge = np.abs(out.samples[64:96])
        assert edge[0] < 0.2 and edge[-1] > 0.8
        assert np.all(np.diff(np.abs(out.samples[64:160])) > -1e-12)


def _bits(x) -> np.ndarray:
    """The IEEE bit patterns of an envelope's samples or of an array, so a
    comparison tells -0.0 from 0.0."""
    x = np.ascontiguousarray(getattr(x, "samples", x))
    return x.view(np.uint64)


def _one_stage(env, kind, **params):
    return ch.apply_stage(env, ch.StageSpec(kind, params))


def _keyed_waveform() -> ComplexEnvelope:
    """Off gaps, keyed levels and a phase ramp, so amplitude and phase both
    move and some samples are exactly zero."""
    levels = np.repeat([0.0, 1.0, 0.5, 0.0, 0.25, 1.0], 48)
    phase = 0.03 * np.arange(levels.size) ** 1.3
    return ComplexEnvelope(levels * np.exp(1j * phase), 1e6)


def _rfdac_oracle(env, bits, full_scale, sigma, seed, trim_bits):
    """rfdac_core written as a code-level converter: clip to full scale,
    round to a code, clip the code, scale it, and with mismatch weight it by
    that code's gain from the seeded table."""
    step = 2.0 * full_scale / 2.0 ** bits
    half_codes = int(round(2.0 ** bits / 2.0))

    def convert(track, table):
        codes = np.round(np.clip(track, -full_scale, full_scale) / step)
        codes = np.clip(codes, -half_codes, half_codes).astype(np.int64)
        out = codes * step
        if table is not None:
            out = out * (1.0 + table[codes + half_codes])
        return out

    tables = (None, None)
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        tables = [rng.normal(0.0, sigma, 2 * half_codes + 1) for _ in "iq"]
        if trim_bits > 0:
            tstep = 4.0 * sigma / 2.0 ** trim_bits
            for table in tables:
                table -= np.clip(np.round(table / tstep) * tstep,
                                 -2.0 * sigma, 2.0 * sigma)
    return (convert(env.samples.real, tables[0])
            + 1j * convert(env.samples.imag, tables[1]))


class TestSharedKernels:
    """Each composite stage and synthesis step calls the shared kernel for
    its operation, and equals, bit for bit, the formula it once wrote out."""

    @pytest.mark.parametrize("bits", [1, 4, 10, 16])
    @pytest.mark.parametrize("trim_bits", [0, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    @pytest.mark.parametrize("full_scale", [1.0, 0.7])
    def test_rfdac_core_is_the_code_level_converter(
            self, bits, trim_bits, sigma, full_scale):
        step = 2.0 * full_scale / 2.0 ** bits
        half = 2 ** (bits - 1)     # codes at both ends and around zero
        k = np.unique(np.r_[-half - 3:-half + 500, -500:500,
                            half - 500:half + 3])
        rng = np.random.default_rng(bits)
        track = np.concatenate([
            (k + 0.5) * step,                       # exact half-step ties
            k * step,                               # exact levels
            [0.0, -0.0, -0.25 * step, 0.25 * step, full_scale, -full_scale,
             full_scale + 0.5 * step, -full_scale - 0.5 * step, 1e300,
             -1e300, np.inf, -np.inf],
            rng.uniform(-1.5 * full_scale, 1.5 * full_scale, 512)])
        x = np.empty(track.size, dtype=np.complex128)   # 1j * inf is nan
        x.real, x.imag = track, rng.permutation(track)
        env = ComplexEnvelope(x, 1e6)
        out = _one_stage(env, "rfdac_core", bits=bits, full_scale=full_scale,
                         mismatch_sigma=sigma, seed=7, trim_bits=trim_bits,
                         hold_factor=2)
        want = _rfdac_oracle(env, bits, full_scale, sigma, 7, trim_bits)
        assert np.array_equal(_bits(out), _bits(np.repeat(want, 2)))

    @pytest.mark.parametrize("env", [_qpsk_waveform(64), _keyed_waveform()],
                             ids=["qpsk", "keyed"])
    def test_rise_fall_is_the_am_lowpass_of_a_polar_path(self, env):
        cutoff = 0.05 * env.sample_rate
        got = _one_stage(env, "rise_fall", cutoff_hz=cutoff)
        want = _one_stage(env, "polar_paths", am_cutoff_hz=cutoff)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_harmonic_multiply_is_the_polar_formula(self, factor):
        env = _keyed_waveform()
        got = _one_stage(env, "harmonic_multiply", factor=factor)
        tracks = env.polar
        want = tracks.amplitude * np.exp(1j * factor * tracks.phase)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("params", [
        {"errors": [0.1, -1.5, 0.03, -0.2]},      # one level clamped to zero
        {"sigma": 0.05, "seed": 4}])
    def test_state_errors_is_the_polar_formula(self, params):
        env = _keyed_waveform()
        levels = [0.0, 0.25, 0.5, 1.0]
        got = _one_stage(env, "state_errors", levels=levels, **params)
        errors = params.get("errors")
        if errors is None:
            errors = np.random.default_rng(4).normal(0.0, 0.05, 4)
        tracks = env.polar
        idx = np.argmin(np.abs(tracks.amplitude[:, None]
                               - np.array(levels)[None, :]), axis=1)
        amp = tracks.amplitude * (1.0 + np.asarray(errors)[idx])
        want = np.maximum(amp, 0.0) * np.exp(1j * tracks.phase)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("tau_i, tau_q", [(0.3, -1.7), (2.0, 0.0),
                                              (-0.5, 3.25)])
    def test_path_skew_delays_each_rail(self, tau_i, tau_q):
        env = _qpsk_waveform(64)
        fs = env.sample_rate
        got = _one_stage(env, "path_skew", tau_i=tau_i / fs, tau_q=tau_q / fs)
        want = (delay_real_track(env.samples.real, tau_i / fs, fs)
                + 1j * delay_real_track(env.samples.imag, tau_q / fs, fs))
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("axis_phase", [math.pi / 2, -0.3, 2.5])
    def test_axis_phase_is_a_static_phase_rotation(self, axis_phase):
        spec = mod.GateEnvelopeSpec("gaussian", 20e-9, drag_enabled=True,
                                    drag_coefficient_s=1e-10)
        plain = ch.synth_qubit_pulse(spec, 25.6e9)
        got = ch.synth_qubit_pulse(spec, 25.6e9, axis_phase=axis_phase)
        want = plain.samples * np.exp(1j * axis_phase)
        assert np.array_equal(_bits(got), _bits(want))


class TestSynth:
    def test_comm_waveform_empty_bits(self):
        const = mod.build_constellation("m_psk", m=4)
        shape = mod.PulseShape("rect", samples_per_symbol=8)
        with pytest.raises(ValueError,
                           match="cannot shape an empty symbol stream"):
            ch.synth_comm_waveform([], const, shape)

    def test_comm_waveform_matches_manual_path(self):
        const = mod.build_constellation("square_qam", m=16)
        shape = mod.PulseShape("rect", samples_per_symbol=8)
        bits = [0, 1, 1, 0, 1, 1, 1, 1]
        stream, env = ch.synth_comm_waveform(bits, const, shape,
                                             symbol_period=1e-6)
        assert len(stream) == 2
        assert env.sample_rate == pytest.approx(8e6)

    def test_qubit_pulse_peak_solved_for_angle(self):
        # rect pulse: area is exact, so the solved peak gives angle/gain area
        g = 2.0 * math.pi * 5e6
        spec = mod.GateEnvelopeSpec("rect", 20e-9, peak_amplitude=None)
        env = ch.synth_qubit_pulse(spec, 51.2e9,
                                   rotation_angle=math.pi, drive_gain=g)
        area = g * np.sum(np.abs(env.samples)) / env.sample_rate
        assert area == pytest.approx(math.pi, rel=1e-12)

    def test_qubit_pulse_gaussian_area(self):
        g = 2.0 * math.pi * 5e6
        spec = mod.GateEnvelopeSpec("gaussian", 20e-9, peak_amplitude=None,
                                    sigma_fraction=0.25)
        env = ch.synth_qubit_pulse(spec, 51.2e9,
                                   rotation_angle=math.pi / 2, drive_gain=g)
        area = g * np.sum(np.abs(env.samples)) / env.sample_rate
        assert area == pytest.approx(math.pi / 2, rel=1e-5)

    def test_axis_phase_rotates_quadrature(self):
        spec = mod.GateEnvelopeSpec("cosine", 20e-9, peak_amplitude=0.5)
        a = ch.synth_qubit_pulse(spec, 25.6e9)
        b = ch.synth_qubit_pulse(spec, 25.6e9, axis_phase=math.pi / 2)
        assert np.max(np.abs(b.samples - 1j * a.samples)) < 1e-12

    def test_peak_requires_angle(self):
        spec = mod.GateEnvelopeSpec("rect", 20e-9, peak_amplitude=None)
        with pytest.raises(ValueError, match="rotation_angle"):
            ch.synth_qubit_pulse(spec, 51.2e9)

    @staticmethod
    def _spy_gate(monkeypatch):
        """Count ``_gate_mask`` calls, and record what each was given."""
        calls = []
        real = ch._gate_mask

        def spy(env):
            calls.append(env)
            return real(env)

        monkeypatch.setattr(ch, "_gate_mask", spy)
        return calls

    def test_no_gate_is_made_without_a_gated_stage(self, monkeypatch):
        calls = self._spy_gate(monkeypatch)
        env = ComplexEnvelope(np.r_[np.zeros(32), np.ones(32)], 1e6)
        chain = ch.TxChain("custom", (
            ch.StageSpec("amplitude_error", {"eps_a": 0.1}),
            ch.StageSpec("polar_paths", {"am_cutoff_hz": 1e5}),
            ch.StageSpec("lo_feedthrough", {"offset": 0.01})))
        ch.run_chain(chain, env)
        list(ch.run_chain_per_trim(chain, env, [0.0, 1e-6, 2e-6]))
        assert calls == []

    def test_the_gate_is_made_once_from_the_chain_input(self, monkeypatch):
        calls = self._spy_gate(monkeypatch)
        env = ComplexEnvelope(np.r_[np.zeros(32), np.ones(32)], 1e6)
        chain = ch.TxChain("custom", (
            ch.StageSpec("lo_feedthrough", {"offset": 0.01}),
            ch.StageSpec("polar_paths", {"am_cutoff_hz": 1e5}),
            ch.StageSpec("gated_offset", {"offset": 0.1}),
            ch.StageSpec("onoff_leakage", {"off_ratio_db": 40.0})))
        out = ch.run_chain(chain, env)
        assert calls == [env]
        assert np.all(out.samples[:32] == 0.0)
        trims = list(ch.run_chain_per_trim(chain, env, [0.0, 1e-6, 2e-6]))
        assert calls == [env, env]
        assert trims[0].samples.tobytes() == out.samples.tobytes()

    def test_gate_mask_survives_chain_but_not_resample(self):
        x = np.concatenate([np.zeros(32), np.ones(32)]).astype(complex)
        env = ComplexEnvelope(x, 1e6)
        bad = ch.TxChain("custom", (
            ch.StageSpec("rfdac_core", {"bits": 8, "hold_factor": 2}),
            ch.StageSpec("gated_offset", {"offset": 0.1}),
        ))
        with pytest.raises(ch.InputError, match="cannot follow a hold") \
                as info:
            ch.run_chain(bad, env)
        assert info.value.key == "kind"
