"""Impairment catalog tests.

Each deterministic transform is checked against a closed-form oracle; the
stochastic ones are checked against their ensemble laws (random-walk variance,
quantizer SQNR, jitter error power) plus seed determinism.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from sigchain.envelope import (
    DELAY_KERNEL_HALF,
    ComplexEnvelope,
    _interp_kernels,
    fractional_delay,
)
from sigchain import impairments as imp


def _tone(f_frac: float, n: int = 4096, fs: float = 1e6) -> ComplexEnvelope:
    t = np.arange(n) / fs
    return ComplexEnvelope(np.exp(2j * np.pi * (f_frac * fs) * t), fs)


def _evm(rx: np.ndarray, ref: np.ndarray) -> float:
    return float(
        np.sqrt(np.mean(np.abs(rx - ref) ** 2) / np.mean(np.abs(ref) ** 2))
    )


def _rand_envelope(seed: int, n: int = 512, fs: float = 1e6) -> ComplexEnvelope:
    rng = np.random.default_rng(seed)
    sym = rng.choice([-1, 1], n) + 1j * rng.choice([-1, 1], n)
    return ComplexEnvelope(sym / np.sqrt(2.0), fs)


class TestAmplitudeAndPhase:
    def test_gain_error_evm_identity(self):
        env = _rand_envelope(0)
        for eps in (0.01, -0.03, 0.2):
            out = imp.amplitude_error(env, eps)
            assert abs(_evm(out.samples, env.samples) - abs(eps)) < 1e-9

    def test_phase_error_evm_identity(self):
        env = _rand_envelope(1)
        for phi in (0.02, -0.3, 1.0):
            out = imp.static_phase_error(env, phi)
            expect = 2.0 * abs(math.sin(phi / 2.0))
            assert abs(_evm(out.samples, env.samples) - expect) < 1e-9

    def test_offset_evm_identity(self):
        env = _rand_envelope(2)
        c = 0.03 - 0.04j
        out = imp.lo_feedthrough(env, c)
        # unit-RMS reference, so EVM is just |c|
        assert abs(_evm(out.samples, env.samples) - abs(c)) < 1e-9

    def test_gain_must_stay_positive(self):
        env = _rand_envelope(3)
        with pytest.raises(ValueError):
            imp.amplitude_error(env, -1.0)

    @given(
        eps=st.floats(-0.5, 0.5),
        phi=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_gain_and_phase_compose_exactly(self, eps, phi):
        env = _rand_envelope(4, n=64)
        out = imp.static_phase_error(imp.amplitude_error(env, eps), phi)
        expect = env.samples * (1.0 + eps) * np.exp(1j * phi)
        assert np.max(np.abs(out.samples - expect)) < 1e-12


class TestPhaseNoise:
    def test_walk_starts_at_zero(self):
        env = _tone(0.0, n=256)
        out = imp.phase_noise(env, 5.0, seed=7)
        assert out.samples[0] == env.samples[0]

    def test_seed_determinism(self):
        env = _tone(0.01)
        a = imp.phase_noise(env, 1.0, seed=42)
        b = imp.phase_noise(env, 1.0, seed=42)
        c = imp.phase_noise(env, 1.0, seed=43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_variance_grows_linearly(self):
        # ensemble variance of the accumulated phase follows rate * t
        fs, n, rate = 1e6, 4096, 2.5
        env = ComplexEnvelope(np.ones(n, dtype=complex), fs)
        finals, mids = [], []
        for seed in range(600):
            th = np.angle(imp.phase_noise(env, rate, seed).samples)
            finals.append(th[-1])
            mids.append(th[n // 2])
        t_final = (n - 1) / fs
        t_mid = (n // 2) / fs
        assert np.var(finals) == pytest.approx(rate * t_final, rel=0.15)
        assert np.var(mids) == pytest.approx(rate * t_mid, rel=0.15)

    def test_amplitude_untouched(self):
        env = _rand_envelope(5)
        out = imp.phase_noise(env, 10.0, seed=0)
        assert np.max(np.abs(np.abs(out.samples) - np.abs(env.samples))) < 1e-12


class TestIqImbalance:
    def test_matches_mu_nu_form(self):
        env = _rand_envelope(6)
        g, phi = 0.04, 0.03
        out = imp.iq_imbalance(env, g, phi)
        mu, nu = imp.iq_imbalance_mu_nu(g, phi)
        expect = mu * env.samples + nu * np.conj(env.samples)
        assert np.max(np.abs(out.samples - expect)) < 1e-12

    def test_image_rejection_closed_form(self):
        # single tone at +f: image power at -f must equal |nu/mu|^2
        n, fs = 8192, 1e6
        k = 128  # exact-bin tone
        t = np.arange(n) / fs
        env = ComplexEnvelope(np.exp(2j * np.pi * (k * fs / n) * t), fs)
        g, phi = 0.05, 0.02
        out = imp.iq_imbalance(env, g, phi)
        spec = np.fft.fft(out.samples) / n
        mu, nu = imp.iq_imbalance_mu_nu(g, phi)
        irr_db = 10.0 * math.log10(abs(mu) ** 2 / abs(nu) ** 2)
        measured = 10.0 * math.log10(abs(spec[k]) ** 2 / abs(spec[-k]) ** 2)
        assert measured == pytest.approx(irr_db, abs=0.01)

    def test_identity_at_zero(self):
        env = _rand_envelope(7)
        out = imp.iq_imbalance(env, 0.0, 0.0)
        assert np.max(np.abs(out.samples - env.samples)) < 1e-15


class TestBandwidthLimit:
    def test_dc_gain_exactly_unity(self):
        b, a = imp._one_pole_coeffs(1e4, 1e6)
        assert sum(b) / sum(a) == pytest.approx(1.0, abs=1e-15)

    def test_minus_3db_at_cutoff(self):
        # prewarped bilinear puts the half-power point exactly on cutoff
        fs, n = 1e6, 65536
        fc = 1e4
        env = _tone(fc / fs, n=n, fs=fs)
        out = imp.bandwidth_limit(env, fc)
        sl = slice(n // 2, None)
        gain = math.sqrt(
            np.mean(np.abs(out.samples[sl]) ** 2)
            / np.mean(np.abs(env.samples[sl]) ** 2)
        )
        assert gain * math.sqrt(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_step_time_constant(self):
        # 63.2% crossing lands at 1/(2 pi fc) after removing the half-sample
        # latency of the trapezoid discretization
        fs = 1e6
        for fc in (5e3, 1e4, 2e4):
            n = int(fs / fc * 20)
            env = ComplexEnvelope(np.ones(n, dtype=complex), fs)
            y = imp.bandwidth_limit(env, fc).samples.real
            target = 1.0 - math.exp(-1.0)
            k = int(np.argmax(y >= target))
            t_cross = (k - 1 + (target - y[k - 1]) / (y[k] - y[k - 1])) / fs
            tau = 1.0 / (2.0 * math.pi * fc)
            assert (t_cross + 0.5 / fs) == pytest.approx(tau, rel=0.01)

    def test_cutoff_bounds(self):
        env = _tone(0.01)
        for bad in (0.0, -1.0, 5e5, 6e5):
            with pytest.raises(ValueError):
                imp.bandwidth_limit(env, bad)

    def test_attenuation_monotone_in_frequency(self):
        fs, fc = 1e6, 2e4
        gains = []
        for f_frac in (0.01, 0.05, 0.1, 0.2):
            env = _tone(f_frac, n=16384, fs=fs)
            out = imp.bandwidth_limit(env, fc)
            sl = slice(8192, None)
            gains.append(
                np.mean(np.abs(out.samples[sl])) / np.mean(np.abs(env.samples[sl]))
            )
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestOnePoleScan:
    """The blocked numpy scan against scipy's sequential recurrence.

    Cutoffs from 1e-6 to 0.4999 of the sample rate put the pole near +1,
    at 0 (0.25) and near -1; lengths cover empty and one-sample records,
    either side of the longest block (where a record first splits in two),
    and many blocks.
    """

    FRACS = (1e-6, 0.1, 0.25, 0.4, 0.49, 0.4999)

    @staticmethod
    def _lengths(frac):
        _, a = imp._one_pole_coeffs(frac, 1.0)
        longest = max(1, int(imp._SCAN_RANGE / -math.log(abs(a[1]))))
        lengths = (0, 1, 2, longest - 1, longest, longest + 1,
                   3 * longest + 5, 2**16)
        return sorted({n for n in lengths if 0 <= n <= 2**16})

    @staticmethod
    def _close(y, ref):
        assert y.shape == ref.shape
        if ref.size:
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            assert np.max(np.abs(y - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("frac", FRACS)
    def test_matches_lfilter(self, frac):
        fs = 1e6
        b, a = imp._one_pole_coeffs(frac * fs, fs)
        rng = np.random.default_rng(23)
        for n in self._lengths(frac):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            if n:
                out = imp.bandwidth_limit(ComplexEnvelope(x, fs), frac * fs)
                self._close(out.samples, signal.lfilter(b, a, x))
            self._close(imp.lowpass_track(x.real, frac * fs, fs),
                        signal.lfilter(b, a, x.real))

    @pytest.mark.parametrize("frac", FRACS)
    def test_one_block_record_is_the_bare_scan(self, frac):
        # the longest one-block record takes no carry: its output is
        # b0 p^k cumsum(s p^-k), s[n] = x[n] + x[n-1], bit for bit
        b, a = imp._one_pole_coeffs(frac, 1.0)
        n = min(2**16, int(imp._SCAN_RANGE / -math.log(abs(a[1]))))
        x = np.random.default_rng(5).normal(size=n)
        s = x.copy()
        s[1:] += x[:-1]
        scale, grow, _ = imp._scan_tables(b[0], -a[1], n)
        y = imp.lowpass_track(x, frac, 1.0)
        assert y.tobytes() == (np.cumsum(s * grow) * scale).tobytes()

    @pytest.mark.parametrize("frac", FRACS[1:] + (1e-4,))
    def test_step_settles_to_one(self, frac):
        # 1e-6 would need millions of samples; 1e-4 settles in 2^16
        y = imp.lowpass_track(np.ones(2**16), frac, 1.0)
        assert abs(y[-1] - 1.0) <= 1e-12


class TestQuantize:
    def test_sqnr_follows_bit_law(self):
        # full-scale complex tone: SQNR ~= 6.02 B + 1.76 dB
        fs, n = 1e6, 32768
        env = _tone(0.0123457, n=n, fs=fs)
        for bits in (8, 10, 12):
            out = imp.quantize(env, bits, 1.0)
            noise = np.mean(np.abs(out.samples - env.samples) ** 2)
            sqnr = 10.0 * math.log10(np.mean(np.abs(env.samples) ** 2) / noise)
            assert sqnr == pytest.approx(6.02 * bits + 1.76, abs=1.0)

    def test_two_extra_bits_buy_12db(self):
        env = _tone(0.0123457, n=32768)
        sqnrs = []
        for bits in (6, 8, 10):
            out = imp.quantize(env, bits, 1.0)
            noise = np.mean(np.abs(out.samples - env.samples) ** 2)
            sqnrs.append(10.0 * math.log10(1.0 / noise))
        for lo, hi in zip(sqnrs, sqnrs[1:]):
            assert hi - lo == pytest.approx(12.04, abs=1.0)

    def test_clipping_at_full_scale(self):
        env = ComplexEnvelope(np.array([2.0 + 3.0j, -5.0 - 0.1j]), 1e6)
        out = imp.quantize(env, 8, 1.0)
        assert np.max(np.abs(out.samples.real)) <= 1.0 + 1e-15
        assert np.max(np.abs(out.samples.imag)) <= 1.0 + 1e-15

    def test_idempotent(self):
        env = _rand_envelope(8)
        once = imp.quantize(env, 6, 1.0)
        twice = imp.quantize(once, 6, 1.0)
        assert np.array_equal(once.samples, twice.samples)

    def test_zero_maps_to_zero(self):
        # mid-tread: zero is a code
        env = ComplexEnvelope(np.zeros(8, dtype=complex), 1e6)
        out = imp.quantize(env, 4, 1.0)
        assert np.all(out.samples == 0.0)

    def test_zero_level_is_positive_zero(self):
        # a small negative input rounds to the zero level, written "0"
        from sigchain.scenario import _csv

        env = ComplexEnvelope(np.array([-0.01 - 0.01j]), 1e6)
        out = imp.quantize(env, 4, 1.0)
        assert _csv("i,q", out.samples.real, out.samples.imag) == "i,q\n0,0\n"
        track = imp.quantize_track(-np.linspace(0.0, 0.03, 7), 4, 1.0)
        assert not np.any(np.signbit(track))

    def test_unipolar_track(self):
        track = np.array([0.0, 0.26, 0.51, 1.0, 1.4])
        out = imp.quantize_track(track, 2, 1.0, lo=0.0)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.25)

    def test_bad_args(self):
        env = _rand_envelope(9)
        with pytest.raises(ValueError):
            imp.quantize(env, 0, 1.0)
        with pytest.raises(ValueError):
            imp.quantize(env, 8, 0.0)


class TestSampleJitter:
    def test_tone_error_law(self):
        # small timing noise on a tone: error RMS ~= 2 pi f sigma
        fs, n = 1e6, 16384
        f_frac = 0.05
        env = _tone(f_frac, n=n, fs=fs)
        sigma = 0.02 / fs
        errs = []
        for seed in range(5):
            out = imp.sample_jitter(env, sigma, seed)
            d = (out.samples - env.samples)[32:-32]
            errs.append(np.sqrt(np.mean(np.abs(d) ** 2)))
        pred = 2.0 * math.pi * (f_frac * fs) * sigma
        assert np.mean(errs) == pytest.approx(pred, rel=0.1)

    def test_zero_sigma_passthrough(self):
        env = _tone(0.03)
        out = imp.sample_jitter(env, 0.0, seed=0)
        assert np.array_equal(out.samples, env.samples)

    def test_seed_determinism(self):
        env = _tone(0.03)
        sigma = 0.01 / env.sample_rate
        a = imp.sample_jitter(env, sigma, seed=3)
        b = imp.sample_jitter(env, sigma, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_sigma_bound_enforced(self):
        env = _tone(0.03)
        with pytest.raises(ValueError):
            imp.sample_jitter(env, 0.1 / env.sample_rate, seed=0)

    def test_dc_immune(self):
        # constant envelope has no slope, so timing noise does nothing
        env = ComplexEnvelope(np.full(2048, 0.7 + 0.1j), 1e6)
        out = imp.sample_jitter(env, 0.05 / 1e6, seed=1)
        mid = slice(32, -32)
        assert np.max(np.abs(out.samples[mid] - env.samples[mid])) < 1e-7

    def test_matches_per_sample_kernel_rows(self):
        # the Farrow bank and the constant-delay path read one tap table
        env = _rand_envelope(12, n=200)
        sigma, seed = 0.09 / env.sample_rate, 4
        out = imp.sample_jitter(env, sigma, seed).samples
        d = np.random.default_rng(seed).normal(
            0.0, sigma * env.sample_rate, len(env))
        base = np.floor(d).astype(int)
        taps = _interp_kernels(d - base)
        offsets = range(-DELAY_KERNEL_HALF + 1, DELAY_KERNEL_HALF + 1)
        x = env.samples
        ref = np.zeros(len(env), dtype=complex)
        for k in range(len(env)):
            for j, m in enumerate(offsets):
                if 0 <= k + base[k] + m < len(env):
                    ref[k] += taps[k, j] * x[k + base[k] + m]
        assert np.max(np.abs(out - ref)) <= 1e-12


class TestAmAmpm:
    def test_cubic_compression_exact(self):
        env = _tone(0.02)
        out = imp.am_ampm(env, [1.0, -0.1], [0.0])
        expect = env.samples * (1.0 - 0.1 * 1.0**2)  # |x| = 1 everywhere
        assert np.max(np.abs(out.samples - expect)) < 1e-12

    def test_amplitude_dependent_phase(self):
        rng = np.random.default_rng(10)
        amps = rng.uniform(0.1, 1.0, 256)
        env = ComplexEnvelope(amps.astype(complex), 1e6)
        out = imp.am_ampm(env, [1.0], [0.0, 0.3])
        expect = amps * np.exp(1j * 0.3 * amps)
        assert np.max(np.abs(out.samples - expect)) < 1e-12

    def test_non_monotone_transfer_warns(self):
        env = _tone(0.02)
        with pytest.warns(UserWarning, match="non-monotone"):
            imp.am_ampm(env, [1.0, -1.0], [0.0])

    def test_zero_samples_stay_zero(self):
        env = ComplexEnvelope(np.array([0.0, 1.0, 0.0], dtype=complex), 1e6)
        out = imp.am_ampm(env, [1.0, -0.2], [0.5, 0.5])
        assert out.samples[0] == 0.0 and out.samples[2] == 0.0
        # an all-zero record spans no range, so even a non-monotone
        # transfer does not warn (warnings are errors here)
        zeros = ComplexEnvelope(np.zeros(8, dtype=complex), 1e6)
        out = imp.am_ampm(zeros, [1.0, -1.0], [0.5, 0.5])
        assert np.array_equal(out.samples, np.zeros(8))

    def test_identity_poly(self):
        env = _rand_envelope(11)
        out = imp.am_ampm(env, [1.0], [0.0])
        assert np.max(np.abs(out.samples - env.samples)) < 1e-15


class TestOnoffLeakage:
    def test_off_holds_scaled_last_on_value(self):
        x = np.arange(1, 9, dtype=complex)
        mask = np.array([1, 1, 1, 1, 0, 0, 1, 0], dtype=bool)
        env = ComplexEnvelope(x, 1e6)
        out = imp.onoff_leakage(env, 40.0, mask)
        leak = 10.0 ** (-40.0 / 20.0)
        expect = np.array([1, 2, 3, 4, 4 * leak, 4 * leak, 7, 7 * leak],
                          dtype=complex)
        assert np.max(np.abs(out.samples - expect)) < 1e-15

    def test_leading_off_is_silent(self):
        x = np.ones(6, dtype=complex)
        mask = np.array([0, 0, 1, 1, 0, 0], dtype=bool)
        out = imp.onoff_leakage(ComplexEnvelope(x, 1e6), 30.0, mask)
        assert out.samples[0] == 0.0 and out.samples[1] == 0.0

    def test_infinite_ratio_gates_cleanly(self):
        x = np.ones(6, dtype=complex)
        mask = np.array([1, 1, 0, 0, 1, 1], dtype=bool)
        out = imp.onoff_leakage(ComplexEnvelope(x, 1e6), math.inf, mask)
        assert np.all(out.samples[2:4] == 0.0)

    def test_mask_length_checked(self):
        env = _tone(0.01, n=64)
        with pytest.raises(ValueError):
            imp.onoff_leakage(env, 40.0, np.ones(63, dtype=bool))


class TestPathSkew:
    def test_equal_skew_is_pure_delay(self):
        # same tau on both rails == fractional delay of the complex record
        fs, n = 1e6, 2048
        t = np.arange(n) / fs
        x = (np.sin(2 * np.pi * 0.015 * fs * t)
             + 1j * np.cos(2 * np.pi * 0.02 * fs * t))
        env = ComplexEnvelope(x, fs)
        tau = 0.37 / fs
        skewed = imp.path_skew(env, tau, tau)
        delayed = fractional_delay(env, tau)
        assert np.max(np.abs(skewed.samples - delayed.samples)) < 1e-12

    def test_i_only_skew_leaves_q(self):
        fs, n = 1e6, 2048
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * 0.01 * fs * t) * (1.0 + 1.0j)
        env = ComplexEnvelope(x, fs)
        out = imp.path_skew(env, 0.3 / fs, 0.0)
        assert np.array_equal(out.samples.imag, env.samples.imag)
        assert not np.array_equal(out.samples.real, env.samples.real)

    def test_skew_bound(self):
        env = _tone(0.01, n=64)
        with pytest.raises(ValueError):
            imp.path_skew(env, env.duration / 2.0, 0.0)
