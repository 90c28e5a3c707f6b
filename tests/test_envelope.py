import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigchain.envelope import (
    DELAY_KERNEL_HALF,
    ComplexEnvelope,
    PolarTracks,
    Spectrum,
    _interp_kernels,
    fractional_delay,
    from_polar,
    make_envelope,
    to_polar,
    windowed_fft,
)


def tone(freq, fs, n, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return ComplexEnvelope(amp * np.exp(1j * (2 * np.pi * freq * t + phase)), fs)


class TestEnvelopeType:
    def test_mismatched_iq_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_envelope([1.0, 2.0], [1.0], 1.0)

    def test_nonpositive_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            ComplexEnvelope(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            ComplexEnvelope(np.ones(4), -1e9)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            ComplexEnvelope(np.array([]), 1e9)

    def test_samples_immutable(self):
        env = ComplexEnvelope(np.ones(4), 1e9)
        with pytest.raises(ValueError):
            env.samples[0] = 0.0

    def test_source_array_not_aliased(self):
        src = np.ones(4, dtype=np.complex128)
        env = ComplexEnvelope(src, 1e9)
        src[0] = 5.0
        assert env.samples[0] == 1.0

    def test_duration(self):
        env = ComplexEnvelope(np.ones(100), 50.0)
        assert env.duration == pytest.approx(2.0)


class TestPolar:
    def test_round_trip_exact_where_amplitude_significant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        env = ComplexEnvelope(x, 1e9)
        back = from_polar(to_polar(env))
        mask = np.abs(x) > 1e-9
        assert np.max(np.abs(back.samples[mask] - x[mask])) < 1e-12

    def test_phase_unwrapped_no_jumps(self):
        # 3 full turns of phase: unwrapped track must be smooth and monotone
        fs, n = 1e9, 4096
        env = tone(3e6 * (1e9 / 4096e6) * 4096 / n, fs, n)  # a few cycles
        ph = to_polar(env).phase
        assert np.max(np.abs(np.diff(ph))) < np.pi / 4

    def test_zero_amplitude_holds_previous_phase(self):
        fs = 1.0
        x = np.array([np.exp(1j * 0.7), 0.0, 0.0, np.exp(1j * 0.9)])
        tr = to_polar(ComplexEnvelope(x, fs))
        assert tr.phase[1] == pytest.approx(0.7, abs=1e-15)
        assert tr.phase[2] == pytest.approx(0.7, abs=1e-15)

    def test_leading_zero_phase_is_zero(self):
        x = np.array([0.0, 0.0, 1.0 + 1j])
        tr = to_polar(ComplexEnvelope(x, 1.0))
        assert tr.phase[0] == 0.0
        assert tr.phase[1] == 0.0

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            PolarTracks(np.array([1.0, -0.1]), np.zeros(2), 1.0)


class TestFractionalDelay:
    def test_integer_delay_is_exact_shift(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        env = ComplexEnvelope(x, 1.0)
        out = fractional_delay(env, 3.0).samples
        assert np.array_equal(out[3:], x[:-3])
        assert np.array_equal(out[:3], np.zeros(3))

    def test_negative_integer_delay_advances(self):
        x = np.arange(64, dtype=float) + 0j
        out = fractional_delay(ComplexEnvelope(x, 1.0), -2.0).samples
        assert np.array_equal(out[:-2], x[2:])
        assert np.array_equal(out[-2:], np.zeros(2))

    @pytest.mark.parametrize("cycles_per_sample", [0.01, 0.05, 0.1])
    def test_tone_delay_matches_phase_ramp(self, cycles_per_sample):
        # Delaying exp(j2*pi*f*t) by tau multiplies it by exp(-j2*pi*f*tau).
        fs, n = 1.0, 512
        f = cycles_per_sample * fs
        tau = 0.37 / fs
        env = tone(f, fs, n)
        out = fractional_delay(env, tau).samples
        expect = env.samples * np.exp(-2j * np.pi * f * tau)
        guard = DELAY_KERNEL_HALF + 1
        err = np.max(np.abs(out[guard:-guard] - expect[guard:-guard]))
        assert err < 1e-3

    def test_two_delays_compose(self):
        # bandlimited record representative of 32x-oversampled shaped data
        fs, n = 1.0, 1024
        t = np.arange(n) / fs
        x = np.exp(2j * np.pi * 0.015 * t) + 0.5 * np.exp(-2j * np.pi * 0.02 * t)
        env = ComplexEnvelope(x, fs)
        a = fractional_delay(fractional_delay(env, 0.3), 0.45).samples
        b = fractional_delay(env, 0.75).samples
        guard = 3 * DELAY_KERNEL_HALF
        assert np.max(np.abs(a[guard:-guard] - b[guard:-guard])) < 1e-6

    def test_excessive_delay_rejected(self):
        env = ComplexEnvelope(np.ones(64), 1.0)
        with pytest.raises(ValueError):
            fractional_delay(env, 17.0)

    def test_constant_record_passes_through_dc(self):
        env = ComplexEnvelope(np.full(64, 2.0 + 1.0j), 1.0)
        out = fractional_delay(env, 0.5).samples
        guard = DELAY_KERNEL_HALF
        assert np.max(np.abs(out[guard:-guard] - (2.0 + 1.0j))) < 1e-12

    def test_accurate_at_every_fraction(self):
        # A dense grid over [0, 1), plus the narrow windows near 0.062 and
        # 0.938 where a per-fraction moment solve once went near-singular.
        fracs = np.concatenate((np.arange(2000) / 2000.0,
                                np.linspace(0.0605, 0.0633, 29),
                                np.linspace(0.9367, 0.9395, 29)))
        taps = _interp_kernels(fracs)
        assert np.max(np.sum(np.abs(taps), axis=1)) <= 2.0
        # Away from the record edges, delaying a unit tone exp(j w k) by frac
        # multiplies it by sum_j h_j exp(-j w m_j), where tap j weights the
        # sample m_j = j - 7 before the output; exact is exp(-j w frac).
        m = np.arange(-DELAY_KERNEL_HALF + 1, DELAY_KERNEL_HALF + 1)
        bounds = ((0.05, 1e-3), (0.1, 1e-3), (0.2, 1e-3), (0.35, 1e-2))
        for f, bound in bounds:
            w = 2.0 * np.pi * f
            err = np.abs(taps @ np.exp(-1j * w * m) - np.exp(-1j * w * fracs))
            assert np.max(err) <= bound, (f, np.max(err))
        # fractional_delay applies those taps, including in the old windows
        guard = DELAY_KERNEL_HALF + 1
        for f, bound in bounds:
            env = tone(f, 1.0, 64)
            for frac in (0.0619, 0.25, 0.5, 0.9381):
                out = fractional_delay(env, frac).samples
                expect = env.samples * np.exp(-2j * np.pi * f * frac)
                assert np.max(np.abs(out[guard:-guard]
                                     - expect[guard:-guard])) <= bound


class TestWindowedFft:
    def test_parseval_rect(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        env = ComplexEnvelope(x, 1.0)
        bins = windowed_fft(env, "rect")
        time_power = np.sum(np.abs(x) ** 2)
        freq_power = np.sum(np.abs(bins) ** 2) / x.size
        assert freq_power == pytest.approx(time_power, rel=1e-9)

    def test_hann_tone_confined_to_adjacent_bins(self):
        fs, n, k = 1.0, 256, 16
        env = tone(k * fs / n, fs, n)
        bins = np.abs(windowed_fft(env, "hann"))
        occupied = {k - 1, k, k + 1}
        others = [b for i, b in enumerate(bins) if i not in occupied]
        assert bins[k] > 0.4 * n
        assert max(others) < 1e-9 * bins[k]

    def test_short_record_rejected(self):
        with pytest.raises(ValueError):
            windowed_fft(ComplexEnvelope(np.ones(4), 1.0))

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError):
            windowed_fft(ComplexEnvelope(np.ones(16), 1.0), "kaiser")


class TestSpectrumType:
    def test_monotone_freq_grid_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 2.0, 1.0]), np.ones(3), 1.0)

    def test_negative_psd_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=64),
    st.lists(st.floats(-10, 10), min_size=2, max_size=64),
)
def test_polar_round_trip_property(i, q):
    n = min(len(i), len(q))
    env = make_envelope(np.array(i[:n]), np.array(q[:n]), 1.0)
    back = from_polar(to_polar(env))
    mask = np.abs(env.samples) > 1e-9
    if mask.any():
        assert np.max(np.abs(back.samples[mask] - env.samples[mask])) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.49, 0.49), st.floats(0.1, 3.0))
def test_delay_is_linear_in_amplitude(frac, gain):
    rng = np.random.default_rng(5)
    x = rng.normal(size=96) + 1j * rng.normal(size=96)
    env = ComplexEnvelope(x, 1.0)
    big = fractional_delay(ComplexEnvelope(gain * x, 1.0), frac).samples
    small = fractional_delay(env, frac).samples
    assert np.allclose(big, gain * small, rtol=0, atol=1e-9 * gain * np.abs(x).max())
