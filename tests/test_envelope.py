import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigchain.envelope import (
    _FARROW,
    _FARROW_BLOCK,
    DELAY_KERNEL_HALF,
    ComplexEnvelope,
    _hold_last,
    _horner,
    _interp_kernels,
    _samples_at,
    delay_real_track,
    fractional_delay,
    phasor,
    to_polar,
)


def tone(freq, fs, n, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return ComplexEnvelope(amp * np.exp(1j * (2 * np.pi * freq * t + phase)), fs)


class TestEnvelopeType:
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
        fs = 1e9
        tr = to_polar(ComplexEnvelope(x, fs))
        back = ComplexEnvelope(tr.amplitude * phasor(tr.phase), fs)
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

    def test_memo_equals_to_polar_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        x[:5] = x[100:140] = 0.0   # leading and inner gaps carry the phase
        env = ComplexEnvelope(x, 1e9)
        direct = to_polar(env)
        assert env.polar is env.polar
        assert np.array_equal(env.polar.amplitude, direct.amplitude)
        assert np.array_equal(env.polar.phase, direct.phase)

    def test_samples_and_tracks_are_read_only(self):
        env = tone(1e6, 1e9, 64)
        direct = to_polar(env)
        for arr in (env.samples, env.polar.amplitude, env.polar.phase,
                    direct.amplitude, direct.phase):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def _unwrap_oracle(x: np.ndarray) -> np.ndarray:
    """np.unwrap of the angle that to_polar carries through samples of no
    amplitude (0.0 before the first one), carried by a loop."""
    ang, raw, last = np.angle(x), np.empty(x.size), 0.0
    for k in range(x.size):
        if abs(x[k]) > 0.0:
            last = ang[k]
        raw[k] = last
    return np.unwrap(raw)


def _pi_steps() -> np.ndarray:
    # every ordered pair of samples whose angles are 0, +-pi and their
    # neighbouring floats: the angle steps between them hit +-pi exactly
    # and the floats on both sides of it
    ulp = np.spacing(np.pi)
    angles = [0.0, ulp, -ulp, np.pi, -np.pi, np.pi - ulp, -np.pi + ulp]
    values = [complex(1.0, 0.0), complex(1.0, ulp), complex(1.0, -ulp),
              complex(-1.0, 0.0), complex(-1.0, -0.0),
              complex(-1.0, ulp), complex(-1.0, -ulp)]
    assert np.array_equal(np.angle(values), angles)
    return np.array([v for a in values for b in values for v in (a, b)])


def _wrapping(n: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    tone = np.exp(2j * np.pi * 0.37 * np.arange(n))
    chirp = np.exp(1j * np.pi * 0.5 * np.arange(n) ** 2 / n)
    scatter = rng.normal(size=n) + 1j * rng.normal(size=n)
    return np.concatenate([tone, chirp, scatter])


def _non_finite() -> np.ndarray:
    x = _wrapping(64)
    x[[3, 40, 41, 90, 120, 150, 151]] = [
        complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 1.0),
        complex(np.inf, np.nan), complex(0.0, -np.inf),
        complex(np.nan, np.nan), complex(-np.inf, -np.inf)]
    return x


def _zero_runs() -> np.ndarray:
    x = _wrapping(64)
    x[:9] = x[70:95] = x[-12:] = 0.0
    x[100] = complex(-0.0, -0.0)
    return x


class TestUnwrap:
    """to_polar's phase against np.unwrap of its carried-forward angle."""

    @pytest.mark.parametrize("x", [
        _pi_steps(),
        _wrapping(2048),
        _non_finite(),
        _zero_runs(),
        np.zeros(40, dtype=complex),
        np.array([-1.0 + 0.0j]),
        np.array([0.0j]),
        np.array([complex(np.nan, 1.0)]),
    ], ids=["pi_steps", "many_wraps", "non_finite", "zero_runs", "all_zero",
            "one_sample", "one_zero_sample", "one_nan_sample"])
    def test_phase_is_np_unwrap_bit_for_bit(self, x):
        phase = to_polar(ComplexEnvelope(x, 1.0)).phase
        assert phase.tobytes() == _unwrap_oracle(x).tobytes()

    def test_pi_steps_hit_pi_and_its_neighbours(self):
        steps = set(np.diff(np.angle(_pi_steps())).tolist())
        for edge in (np.pi, -np.pi):
            assert {edge, np.nextafter(edge, 0.0),
                    np.nextafter(edge, 2.0 * edge)} <= steps

    def test_many_wraps_wrap(self):
        assert np.sum(np.abs(np.diff(np.angle(_wrapping(2048)))) >= np.pi) \
            > 1000


class TestHoldLast:
    @pytest.mark.parametrize("unit", [1.0, 1.0 + 1.0j])
    def test_off_samples_hold_the_last_on_value(self, unit):
        x = np.arange(1, 9) * unit
        on = np.array([0, 0, 1, 1, 0, 1, 0, 0], dtype=bool)
        expect = np.array([0, 0, 3, 4, 4, 6, 6, 6]) * unit
        assert _hold_last(x, on).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("unit", [1.0, 1.0 + 1.0j])
    def test_all_on_is_the_input_and_all_off_is_zero(self, unit):
        x = np.random.default_rng(4).normal(size=16) * unit
        x[[3, 7]] = np.nan, -0.0
        assert _hold_last(x, np.ones(16, dtype=bool)).tobytes() == x.tobytes()
        off = _hold_last(x, np.zeros(16, dtype=bool))
        assert off.tobytes() == np.zeros_like(x).tobytes()

    def test_nan_amplitude_is_off_in_to_polar(self):
        x = np.array([np.exp(1j * 0.7), complex(np.nan, 1.0),
                      np.exp(1j * 0.9)])
        phase = to_polar(ComplexEnvelope(x, 1.0)).phase
        assert phase[1] == phase[0] == np.angle(x[0])


class TestFractionalDelay:
    def test_integer_delay_is_exact_shift(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        # non-finite and signed-zero entries move bit for bit; a delay of
        # 0.0 or -0.0 is a copy
        x[[20, 40, 60]] = np.nan, np.inf, -np.inf
        x[80] = complex(-0.0, -0.0)
        env = ComplexEnvelope(x, 1.0)
        for tau in (3.0, 0.0, -0.0):
            k = int(tau)
            expect = np.concatenate((np.zeros(k), x[:x.size - k]))
            out = fractional_delay(env, tau).samples
            assert out.tobytes() == expect.tobytes()
            track = delay_real_track(x.real, tau, 1.0)
            assert track.tobytes() == expect.real.tobytes()

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


def _samples_at_whole_record(x, offsets):
    """The Farrow bank over the whole record at once: every branch output at
    every position, then one gather.  The oracle for the blocked kernel."""
    base = np.floor(offsets).astype(np.int64)
    frac = offsets - base
    pad = DELAY_KERNEL_HALF + int(np.abs(base).max())
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, pad), 2 * DELAY_KERNEL_HALF)
    branches = _FARROW @ windows.T
    at = np.arange(x.size) + base + (pad - DELAY_KERNEL_HALF + 1)
    return _horner(branches.take(at, axis=1), frac)


class TestSamplesAt:
    # Per-block products take other BLAS paths than one whole-record
    # product (a one-column tail goes to gemv), so sums may round apart.
    TOL = 1e-14

    @pytest.mark.parametrize("n", [1, 2, 17, _FARROW_BLOCK - 1, _FARROW_BLOCK,
                                   _FARROW_BLOCK + 1, 3 * _FARROW_BLOCK + 1,
                                   65_656])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("offsets", ["int-1", "int0", "int+3", "jitter"])
    def test_blocked_bank_matches_whole_record(self, n, dtype, offsets):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        if dtype is np.complex128:
            x = x + 1j * rng.normal(size=n)
        if offsets == "jitter":   # sample_jitter: sigma below a tenth sample
            d = rng.normal(0.0, 0.05, n)
        else:
            d = int(offsets[3:]) + rng.random(n)
        got = _samples_at(x, d)
        want = _samples_at_whole_record(x, d)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert np.max(np.abs(got - want)) <= self.TOL * np.max(np.abs(x))
        assert got.tobytes() == _samples_at(x, d).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=64),
    st.lists(st.floats(-10, 10), min_size=2, max_size=64),
)
def test_polar_round_trip_property(i, q):
    n = min(len(i), len(q))
    env = ComplexEnvelope(np.array(i[:n]) + 1j * np.array(q[:n]), 1.0)
    tr = to_polar(env)
    back = ComplexEnvelope(tr.amplitude * phasor(tr.phase), 1.0)
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
