import math

import numpy as np
import pytest
from scipy import integrate

from sigchain.envelope import InputError
from sigchain.modulation import (
    MAX_POINTS,
    SCHEMES,
    Constellation,
    GateEnvelopeSpec,
    PulseShape,
    SymbolStream,
    build_constellation,
    gate_envelope,
    gate_envelope_unit_area,
    map_bits,
    shape_filter,
    shape_symbols,
    shaped_samples,
    symbol_samples,
)


def unit_rms(points):
    return math.sqrt(float(np.mean(np.abs(points) ** 2)))


class TestConstellations:
    @pytest.mark.parametrize(
        "scheme,params",
        [
            ("m_ask", {"m": 2}),
            ("m_ask", {"m": 4}),
            ("m_psk", {"m": 2}),
            ("m_psk", {"m": 4}),
            ("m_psk", {"m": 8}),
            ("square_qam", {"m": 4}),
            ("square_qam", {"m": 16}),
            ("square_qam", {"m": 64}),
            ("qpsk_sum", {"ratios": [2.0, 1.0]}),
            ("star_qam", {"rings": 2, "phases": 8}),
        ],
    )
    def test_all_schemes_unit_rms(self, scheme, params):
        c = build_constellation(scheme, **params)
        assert abs(unit_rms(c.points) - 1.0) < 1e-12

    def test_qpsk_points_on_diagonals(self):
        c = build_constellation("m_psk", m=4)
        expect = {
            (1 + 1j) / math.sqrt(2),
            (-1 + 1j) / math.sqrt(2),
            (-1 - 1j) / math.sqrt(2),
            (1 - 1j) / math.sqrt(2),
        }
        for p in c.points:
            assert min(abs(p - e) for e in expect) < 1e-12

    def test_ook_is_on_off(self):
        c = build_constellation("m_ask", m=2)
        mags = sorted(np.abs(c.points))
        assert mags[0] == pytest.approx(0.0, abs=1e-12)
        assert mags[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_square_16qam_min_distance(self):
        c = build_constellation("square_qam", m=16)
        pts = c.points
        dmin = min(
            abs(pts[i] - pts[j]) for i in range(16) for j in range(i + 1, 16)
        )
        assert dmin == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-12)

    def test_square_16qam_gray_adjacency(self):
        # nearest horizontal/vertical neighbors differ in exactly one bit
        c = build_constellation("square_qam", m=16)
        pts = c.points
        step = 2.0 / math.sqrt(10.0)
        for a in range(16):
            for b in range(16):
                d = pts[a] - pts[b]
                if abs(abs(d) - step) < 1e-9 and (
                    abs(d.real) < 1e-9 or abs(d.imag) < 1e-9
                ):
                    assert bin(a ^ b).count("1") == 1

    def test_psk_ring_gray_adjacency(self):
        c = build_constellation("m_psk", m=8)
        angles = np.angle(c.points)
        order = np.argsort(angles)
        for i in range(8):
            a, b = order[i], order[(i + 1) % 8]
            assert bin(a ^ b).count("1") == 1

    def test_qpsk_sum_21_equals_square_16qam_as_set(self):
        a = build_constellation("qpsk_sum", ratios=[2.0, 1.0]).points
        b = build_constellation("square_qam", m=16).points
        for p in a:
            assert np.min(np.abs(b - p)) < 1e-12

    def test_qpsk_sum_recursive_4m_size(self):
        c = build_constellation("qpsk_sum", ratios=[4.0, 2.0, 1.0])
        assert len(c) == 64
        assert c.bits_per_symbol == 6

    def test_qpsk_sum_equal_ratios_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_constellation("qpsk_sum", ratios=[1.0, 1.0])

    def test_star_qam_ring_ratio_two(self):
        c = build_constellation("star_qam", rings=2, phases=8)
        mags = np.unique(np.round(np.abs(c.points), 12))
        assert len(mags) == 2
        assert mags[1] / mags[0] == pytest.approx(2.0, rel=1e-12)

    def test_non_power_of_two_rejected(self):
        for scheme, params in [
            ("m_ask", {"m": 3}),
            ("m_psk", {"m": 6}),
            ("square_qam", {"m": 32}),
            ("star_qam", {"rings": 3, "phases": 4}),
        ]:
            with pytest.raises(ValueError):
                build_constellation(scheme, **params)

    def test_fractional_sizes_rejected(self):
        for scheme, params in [
            ("m_psk", {"m": 4.5}),
            ("square_qam", {"m": 16.0}),
            ("star_qam", {"rings": 2, "phases": 4.5}),
        ]:
            with pytest.raises(TypeError):
                build_constellation(scheme, **params)
        assert len(build_constellation("m_psk", m=np.int64(8))) == 8

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_constellation("apsk", m=16)

    def test_non_normalized_constellation_rejected(self):
        with pytest.raises(ValueError):
            Constellation(np.array([2.0 + 0j, -2.0 + 0j]), 1, "raw")

    @pytest.mark.parametrize("scheme", ["m_ask", "m_psk"])
    def test_one_dimensional_labels_match_forward_gray(self, scheme):
        # point k of the level or phase order carries label gray(k)
        m = 2
        while m <= MAX_POINTS:
            offset = np.pi / m if m >= 4 else 0.0
            want = np.empty(m, dtype=np.complex128)
            for k in range(m):
                want[k ^ (k >> 1)] = k / (m - 1) if scheme == "m_ask" \
                    else np.exp(1j * (2.0 * np.pi * k / m + offset))
            got = SCHEMES[scheme](m=m)
            assert got.dtype == np.complex128
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            m *= 2


class TestMapBits:
    def test_qpsk_mapping_round_trip(self):
        c = build_constellation("m_psk", m=4)
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        stream = map_bits(bits, c)
        assert len(stream) == 4
        assert np.allclose(stream.symbols, c.points[[0, 1, 2, 3]])

    def test_length_not_divisible_rejected(self):
        c = build_constellation("m_psk", m=4)
        with pytest.raises(ValueError, match="divisible"):
            map_bits(np.array([0, 1, 0]), c)

    def test_non_bit_values_rejected(self):
        c = build_constellation("m_psk", m=4)
        with pytest.raises(ValueError):
            map_bits(np.array([0, 2]), c)

    def test_empty_bits_empty_stream(self):
        c = build_constellation("m_psk", m=4)
        assert len(map_bits(np.array([], dtype=int), c)) == 0


class TestShapeFilter:
    def test_rect_is_symbol_wide_boxcar(self):
        taps = shape_filter(PulseShape("rect", samples_per_symbol=8))
        assert np.array_equal(taps, np.ones(8))

    @pytest.mark.parametrize("beta", [0.25, 0.35, 0.5, 1.0])
    def test_raised_cosine_nyquist_zeros(self, beta):
        sps, span = 16, 16
        taps = shape_filter(
            PulseShape("raised_cosine", beta, span_symbols=span, samples_per_symbol=sps)
        )
        center = (len(taps) - 1) // 2
        assert taps[center] == pytest.approx(1.0, abs=1e-12)
        for k in range(1, span // 2 + 1):
            assert abs(taps[center + k * sps]) < 1e-12
            assert abs(taps[center - k * sps]) < 1e-12

    def test_raised_cosine_beta0_is_sinc(self):
        p = PulseShape("raised_cosine", 0.0, 8, 8)
        assert np.allclose(shape_filter(p), shape_filter(PulseShape("sinc", 0.0, 8, 8)))

    def test_raised_cosine_singular_point_value(self):
        # at t = 1/(2*beta) the closed form has a removable singularity
        p = PulseShape("raised_cosine", 1.0, 8, 16)
        taps = shape_filter(p)
        center = (len(taps) - 1) // 2
        assert taps[center + 8] == pytest.approx(0.5, abs=1e-12)  # t = 0.5 sym

    def test_rrc_cascade_restores_symbol_amplitude(self):
        p = PulseShape("root_raised_cosine", 0.35, 16, 16)
        taps = shape_filter(p)
        cascade = np.convolve(taps, taps)
        center = (len(cascade) - 1) // 2
        assert cascade[center] == pytest.approx(1.0, abs=1e-3)
        for k in range(1, 6):
            assert abs(cascade[center + k * 16]) < 1e-3

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PulseShape("raised_cosine", 1.5)
        with pytest.raises(ValueError):
            PulseShape("raised_cosine", 0.35, span_symbols=2)
        with pytest.raises(ValueError):
            PulseShape("raised_cosine", 0.35, samples_per_symbol=2)
        with pytest.raises(ValueError):
            PulseShape("triangle")


class TestSymbolSamples:
    def test_exactly_at_least(self):
        assert symbol_samples(4e-9, 1e9, least=4) == 4
        assert symbol_samples(1e-9, 1e9) == 1

    @pytest.mark.parametrize("period, least", [(3e-9, 4), (0.0, 1),
                                               (-1e-9, 1)])
    def test_under_least_rejected(self, period, least):
        with pytest.raises(InputError, match=f"at least {least} samples per "
                           "symbol") as err:
            symbol_samples(period, 1e9, least=least)
        assert err.value.key == "symbol_period"

    @pytest.mark.parametrize("off", [5e-7, -5e-7])
    def test_within_tolerance_of_an_integer(self, off):
        got = symbol_samples(8.0 + off, 1.0)
        assert got == 8 and type(got) is int

    @pytest.mark.parametrize("off", [2e-6, -2e-6, 0.5])
    def test_off_an_integer_rejected(self, off):
        with pytest.raises(InputError, match="integer number of samples"):
            symbol_samples(8.0 + off, 1.0)

    @pytest.mark.parametrize("period, rate", [(1e300, 1e10), (math.nan, 1e9)])
    def test_non_finite_product_rejected(self, period, rate):
        with pytest.raises(InputError) as err:
            symbol_samples(period, rate)
        assert err.value.key == "symbol_period"


def _zero_stuffed(symbols: np.ndarray, shape: PulseShape) -> np.ndarray:
    """The reference shaping: each symbol at every ``sps``-th sample of a
    zero stream, convolved with the taps."""
    sps = shape.samples_per_symbol
    up = np.zeros(symbols.size * sps, dtype=np.complex128)
    up[::sps] = symbols
    return np.convolve(up, shape_filter(shape).astype(np.complex128))


# Most a shaped sample may differ from the reference, in units of
# eps * peak |sample|: the polyphase sum adds each output's products in
# another order (2.8 is the largest seen over sps 4-32 and spans 4-16)
SHAPE_ULPS = 4.0


class TestShapeSymbols:
    @pytest.mark.parametrize("kind", ["sinc", "raised_cosine",
                                      "root_raised_cosine", "gaussian"])
    @pytest.mark.parametrize("n_symbols", [1, 2, 16, 17, 8192])
    def test_equals_zero_stuffed_convolution(self, kind, n_symbols):
        rng = np.random.default_rng(n_symbols)
        # every sps on short streams; a spread of them, odd ones too, on
        # the long one, whose reference convolution is slow.  The span
        # 4 + sps % 13 takes every value from 4 to 16 over sps 4-32.
        for sps in (4, 5, 8, 13, 16, 32) if n_symbols > 17 else range(4, 33):
            shape = PulseShape(kind, 0.35, 4 + sps % 13, sps)
            symbols = (rng.standard_normal(n_symbols)
                       + 1j * rng.standard_normal(n_symbols))
            got = shape_symbols(SymbolStream(symbols, 1.0), shape)
            ref = _zero_stuffed(symbols, shape)
            assert len(got) == ref.size == shaped_samples(n_symbols, shape)
            err = np.abs(got.samples.view(np.float64) - ref.view(np.float64))
            tol = SHAPE_ULPS * np.finfo(np.float64).eps * np.abs(ref).max()
            assert err.max() <= tol, (sps, shape.span_symbols)

    def test_single_symbol_rect_is_boxcar(self):
        c = build_constellation("m_psk", m=2)
        stream = map_bits(np.array([0]), c, symbol_period=1e-9)
        env = shape_symbols(stream, PulseShape("rect", samples_per_symbol=8))
        assert env.sample_rate == pytest.approx(8e9)
        assert np.allclose(env.samples, np.full(8, c.points[0]))

    def test_decision_instants_recover_symbols(self):
        rng = np.random.default_rng(21)
        c = build_constellation("square_qam", m=16)
        bits = rng.integers(0, 2, 64 * 4)
        stream = map_bits(bits, c)
        p = PulseShape("raised_cosine", 0.35, 16, 8)
        env = shape_symbols(stream, p)
        taps = shape_filter(p)
        delay = (len(taps) - 1) // 2
        trim = p.span_symbols // 2
        for k in range(trim, 64 - trim):
            instant = env.samples[delay + k * 8]
            assert abs(instant - stream.symbols[k]) < 1e-9

    def test_empty_stream_rejected(self):
        c = build_constellation("m_psk", m=4)
        stream = map_bits(np.array([], dtype=int), c)
        with pytest.raises(ValueError):
            shape_symbols(stream, PulseShape("rect"))

    @pytest.mark.parametrize("kind", ["rect", "sinc", "raised_cosine",
                                      "root_raised_cosine", "gaussian"])
    @pytest.mark.parametrize("span, sps", [(8, 8), (5, 7), (16, 32)])
    def test_shaped_duration_is_the_records(self, kind, span, sps):
        c = build_constellation("m_psk", m=4)
        period = sps / 8.0e9
        stream = map_bits(np.zeros(2 * 21, dtype=int), c, symbol_period=period)
        shape = PulseShape(kind, span_symbols=span, samples_per_symbol=sps)
        env = shape_symbols(stream, shape)
        assert shaped_samples(21, shape) == len(env)


class TestGateEnvelope:
    def test_rect_area_exact(self):
        spec = GateEnvelopeSpec("rect", 20e-9, peak_amplitude=1.0)
        fs = 1024 / 20e-9
        env = gate_envelope(spec, fs)
        area = np.sum(np.abs(env.samples)) / fs
        assert area == pytest.approx(20e-9, rel=1e-12)

    def test_gaussian_area_matches_quadrature(self):
        # independent oracle: numerical quadrature of the truncated,
        # baseline-subtracted bell, against the sampled Riemann sum
        tau, frac = 20e-9, 0.25
        spec = GateEnvelopeSpec("gaussian", tau, 1.0, sigma_fraction=frac)
        sigma = frac * tau
        base = math.exp(-((tau / 2) ** 2) / (2 * sigma**2))

        def bell(t):
            return math.exp(-((t - tau / 2) ** 2) / (2 * sigma**2)) - base

        oracle, err = integrate.quad(bell, 0.0, tau, epsabs=1e-25, epsrel=1e-13)
        assert err < 1e-12 * oracle

        n = 1 << 17  # fine grid so the midpoint sum resolves 1e-9
        env = gate_envelope(spec, n / tau)
        area = np.sum(np.abs(env.samples)) * (tau / n)
        assert area == pytest.approx(oracle, rel=1e-9)
        assert gate_envelope_unit_area(spec) == pytest.approx(oracle, rel=1e-12)

    def test_cosine_unit_area_is_half_duration(self):
        spec = GateEnvelopeSpec("cosine", 16e-9, 1.0)
        assert gate_envelope_unit_area(spec) == pytest.approx(8e-9, rel=1e-12)
        env = gate_envelope(spec, 4096 / 16e-9)
        area = np.sum(np.abs(env.samples)) * (16e-9 / 4096)
        assert area == pytest.approx(8e-9, rel=1e-6)

    def test_area_linear_in_peak(self):
        a1 = gate_envelope_unit_area(GateEnvelopeSpec("gaussian", 10e-9, 1.0))
        spec = GateEnvelopeSpec("gaussian", 10e-9, 2.5)
        env = gate_envelope(spec, 1024 / 10e-9)
        area = np.sum(np.abs(env.samples)) * (10e-9 / 1024)
        assert area == pytest.approx(2.5 * a1, rel=1e-4)

    def test_gaussian_edges_near_zero(self):
        spec = GateEnvelopeSpec("gaussian", 20e-9, 1.0)
        env = gate_envelope(spec, 1024 / 20e-9)
        assert abs(env.samples[0]) < 1e-3
        assert abs(env.samples[-1]) < 1e-3

    def test_drag_center_sample_zero(self):
        # odd sample count puts one sample exactly at the symmetric center
        tau = 20e-9
        n = 1025
        spec = GateEnvelopeSpec(
            "gaussian", tau, 1.0, drag_enabled=True, drag_coefficient_s=1e-9
        )
        env = gate_envelope(spec, n / tau)
        assert abs(env.samples[n // 2].imag) < 1e-12

    def test_drag_quadrature_is_scaled_derivative(self):
        tau, coeff = 20e-9, 0.8e-9
        n = 4096
        fs = n / tau
        on = gate_envelope(
            GateEnvelopeSpec("gaussian", tau, 1.0, drag_enabled=True,
                             drag_coefficient_s=coeff),
            fs,
        )
        off = gate_envelope(GateEnvelopeSpec("gaussian", tau, 1.0), fs)
        numeric = np.gradient(off.samples.real, 1.0 / fs)
        assert np.allclose(on.samples.imag, -coeff * numeric, atol=1e-3 * np.max(
            np.abs(numeric)) * coeff + 1e-12)

    def test_rect_drag_has_zero_quadrature(self):
        spec = GateEnvelopeSpec("rect", 10e-9, 1.0, drag_enabled=True,
                                drag_coefficient_s=1e-9)
        env = gate_envelope(spec, 1024 / 10e-9)
        assert np.all(env.samples.imag == 0.0)

    @pytest.mark.parametrize("drag", [False, True])
    @pytest.mark.parametrize("shape", ["rect", "cosine", "gaussian"])
    def test_samples_are_the_closed_forms_bit_for_bit(self, shape, drag):
        # the per-sample formulas, evaluated whole for each peak
        tau, n, coeff = 10e-9, 160, -0.7e-9
        fs = n / tau
        t = (np.arange(n) + 0.5) / fs
        sigma = 0.25 * tau
        base = math.exp(-((tau / 2.0) ** 2) / (2.0 * sigma**2))
        for peak in (1.0, 0.37, 2.0):
            if shape == "rect":
                amp, deriv = np.full(n, peak), np.zeros(n)
            elif shape == "cosine":
                amp = 0.5 * peak * (1.0 - np.cos(2.0 * np.pi * t / tau))
                deriv = peak * (np.pi / tau) * np.sin(2.0 * np.pi * t / tau)
            else:
                bell = np.exp(-((t - tau / 2.0) ** 2) / (2.0 * sigma**2))
                amp = peak * (bell - base)
                deriv = peak * bell * (-(t - tau / 2.0) / sigma**2)
            want = amp - 1j * coeff * deriv if drag \
                else amp.astype(np.complex128)
            spec = GateEnvelopeSpec(shape, tau, peak, drag_enabled=drag,
                                    drag_coefficient_s=coeff)
            assert gate_envelope(spec, fs).samples.tobytes() \
                == want.tobytes()

    def test_under_resolved_gate_rejected(self):
        spec = GateEnvelopeSpec("rect", 10e-9, 1.0)
        with pytest.raises(ValueError, match="64"):
            gate_envelope(spec, 32 / 10e-9)

    def test_unset_peak_rejected_at_generation(self):
        spec = GateEnvelopeSpec("gaussian", 10e-9, peak_amplitude=None)
        with pytest.raises(ValueError):
            gate_envelope(spec, 1024 / 10e-9)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            GateEnvelopeSpec("square", 1e-9)
        with pytest.raises(ValueError):
            GateEnvelopeSpec("rect", -1e-9)
        with pytest.raises(ValueError):
            GateEnvelopeSpec("rect", 1e-9, peak_amplitude=-1.0)
