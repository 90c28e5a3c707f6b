"""Calibration routine checks.

Each routine gets a chain with a known, analytically invertible defect, so
the expected correction is known in closed form; error paths use defects
the routine's model genuinely cannot represent.
"""
import math

import numpy as np
import pytest

from sigchain import calibration as cal
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain.chains import (InputError, StageSpec, TxChain, run_chain,
                             synth_comm_waveform, with_stage_param)
from sigchain.envelope import ComplexEnvelope, fractional_delay
from sigchain.metrics import demodulate, evm, image_rejection

TWO_PI = 2.0 * math.pi
TAU = 64e-9
FS = 1e9


def _rabi_chain(gain_poly):
    return TxChain("custom", (StageSpec("am_ampm",
                                        {"gain_poly": list(gain_poly)}),))


def _rect_spec():
    return mod.GateEnvelopeSpec("rect", TAU, peak_amplitude=None)


class TestRabiAmplitudeCal:
    def test_cubic_map_restores_half_turn(self):
        g = math.pi / TAU
        model = qb.QubitModel(drive_gain=g)
        chain = _rabi_chain([1.0, 0.2])
        scales = np.linspace(0.05, 1.2, 40)
        lut = cal.rabi_amplitude_cal(model, _rect_spec(), FS, scales,
                                     chain=chain)
        target = qb.target_unitary(qb.GateSpec(math.pi))

        def infidelity(scale):
            from sigchain.chains import synth_qubit_pulse
            spec = mod.with_peak(_rect_spec(), scale)
            env = run_chain(chain, synth_qubit_pulse(spec, FS))
            u = qb.propagate(model, env)
            return qb.average_gate_fidelity(u, target).infidelity

        before = infidelity(1.0)
        after = infidelity(lut.pi_code)
        assert before > 1e-2
        assert after < 1e-4

    def test_lut_interpolates_other_angles(self):
        g = math.pi / TAU
        model = qb.QubitModel(drive_gain=g)
        chain = _rabi_chain([1.0, 0.2])
        scales = np.linspace(0.05, 1.2, 60)
        lut = cal.rabi_amplitude_cal(model, _rect_spec(), FS, scales,
                                     chain=chain)
        for angle in (math.pi / 2, 2.0):
            code = lut.code_for_angle(angle)
            # invert the known cubic map to check the code directly
            achieved = math.pi * code * (1.0 + 0.2 * code ** 2)
            assert achieved == pytest.approx(angle, abs=0.01)

    def test_shallow_dip_is_smoothed(self):
        gt = 2.2 * math.pi
        model = qb.QubitModel(drive_gain=gt / TAU)
        chain = _rabi_chain([1.0, -1.5, 1.0])
        scales = np.linspace(0.05, 1.1, 60)
        with pytest.warns(UserWarning, match="AM-AM transfer is non-monotone"):
            lut = cal.rabi_amplitude_cal(model, _rect_spec(), FS, scales,
                                         chain=chain)
        assert np.all(np.diff(lut.theta) >= -1e-12)
        assert lut.theta[-1] == pytest.approx(math.pi)
        # the known map pins the half-turn code: c*(1 - 1.5c^2 + c^4) fills
        # g*tau*G(c) = pi
        c = lut.pi_code
        achieved = gt * c * (1.0 - 1.5 * c ** 2 + c ** 4)
        assert achieved == pytest.approx(math.pi, abs=5e-3)

    def test_residual_is_the_distance_to_the_monotone_fit(self):
        model = qb.QubitModel(drive_gain=2.2 * math.pi / TAU)
        chain = _rabi_chain([1.0, -1.5, 1.0])
        with pytest.warns(UserWarning, match="AM-AM transfer is non-monotone"):
            lut = cal.rabi_amplitude_cal(model, _rect_spec(), FS,
                                         np.linspace(0.05, 1.1, 60),
                                         chain=chain)
        # the dip is what the fit smooths away; the top knot is the half turn
        fit = lut.theta[:-1]
        assert 0.0 < lut.residual == np.max(np.abs(lut.theta_raw - fit))

    def test_deep_fold_raises(self):
        model = qb.QubitModel(drive_gain=2.2 * math.pi / TAU)
        chain = _rabi_chain([1.0, -2.0, 1.2])
        scales = np.linspace(0.05, 1.25, 60)
        with pytest.warns(UserWarning, match="AM-AM transfer is non-monotone"):
            with pytest.raises(cal.CalibrationError, match="monotone"):
                cal.rabi_amplitude_cal(model, _rect_spec(), FS, scales,
                                       chain=chain, saturation=0.95)

    def test_truncated_sweep_raises(self):
        model = qb.QubitModel(drive_gain=math.pi / TAU)
        with pytest.raises(cal.CalibrationError):
            cal.rabi_amplitude_cal(model, _rect_spec(), FS,
                                   np.linspace(0.05, 0.6, 20))

    def test_peak_on_the_last_scale_raises(self):
        # the sweep ends at the half-turn peak of a 20 ns gaussian gate
        fs, model = 16e9, qb.QubitModel(drive_gain=TWO_PI * 50e6)
        spec = mod.GateEnvelopeSpec("gaussian", 20e-9, peak_amplitude=None)
        pi_peak = math.pi / (model.drive_gain
                             * mod.gate_envelope_unit_area(spec))
        with pytest.raises(cal.CalibrationError, match="sweep edge"):
            cal.rabi_amplitude_cal(model, spec, fs,
                                   np.linspace(0.0, pi_peak, 9))

    def test_sweep_validation(self):
        model = qb.QubitModel(drive_gain=math.pi / TAU)
        with pytest.raises(ValueError, match="5 sweep points"):
            cal.rabi_amplitude_cal(model, _rect_spec(), FS, [0.1, 0.5, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            cal.rabi_amplitude_cal(model, _rect_spec(), FS,
                                   [0.1, 0.5, 0.4, 0.8, 1.2])

    def test_angle_range_guard(self):
        model = qb.QubitModel(drive_gain=math.pi / TAU)
        lut = cal.rabi_amplitude_cal(model, _rect_spec(), FS,
                                     np.linspace(0.05, 1.2, 40))
        with pytest.raises(cal.CalibrationError, match="outside"):
            lut.code_for_angle(3.5)

    def test_clean_drive_is_near_identity(self):
        model = qb.QubitModel(drive_gain=math.pi / TAU)
        lut = cal.rabi_amplitude_cal(model, _rect_spec(), FS,
                                     np.linspace(0.05, 1.2, 80))
        assert lut.pi_code == pytest.approx(1.0, abs=1e-4)
        assert lut.code_for_angle(math.pi / 2) == pytest.approx(0.5,
                                                                abs=2e-3)


class TestIqCal:
    CHAIN = TxChain("cartesian", (
        StageSpec("iq_imbalance", {"gain_mismatch": 0.08, "quad_skew": 0.06}),
        StageSpec("lo_feedthrough", {"offset": 0.01 + 0.005j}),
    ))

    def _tone(self, n=4096, k=512):
        t = np.arange(n)
        return ComplexEnvelope(np.exp(2j * np.pi * k * t / n), FS)

    def test_restores_image_rejection(self):
        corrected = cal.iq_cal(self.CHAIN, FS)
        probe = self._tone()
        before = image_rejection(run_chain(self.CHAIN, probe),
                                 512 * FS / 4096)
        after = image_rejection(run_chain(corrected, probe), 512 * FS / 4096)
        assert before < 35.0
        assert after > 100.0

    def test_cancels_static_offset(self):
        corrected = cal.iq_cal(self.CHAIN, FS)
        out = run_chain(corrected, self._tone())
        dc = np.fft.fft(out.samples)[0] / len(out)
        assert abs(dc) < 1e-12

    def test_is_idempotent(self):
        corrected = cal.iq_cal(self.CHAIN, FS)
        twice = cal.iq_cal(corrected, FS)
        stage = twice.stages[0]
        assert stage.kind == "iq_correction"
        m = np.asarray(stage.params["matrix"])
        assert np.max(np.abs(m - np.eye(2))) < 1e-9
        assert abs(stage.params["offset"]) < 1e-9

    def test_does_not_degrade_waveform(self):
        const = mod.build_constellation("m_psk", m=4)
        shape = mod.PulseShape("raised_cosine", samples_per_symbol=8)
        bits = np.tile([0, 1, 1, 0, 0, 0, 1, 1], 24)
        corrected = cal.iq_cal(self.CHAIN, FS)

        def measure(chain):
            stream, env = synth_comm_waveform(bits, const, shape,
                                              symbol_period=8 / FS)
            env = run_chain(chain, env)
            res = demodulate(env, const, shape, 8 / FS,
                             skip_edge_symbols=shape.span_symbols)
            ref = stream.symbols[shape.span_symbols:-shape.span_symbols]
            n = min(len(res.rx_symbols), len(ref))
            return evm(res.rx_symbols[:n], ref[:n]).evm_rms

        assert measure(corrected) < measure(self.CHAIN) / 100.0

    def test_rejects_resampling_chain(self, monkeypatch):
        monkeypatch.setattr(cal, "run_chain", None)  # no compute may start
        chain = TxChain("rfdac", (
            StageSpec("rfdac_core", {"bits": 12, "hold_factor": 2}),))
        with pytest.raises(InputError, match="keeps the record length") as e:
            cal.iq_cal(chain, FS)
        assert e.value.key == "chain"

    def test_rejects_degenerate_mixing(self):
        chain = TxChain("cartesian", (
            StageSpec("iq_imbalance", {"gain_mismatch": 2.0}),))
        with pytest.raises(cal.CalibrationError, match="invertible"):
            cal.iq_cal(chain, FS)

    def test_tone_placement_validation(self):
        with pytest.raises(ValueError, match="Nyquist"):
            cal.iq_cal(self.CHAIN, FS, tone_freq=0.6 * FS)

    @pytest.mark.parametrize("k, ok", [(-1, False), (0, False), (1, True),
                                       (31, True), (32, False)])
    def test_tone_bin_strictly_inside_first_zone(self, k, ok):
        # the rule run_calibration applies at parse time
        if ok:
            assert cal.iq_tone_bin(FS, 64, k * FS / 64) == k
        else:
            with pytest.raises(ValueError, match="Nyquist"):
                cal.iq_tone_bin(FS, 64, k * FS / 64)
        assert cal.iq_tone_bin(FS, 64) == 8


def _align_scores_per_candidate(chain, fs, symbol_period, window_s, step_s,
                                n_symbols=96, seed=7):
    """The delay search as one whole chain run per candidate: the oracle
    for the hoisted search, which runs the candidate-invariant part once."""
    const = mod.build_constellation("m_psk", m=4)
    shape = mod.PulseShape("raised_cosine", span_symbols=8,
                           samples_per_symbol=int(round(symbol_period * fs)))
    bits = np.random.default_rng(seed).integers(
        0, 2, size=n_symbols * const.bits_per_symbol)
    candidates = np.arange(-window_s, window_s + 0.5 * step_s, step_s)
    scores = np.empty(candidates.size)
    for idx, cand in enumerate(candidates):
        trial = with_stage_param(chain, "polar_paths",
                                 comp_delay_s=float(cand))
        stream, env = synth_comm_waveform(bits, const, shape,
                                          symbol_period=symbol_period)
        env = run_chain(trial, env)
        if cand != 0.0:
            env = fractional_delay(env, -float(cand))
        result = demodulate(env, const, shape, symbol_period,
                            skip_edge_symbols=shape.span_symbols)
        ref = stream.symbols[shape.span_symbols:-shape.span_symbols]
        n = min(len(result.rx_symbols), len(ref))
        scores[idx] = evm(result.rx_symbols[:n], ref[:n]).evm_rms
    return candidates, scores


class TestPolarDelayAlign:
    def test_matches_per_candidate_chain_runs(self):
        chain = TxChain("polar", (
            StageSpec("lo_feedthrough", {"offset": 0.01 + 0.005j}),
            StageSpec("polar_paths", {
                "am_bits": 8, "am_cutoff_hz": 3e9, "tau_a": 4e-11,
                "pm_bits": 10, "pm_cutoff_hz": 3e9, "tau_p": 1.5e-10}),
            StageSpec("onoff_leakage", {"off_ratio_db": 40.0}),
        ))
        # dyadic window and step, so that the grid holds an exact 0.0
        grid = dict(symbol_period=1e-9, window_s=2.0 ** -31,
                    step_s=2.0 ** -34, n_symbols=128, seed=11)
        cands, ref = _align_scores_per_candidate(chain, 8e9, **grid)
        assert 0.0 in cands
        _, delay, scores = cal.polar_delay_align(chain, 8e9, **grid)
        assert np.array_equal(scores, ref)
        assert delay == float(cands[np.argmin(ref)])

    def test_one_phasor_per_search(self, monkeypatch):
        import sigchain.chains as chains

        calls = []
        phasor = chains.phasor

        def counted(phase):
            calls.append(phase)
            return phasor(phase)

        monkeypatch.setattr(chains, "phasor", counted)
        chain = TxChain("polar", (
            StageSpec("polar_paths", {"tau_p": 180e-12}),
            StageSpec("onoff_leakage", {"off_ratio_db": 40.0}),))
        _, _, scores = cal.polar_delay_align(
            chain, 8e9, symbol_period=1e-9, window_s=500e-12, step_s=50e-12)
        assert scores.size == 21
        assert len(calls) == 1

    def test_chain_without_polar_paths_is_named(self):
        with pytest.raises(ValueError, match="polar_paths"):
            cal.polar_delay_align(TxChain("cartesian", (
                StageSpec("iq_imbalance", {"quad_skew": 0.05}),)), 8e9,
                1e-9, window_s=4e-10, step_s=5e-11)

    def test_recovers_injected_skew(self):
        fs = 8e9
        chain = TxChain("polar", (
            StageSpec("polar_paths", {"tau_p": 180e-12}),))
        aligned, delay, scores = cal.polar_delay_align(
            chain, fs, symbol_period=1e-9, window_s=500e-12, step_s=50e-12)
        assert abs(delay - 180e-12) <= 50e-12
        best = int(np.argmin(scores))
        assert np.all(np.diff(scores[best:best + 5]) > 0.0)
        assert np.all(np.diff(scores[max(best - 4, 0):best + 1]) < 0.0)

    def test_aligned_chain_improves_evm(self):
        fs = 8e9
        chain = TxChain("polar", (
            StageSpec("polar_paths", {"tau_p": 180e-12}),))
        aligned, _, scores = cal.polar_delay_align(
            chain, fs, symbol_period=1e-9, window_s=500e-12, step_s=50e-12)
        center = scores[len(scores) // 2]  # zero-compensation candidate
        assert scores.min() < center / 3.0

    def test_boundary_hit_raises(self):
        chain = TxChain("polar", (
            StageSpec("polar_paths", {"tau_p": 600e-12}),))
        with pytest.raises(cal.CalibrationError, match="boundary"):
            cal.polar_delay_align(chain, 8e9, symbol_period=1e-9,
                                  window_s=500e-12, step_s=50e-12)

    def test_window_edge_is_the_delay_check_edge(self):
        # the grid's widest candidate is held to the same quarter of the
        # probe record that fractional_delay enforces when it is removed
        shape = cal.align_probe_shape(1e-9, 8e9)
        _, probe = synth_comm_waveform(
            np.zeros(96, dtype=np.int64), mod.build_constellation("m_psk", m=4),
            shape, symbol_period=1e-9)
        duration = mod.shaped_samples(48, shape) / (
            shape.samples_per_symbol / 1e-9)
        assert probe.duration == duration
        quarter = duration / 4.0
        with pytest.raises(ValueError, match="quarter"):
            cal.align_candidates(quarter, quarter / 4.0, duration)
        with pytest.raises(ValueError, match="quarter"):
            fractional_delay(probe, -quarter)
        below = float(np.nextafter(quarter, 0.0))
        grid = cal.align_candidates(below, below / 4.0, duration)
        assert grid.size == 9 and np.abs(grid).max() == below
        for tau in grid:
            fractional_delay(probe, -float(tau))

    def test_validation(self):
        chain = TxChain("polar", (
            StageSpec("polar_paths", {"tau_p": 100e-12}),))
        with pytest.raises(ValueError, match="positive"):
            cal.polar_delay_align(chain, 8e9, 1e-9, window_s=0.0,
                                  step_s=50e-12)
        with pytest.raises(ValueError, match="integer"):
            cal.polar_delay_align(chain, 8e9, 1.3e-9 / 4, window_s=1e-10,
                                  step_s=5e-11)


class TestDpdFit:
    CHAIN = TxChain("custom", (StageSpec(
        "am_ampm", {"gain_poly": [1.0, -0.15],
                    "phase_poly": [0.0, 0.1, 0.05]}),))

    def _staircase_error(self, chain):
        levels = 0.8 * np.arange(1, 33) / 32.0
        probe = ComplexEnvelope(np.repeat(levels, 64).astype(np.complex128),
                                FS)
        out = run_chain(chain, probe).samples.reshape(32, 64)
        settled = out[:, 48:].mean(axis=1)
        gain_err = np.max(np.abs(np.abs(settled) - levels))
        phase_err = np.max(np.abs(np.angle(settled)))
        return gain_err, phase_err

    def test_flattens_compression_and_phase(self):
        corrected, gain_poly, phase_poly = cal.dpd_fit(self.CHAIN, FS,
                                               full_scale=0.8)
        g0, p0 = self._staircase_error(self.CHAIN)
        g1, p1 = self._staircase_error(corrected)
        assert g0 > 0.05 and p0 > 0.05
        assert g1 < 2e-3 and p1 < 2e-3

    def test_improves_constellation_evm(self):
        const = mod.build_constellation("square_qam", m=16)
        shape = mod.PulseShape("raised_cosine", samples_per_symbol=8)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=4 * 128)
        chain = TxChain("custom", (StageSpec(
            "am_ampm", {"gain_poly": [1.0, -0.05],
                        "phase_poly": [0.0, 0.1, 0.05]}),))
        corrected, *_ = cal.dpd_fit(chain, FS, full_scale=1.6)

        def measure(chain):
            stream, env = synth_comm_waveform(bits, const, shape,
                                              symbol_period=8 / FS)
            env = run_chain(chain, env)
            res = demodulate(env, const, shape, 8 / FS,
                             skip_edge_symbols=shape.span_symbols)
            ref = stream.symbols[shape.span_symbols:-shape.span_symbols]
            n = min(len(res.rx_symbols), len(ref))
            return evm(res.rx_symbols[:n], ref[:n]).evm_rms

        assert measure(corrected) < measure(chain) / 10.0

    def test_is_idempotent(self):
        corrected, *_ = cal.dpd_fit(self.CHAIN, FS, full_scale=0.8)
        twice, gain_poly, phase_poly = cal.dpd_fit(corrected, FS,
                                                   full_scale=0.8)
        # the raw coefficients are ill conditioned; judge the fitted curves
        a = 0.8 * np.arange(1, 33) / 32.0
        drive = sum(c * a ** p for c, p in zip(gain_poly, (1, 3, 5)))
        phase = sum(c * a ** p for p, c in enumerate(phase_poly))
        assert np.max(np.abs(drive - a)) < 2e-3
        assert np.max(np.abs(phase)) < 2e-3

    def test_fold_raises(self):
        chain = TxChain("custom", (StageSpec(
            "am_ampm", {"gain_poly": [1.0, -0.45]}),))
        with pytest.warns(UserWarning, match="AM-AM transfer is non-monotone"):
            with pytest.raises(cal.CalibrationError, match="fold"):
                cal.dpd_fit(chain, FS)

    def test_fold_in_the_forward_fit_raises(self):
        # the measured staircase rises at every level, but A - 0.3 A^3
        # peaks at 0.70 (A = 1.05), short of the full-scale 1.0: the fit
        # folds over there, so the top levels have no preimage
        chain = TxChain("custom", (StageSpec(
            "am_ampm", {"gain_poly": [1.0, -0.3]}),))
        levels = np.arange(1, 33) / 32.0
        amp = np.abs(run_chain(chain, ComplexEnvelope(
            levels.astype(np.complex128), FS)).samples)
        assert np.all(np.diff(amp) > 0.0)
        with pytest.raises(cal.CalibrationError, match="folds over"):
            cal.dpd_fit(chain, FS)

    @pytest.mark.parametrize("full_scale", [1.0, 1.05])
    def test_unreachable_full_scale_has_no_preimage(self, full_scale):
        # A - 0.15 A^3 rises at every probed level, but its peak, 0.994 at
        # A = 1.49, lies below full_scale: no drive reaches it, and the
        # fit says so before its inversion can walk past the peak
        chain = TxChain("custom", (StageSpec(
            "am_ampm", {"gain_poly": [1.0, -0.15]}),))
        with pytest.raises(cal.CalibrationError,
                           match="no preimage .* at 0.9938, short of"):
            cal.dpd_fit(chain, FS, full_scale=full_scale)
        cal.dpd_fit(chain, FS, full_scale=0.99)

    def test_a_measured_fold_is_named_a_fold(self):
        # A - 0.5 A^3 peaks at 0.54 (A = 0.82), inside the probed range:
        # the staircase itself turns down
        chain = TxChain("custom", (StageSpec(
            "am_ampm", {"gain_poly": [1.0, -0.5]}),))
        with pytest.warns(UserWarning, match="AM-AM transfer is non-monotone"):
            with pytest.raises(cal.CalibrationError) as info:
                cal.dpd_fit(chain, FS)
        assert str(info.value) == ("amplitude response folds over; static "
                                   "predistortion cannot invert it")

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            cal.dpd_fit(self.CHAIN, FS, order=4)
        with pytest.raises(ValueError, match="levels"):
            cal.dpd_fit(self.CHAIN, FS, order=5, n_levels=6)


class TestLeakageCancel:
    def test_cancels_static_feedthrough(self):
        chain = TxChain("cartesian", (
            StageSpec("lo_feedthrough", {"offset": 0.01 + 0.02j}),))
        corrected, level = cal.leakage_cancel(chain, FS)
        assert level == pytest.approx(0.01 + 0.02j, abs=1e-12)
        probe = ComplexEnvelope(
            np.concatenate([np.ones(256), np.zeros(256)]).astype(complex), FS)
        out = run_chain(corrected, probe)
        assert np.max(np.abs(out.samples[264:])) < 1e-12

    def test_cancels_burst_leakage(self):
        chain = TxChain("polar", (
            StageSpec("polar_paths"),
            StageSpec("onoff_leakage", {"off_ratio_db": 40.0}),
        ))
        corrected, level = cal.leakage_cancel(chain, FS)
        assert abs(level) == pytest.approx(0.01, abs=1e-9)
        probe = ComplexEnvelope(
            np.concatenate([np.ones(256), np.zeros(256)]).astype(complex), FS)
        out = run_chain(corrected, probe)
        assert np.max(np.abs(out.samples[264:])) < 1e-12

    def test_is_idempotent(self):
        chain = TxChain("cartesian", (
            StageSpec("lo_feedthrough", {"offset": 0.01 + 0.02j}),))
        corrected, _ = cal.leakage_cancel(chain, FS)
        twice, level2 = cal.leakage_cancel(corrected, FS)
        assert abs(level2) < 1e-12

    def test_oscillating_off_level_raises(self):
        chain = TxChain("custom", (StageSpec(
            "spur_inject", {"offset_hz": 50e6, "level_dbc": -20.0}),))
        with pytest.raises(cal.CalibrationError, match="static"):
            cal.leakage_cancel(chain, FS)

    def test_validation(self):
        with pytest.raises(ValueError, match="off window"):
            cal.leakage_cancel(TxChain("cartesian"), FS, off_samples=12)
