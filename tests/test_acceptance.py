"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when its criterion holds; a failed
assert turns into the usual pytest FAILED line, so a run of this module
reads as a pass/fail scoreboard.  Criteria with runtime limits time the
computation they bound.
"""
import math
import time

import numpy as np
import pytest

from sigchain import calibration as cal
from sigchain import impairments as imp
from sigchain import metrics as met
from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain import scenario as scn
from sigchain.chains import (StageSpec, TxChain, apply_stage, run_chain,
                             synth_comm_waveform, synth_qubit_pulse)
from sigchain.envelope import ComplexEnvelope

TAU = 6.4e-8
FS_Q = 1.0e9


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS {text}")


def _pi_pulse_infidelity(chain, eps_a=0.0, phi_e=0.0, theta=math.pi):
    """Infidelity of a rect pulse aimed at ``theta`` about x, through a
    chain carrying the given amplitude and phase errors."""
    stages = []
    if eps_a:
        stages.append(StageSpec("amplitude_error", {"eps_a": eps_a}))
    if phi_e:
        stages.append(StageSpec("static_phase_error", {"phi_e": phi_e}))
    chain = chain or TxChain("custom", tuple(stages))
    g = math.pi / TAU
    model = qb.QubitModel(drive_gain=g)
    spec = mod.GateEnvelopeSpec("rect", TAU, peak_amplitude=None)
    env = run_chain(chain, synth_qubit_pulse(spec, FS_Q, rotation_angle=theta,
                                             drive_gain=g))
    u = qb.propagate(model, env)
    target = qb.target_unitary(qb.GateSpec(theta))
    return qb.average_gate_fidelity(u, target).infidelity


class TestAcceptance:
    def test_criterion_01_amplitude_error_coefficient(self):
        t0 = time.perf_counter()
        theta = math.pi
        for eps in (0.005, 0.01, 0.02):
            measured = _pi_pulse_infidelity(None, eps_a=eps)
            model = (theta ** 2 / 6.0) * eps ** 2
            assert measured == pytest.approx(model, rel=0.05), eps
        anchor = _pi_pulse_infidelity(None, eps_a=0.01)
        assert anchor == pytest.approx(1.6449e-4, rel=0.01)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        _report(1, f"quadratic amplitude-error infidelity coefficient "
                   f"({elapsed:.2f} s)")

    def test_criterion_02_phase_error_coefficient(self):
        t0 = time.perf_counter()
        for theta in (math.pi / 2, math.pi):
            for eps in (0.005, 0.01, 0.02):
                measured = _pi_pulse_infidelity(None, phi_e=eps, theta=theta)
                model = (2.0 / 3.0) * math.sin(theta / 2.0) ** 2 * eps ** 2
                assert measured == pytest.approx(model, rel=0.05), (theta,
                                                                    eps)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        _report(2, f"quadratic phase-error infidelity coefficient "
                   f"({elapsed:.2f} s)")

    def test_criterion_03_population_law(self):
        t0 = time.perf_counter()
        g = math.pi / TAU
        model = qb.QubitModel(drive_gain=g)
        spec = mod.GateEnvelopeSpec("rect", TAU, peak_amplitude=None)
        scales = np.linspace(0.0, 2.0, 21)
        p1 = qb.rabi_protocol(model, spec, FS_Q, scales,
                              chain=TxChain("custom", ()))
        expect = np.sin(scales * math.pi / 2.0) ** 2
        dev = float(np.max(np.abs(p1 - expect)))
        assert dev < 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        _report(3, f"21-point drive sweep follows the half-angle "
                   f"population law, max dev {dev:.1e} ({elapsed:.2f} s)")

    def test_criterion_04_error_budget_additivity(self):
        t0 = time.perf_counter()
        fs = 16.0e9
        sps = 16
        symbol_period = sps / fs
        const = mod.build_constellation("square_qam", m=16)
        shape = mod.PulseShape("root_raised_cosine", 0.35, 16, sps)
        bits = np.random.default_rng(21).integers(0, 2, size=256 * 4)
        chain = TxChain("cartesian", (
            StageSpec("amplitude_error", {"eps_a": 0.02}),
            StageSpec("static_phase_error", {"phi_e": 0.02}),
            StageSpec("lo_feedthrough", {"offset": 0.02}),
            StageSpec("bandwidth_limit", {"cutoff_hz": 5.0 / symbol_period}),
        ))
        stream, clean = synth_comm_waveform(bits, const, shape,
                                            symbol_period)
        scorer = met.LinkScorer(stream, const, shape)
        report = met.evm_budget(scorer, clean, chain,
                                scorer(run_chain(chain, clean))[2])
        assert report.rss_deviation < 0.10
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        _report(4, f"per-mechanism EVM terms add in quadrature, deviation "
                   f"{report.rss_deviation:.1%} ({elapsed:.2f} s)")

    def test_criterion_05_evm_identities(self):
        ref = mod.build_constellation("square_qam", m=16).points
        eps, phi, c = 0.0173, 0.031, 0.0225 - 0.011j
        scale_evm = met.evm((1.0 + eps) * ref, ref).evm_rms
        assert abs(scale_evm - eps) < 1e-9
        rot_evm = met.evm(np.exp(1j * phi) * ref, ref).evm_rms
        assert abs(rot_evm - 2.0 * math.sin(phi / 2.0)) < 1e-9
        offset_evm = met.evm(ref + c, ref).evm_rms
        assert abs(offset_evm - abs(c)) < 1e-9
        _report(5, "EVM closed forms for scale, rotation, and offset "
                   "hold to 1e-9")

    def test_criterion_06_zero_isi_and_bandwidth(self):
        fs = 8.0e9
        sps = 8
        const = mod.build_constellation("square_qam", m=16)
        bits = np.random.default_rng(5).integers(0, 2, size=256 * 4)
        bw_at = {}
        for beta in (0.25, 0.5, 1.0):
            shape = mod.PulseShape("raised_cosine", beta, 16, sps)
            stream, env = synth_comm_waveform(bits, const, shape,
                                              sps / fs)
            res = met.demodulate(env, const, shape, sps / fs,
                                 skip_edge_symbols=16)
            ref = stream.symbols[16:-16][: res.rx_symbols.size]
            evm_db = met.evm(res.rx_symbols, ref).evm_db
            assert evm_db < -60.0, beta
            spectrum = met.psd_welch(env, nperseg=1024)
            db = 10.0 * np.log10(np.maximum(spectrum.psd, 1e-300))
            occupied = db >= db.max() - 40.0
            bw_at[beta] = float(np.abs(spectrum.freqs[occupied]).max())
        assert bw_at[0.25] < bw_at[0.5] < bw_at[1.0]
        _report(6, "pulse-shaped loopback is ISI-free below -60 dB and "
                   "excess bandwidth grows with roll-off")

    def test_criterion_07_image_rejection(self):
        fs = 4.0e9
        n = 4096
        k = n // 8
        t = np.arange(n) / fs
        tone = ComplexEnvelope(np.exp(2j * np.pi * (k * fs / n) * t), fs)
        for g in (0.02, 0.05, 0.1):
            for phi in (0.0, 0.02, math.radians(5.0)):
                out = imp.iq_imbalance(tone, g, phi)
                spec = np.fft.fft(out.samples) / n
                measured = 10.0 * math.log10(
                    abs(spec[-k]) ** 2 / abs(spec[k]) ** 2)
                mu, nu = imp.iq_imbalance_mu_nu(g, phi)
                predicted = 10.0 * math.log10(abs(nu) ** 2 / abs(mu) ** 2)
                assert abs(measured - predicted) < 0.1, (g, phi)

        chain = TxChain("cartesian", (
            StageSpec("iq_imbalance", {"gain_mismatch": 0.1,
                                       "quad_skew": math.radians(5.0)}),
            StageSpec("lo_feedthrough", {"offset": 0.05 * np.exp(0.3j)}),
        ))
        corrected = cal.iq_cal(chain, fs)
        k2 = 3 * n // 16
        probe = ComplexEnvelope(np.exp(2j * np.pi * (k2 * fs / n) * t), fs)
        out = run_chain(corrected, probe)
        spec = np.fft.fft(out.samples) / n
        wanted = abs(spec[k2]) ** 2
        irr = 10.0 * math.log10(wanted / max(abs(spec[-k2]) ** 2, 1e-300))
        lorr = 10.0 * math.log10(wanted / max(abs(spec[0]) ** 2, 1e-300))
        assert irr >= 42.0
        assert lorr >= 41.0
        _report(7, f"image level matches the mixing-coefficient form within "
                   f"0.1 dB; corrected IRR {irr:.0f} dB, carrier rejection "
                   f"{lorr:.0f} dB")

    def test_criterion_08_harmonic_multiplication(self):
        fs = 1.0e8
        n = 512
        factor = 3
        stage = StageSpec("harmonic_multiply", {"factor": factor})

        t = np.arange(n) / fs
        phi = 0.3 * np.sin(2.0 * np.pi * 2.0e6 * t)
        out = apply_stage(ComplexEnvelope(np.exp(1j * phi), fs), stage)
        det_dev = float(np.max(np.abs(np.angle(out.samples) - factor * phi)))
        assert det_dev < 1e-12

        rate = 5.0e3

        def increment_variance(seeds, multiplied):
            chunks = []
            for seed in seeds:
                env = ComplexEnvelope(np.ones(n, complex), fs)
                noisy = imp.phase_noise(env, rate, seed=seed)
                if multiplied:
                    noisy = apply_stage(noisy, stage)
                chunks.append(np.diff(np.unwrap(np.angle(noisy.samples))))
            return float(np.var(np.concatenate(chunks)))

        base = increment_variance(range(200), False)
        multiplied = increment_variance(range(1000, 1200), True)
        ratio = multiplied / base / factor ** 2
        assert abs(ratio - 1.0) < 0.15
        _report(8, f"phase deviations multiply exactly; independent-ensemble "
                   f"noise variance scales by the factor squared "
                   f"(ratio {ratio:.3f})")

    def test_criterion_09_path_delay_alignment(self):
        fs = 8.0e9
        symbol_period = 1.0e-9
        injected = 1.8e-10
        step = 5.0e-11

        def polar(tau_p, comp=0.0):
            return TxChain("polar", (StageSpec("polar_paths", {
                "am_bits": None, "am_full_scale": None, "am_cutoff_hz": None,
                "tau_a": 0.0, "pm_bits": None, "pm_cutoff_hz": None,
                "tau_p": tau_p, "comp_delay_s": comp}),))

        aligned, best, _ = cal.polar_delay_align(
            polar(injected), fs, symbol_period=symbol_period,
            window_s=4.5e-10, step_s=step)
        assert abs(best - injected) <= step

        const = mod.build_constellation("m_psk", m=4)
        shape = mod.PulseShape("raised_cosine", 0.5, 8, 8)
        bits = np.random.default_rng(7).integers(0, 2, size=96 * 2)
        evms = []
        for tau in (0.0, 5e-11, 1e-10, 1.5e-10, 2e-10):
            for sign in (1.0, -1.0):
                stream, env = synth_comm_waveform(bits, const, shape,
                                                  symbol_period)
                env = run_chain(polar(sign * tau), env)
                res = met.demodulate(env, const, shape, symbol_period,
                                     skip_edge_symbols=8)
                ref = stream.symbols[8:-8][: res.rx_symbols.size]
                evms.append((tau, met.evm(res.rx_symbols, ref).evm_rms))
        for (tau_a, evm_a), (tau_b, evm_b) in zip(evms, evms[1:]):
            if tau_b > tau_a:
                assert evm_b > evm_a
        _report(9, f"injected 180 ps path skew recovered at {best * 1e12:.0f}"
                   f" ps on a 50 ps grid; waveform error grows with skew")

    def test_criterion_10_derivative_correction_leakage(self):
        t0 = time.perf_counter()
        alpha = -2.0 * math.pi * 250.0e6
        tau = 1.6e-8
        fs = 1024 / tau
        g = 2.0 * math.pi * 50.0e6
        model = qb.QubitModel(drive_gain=g, levels=3, anharmonicity=alpha)
        target = qb.target_unitary(qb.GateSpec(math.pi))

        def run(drag_coeff):
            spec = mod.GateEnvelopeSpec(
                "gaussian", tau, peak_amplitude=None, sigma_fraction=0.25,
                drag_enabled=drag_coeff != 0.0,
                drag_coefficient_s=drag_coeff)
            env = synth_qubit_pulse(spec, fs, rotation_angle=math.pi,
                                    drive_gain=g)
            u = qb.propagate(model, env, substeps=2)
            report = qb.average_gate_fidelity(u, target)
            return report.leakage, report.infidelity

        leak_plain, infid_plain = run(0.0)
        leak_drag, infid_drag = run(1.0 / alpha)
        assert leak_drag < leak_plain
        assert infid_drag <= 1.1 * infid_plain
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        _report(10, f"derivative quadrature cuts leakage "
                    f"{leak_plain / leak_drag:.0f}x without hurting the "
                    f"computational-subspace error ({elapsed:.2f} s)")

    def test_criterion_11_calibration_suite(self):
        fs = 4.0e9
        g = math.pi / TAU
        model = qb.QubitModel(drive_gain=g)
        spec = mod.GateEnvelopeSpec("rect", TAU, peak_amplitude=None)
        target = qb.target_unitary(qb.GateSpec(math.pi))

        def infidelity(chain, peak):
            env = run_chain(chain,
                            synth_qubit_pulse(mod.with_peak(spec, peak), FS_Q))
            u = qb.propagate(model, env)
            return qb.average_gate_fidelity(u, target).infidelity

        # amplitude LUT against a cubic and a non-monotone code map
        cubic = TxChain("custom", (StageSpec("am_ampm", {
            "gain_poly": [1.0, 0.2]}),))
        lut = cal.rabi_amplitude_cal(model, spec, FS_Q,
                                     np.linspace(0.05, 1.2, 40), chain=cubic)
        assert infidelity(cubic, 1.0) > 1e-2
        assert infidelity(cubic, lut.pi_code) < 1e-4
        lut_again = cal.rabi_amplitude_cal(model, spec, FS_Q,
                                           np.linspace(0.05, 1.2, 40),
                                           chain=cubic)
        assert abs(lut_again.pi_code - lut.pi_code) < 1e-6

        gt = 2.2 * math.pi
        dip_model = qb.QubitModel(drive_gain=gt / TAU)
        dip_target = qb.target_unitary(qb.GateSpec(math.pi))
        dip = TxChain("custom", (StageSpec("am_ampm", {
            "gain_poly": [1.0, -1.5, 1.0]}),))
        with pytest.warns(UserWarning, match="AM-AM transfer is non-monotone"):
            dip_lut = cal.rabi_amplitude_cal(dip_model, spec, FS_Q,
                                             np.linspace(0.05, 1.0, 48),
                                             chain=dip)
            env = run_chain(dip, synth_qubit_pulse(
                mod.with_peak(spec, dip_lut.pi_code), FS_Q))
        u = qb.propagate(dip_model, env)
        assert qb.average_gate_fidelity(u, dip_target).infidelity < 1e-4

        # quadrature correction: exact inversion, second pass is a no-op
        iq_chain = TxChain("cartesian", (
            StageSpec("iq_imbalance", {"gain_mismatch": 0.1,
                                       "quad_skew": math.radians(5.0)}),
            StageSpec("lo_feedthrough", {"offset": 0.05 * np.exp(0.3j)}),
        ))
        once = cal.iq_cal(iq_chain, fs)
        twice = cal.iq_cal(once, fs)
        matrix2 = np.asarray(twice.stages[0].params["matrix"])
        assert np.max(np.abs(matrix2 - np.eye(2))) < 1e-6
        assert abs(twice.stages[0].params["offset"]) < 1e-6

        # predistortion: second-pass correction curve is identity
        pa = TxChain("custom", (StageSpec("am_ampm", {
            "gain_poly": [1.0, -0.02], "phase_poly": [0.0, 0.02]}),))
        corrected, _, _ = cal.dpd_fit(pa, fs, order=7)
        _, gain2, phase2 = cal.dpd_fit(corrected, fs, order=7)
        grid = np.linspace(0.0, 1.0, 101)
        odd = np.arange(1, 8, 2)
        gain_curve = (grid[:, None] ** odd) @ np.asarray(gain2)
        phase_curve = np.polyval(np.asarray(phase2)[::-1], grid)
        assert np.max(np.abs(gain_curve - grid)) < 1e-6
        assert np.max(np.abs(phase_curve)) < 1e-6

        # path-delay alignment settles on the first pass
        skew = TxChain("polar", (StageSpec("polar_paths", {
            "am_bits": None, "am_full_scale": None, "am_cutoff_hz": None,
            "tau_a": 0.0, "pm_bits": None, "pm_cutoff_hz": None,
            "tau_p": 1.8e-10, "comp_delay_s": 0.0}),))
        aligned, best1, _ = cal.polar_delay_align(
            skew, 8.0e9, symbol_period=1.0e-9, window_s=4.5e-10,
            step_s=5.0e-11)
        _, best2, _ = cal.polar_delay_align(
            aligned, 8.0e9, symbol_period=1.0e-9, window_s=4.5e-10,
            step_s=5.0e-11)
        assert abs(best2 - best1) < 1e-6

        # carrier-leak cancellation nulls the off level in one pass
        leaky = TxChain("polar", (
            StageSpec("lo_feedthrough", {"offset": 0.01 + 0.02j}),))
        cancelled, level1 = cal.leakage_cancel(leaky, fs)
        _, level2 = cal.leakage_cancel(cancelled, fs)
        assert abs(level1) > 1e-3
        assert abs(level2) < 1e-6
        _report(11, "all five calibrations converge in one pass and restore "
                    "their training scenarios")

    def test_criterion_12_constellation123_identity(self):
        summed = mod.build_constellation("qpsk_sum", ratios=[2, 1]).points
        square = mod.build_constellation("square_qam", m=16).points

        def canon(points):
            return np.sort_complex(np.round(points, 12))

        assert np.max(np.abs(canon(summed) - canon(square))) < 1e-12

        every = [
            mod.build_constellation("m_ask", m=4),
            mod.build_constellation("m_psk", m=8),
            mod.build_constellation("square_qam", m=64),
            mod.build_constellation("qpsk_sum", ratios=[2, 1]),
            mod.build_constellation("star_qam", rings=2, phases=8),
        ]
        for const in every:
            rms = math.sqrt(float(np.mean(np.abs(const.points) ** 2)))
            assert abs(rms - 1.0) < 1e-12, const.scheme
        _report(12, "superposed quadrature pairs at ratio 2 reproduce the "
                    "16-point square grid; all point sets are unit power")

    def test_criterion_13_bundled_determinism(self, tmp_path):
        import json

        runs = {"a": tmp_path / "a", "b": tmp_path / "b"}
        for name in scn.list_bundled_scenarios():
            raw = json.loads(scn.bundled_scenario_path(name).read_text())
            for out in runs.values():
                if "routine" in raw:
                    scn.run_calibration(dict(raw), out)
                elif "sweep" in raw:
                    scn.run_sweep(dict(raw), out)
                else:
                    scn.run_scenario(dict(raw), out)
        compared = 0
        for produced in sorted(runs["a"].rglob("*")):
            if not produced.is_file():
                continue
            twin = runs["b"] / produced.relative_to(runs["a"])
            assert produced.read_bytes() == twin.read_bytes(), produced.name
            compared += 1
        assert compared >= 12
        _report(13, f"rerunning every bundled scenario reproduced "
                    f"{compared} output files byte for byte")
