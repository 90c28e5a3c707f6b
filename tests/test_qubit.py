"""Qubit propagation and gate-scoring checks.

Oracles: matrix-exponential step products (scipy.linalg.expm), the resonant
rotation law P1 = sin^2(area/2), free-precession phases, and closed-form
fidelity expressions for pure amplitude or axis-phase errors.
"""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from sigchain import modulation as mod
from sigchain import qubit as qb
from sigchain.chains import StageSpec, TxChain, synth_qubit_pulse
from sigchain.envelope import ComplexEnvelope

TWO_PI = 2.0 * math.pi


def _expm_product(model, env):
    dt = 1.0 / env.sample_rate
    if model.levels == 2:
        u = np.eye(2, dtype=complex)
        for x in env.samples:
            h = 0.5 * model.detuning * qb.SIGMA_Z \
                + 0.5 * model.drive_gain * (x.real * qb.SIGMA_X
                                            + x.imag * qb.SIGMA_Y)
            u = expm(-1j * h * dt) @ u
    else:
        u = np.eye(3, dtype=complex)
        for x in env.samples:
            h = np.zeros((3, 3), dtype=complex)
            h[0, 0] = 0.5 * model.detuning
            h[1, 1] = -0.5 * model.detuning
            h[2, 2] = -1.5 * model.detuning + model.anharmonicity
            h[0, 1] = 0.5 * model.drive_gain * np.conj(x)
            h[1, 2] = math.sqrt(2.0) * 0.5 * model.drive_gain * np.conj(x)
            h[1, 0] = np.conj(h[0, 1])
            h[2, 1] = np.conj(h[1, 2])
            u = expm(-1j * h * dt) @ u
    return u


# ---- the per-record matrix code the batched SU(2) kernel replaced; the
# ---- kernel tests below hold the new code to it within 1e-12

def _ref_ordered_product(steps):
    while steps.shape[0] > 1:
        if steps.shape[0] % 2:
            head = np.matmul(steps[1:-1:2], steps[0:-1:2])
            steps = np.concatenate([head, steps[-1:]])
        else:
            steps = np.matmul(steps[1::2], steps[0::2])
    return steps[0]


def _ref_propagate(model, env):
    x = env.samples
    dt = 1.0 / env.sample_rate
    if model.levels == 2:
        ax = 0.5 * model.drive_gain * x.real
        ay = 0.5 * model.drive_gain * x.imag
        az = np.full(x.size, 0.5 * model.detuning)
        r = np.sqrt(ax * ax + ay * ay + az * az)
        ang = r * dt
        c = np.cos(ang)
        s = np.where(r > 0.0, np.sin(ang) / np.where(r > 0.0, r, 1.0), dt)
        u = np.empty((x.size, 2, 2), dtype=np.complex128)
        u[:, 0, 0] = c - 1j * s * az
        u[:, 0, 1] = -1j * s * (ax - 1j * ay)
        u[:, 1, 0] = -1j * s * (ax + 1j * ay)
        u[:, 1, 1] = c + 1j * s * az
        return _ref_ordered_product(u)
    h = np.zeros((x.size, 3, 3), dtype=np.complex128)
    d = model.detuning
    h[:, 0, 0] = 0.5 * d
    h[:, 1, 1] = -0.5 * d
    h[:, 2, 2] = -1.5 * d + model.anharmonicity
    cpl = 0.5 * model.drive_gain * np.conj(x)
    h[:, 0, 1] = cpl
    h[:, 1, 2] = math.sqrt(2.0) * cpl
    h[:, 1, 0] = np.conj(h[:, 0, 1])
    h[:, 2, 1] = np.conj(h[:, 1, 2])
    evals, evecs = np.linalg.eigh(h)
    phase = np.exp(-1j * evals * dt)
    steps = np.einsum("kij,kj,klj->kil", evecs, phase, np.conj(evecs))
    return _ref_ordered_product(steps)


def _ref_bloch(model, env, substeps):
    n = len(env)
    coarse = np.arange(n) + 0.5
    fine = (np.arange(n * substeps) + 0.5) / substeps
    x = np.interp(fine, coarse, env.samples.real) \
        + 1j * np.interp(fine, coarse, env.samples.imag)
    dt = 1.0 / (env.sample_rate * substeps)
    psi = np.array([1.0, 0.0], dtype=np.complex128)
    pts = np.empty((x.size + 1, 3))
    times = np.empty(x.size + 1)

    def record(k, state):
        a, b = state
        pts[k, 0] = 2.0 * np.real(np.conj(a) * b)
        pts[k, 1] = 2.0 * np.imag(np.conj(a) * b)
        pts[k, 2] = np.abs(a) ** 2 - np.abs(b) ** 2
        times[k] = k * dt

    record(0, psi)
    ax = 0.5 * model.drive_gain * x.real
    ay = 0.5 * model.drive_gain * x.imag
    az = 0.5 * model.detuning
    for k in range(x.size):
        r = math.sqrt(ax[k] ** 2 + ay[k] ** 2 + az ** 2)
        ang = r * dt
        c = math.cos(ang)
        s = math.sin(ang) / r if r > 0.0 else dt
        u = np.array([
            [c - 1j * s * az, -1j * s * (ax[k] - 1j * ay[k])],
            [-1j * s * (ax[k] + 1j * ay[k]), c + 1j * s * az],
        ])
        psi = u @ psi
        record(k + 1, psi)
    return times, pts


def _ref_rabi(model, spec, fs, scales, chain):
    p1 = np.empty(len(scales))
    for k, scale in enumerate(scales):
        env = synth_qubit_pulse(chain, mod.with_peak(spec, float(scale)), fs)
        p1[k] = abs(_ref_propagate(model, env)[1, 0]) ** 2
    return p1


# the drive of the benchmark's qubit gate: a 16 ns Gaussian at 64 GS/s
# through a four-stage Cartesian chain
GATE_FS = 6.4e10
GATE_GAIN = math.pi / 1.0e-8
GATE_CHAIN = TxChain("cartesian", (
    StageSpec("amplitude_error", {"eps_a": 0.01}),
    StageSpec("iq_imbalance", {"gain_mismatch": 0.02, "quad_skew": 0.01}),
    StageSpec("lo_feedthrough", {"offset": 0.002 - 0.001j}),
    StageSpec("bandwidth_limit", {"cutoff_hz": 4.0e9}),
))


def _gate_spec(drag=False):
    return mod.GateEnvelopeSpec(
        "gaussian", 1.6e-8, peak_amplitude=None, sigma_fraction=0.25,
        drag_enabled=drag,
        drag_coefficient_s=-6.366197723675814e-10 if drag else 0.0)


def _rect_env(peak, duration, fs):
    spec = mod.GateEnvelopeSpec("rect", duration, peak_amplitude=peak)
    return mod.gate_envelope(spec, fs)


class TestPropagation:
    def test_rabi_law_rect(self):
        fs = 1e9
        tau = 64e-9
        g = math.pi / tau  # unit peak gives a pi rotation
        model = qb.QubitModel(drive_gain=g)
        worst = 0.0
        for scale in np.linspace(0.0, 2.0, 21):
            env = _rect_env(scale, tau, fs)
            u = qb.propagate(model, env)
            p1 = abs(u[1, 0]) ** 2
            worst = max(worst, abs(p1 - math.sin(scale * math.pi / 2.0) ** 2))
        assert worst < 1e-9

    def test_free_precession_phases(self):
        fs = 1e9
        n = 50
        det = TWO_PI * 3e6
        model = qb.QubitModel(drive_gain=1.0, detuning=det)
        env = ComplexEnvelope(np.zeros(n, dtype=complex), fs)
        u = qb.propagate(model, env)
        t = n / fs
        expect = np.diag([np.exp(-0.5j * det * t), np.exp(0.5j * det * t)])
        assert np.max(np.abs(u - expect)) < 1e-12

    def test_matches_expm_two_level(self):
        rng = np.random.default_rng(7)
        fs = 1e9
        x = (rng.normal(size=40) + 1j * rng.normal(size=40)) * 0.3
        env = ComplexEnvelope(x, fs)
        model = qb.QubitModel(drive_gain=TWO_PI * 40e6, detuning=TWO_PI * 5e6)
        u = qb.propagate(model, env)
        assert np.max(np.abs(u - _expm_product(model, env))) < 1e-11

    def test_matches_expm_three_level(self):
        rng = np.random.default_rng(11)
        fs = 4e9
        x = (rng.normal(size=48) + 1j * rng.normal(size=48)) * 0.2
        env = ComplexEnvelope(x, fs)
        model = qb.QubitModel(drive_gain=TWO_PI * 60e6, detuning=TWO_PI * 2e6,
                              levels=3, anharmonicity=-TWO_PI * 220e6)
        u = qb.propagate(model, env)
        assert np.max(np.abs(u - _expm_product(model, env))) < 1e-10

    def test_propagator_is_unitary(self):
        rng = np.random.default_rng(3)
        env = ComplexEnvelope(rng.normal(size=30) + 0j, 1e9)
        for model in (
            qb.QubitModel(drive_gain=TWO_PI * 30e6, detuning=TWO_PI * 1e6),
            qb.QubitModel(drive_gain=TWO_PI * 30e6, levels=3,
                          anharmonicity=-TWO_PI * 200e6),
        ):
            u = qb.propagate(model, env)
            eye = np.eye(model.levels)
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12

    def test_split_record_composes(self):
        rng = np.random.default_rng(5)
        fs = 1e9
        x = (rng.normal(size=60) + 1j * rng.normal(size=60)) * 0.4
        model = qb.QubitModel(drive_gain=TWO_PI * 35e6, detuning=TWO_PI * 4e6)
        u_full = qb.propagate(model, ComplexEnvelope(x, fs))
        u_a = qb.propagate(model, ComplexEnvelope(x[:25], fs))
        u_b = qb.propagate(model, ComplexEnvelope(x[25:], fs))
        assert np.max(np.abs(u_full - u_b @ u_a)) < 1e-12

    def test_detuning_sign_symmetry(self):
        fs = 1e9
        env = _rect_env(0.8, 64e-9, fs)
        g = TWO_PI * 25e6
        for det in (TWO_PI * 2e6, TWO_PI * 11e6):
            up = qb.propagate(qb.QubitModel(drive_gain=g, detuning=det), env)
            um = qb.propagate(qb.QubitModel(drive_gain=g, detuning=-det), env)
            assert abs(abs(up[1, 0]) ** 2 - abs(um[1, 0]) ** 2) < 1e-12

    def test_resonant_real_drive_depends_only_on_area(self):
        # on resonance a real envelope commutes with itself at all times
        fs = 1e9
        g = TWO_PI * 30e6
        spec = mod.GateEnvelopeSpec("gaussian", 64e-9, peak_amplitude=None)
        peak = math.pi / (g * mod.gate_envelope_unit_area(spec))
        env = mod.gate_envelope(mod.with_peak(spec, peak), fs)
        model = qb.QubitModel(drive_gain=g)
        u = qb.propagate(model, env)
        theta = qb.pulse_area(env, g)
        # the sampled area sits a quadrature error away from the analytic one
        assert theta == pytest.approx(math.pi, rel=1e-3)
        target = qb.target_unitary(qb.GateSpec(theta))
        assert np.max(np.abs(u - target)) < 1e-12

    def test_substeps_refine_toward_expm_limit(self):
        fs = 0.25e9  # deliberately coarse so refinement matters
        g = TWO_PI * 40e6
        spec = mod.GateEnvelopeSpec("cosine", 256e-9)
        env = mod.gate_envelope(spec, fs)
        model = qb.QubitModel(drive_gain=g, detuning=TWO_PI * 8e6)
        ref = qb.propagate(model, env, substeps=256)
        e1 = np.max(np.abs(qb.propagate(model, env, substeps=1) - ref))
        e4 = np.max(np.abs(qb.propagate(model, env, substeps=4) - ref))
        e16 = np.max(np.abs(qb.propagate(model, env, substeps=16) - ref))
        assert e4 < e1 and e16 < e4

    def test_pulse_area_rect(self):
        env = _rect_env(0.5, 64e-9, 1e9)
        assert qb.pulse_area(env, 2.0) == pytest.approx(64e-9, rel=1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="levels"):
            qb.QubitModel(drive_gain=1.0, levels=4)
        with pytest.raises(ValueError, match="drive_gain"):
            qb.QubitModel(drive_gain=0.0)
        with pytest.raises(ValueError, match="anharmonicity"):
            qb.QubitModel(drive_gain=1.0, levels=3, anharmonicity=0.0)
        with pytest.raises(ValueError, match="substeps"):
            qb.propagate(qb.QubitModel(drive_gain=1.0),
                         _rect_env(1.0, 64e-9, 1e9), substeps=0)
        with pytest.raises(ValueError, match="rotation_angle"):
            qb.GateSpec(0.0)


class TestFidelity:
    def test_perfect_gate_scores_one(self):
        for theta, phi in ((math.pi, 0.0), (math.pi / 2, 1.1), (2.5, -0.7)):
            u = qb.target_unitary(qb.GateSpec(theta, phi))
            rep = qb.average_gate_fidelity(u, u)
            assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
            assert abs(rep.amp_error) < 1e-9
            assert abs(rep.phase_error) < 1e-9
            assert rep.leakage is None

    def test_amplitude_error_closed_form(self):
        theta = math.pi
        for eps in (1e-3, 0.01, 0.05):
            actual = qb.target_unitary(qb.GateSpec(theta * (1.0 + eps)))
            rep = qb.average_gate_fidelity(
                actual, qb.target_unitary(qb.GateSpec(theta)))
            exact = (2.0 / 3.0) * math.sin(theta * eps / 2.0) ** 2
            assert rep.infidelity == pytest.approx(exact, abs=1e-14)
        rep = qb.average_gate_fidelity(
            qb.target_unitary(qb.GateSpec(math.pi * 1.01)),
            qb.target_unitary(qb.GateSpec(math.pi)))
        assert rep.infidelity == pytest.approx(1.64479e-4, rel=1e-4)

    def test_phase_error_closed_form(self):
        theta = 2.0
        for eps in (0.01, 0.08):
            actual = qb.target_unitary(qb.GateSpec(theta, eps))
            rep = qb.average_gate_fidelity(
                actual, qb.target_unitary(qb.GateSpec(theta)))
            s2 = math.sin(theta / 2.0) ** 2
            tr_half = 1.0 - 2.0 * s2 * math.sin(eps / 2.0) ** 2
            exact = (4.0 - 4.0 * tr_half ** 2) / 6.0
            assert rep.infidelity == pytest.approx(exact, abs=1e-14)

    def test_global_phase_is_ignored(self):
        u = qb.target_unitary(qb.GateSpec(1.3, 0.4))
        rep = qb.average_gate_fidelity(np.exp(0.77j) * u, u)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_extraction_recovers_injected_errors(self):
        theta, eps_a, eps_phi = math.pi / 2, 0.02, 0.03
        actual = qb.target_unitary(
            qb.GateSpec(theta * (1.0 + eps_a), eps_phi))
        rep = qb.average_gate_fidelity(
            actual, qb.target_unitary(qb.GateSpec(theta)))
        assert rep.amp_error == pytest.approx(eps_a, abs=1e-9)
        assert rep.phase_error == pytest.approx(eps_phi, abs=1e-9)

    def test_extraction_near_pi(self):
        # overshooting a pi rotation must read as positive amp error
        theta, eps_a = math.pi, 0.04
        actual = qb.target_unitary(qb.GateSpec(theta * (1.0 + eps_a)))
        rep = qb.average_gate_fidelity(
            actual, qb.target_unitary(qb.GateSpec(theta)))
        assert rep.amp_error == pytest.approx(eps_a, abs=1e-9)

    def test_axis_angle_roundtrip(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            theta = rng.uniform(0.1, math.pi - 0.1)
            phi = rng.uniform(-math.pi, math.pi)
            u = qb.target_unitary(qb.GateSpec(theta, phi))
            got_theta, axis = qb.axis_angle(np.exp(1j * rng.uniform(0, 6)) * u)
            assert got_theta == pytest.approx(theta, abs=1e-9)
            assert axis[0] == pytest.approx(math.cos(phi), abs=1e-9)
            assert axis[1] == pytest.approx(math.sin(phi), abs=1e-9)

    def test_infidelity_model_tracks_measured_amp(self):
        fs = 1e9
        tau = 64e-9
        g = math.pi / tau
        model = qb.QubitModel(drive_gain=g)
        target = qb.target_unitary(qb.GateSpec(math.pi))
        for eps in (0.005, 0.02, 0.05):
            u = qb.propagate(model, _rect_env(1.0 + eps, tau, fs))
            measured = qb.average_gate_fidelity(u, target).infidelity
            predicted = qb.infidelity_model(math.pi, eps, 0.0)
            assert measured == pytest.approx(predicted, rel=0.05)

    def test_infidelity_model_tracks_measured_phase(self):
        fs = 1e9
        tau = 64e-9
        g = math.pi / tau
        model = qb.QubitModel(drive_gain=g)
        target = qb.target_unitary(qb.GateSpec(math.pi))
        for eps in (0.01, 0.05):
            spec = mod.GateEnvelopeSpec("rect", tau, peak_amplitude=1.0)
            env = mod.gate_envelope(spec, fs)
            tilted = ComplexEnvelope(env.samples * np.exp(1j * eps), fs)
            measured = qb.average_gate_fidelity(
                qb.propagate(model, tilted), target).infidelity
            predicted = qb.infidelity_model(math.pi, 0.0, eps)
            assert measured == pytest.approx(predicted, rel=0.05)

    def test_fidelity_shape_validation(self):
        with pytest.raises(ValueError, match="target"):
            qb.average_gate_fidelity(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="actual"):
            qb.average_gate_fidelity(np.eye(4), np.eye(2))


class TestThreeLevel:
    ALPHA = -TWO_PI * 250e6

    def _pi_pulse(self, coeff, fs=None):
        tau = 16e-9
        fs = fs or 1024 / tau
        g = TWO_PI * 50e6
        spec = mod.GateEnvelopeSpec(
            "gaussian", tau, peak_amplitude=None, sigma_fraction=0.25,
            drag_enabled=coeff is not None,
            drag_coefficient_s=coeff if coeff is not None else 0.0)
        peak = math.pi / (g * mod.gate_envelope_unit_area(spec))
        env = mod.gate_envelope(mod.with_peak(spec, peak), fs)
        model = qb.QubitModel(drive_gain=g, levels=3,
                              anharmonicity=self.ALPHA)
        return qb.propagate(model, env)

    @staticmethod
    def _leakage(u):
        return qb.average_gate_fidelity(u, qb.target_unitary(
            qb.GateSpec(math.pi))).leakage

    def test_derivative_quadrature_cuts_leakage(self):
        plain = self._leakage(self._pi_pulse(None))
        shaped = self._leakage(self._pi_pulse(1.0 / self.ALPHA))
        assert plain > 1e-5
        assert shaped < plain / 100.0

    def test_derivative_quadrature_keeps_subspace_fidelity(self):
        target = qb.target_unitary(qb.GateSpec(math.pi))
        plain = qb.average_gate_fidelity(self._pi_pulse(None), target)
        shaped = qb.average_gate_fidelity(
            self._pi_pulse(1.0 / self.ALPHA), target)
        assert shaped.infidelity < 1.1 * plain.infidelity

    def test_wrong_sign_makes_leakage_worse(self):
        plain = self._leakage(self._pi_pulse(None))
        wrong = self._leakage(self._pi_pulse(-1.0 / self.ALPHA))
        assert wrong > plain

    def test_leakage_report_matches_helper(self):
        u = self._pi_pulse(None)
        rep = qb.average_gate_fidelity(u, qb.target_unitary(
            qb.GateSpec(math.pi)))
        m = u[:2, :2]
        assert rep.leakage == pytest.approx(
            1.0 - np.linalg.norm(m, "fro") ** 2 / 2.0, abs=1e-15)

    def test_zero_drive_has_zero_leakage(self):
        model = qb.QubitModel(drive_gain=1.0, detuning=TWO_PI * 1e6,
                              levels=3, anharmonicity=self.ALPHA)
        env = ComplexEnvelope(np.zeros(32, dtype=complex), 1e9)
        assert self._leakage(qb.propagate(model, env)) < 1e-15

    def test_huge_anharmonicity_recovers_two_level(self):
        tau = 32e-9
        fs = 8e9
        g = TWO_PI * 20e6
        spec = mod.GateEnvelopeSpec("gaussian", tau, peak_amplitude=None)
        peak = math.pi / (g * mod.gate_envelope_unit_area(spec))
        env = mod.gate_envelope(mod.with_peak(spec, peak), fs)
        m2 = qb.QubitModel(drive_gain=g)
        m3 = qb.QubitModel(drive_gain=g, levels=3,
                           anharmonicity=-TWO_PI * 50e9)
        u2 = qb.propagate(m2, env)
        u3 = qb.propagate(m3, env)
        assert np.max(np.abs(u3[:2, :2] - u2)) < 1e-3


class TestProtocols:
    def test_rabi_protocol_matches_law(self):
        tau = 64e-9
        g = math.pi / tau
        model = qb.QubitModel(drive_gain=g)
        spec = mod.GateEnvelopeSpec("rect", tau)
        scales = np.linspace(0.0, 2.0, 9)
        p1 = qb.rabi_protocol(model, spec, 1e9, scales)
        expect = np.sin(scales * math.pi / 2.0) ** 2
        assert np.max(np.abs(p1 - expect)) < 1e-9


class TestBloch:
    def test_half_turn_and_quarter_turn_endpoints(self):
        fs = 1e9
        tau = 64e-9
        g = math.pi / tau
        model = qb.QubitModel(drive_gain=g)
        times, pts = qb.bloch_trajectory(model, _rect_env(1.0, tau, fs))
        assert pts.shape == (65, 3)
        assert np.allclose(pts[0], [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(pts[-1], [0.0, 0.0, -1.0], atol=1e-9)
        _, pts = qb.bloch_trajectory(model, _rect_env(0.5, tau, fs))
        assert np.allclose(pts[-1], [0.0, -1.0, 0.0], atol=1e-9)

    def test_trajectory_stays_on_sphere(self):
        rng = np.random.default_rng(23)
        env = ComplexEnvelope(
            (rng.normal(size=40) + 1j * rng.normal(size=40)) * 0.3, 1e9)
        model = qb.QubitModel(drive_gain=TWO_PI * 30e6,
                              detuning=TWO_PI * 4e6)
        times, pts = qb.bloch_trajectory(model, env)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(40e-9, rel=1e-12)

    def test_three_level_rejected(self):
        model = qb.QubitModel(drive_gain=1.0, levels=3, anharmonicity=-1.0)
        with pytest.raises(ValueError, match="two-level"):
            qb.bloch_trajectory(model, _rect_env(1.0, 64e-9, 1e9))


class TestBatchedKernel:
    """The SU(2) pair kernel, the batched protocols and the prefix scan
    against the per-record matrix code they replaced."""

    MODEL3 = qb.QubitModel(drive_gain=GATE_GAIN, levels=3,
                           anharmonicity=-1.5707963267948966e9)

    def test_propagate_two_level_detuned_drag(self):
        model = qb.QubitModel(drive_gain=GATE_GAIN, detuning=TWO_PI * 7e6)
        env = synth_qubit_pulse(GATE_CHAIN, _gate_spec(drag=True), GATE_FS,
                                rotation_angle=math.pi,
                                drive_gain=GATE_GAIN)
        u = qb.propagate(model, env)
        assert np.max(np.abs(u - _ref_propagate(model, env))) <= 1e-12
        # an odd-length record carries its last step up the tree
        odd = ComplexEnvelope(env.samples[:1001], env.sample_rate)
        assert np.max(np.abs(qb.propagate(model, odd)
                             - _ref_propagate(model, odd))) <= 1e-12

    @pytest.mark.parametrize("levels", [2, 3])
    def test_rabi_protocol_per_scale(self, levels):
        model = qb.QubitModel(drive_gain=GATE_GAIN) if levels == 2 \
            else self.MODEL3
        spec = mod.with_peak(_gate_spec(drag=levels == 3), 1.0)
        # more scales than one stacked block, and not a multiple of it
        scales = np.linspace(0.05, 1.6, 37)
        p1 = qb.rabi_protocol(model, spec, GATE_FS, scales, chain=GATE_CHAIN)
        ref = _ref_rabi(model, spec, GATE_FS, scales, GATE_CHAIN)
        assert p1.shape == (37,)
        assert np.max(np.abs(p1 - ref)) <= 1e-12

    @pytest.mark.parametrize("levels", [2, 3])
    def test_rabi_protocol_empty_scales(self, levels):
        model = qb.QubitModel(drive_gain=GATE_GAIN) if levels == 2 \
            else self.MODEL3
        spec = mod.with_peak(_gate_spec(), 1.0)
        p1 = qb.rabi_protocol(model, spec, GATE_FS, [], chain=GATE_CHAIN)
        assert p1.shape == (0,)

    def test_bloch_scan_matches_sequential_loop(self):
        model = qb.QubitModel(drive_gain=GATE_GAIN)
        env = synth_qubit_pulse(GATE_CHAIN, _gate_spec(), GATE_FS,
                                rotation_angle=math.pi, drive_gain=GATE_GAIN)
        times, pts = qb.bloch_trajectory(model, env, substeps=16)
        ref_times, ref_pts = _ref_bloch(model, env, 16)
        assert pts.shape == ref_pts.shape == (16 * len(env) + 1, 3)
        assert np.array_equal(times, ref_times)
        assert np.max(np.abs(pts - ref_pts)) <= 1e-12
