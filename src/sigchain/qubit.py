"""Qubit-side scoring: drive the two- or three-level system with a complex
envelope and grade the resulting gate.

The drive is modeled in the frame rotating at the drive frequency after the
rotating-wave approximation, so the baseband envelope is the whole story:
its magnitude sets the instantaneous Rabi rate, its phase sets the rotation
axis in the equatorial plane.  Propagation is piecewise constant over the
sample grid (samples are interval-center values); ``substeps`` refines each
interval by linear interpolation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from sigchain import modulation as mod
from sigchain.chains import run_chain
from sigchain.envelope import ComplexEnvelope

__all__ = [
    "QubitModel",
    "GateSpec",
    "FidelityReport",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "target_unitary",
    "propagate",
    "pulse_area",
    "axis_angle",
    "average_gate_fidelity",
    "infidelity_model",
    "bloch_trajectory",
    "rabi_protocol",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class QubitModel:
    """Driven qubit in the drive rotating frame.

    drive_gain converts envelope amplitude to Rabi rate (rad/s per unit).
    detuning is drive frequency minus qubit frequency (rad/s).  A third
    level needs a negative anharmonicity (rad/s).
    """

    drive_gain: float
    detuning: float = 0.0
    levels: int = 2
    anharmonicity: float = 0.0

    def __post_init__(self) -> None:
        mod.require(self.levels in (2, 3), "levels", "must be 2 or 3")
        mod.require(self.drive_gain > 0.0, "drive_gain", "must be positive")
        mod.require(self.levels == 2 or self.anharmonicity < 0.0,
                    "anharmonicity", "a three-level model needs anharmonicity "
                    "< 0")


@dataclass(frozen=True)
class GateSpec:
    """Single-qubit rotation: angle about an equatorial axis at axis_phase."""

    rotation_angle: float
    axis_phase: float = 0.0

    def __post_init__(self) -> None:
        mod.require(0.0 < self.rotation_angle <= 2.0 * math.pi,
                    "rotation_angle", "must lie in (0, 2*pi]")


@dataclass(frozen=True)
class FidelityReport:
    """Average gate fidelity plus an axis-angle error decomposition."""

    fidelity: float
    infidelity: float
    amp_error: float
    phase_error: float
    leakage: float | None = None


def target_unitary(gate: GateSpec) -> np.ndarray:
    """Ideal 2x2 rotation for a gate spec."""
    th, ph = gate.rotation_angle, gate.axis_phase
    axis = math.cos(ph) * SIGMA_X + math.sin(ph) * SIGMA_Y
    return math.cos(th / 2.0) * np.eye(2) - 1j * math.sin(th / 2.0) * axis


def check_substeps(substeps: int) -> None:
    """Raise InputError at ``substeps`` unless it is at least 1."""
    mod.require(substeps >= 1, "substeps", "must be at least 1")


def check_bloch(model: QubitModel, key: str) -> None:
    """Raise InputError at ``key`` unless ``model`` has two levels, the
    only kind ``bloch_trajectory`` tracks."""
    mod.require(model.levels == 2, key, "a bloch track needs a two-level "
                "model")


def _drive(env: ComplexEnvelope, substeps: int):
    # drive samples refined by linear interpolation, and their time step
    check_substeps(substeps)
    dt = 1.0 / (env.sample_rate * substeps)
    if substeps == 1:  # kept: interpolating, re + 1j*im change signed zeros
        return env.samples, dt
    n = len(env)
    coarse = np.arange(n) + 0.5
    fine = (np.arange(n * substeps) + 0.5) / substeps
    re = np.interp(fine, coarse, env.samples.real)
    im = np.interp(fine, coarse, env.samples.imag)
    return re + 1j * im, dt


def _su2_steps(model: QubitModel, x: np.ndarray, dt: float):
    # steps [[a, -b*], [b, a*]] of H = (detuning/2) sz + (g/2)(Re x sx +
    # Im x sy) held over each sample of x, as the pair (a, b)
    ax = 0.5 * model.drive_gain * x.real
    ay = 0.5 * model.drive_gain * x.imag
    az = 0.5 * model.detuning
    r = np.sqrt(ax * ax + ay * ay + az * az)
    ang = r * dt
    s = np.where(r > 0.0, np.sin(ang) / np.where(r > 0.0, r, 1.0), dt)
    return np.cos(ang) - 1j * s * az, -1j * s * (ax + 1j * ay)


def _su2_mul(a2, b2, a1, b1):
    # [[a2, -b2*], [b2, a2*]] @ [[a1, -b1*], [b1, a1*]] as its pair (a, b)
    return a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1


def _ordered_product(mul, *steps):
    # time-ordered product steps[n-1] ... steps[0] over axis 0, paired up; a
    # step is one matrix or a two-level pair (a, b), multiplied by ``mul``
    while len(steps[0]) > 1:
        head = mul(*[s[1::2] for s in steps], *[s[:-1:2] for s in steps])
        if len(steps[0]) % 2:
            head = [np.concatenate([h, s[-1:]]) for h, s in zip(head, steps)]
        steps = head
    return [s[0] for s in steps]


def _su2_prefixes(a, b):
    # every time-ordered prefix product of two-level steps over axis 0, by a
    # log-depth scan (Blelloch, CMU-CS-90-190): the prefixes ending on odd
    # steps are those of the pair products; each even step extends the one
    # before it
    if len(a) < 2:
        return a, b
    pa, pb = a.copy(), b.copy()
    pa[1::2], pb[1::2] = _su2_prefixes(
        *_su2_mul(a[1::2], b[1::2], a[:-1:2], b[:-1:2]))
    pa[2::2], pb[2::2] = _su2_mul(a[2::2], b[2::2], pa[1:-1:2], pb[1:-1:2])
    return pa, pb


def _three_level_steps(model: QubitModel, x: np.ndarray, dt: float):
    # exp(-i H dt) for each sample of x, from the eigendecomposition of H
    h = np.zeros(x.shape + (3, 3), dtype=np.complex128)
    d = model.detuning
    h[..., [0, 1, 2], [0, 1, 2]] = [0.5 * d, -0.5 * d,
                                    -1.5 * d + model.anharmonicity]
    cpl = 0.5 * model.drive_gain * np.conj(x)
    h[..., 0, 1], h[..., 1, 2] = cpl, math.sqrt(2.0) * cpl
    h[..., 1, 0], h[..., 2, 1] = np.conj(h[..., 0, 1]), np.conj(h[..., 1, 2])
    evals, evecs = np.linalg.eigh(h)
    phase = np.exp(-1j * evals * dt)
    return np.einsum("...ij,...j,...lj->...il", evecs, phase, np.conj(evecs))


def _propagators(model: QubitModel, x: np.ndarray, dt: float) -> np.ndarray:
    """Propagators (..., L, L) of drive samples x (n, ...), time on axis 0."""
    if model.levels == 2:
        a, b = _ordered_product(_su2_mul, *_su2_steps(model, x, dt))
        return np.stack([np.stack([a, -np.conj(b)], -1),
                         np.stack([b, np.conj(a)], -1)], -2)
    steps = _three_level_steps(model, x, dt)
    return _ordered_product(lambda u2, u1: (u2 @ u1,), steps)[0]


_BATCH_ROWS = 16      # drive records propagated together; bounds the memory


def _propagate_each(model: QubitModel, envs) -> np.ndarray:
    """Propagators (n_records, L, L) of equal-length drive records."""
    us = [np.empty((0, model.levels, model.levels), dtype=np.complex128)]
    envs = iter(envs)
    for first in envs:
        rows = [first, *itertools.islice(envs, _BATCH_ROWS - 1)]
        x = np.stack([e.samples for e in rows], axis=1)
        us.append(_propagators(model, x, 1.0 / first.sample_rate))
    return np.concatenate(us)


def propagate(model: QubitModel, env: ComplexEnvelope,
              substeps: int = 1) -> np.ndarray:
    """Total propagator for a drive record (time-ordered product)."""
    return _propagators(model, *_drive(env, substeps))


def pulse_area(env: ComplexEnvelope, drive_gain: float) -> float:
    """Rotation angle a resonant drive would accumulate: g * integral |x| dt."""
    return float(drive_gain * np.sum(np.abs(env.samples)) / env.sample_rate)


def _unitarize(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def axis_angle(u: np.ndarray) -> tuple[float, np.ndarray]:
    """Rotation angle in [0, 2*pi) and unit axis of a 2x2 unitary.

    The global phase is stripped via the determinant; the leftover sign
    ambiguity is resolved toward the smaller rotation angle.
    """
    if u.shape != (2, 2):
        raise ValueError("axis_angle expects a 2x2 unitary")
    det = np.linalg.det(u)
    u0 = u * np.exp(-0.5j * np.angle(det))
    best = None
    for cand in (u0, -u0):
        c = 0.5 * np.real(np.trace(cand))
        s = np.array([0.5j * np.trace(sigma @ cand)
                      for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        mag = np.linalg.norm(s)
        theta = 2.0 * math.atan2(mag, c)
        axis = np.real(s / mag) if mag > 1e-12 else np.array([0.0, 0.0, 1.0])
        if best is None or theta < best[0]:
            best = (theta, axis)
    return best


def infidelity_model(theta: float, eps_a: float, eps_phi: float) -> float:
    """Small-error infidelity of a rotation with relative amplitude error
    eps_a and axis phase error eps_phi (radians)."""
    return (theta ** 2 / 6.0) * eps_a ** 2 \
        + (2.0 / 3.0) * math.sin(theta / 2.0) ** 2 * eps_phi ** 2


def average_gate_fidelity(actual: np.ndarray,
                          target: np.ndarray) -> FidelityReport:
    """Average fidelity of an implemented gate against a 2x2 target.

    A 3x3 actual is compared on the computational subspace; its leakage is
    reported separately rather than folded into the axis-angle errors.
    """
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 unitary")
    if actual.shape == (2, 2):
        m = actual
        tr_mm = 2.0
        leak = None
    elif actual.shape == (3, 3):
        m = actual[:2, :2]
        tr_mm = float(np.real(np.trace(m.conj().T @ m)))
        leak = 1.0 - tr_mm / 2.0
    else:
        raise ValueError("actual must be 2x2 or 3x3")
    overlap = np.trace(target.conj().T @ m)
    fid = (tr_mm + abs(overlap) ** 2) / 6.0

    th_t, ax_t = axis_angle(target)
    th_a, ax_a = axis_angle(_unitarize(m))
    if np.dot(ax_a, ax_t) < 0.0:
        # same rotation written with the axis flipped; use the target's book
        th_a, ax_a = 2.0 * math.pi - th_a, -ax_a
    amp_err = (th_a - th_t) / th_t if th_t > 0.0 else 0.0
    ph_t = math.atan2(ax_t[1], ax_t[0])
    ph_a = math.atan2(ax_a[1], ax_a[0])
    ph_err = math.remainder(ph_a - ph_t, 2.0 * math.pi)
    return FidelityReport(float(fid), float(1.0 - fid), float(amp_err),
                          float(ph_err), leak)


def bloch_trajectory(model: QubitModel, env: ComplexEnvelope,
                     substeps: int = 1):
    """Pauli expectation track of |0> under the drive.

    Returns (times, points) where points[k] = (<sx>, <sy>, <sz>) after
    sample k.  Two-level models only (``check_bloch``).
    """
    check_bloch(model, "model")
    x, dt = _drive(env, substeps)
    # the state after k steps is the first column of their product
    a, b = _su2_prefixes(*_su2_steps(model, x, dt))
    a, b = np.append(1.0, a), np.append(0.0, b)
    ab = np.conj(a) * b
    pts = np.column_stack([2.0 * ab.real, 2.0 * ab.imag,
                           np.abs(a) ** 2 - np.abs(b) ** 2])
    times = np.arange(x.size + 1) * dt
    return times, pts


def rabi_protocol(model: QubitModel, envelope_spec, sample_rate: float,
                  scales, chain=None) -> np.ndarray:
    """Excited-state population versus drive amplitude scale.

    Each scale sets the envelope peak directly; the pulse runs through the
    transmit chain (when given) before hitting the qubit.  Each pulse equals
    ``synth_qubit_pulse(chain, with_peak(envelope_spec, scale),
    sample_rate)``, but the parts of the gate that no scale changes are
    synthesized once for the whole sweep (``modulation.gate_envelopes``).
    """
    pulses = mod.gate_envelopes(envelope_spec, sample_rate,
                                map(float, scales))
    if chain is not None:
        pulses = (run_chain(chain, env) for env in pulses)
    u = _propagate_each(model, pulses)
    return np.abs(u[:, 1, 0]) ** 2
