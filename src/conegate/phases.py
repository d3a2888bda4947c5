"""Cone eigenstate geometry, compensation-field solving, the split of a
cyclic evolution's total phase into dynamical and geometric parts, and the
running dynamical phase along a trajectory: every energy expectation
<psi|H|psi> of the package is taken here.

Sign conventions: the eigenvalue of the frozen field Hamiltonian
H0 = (omega0 sigma_z + omega1 sigma_x) / 2 is +-sqrt(omega0^2 + omega1^2)/2
(the one-half is essential: only with it does the compensation condition
gamma cos(theta) = -sqrt(omega0^2 + omega1^2) null the instantaneous
energy expectation). The dynamical-phase-free loop traverses the field
revolution in the sense fixed by the compensation solution (negative
gamma for omega0 > 0); its per-branch geometric phase is
-pi (1 + cos theta) with theta the branch's own cone angle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import _check_omega1
from .propagation import _check_samples

TWO_PI = 2 * np.pi
# the largest overlap defect |1 - |<psi(0)|psi(T)>|| of an evolution counted cyclic
CYCLIC_TOL = 1e-6


def canonical_phase(x: float) -> float:
    """Representative of x modulo 2 pi in (-pi, pi]."""
    y = np.remainder(x, TWO_PI)
    if y > np.pi:
        y -= TWO_PI
    return float(y)


@dataclass(frozen=True)
class ConeGeometry:
    """The upper eigenstate branch of the frozen field Hamiltonian.

    theta       cone half-angle of the branch, in [0, pi]
    eigenvalue  +sqrt(omega0^2 + omega1^2)/2
    psi0        the eigenstate, azimuth 0
    """

    theta: float
    eigenvalue: float
    psi0: np.ndarray


def cone_eigenstate(omega0: float, omega1: float) -> ConeGeometry:
    """Upper eigenstate of (omega0 sigma_z + omega1 sigma_x)/2 on its cone."""
    _check_omega1(omega1)
    magnitude = np.hypot(omega0, omega1)
    if not np.isfinite(magnitude):  # a NaN or infinite input, or an overflow
        raise ValueError(f"no finite field for omega0 = {float(omega0)!r}, "
                         f"omega1 = {float(omega1)!r}")
    if magnitude == 0.0:
        raise ValueError("zero field has no cone eigenstate")
    theta = float(np.arctan2(omega1, omega0))
    psi0 = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
    return ConeGeometry(theta, 0.5 * magnitude, psi0)


def compensation_gamma(omega0: float, omega1: float) -> float:
    """Rotation speed (and compensation field) that makes the eigenstate's
    instantaneous energy expectation vanish along the loop.

    Solves gamma cos(theta) = -sqrt(omega0^2 + omega1^2); the returned
    speed is antiparallel to the vertical field component.
    """
    if omega0 == 0.0:
        raise ValueError("no finite compensation speed exists for omega0 = 0")
    gamma = -(omega0 * omega0 + omega1 * omega1) / omega0
    if not math.isfinite(gamma):  # a NaN or infinite input, or an overflow
        raise ValueError(f"no finite compensation speed for omega0 = {float(omega0)!r}, "
                         f"omega1 = {float(omega1)!r}")
    return gamma


def _check_coupling(j: float) -> None:
    if j <= 0:
        raise ValueError("coupling j must be positive")


class TwoQubitLoopSetting(NamedTuple):
    omega1: float
    gamma: float
    theta_plus: float
    theta_minus: float


def two_qubit_loop_params(delta: float, j: float) -> TwoQubitLoopSetting:
    """RF amplitude and loop speed that null the dynamical phase for both
    spectator sectors simultaneously.

    The two sector conditions gamma cos(theta_pm) = -sqrt((delta+-j)^2 + omega1^2)
    are solved by omega1 = sqrt(delta^2 - j^2) and gamma = -2 delta, giving
    cos(theta_pm) = sqrt((delta +- j) / (2 delta)). A setting that is not
    finite (delta^2 overflows above about 1.34e154) is refused, and so is
    one whose omega1^2 = delta^2 - j^2 underflows below the smallest normal
    float (every delta below about 1.49e-154): omega1 would keep few bits or
    none, while the cone angles stay those of a nonzero field.
    """
    _check_coupling(j)
    if delta <= j:
        raise ValueError("conditional loop requires delta > j")
    square = delta * delta - j * j
    if not math.isfinite(square):  # then gamma and both angles are finite too
        raise ValueError(f"no finite conditional loop setting for delta = {delta!r}, j = {j!r}")
    if square < sys.float_info.min:
        raise ValueError(f"conditional loop setting underflows for delta = {delta!r}, j = {j!r}")
    omega1 = math.sqrt(square)  # IEEE square roots, as np.sqrt's
    theta_plus = float(np.arccos(math.sqrt((delta + j) / (2 * delta))))
    theta_minus = float(np.arccos(math.sqrt((delta - j) / (2 * delta))))
    return TwoQubitLoopSetting(omega1, -2.0 * delta, theta_plus, theta_minus)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Total, dynamical and geometric phase of one cyclic evolution.

    `total` is the argument of the cyclic overlap (in (-pi, pi]); the
    other two are raw accumulated values with geometric = total - dynamical,
    so the decomposition identity holds exactly. Compare any of them
    modulo 2 pi (see canonical_phase).
    """

    total: float
    dynamical: float
    geometric: float


def energy_expectations(traj) -> np.ndarray:
    """<psi(t)| H(t) |psi(t)> at every sample of a trajectory.

    The accessor is called once, on the time array, as the integrator calls
    a schedule, and must return the (n, d, d) stack; its own errors
    propagate."""
    if traj.hamiltonian_at is None:
        raise ValueError("trajectory carries no Hamiltonian accessor")
    return _energies(traj.states, traj.hamiltonian_at, traj.times)


def _energies(states: np.ndarray, hamiltonian_at, t: np.ndarray) -> np.ndarray:
    """<psi|H|psi> of each state, with H the accessor's stack at times t."""
    h = np.asarray(hamiltonian_at(t), dtype=complex)
    return _expectations(states, _check_samples(h, *states.shape))


def _expectations(states: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.einsum("ki,kij,kj->k", states.conj(), h, states).real


def running_dynamical_phase(traj, mask) -> np.ndarray:
    """-integral of <psi|H|psi> dt from the first kept sample to each one,
    by the trapezoid rule over the samples traj.times[mask]."""
    times = traj.times[mask]
    states = traj.states[mask]
    running = np.zeros(times.size)
    if times.size > 1:
        # evaluate each interval's endpoint Hamiltonians nudged inside the
        # interval, so samples shared between a hard pulse and two timed
        # segments pair with the segment that actually covers the interval
        dt = np.diff(times)
        t_left = times[:-1] + 1e-9 * dt
        t_right = times[1:] - 1e-9 * dt
        h_left = np.asarray(traj.hamiltonian_at(t_left), dtype=complex)
        h_right = np.asarray(traj.hamiltonian_at(t_right), dtype=complex)
        e_left = _expectations(states[:-1], h_left)
        e_right = _expectations(states[1:], h_right)
        running[1:] = -np.cumsum(0.5 * (e_left + e_right) * dt)
    return running


def _div(num, den):
    """num / den, and 0 where den is 0 (a repeated sample time)."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples y at ascending times x, n >= 3.

    Each panel is the parabola through three samples at any spacing,
    written in the operation order of scipy.integrate.simpson, so an odd
    sample count reproduces scipy's bits. An even count closes with
    Cartwright's parabola over the last interval."""
    n = y.size
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = _div(h0, h1)
    panels = hsum / 6.0 * (y[0:stop:2] * (2.0 - _div(1.0, ratio))
                           + y[1:stop + 1:2] * (hsum * _div(hsum, h0 * h1))
                           + y[2:stop + 2:2] * (2.0 - ratio))
    total = np.sum(panels)
    if n % 2 == 0:
        # 0-d arrays as in scipy: numpy scalars can round b**3 apart
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = _div(2 * b**2 + 3 * a * b, 6 * (b + a))
        beta = _div(b**2 + 3.0 * a * b, 6 * a)
        eta = _div(b**3, 6 * a * (a + b))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def dynamical_phase(traj) -> float:
    """Accumulated dynamical phase -integral of <psi|H|psi> dt, by
    composite Simpson quadrature over the stored samples.

    A piecewise run (sequence_trajectory) jumps in <psi|H|psi> where one
    segment ends and the next begins, so each timed segment is integrated
    on its own samples, with its own Hamiltonian accessor, and the results
    are summed; a segment of two samples takes the trapezoid."""
    if traj.times.size < 3:
        raise ValueError("dynamical phase needs at least 3 trajectory samples")
    if not traj._segments:
        return -_simpson(energy_expectations(traj), traj.times)
    total = 0.0
    for t0, _, h_at, first, count in traj._segments:
        times = traj.times[first:first + count]
        values = _energies(traj.states[first:first + count], h_at, times - t0)
        total += _simpson(values, times) if count > 2 else np.trapezoid(values, times)
    return -total


def _cyclic_overlap(traj) -> tuple[complex, float]:
    """The overlap <psi(0)|psi(T)> of traj's first and last states, and the
    defect |1 - |overlap|| by which the evolution misses being cyclic."""
    if not len(traj.states):
        raise ValueError("cyclic overlap needs at least 1 trajectory sample")
    overlap = complex(traj.states[0].conj() @ traj.states[-1])
    return overlap, abs(1.0 - abs(overlap))


def phase_decomposition(traj) -> PhaseDecomposition:
    """Split the phase of a cyclic evolution into dynamical and geometric
    parts. Raises if the trajectory is not cyclic, naming the overlap
    defect."""
    overlap, defect = _cyclic_overlap(traj)
    if defect > CYCLIC_TOL:
        raise ValueError(
            f"trajectory is not cyclic: overlap modulus defect {defect:.3e} "
            f"exceeds {CYCLIC_TOL:.1e}"
        )
    total = float(np.angle(overlap))
    dyn = dynamical_phase(traj)
    return PhaseDecomposition(total, dyn, total - dyn)


def geometric_phase_cone(theta: float) -> float:
    """Geometric phase -pi (1 + cos theta) of a branch at cone angle theta
    after one dynamical-phase-free revolution, traversed in the sense the
    compensation solution fixes (negative speed about the cone axis)."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    return float(-np.pi * (1.0 + np.cos(theta)))
