"""Hamiltonian constructors for a spin in a rotating field and for a
J-coupled spin pair in the doubly-rotating frame.

Conventions, fixed once and used everywhere:

* the horizontal-field operator at azimuth phi has off-diagonal phases
  exp(-i phi) (upper right) and exp(+i phi) (lower left);
* a single spin in a field rotating at speed gamma sees
  H(t) = [omega0 sigma_z + omega1 sigma_x(gamma t + phase0)] / 2,
  optionally plus the vertical compensation field omega_z sigma_z / 2;
* the two-qubit basis is ordered |b a> with the spectator spin b as the
  most significant factor: index 0 = b-up a-up, 1 = b-up a-down,
  2 = b-down a-up, 3 = b-down a-down.

All constructors broadcast over a time array and then return a stacked
(..., d, d) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, SIGMA_Z, check_finite

SIGMA_ZA = np.kron(IDENTITY_2, SIGMA_Z)  # acts on spin a (low-order factor)
SIGMA_ZZ = np.kron(SIGMA_Z, SIGMA_Z)


@dataclass(frozen=True)
class FieldParams:
    """One segment of a rotating-field configuration.

    omega0   vertical field amplitude
    omega1   horizontal field amplitude (>= 0)
    gamma    rotation speed of the horizontal field; the sign selects the
             sense of rotation about z
    omega_z  additional static vertical field (the compensation field);
             0 when switched off
    phase0   initial azimuth of the horizontal field, radians
    """

    omega0: float
    omega1: float
    gamma: float
    omega_z: float = 0.0
    phase0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega0", "omega1", "gamma", "omega_z", "phase0"):
            check_finite(getattr(self, name), "FieldParams." + name)
        _check_omega1(self.omega1)


def _check_omega1(omega1: float) -> None:
    """Refuse a negative RF amplitude: the field's azimuth carries its sign."""
    if omega1 < 0:
        raise ValueError("omega1 must be nonnegative")


def _check_omega_z(p: FieldParams, compensated: bool) -> None:
    """Refuse p unless its vertical field omega_z is the compensation field
    (omega_z = gamma, compensated) or off (omega_z = 0, uncompensated)."""
    if compensated and p.omega_z != p.gamma:
        raise ValueError("compensated loop requires omega_z = gamma")
    if not compensated and p.omega_z != 0.0:
        raise ValueError("uncompensated loop requires omega_z = 0")


def h_compensated(p: FieldParams, t: float | np.ndarray) -> np.ndarray:
    """Rotating-field Hamiltonian with the vertical compensation field on.

    Requires omega_z == gamma: the compensation field must track the
    rotation speed exactly.
    """
    return FieldSchedule.of(p, True)(t)


@dataclass(frozen=True)
class FieldSchedule:
    """The schedule t -> H(t) of one rotating-field run, kept as its
    components so the integrator can build each step from them:

        H(t) = sign [[v / 2, x], [conj(x), -v / 2]],
        x    = omega1 / 2 exp(-i (gamma s + phase0)),

    with v the vertical field and s = t, or s = t_end - t when sign = -1
    (the inverse run: the negated Hamiltonian traversed backwards).
    of(p, compensated) builds the record of the compensated field (v =
    omega0 + gamma) or of the bare one (v = omega0).
    """

    vertical: float
    omega1: float
    gamma: float
    phase0: float = 0.0
    sign: int = 1
    t_end: float = 0.0

    @classmethod
    def of(cls, p: FieldParams, compensated: bool) -> "FieldSchedule":
        _check_omega_z(p, compensated)
        return cls(p.omega0 + p.gamma if compensated else p.omega0, p.omega1, p.gamma,
                   p.phase0)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        s = np.asarray(t) if self.sign > 0 else self.t_end - np.asarray(t)
        phase = np.asarray(self.gamma * s + self.phase0, dtype=float)
        vertical = np.broadcast_to(np.asarray(self.vertical, dtype=float), phase.shape)
        h = np.zeros(phase.shape + (2, 2), dtype=complex)
        h[..., 0, 0] = 0.5 * vertical
        h[..., 1, 1] = -0.5 * vertical
        h[..., 0, 1] = 0.5 * self.omega1 * np.exp(-1j * phase)
        h[..., 1, 0] = np.conj(h[..., 0, 1])
        return h if self.sign > 0 else -h


def h_two_qubit_rotating(
    delta: float,
    j: float,
    omega1: float,
    gamma: float,
    t: float | np.ndarray,
    compensated: bool = True,
    phase0: float = 0.0,
) -> np.ndarray:
    """Pair Hamiltonian in the doubly-rotating frame while the RF field on
    spin a is rotated at speed gamma.

    Block-diagonal in the spin-b sectors; sector b-up (b-down) sees the
    single-spin Hamiltonian with vertical offset delta + j (delta - j).
    simulate_sequence and sequence_trajectory use that split: they
    integrate the sectors as 2x2 FieldSchedules, stacked in one run, and
    assemble the block diagonal, so this 4x4 form serves as the frame
    oracle the sector split is tested against.
    """
    t = np.asarray(t, dtype=float)
    phase = gamma * t + phase0
    vert = delta + (gamma if compensated else 0.0)
    h = np.zeros(t.shape + (4, 4), dtype=complex)
    h[...] += 0.5 * vert * SIGMA_ZA + 0.5 * j * SIGMA_ZZ
    off = 0.5 * omega1 * np.exp(-1j * phase)
    h[..., 0, 1] = off
    h[..., 2, 3] = off
    h[..., 1, 0] = np.conj(off)
    h[..., 3, 2] = np.conj(off)
    return h
