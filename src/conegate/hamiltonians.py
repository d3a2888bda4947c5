"""Hamiltonian constructors for a spin in a rotating field and for a
J-coupled spin pair, plus rotating-frame transformations.

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

import math
from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_2, SIGMA_Z, require_hermitian, tensor

SIGMA_ZA = tensor(IDENTITY_2, SIGMA_Z)  # acts on spin a (low-order factor)
SIGMA_ZB = tensor(SIGMA_Z, IDENTITY_2)  # acts on spin b (high-order factor)
SIGMA_ZZ = tensor(SIGMA_Z, SIGMA_Z)


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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"FieldParams.{name} must be finite")
        if self.omega1 < 0:
            raise ValueError("omega1 must be nonnegative")


@dataclass(frozen=True)
class TwoQubitParams:
    """Static parameters of the J-coupled spin pair and its RF drive.

    delta = omega_a - omega_a_prime is the offset of the drive from the
    bare resonance of spin a.
    """

    omega_a: float
    omega_b: float
    j: float
    omega_a_prime: float
    omega1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_a", "omega_b", "j", "omega_a_prime", "omega1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"TwoQubitParams.{name} must be finite")
        if self.j < 0:
            raise ValueError("coupling j must be nonnegative")
        if self.omega1 < 0:
            raise ValueError("omega1 must be nonnegative")

    @property
    def delta(self) -> float:
        return self.omega_a - self.omega_a_prime


def _field_hamiltonian(omega_vert, omega1, phase) -> np.ndarray:
    phase = np.asarray(phase, dtype=float)
    omega_vert = np.broadcast_to(np.asarray(omega_vert, dtype=float), phase.shape)
    h = np.zeros(phase.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = 0.5 * omega_vert
    h[..., 1, 1] = -0.5 * omega_vert
    h[..., 0, 1] = 0.5 * omega1 * np.exp(-1j * phase)
    h[..., 1, 0] = np.conj(h[..., 0, 1])
    return h


def h_rotating(p: FieldParams, t: float | np.ndarray) -> np.ndarray:
    """Bare rotating-field Hamiltonian (no compensation term)."""
    return _field_hamiltonian(p.omega0, p.omega1, p.gamma * np.asarray(t) + p.phase0)


def _require_compensation(p: FieldParams) -> None:
    if p.omega_z != p.gamma:
        raise ValueError(
            "compensation misconfigured: omega_z must equal gamma "
            f"(got omega_z={p.omega_z}, gamma={p.gamma})"
        )


def h_compensated(p: FieldParams, t: float | np.ndarray) -> np.ndarray:
    """Rotating-field Hamiltonian with the vertical compensation field on.

    Requires omega_z == gamma: the compensation field must track the
    rotation speed exactly.
    """
    _require_compensation(p)
    return _field_hamiltonian(
        p.omega0 + p.gamma, p.omega1, p.gamma * np.asarray(t) + p.phase0
    )


@dataclass(frozen=True)
class FieldSchedule:
    """The schedule t -> H(t) of one rotating-field run, kept as its
    components so the integrator can build each step from them:

        H(t) = sign [[v / 2, x], [conj(x), -v / 2]],
        x    = omega1 / 2 exp(-i (gamma s + phase0)),

    with v the vertical field and s = t, or s = t_end - t when sign = -1
    (the inverse run: the negated Hamiltonian traversed backwards).
    Called, it returns the matrices of h_compensated / h_rotating bit for
    bit (of(p, compensated) builds the record of either).
    """

    vertical: float
    omega1: float
    gamma: float
    phase0: float = 0.0
    sign: int = 1
    t_end: float = 0.0

    @classmethod
    def of(cls, p: FieldParams, compensated: bool) -> "FieldSchedule":
        if not compensated:
            return cls(p.omega0, p.omega1, p.gamma, p.phase0)
        _require_compensation(p)
        return cls(p.omega0 + p.gamma, p.omega1, p.gamma, p.phase0)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        s = np.asarray(t) if self.sign > 0 else self.t_end - np.asarray(t)
        h = _field_hamiltonian(self.vertical, self.omega1, self.gamma * s + self.phase0)
        return h if self.sign > 0 else -h


def h_two_qubit_static(p: TwoQubitParams) -> np.ndarray:
    """Diagonal pair Hamiltonian: Zeeman terms plus the zz coupling."""
    return 0.5 * (
        p.omega_a * SIGMA_ZA + p.omega_b * SIGMA_ZB + p.j * SIGMA_ZZ
    )


def effective_offset(p: TwoQubitParams, b_state: str) -> float:
    """Vertical offset seen by spin a, conditioned on the state of spin b."""
    if b_state == "up":
        return p.delta + p.j
    if b_state == "down":
        return p.delta - p.j
    raise ValueError("b_state must be 'up' or 'down'")


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
    integrate each sector as a 2x2 h_compensated / h_rotating field and
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


def to_rotating_frame(
    h_lab: np.ndarray, frame_speed: float, t: float
) -> np.ndarray:
    """Transform an instantaneous lab-frame Hamiltonian into the frame
    rotating about z at `frame_speed`.

    Returns R H R^-1 + i (dR/dt) R^-1 with R = exp(+i frame_speed sigma_z t / 2)
    (for dimension 4 the frame rotates spin a only).
    """
    h_lab = require_hermitian(h_lab)
    d = h_lab.shape[0]
    if d == 2:
        sz = SIGMA_Z
    elif d == 4:
        sz = SIGMA_ZA
    else:
        raise ValueError("to_rotating_frame supports dimensions 2 and 4")
    half = 0.5 * frame_speed * t
    r_diag = np.exp(1j * half * np.diag(sz).real)
    h_rot = (r_diag[:, None] * h_lab) * r_diag.conj()[None, :]
    return h_rot - 0.5 * frame_speed * sz


@dataclass(frozen=True)
class SpeedProfile:
    """Rotation-speed schedule gamma_a(t) for one full field revolution.

    The accumulated angle over the declared duration must be +-2pi within
    1e-9; the sign selects the traversal sense. `kind` is "constant" or
    "tabulated" (piecewise-linear between samples).
    """

    kind: str
    duration: float
    gamma0: float | None = None
    times: np.ndarray | None = None
    gammas: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "tabulated"):
            raise ValueError("kind must be 'constant' or 'tabulated'")
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("duration must be positive and finite")
        if self.kind == "constant":
            if self.gamma0 is None or not np.isfinite(self.gamma0):
                raise ValueError("constant profile needs a finite gamma0")
        else:
            t = np.asarray(self.times, dtype=float)
            g = np.asarray(self.gammas, dtype=float)
            if t.ndim != 1 or t.shape != g.shape or t.size < 2:
                raise ValueError("tabulated profile needs matching 1-d samples")
            if t[0] != 0.0 or abs(t[-1] - self.duration) > 1e-12 * max(1.0, self.duration):
                raise ValueError("sample times must run from 0 to duration")
            if np.any(np.diff(t) <= 0):
                raise ValueError("sample times must be strictly increasing")
            if not np.all(np.isfinite(g)):
                raise ValueError("sampled speeds must be finite")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "gammas", g)
        total = self.total_angle
        if abs(abs(total) - 2 * np.pi) > 1e-9:
            raise ValueError(
                f"profile must integrate to +-2pi over one loop, got {total!r}"
            )

    @classmethod
    def constant(cls, gamma: float) -> "SpeedProfile":
        if gamma == 0:
            raise ValueError("constant profile needs a nonzero speed")
        return cls(kind="constant", duration=2 * np.pi / abs(gamma), gamma0=gamma)

    @classmethod
    def from_samples(
        cls, times: np.ndarray, gammas: np.ndarray, normalize: bool = True
    ) -> "SpeedProfile":
        """Piecewise-linear profile; with normalize=True the speeds are
        rescaled so the total angle is exactly +-2pi (sign preserved)."""
        times = np.asarray(times, dtype=float)
        gammas = np.asarray(gammas, dtype=float)
        if normalize:
            total = np.trapezoid(gammas, times)
            if total == 0:
                raise ValueError("profile integrates to zero; cannot normalize")
            gammas = gammas * (2 * np.pi / abs(total))  # keeps the traversal sense
        return cls(
            kind="tabulated",
            duration=float(times[-1]),
            times=times,
            gammas=gammas,
        )

    def gamma_of_t(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.gamma0), t.shape).copy()
        return np.interp(t, self.times, self.gammas)

    def angle_of_t(self, t: float | np.ndarray) -> np.ndarray:
        """Accumulated rotation angle: the integral of gamma_a from 0 to t.

        Exact for both kinds (the tabulated integrand is piecewise linear).
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return self.gamma0 * t
        tt, gg = self.times, self.gammas
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (gg[1:] + gg[:-1]) * np.diff(tt))]
        )
        idx = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, tt.size - 2)
        dt = t - tt[idx]
        slope = (gg[idx + 1] - gg[idx]) / (tt[idx + 1] - tt[idx])
        return cum[idx] + gg[idx] * dt + 0.5 * slope * dt * dt

    @property
    def total_angle(self) -> float:
        return float(self.angle_of_t(self.duration))


def h_profile(p: FieldParams, profile: SpeedProfile, t: float | np.ndarray) -> np.ndarray:
    """Compensated Hamiltonian for a loop traversed with a time-dependent
    speed: the vertical compensation tracks gamma_a(t) instantaneously."""
    t = np.asarray(t, dtype=float)
    vert = p.omega0 + profile.gamma_of_t(t)
    phase = profile.angle_of_t(t) + p.phase0
    return _field_hamiltonian(vert, p.omega1, phase)
