"""Pulse-sequence intermediate representation, the conditional eigenstate
preparation sequence with its constraint solver, and the conditional
geometric loop built from it.

Rotation convention: R_n(beta) = exp(-i beta (n.sigma) / 2), so free
evolution under (omega/2) sigma_z turns the Bloch vector by +omega*t
about z. Hard pulses are ideal (zero duration). In the two-qubit frame
every primitive addresses spin a; spin b is a sigma_z-conserved spectator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .hamiltonians import FieldParams, h_compensated, h_rotating
from .linalg import SIGMA_Z
from .phases import two_qubit_loop_params
from .propagation import (
    Trajectory,
    integrate,
    loop_duration,
    propagator_compensated,
    propagator_uncompensated,
    rot_z,
)

SINGLE_QUBIT = "single-qubit"
TWO_QUBIT = "two-qubit-rotating"


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _check_finite(value: float, name: str) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class RotX:
    angle: float

    def __post_init__(self) -> None:
        _check_finite(self.angle, "angle")


@dataclass(frozen=True)
class RotY:
    angle: float

    def __post_init__(self) -> None:
        _check_finite(self.angle, "angle")


@dataclass(frozen=True)
class RotZ:
    angle: float

    def __post_init__(self) -> None:
        _check_finite(self.angle, "angle")


@dataclass(frozen=True)
class FreeEvolve:
    """Evolution for `duration` under the frame Hamiltonian
    (delta sigma_za + j sigma_za sigma_zb) / 2.

    sign = -1 runs the negated generator (the inverse evolution; every
    term is z-type, so a pair of hard x pulses realizes the negation).
    """

    duration: float
    delta: float
    j: float = 0.0
    sign: int = 1

    def __post_init__(self) -> None:
        _check_finite(self.duration, "duration")
        _check_finite(self.delta, "delta")
        _check_finite(self.j, "j")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class ConditionalLoop:
    """Field-loop parameters for the two-qubit conditional revolution.

    The RF amplitude and loop speed are derived from (delta, j) so both
    spectator sectors evolve dynamical-phase-free; phase0 = 0 starts the
    loop field in the azimuthal plane of the prepared eigenstates.
    """

    delta: float
    j: float
    phase0: float = 0.0

    def __post_init__(self) -> None:
        two_qubit_loop_params(self.delta, self.j)  # validates delta > j > 0
        _check_finite(self.phase0, "phase0")


@dataclass(frozen=True)
class FieldLoop:
    """Full revolutions of the rotating field, optionally compensated.

    sign = -1 denotes the exact inverse (negated Hamiltonian traversed
    backwards in time).
    """

    params: Union[FieldParams, ConditionalLoop]
    revolutions: float = 1.0
    compensated: bool = True
    sign: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.params, (FieldParams, ConditionalLoop)):
            raise ValueError("params must be FieldParams or ConditionalLoop")
        _check_finite(self.revolutions, "revolutions")
        if self.revolutions <= 0:
            raise ValueError("revolutions must be positive")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if isinstance(self.params, FieldParams):
            if self.params.gamma == 0.0:
                raise ValueError("a field loop needs a nonzero rotation speed")
            if self.compensated and self.params.omega_z != self.params.gamma:
                raise ValueError("compensated loop requires omega_z = gamma")
            if not self.compensated and self.params.omega_z != 0.0:
                raise ValueError("uncompensated loop requires omega_z = 0")


PulsePrimitive = Union[RotX, RotY, RotZ, FreeEvolve, FieldLoop]


@dataclass(frozen=True)
class PulseSequence:
    steps: tuple
    frame: str = SINGLE_QUBIT

    def __post_init__(self) -> None:
        if self.frame not in (SINGLE_QUBIT, TWO_QUBIT):
            raise ValueError(f"unknown frame {self.frame!r}")
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, (RotX, RotY, RotZ, FreeEvolve, FieldLoop)):
                raise ValueError(f"unknown pulse primitive {step!r}")


@dataclass(frozen=True)
class SOpSolution:
    """Timing and angles solving the eigenstate-preparation constraints:
    tan(phi_prime +- j t_c) = (delta +- j) / omega1, with the prepared
    cone angles theta_pm = pi/2 - (phi_prime +- j t_c)."""

    t_c: float
    phi_prime: float
    theta_plus: float
    theta_minus: float


def s_operation_angles(delta, j: float, omega1):
    """The preparation constraints solved over arrays: (t_c, phi_prime,
    theta_plus, theta_minus), each broadcast over delta and omega1."""
    if np.any(np.asarray(omega1) <= 0):
        raise ValueError("omega1 must be positive")
    if j <= 0:
        raise ValueError("coupling j must be positive")
    a_plus = np.arctan((delta + j) / omega1)
    a_minus = np.arctan((delta - j) / omega1)
    j_tc = 0.5 * (a_plus - a_minus)
    phi_prime = 0.5 * (a_plus + a_minus)
    return j_tc / j, phi_prime, np.pi / 2 - a_plus, np.pi / 2 - a_minus


def s_operation_params(delta: float, j: float, omega1: float) -> SOpSolution:
    """Solve the preparation constraints for the pulse timing t_c and the
    closing tilt angle phi_prime."""
    return SOpSolution(*(float(x) for x in s_operation_angles(delta, j, omega1)))


def _check_solution(sol: SOpSolution, delta: float, j: float) -> float:
    """Validate a solution record against (delta, j); returns the implied
    RF amplitude."""
    j_tc = j * sol.t_c
    if abs(sol.theta_plus - (np.pi / 2 - (sol.phi_prime + j_tc))) > 1e-9 or abs(
        sol.theta_minus - (np.pi / 2 - (sol.phi_prime - j_tc))
    ) > 1e-9:
        raise ValueError("solution record angles are internally inconsistent")
    w_plus = (delta + j) * np.tan(sol.theta_plus)
    w_minus = (delta - j) * np.tan(sol.theta_minus)
    if not (np.isfinite(w_plus) and w_plus > 0):
        raise ValueError("solution record inconsistent with (delta, j)")
    if abs(w_plus - w_minus) > 1e-9 * max(1.0, abs(w_plus)):
        raise ValueError("solution record inconsistent with (delta, j)")
    return float(w_plus)


def build_s_operation(sol: SOpSolution, delta: float, j: float) -> PulseSequence:
    """Pulse sequence preparing the conditional cone eigenstate from spin-a
    up: a y pulse to the equator, coupled free evolution, an offset-z
    unwind, an x pulse into the xz plane, and the closing y tilt."""
    _check_solution(sol, delta, j)
    steps = (
        RotY(np.pi / 2),
        FreeEvolve(sol.t_c, delta, j),
        RotZ(-delta * sol.t_c),
        RotX(np.pi / 2),
        RotY(-sol.phi_prime),
    )
    return PulseSequence(steps, frame=TWO_QUBIT)


def invert_sequence(seq: PulseSequence) -> PulseSequence:
    """Exact inverse: reversed order, negated angles, negated-generator
    evolutions. Involutive: invert(invert(seq)) == seq."""
    inverted = []
    for step in reversed(seq.steps):
        if isinstance(step, (RotX, RotY, RotZ)):
            inverted.append(type(step)(-step.angle))
        elif isinstance(step, FreeEvolve):
            inverted.append(replace(step, sign=-step.sign))
        else:
            inverted.append(replace(step, sign=-step.sign))
    return PulseSequence(tuple(inverted), frame=seq.frame)


def _embed(u2: np.ndarray, dim: int) -> np.ndarray:
    """A spin-a operator in the frame of dimension dim."""
    return _block_diag([u2], dim)


def _free_evolution_unitaries(step: FreeEvolve, dim: int, durations) -> np.ndarray:
    """Diagonal unitaries of the free evolution run for each of durations
    (the step's own duration ignored), as a (len(durations), dim, dim) stack."""
    if dim == 2:
        if step.j != 0.0:
            raise ValueError("j-coupled free evolution needs the two-qubit frame")
        eigenvalues = np.array([step.delta, -step.delta])
    else:
        eigenvalues = np.array([step.delta + step.j, -(step.delta + step.j),
                                step.delta - step.j, -(step.delta - step.j)])
    t = step.sign * np.asarray(durations, dtype=float)
    out = np.zeros((t.size, dim * dim), dtype=complex)
    out[:, :: dim + 1] = np.exp((-0.5j * t)[:, None] * eigenvalues)
    return out.reshape(t.size, dim, dim)


def _loop_fields(step: FieldLoop) -> list[FieldParams]:
    """Single-spin field of each 2x2 block of a loop: the loop's own field,
    or for a conditional loop one per spin-b sector (b-up first), each
    seeing the vertical offset delta + j or delta - j."""
    if isinstance(step.params, FieldParams):
        return [step.params]
    cl = step.params
    setting = two_qubit_loop_params(cl.delta, cl.j)
    return [
        FieldParams(
            omega0=cl.delta + sgn * cl.j,
            omega1=setting.omega1,
            gamma=setting.gamma,
            omega_z=setting.gamma if step.compensated else 0.0,
            phase0=cl.phase0,
        )
        for sgn in (+1, -1)
    ]


def _block_diag(blocks: list, dim: int) -> np.ndarray:
    """Propagator of dimension dim from the (..., 2, 2) blocks of the spin-b
    sectors; a single block acts alike in both sectors."""
    if dim == 2 and len(blocks) == 1:
        return blocks[0]
    if dim != 4:
        raise ValueError("a conditional loop needs dimension 4")
    up, down = blocks if len(blocks) == 2 else blocks * 2
    out = np.zeros(up.shape[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = up
    out[..., 2:, 2:] = down
    return out


def _loop_closed_form(step: FieldLoop, dim: int) -> np.ndarray:
    blocks = []
    for p in _loop_fields(step):
        t = step.revolutions * loop_duration(p)
        u = (propagator_compensated if step.compensated else propagator_uncompensated)(p, t)
        blocks.append(u.conj().T if step.sign < 0 else u)
    return _block_diag(blocks, dim)


def _integrate_loop(step: FieldLoop, dim: int, steps_per_loop: int, samples: int):
    """Integrator run of one field-loop segment, each 2x2 block on its own.

    Returns (duration, times, propagators at the times, Hamiltonian
    accessor); sign = -1 runs the negated Hamiltonian backwards.
    """
    fields = _loop_fields(step)
    duration = step.revolutions * loop_duration(fields[0])
    h = h_compensated if step.compensated else h_rotating
    if step.sign < 0:
        schedules = [lambda t, p=p: -h(p, duration - np.asarray(t)) for p in fields]
    else:
        schedules = [lambda t, p=p: h(p, t) for p in fields]
    n = max(1, int(round(steps_per_loop * step.revolutions)))
    runs = [integrate(s, duration, total_steps=n, samples=samples) for s in schedules]
    props = _block_diag([run.propagators for run in runs], dim)

    def hamiltonian_at(t):
        return _block_diag([np.asarray(s(t), dtype=complex) for s in schedules], dim)

    return duration, runs[0].times, props, hamiltonian_at


def primitive_unitary(step: PulsePrimitive, dim: int) -> np.ndarray:
    """Exact unitary of one primitive (closed forms for loops)."""
    if isinstance(step, RotX):
        return _embed(rot_x(step.angle), dim)
    if isinstance(step, RotY):
        return _embed(rot_y(step.angle), dim)
    if isinstance(step, RotZ):
        return _embed(rot_z(step.angle), dim)
    if isinstance(step, FreeEvolve):
        return _free_evolution_unitaries(step, dim, [step.duration])[0]
    return _loop_closed_form(step, dim)


def _check_frame_dim(seq: PulseSequence, dim: int) -> None:
    if dim not in (2, 4):
        raise ValueError("dim must be 2 or 4")
    if dim == 2 and seq.frame != SINGLE_QUBIT:
        raise ValueError(f"frame {seq.frame!r} cannot be applied at dimension 2")
    if dim == 4 and seq.frame != TWO_QUBIT:
        raise ValueError(f"frame {seq.frame!r} cannot be applied at dimension 4")


def apply_sequence(seq: PulseSequence, dim: int) -> np.ndarray:
    """Compose the sequence into one unitary (closed-form loop segments).
    Steps act in listed order: the first primitive is applied first."""
    _check_frame_dim(seq, dim)
    u = np.eye(dim, dtype=complex)
    for step in seq.steps:
        u = primitive_unitary(step, dim) @ u
    return u


def simulate_sequence(
    seq: PulseSequence, dim: int, steps_per_loop: int = 10_000
) -> np.ndarray:
    """Compose the sequence with every field loop run through the stepped
    integrator instead of the closed form. Hard pulses stay exact; free
    evolutions have constant generators, for which the integrator is exact
    anyway. A conditional loop runs as two 2x2 sectors."""
    _check_frame_dim(seq, dim)
    u = np.eye(dim, dtype=complex)
    for step in seq.steps:
        if isinstance(step, FieldLoop):
            _, _, props, _ = _integrate_loop(step, dim, steps_per_loop, samples=2)
            u = props[-1] @ u
        else:
            u = primitive_unitary(step, dim) @ u
    return u


def sequence_trajectory(
    seq: PulseSequence,
    dim: int,
    psi0: np.ndarray,
    steps_per_loop: int = 10_000,
    samples_per_loop: int = 257,
) -> Trajectory:
    """Time-resolved integrator run over the whole sequence.

    Hard pulses act instantaneously (duplicate time stamps); the returned
    trajectory carries a piecewise Hamiltonian accessor covering the timed
    segments (zero between them)."""
    _check_frame_dim(seq, dim)
    psi = np.asarray(psi0, dtype=complex)
    times = [np.zeros(1)]
    props = [np.eye(dim, dtype=complex)[None]]
    segments = []  # (t_start, t_end, Hamiltonian accessor)
    now = 0.0
    for step in seq.steps:
        u = props[-1][-1]
        if isinstance(step, FieldLoop):
            m = max(2, int(round(samples_per_loop * step.revolutions)))
            duration, seg_t, seg_u, h_at = _integrate_loop(step, dim, steps_per_loop, m)
            segments.append((now, now + duration, h_at))
            times.append(now + seg_t[1:])
            props.append(seg_u[1:] @ u)
            now += duration
        elif isinstance(step, FreeEvolve) and step.duration > 0:
            h_free = _free_evolution_hamiltonian(step, dim)
            segments.append((now, now + step.duration, lambda t, h=h_free: _const(h, t)))
            seg_t = step.duration * np.linspace(0, 1, max(2, samples_per_loop // 4))[1:]
            times.append(now + seg_t)
            props.append(_free_evolution_unitaries(step, dim, seg_t) @ u)
            now += step.duration
        else:
            times.append(np.array([now]))
            props.append((primitive_unitary(step, dim) @ u)[None])

    def hamiltonian_at(t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape + (dim, dim), dtype=complex)
        for t0, t1, h_at in segments:
            mask = (t_arr >= t0) & (t_arr <= t1)
            if np.any(mask):
                out[mask] = h_at(t_arr[mask] - t0)
        return out

    props = np.concatenate(props)
    return Trajectory(np.concatenate(times), props @ psi, props, hamiltonian_at)


def _const(h: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.broadcast_to(h, t.shape + h.shape).copy()


def _free_evolution_hamiltonian(step: FreeEvolve, dim: int) -> np.ndarray:
    if dim == 2:
        return step.sign * 0.5 * step.delta * SIGMA_Z
    from .hamiltonians import SIGMA_ZA, SIGMA_ZZ

    return step.sign * (0.5 * step.delta * SIGMA_ZA + 0.5 * step.j * SIGMA_ZZ)


def build_conditional_loop(delta: float, j: float) -> PulseSequence:
    """Preparation, one compensated conditional revolution, then the exact
    inverse preparation. The composite is diagonal with opposite phases in
    each spectator sector."""
    setting = two_qubit_loop_params(delta, j)
    sol = s_operation_params(delta, j, setting.omega1)
    s_seq = build_s_operation(sol, delta, j)
    loop = FieldLoop(ConditionalLoop(delta, j), revolutions=1.0, compensated=True)
    steps = s_seq.steps + (loop,) + invert_sequence(s_seq).steps
    return PulseSequence(steps, frame=TWO_QUBIT)


# ---------------------------------------------------------------------------
# JSON round trip


def _step_to_dict(step: PulsePrimitive) -> dict:
    if isinstance(step, RotX):
        return {"op": "rot_x", "angle": step.angle}
    if isinstance(step, RotY):
        return {"op": "rot_y", "angle": step.angle}
    if isinstance(step, RotZ):
        return {"op": "rot_z", "angle": step.angle}
    if isinstance(step, FreeEvolve):
        return {
            "op": "free",
            "duration": step.sign * step.duration,
            "delta": step.delta,
            "j": step.j,
        }
    if isinstance(step.params, FieldParams):
        p = step.params
        loop = {
            "omega0": p.omega0,
            "omega1": p.omega1,
            "gamma": p.gamma,
            "omega_z": p.omega_z,
            "phase0": p.phase0,
        }
    else:
        loop = {"delta": step.params.delta, "j": step.params.j, "phase0": step.params.phase0}
    return {
        "op": "loop",
        "revolutions": step.sign * step.revolutions,
        "compensated": step.compensated,
        "loop": loop,
    }


def _step_from_dict(d: dict, index: int) -> PulsePrimitive:
    try:
        op = d["op"]
        if op == "rot_x":
            return RotX(float(d["angle"]))
        if op == "rot_y":
            return RotY(float(d["angle"]))
        if op == "rot_z":
            return RotZ(float(d["angle"]))
        if op == "free":
            duration = float(d["duration"])
            sign = -1 if duration < 0 else 1
            return FreeEvolve(abs(duration), float(d["delta"]), float(d.get("j", 0.0)), sign)
        if op == "loop":
            rev = float(d.get("revolutions", 1.0))
            sign = -1 if rev < 0 else 1
            loop = d["loop"]
            if "delta" in loop:
                params = ConditionalLoop(
                    float(loop["delta"]), float(loop["j"]), float(loop.get("phase0", 0.0))
                )
            else:
                params = FieldParams(
                    omega0=float(loop["omega0"]),
                    omega1=float(loop["omega1"]),
                    gamma=float(loop["gamma"]),
                    omega_z=float(loop.get("omega_z", 0.0)),
                    phase0=float(loop.get("phase0", 0.0)),
                )
            return FieldLoop(params, abs(rev), bool(d.get("compensated", True)), sign)
        raise ValueError(f"unknown op {op!r}")
    except KeyError as exc:
        raise ValueError(f"step {index}: missing field {exc.args[0]!r}") from exc


def sequence_to_dict(seq: PulseSequence) -> dict:
    return {"frame": seq.frame, "steps": [_step_to_dict(s) for s in seq.steps]}


def sequence_from_dict(d: dict) -> PulseSequence:
    if not isinstance(d, dict) or "steps" not in d:
        raise ValueError("sequence document must be an object with a 'steps' list")
    steps = tuple(_step_from_dict(s, i) for i, s in enumerate(d["steps"]))
    return PulseSequence(steps, frame=d.get("frame", SINGLE_QUBIT))


def to_json(seq: PulseSequence, indent: int | None = None) -> str:
    return json.dumps(sequence_to_dict(seq), indent=indent)


def from_json(text: str) -> PulseSequence:
    return sequence_from_dict(json.loads(text))
