"""Pulse-sequence intermediate representation, the conditional eigenstate
preparation sequence with its constraint solver, and the conditional
geometric loop built from it.

Rotation convention: R_n(beta) = exp(-i beta (n.sigma) / 2), so free
evolution under (omega/2) sigma_z turns the Bloch vector by +omega*t
about z. Hard pulses are ideal (zero duration). In the two-qubit frame
every primitive addresses spin a; spin b is a sigma_z-conserved spectator.

Sectors. In the two-qubit basis |b a> every primitive is block-diagonal in
spin b: a hard pulse is the same 2x2 in both sectors, free evolution a
rot_z-type diagonal with offset delta + j (b up) or delta - j (b down), and
a conditional loop one single-spin field per sector (_loop_fields).
apply_sequence and simulate_sequence share one loop (_compose) that keeps
one 2x2 per sector, b-up first, as its entries (u00, u01, u10, u11) in
Python complex, and builds the 4x4 block diagonal once, at the end
(_block_diag); they differ only in where a loop's sector blocks come from,
the closed form or the integrator. For a 2x2 this is several times cheaper
than numpy calls. Python's complex products round without the fused
multiply-adds of a BLAS product, so a composite can differ from a 4x4
matmul of the same blocks in the last bits. sequence_trajectory builds its
(n, dim, dim) stacks from the same sector blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .hamiltonians import SIGMA_ZA, SIGMA_ZZ, FieldParams, FieldSchedule
from .linalg import SIGMA_Z
from .phases import two_qubit_loop_params
from .propagation import (
    Trajectory,
    _propagator_entries,
    _recorded_samples,
    _z_entries,
    _z_stack,
    integrate,
    rot_z,  # the z rotation, exported beside rot_x and rot_y
)

SINGLE_QUBIT = "single-qubit"
TWO_QUBIT = "two-qubit-rotating"
SAMPLES_PER_LOOP = 257  # samples sequence_trajectory records per revolution


def _rot_x_entries(angle: float) -> tuple:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return (complex(c), complex(0.0, -s), complex(0.0, -s), complex(c))


def _rot_y_entries(angle: float) -> tuple:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return (complex(c), complex(-s), complex(s), complex(c))


def rot_x(angle: float) -> np.ndarray:
    return np.array(_rot_x_entries(angle)).reshape(2, 2)


def rot_y(angle: float) -> np.ndarray:
    return np.array(_rot_y_entries(angle)).reshape(2, 2)


def _check_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
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
        _check_finite(self.delta, "delta")
        _check_finite(self.j, "j")
        _check_finite(self.phase0, "phase0")
        # solved once per loop (validating delta > j > 0); not a field
        object.__setattr__(self, "setting", two_qubit_loop_params(self.delta, self.j))


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


def _solve_s_operation(delta, j: float, omega1):
    """(t_c, phi_prime, theta_plus, theta_minus) from the arctan constraint
    math, broadcast over delta and omega1; inputs unchecked."""
    a_plus = np.arctan((delta + j) / omega1)
    a_minus = np.arctan((delta - j) / omega1)
    j_tc = 0.5 * (a_plus - a_minus)
    phi_prime = 0.5 * (a_plus + a_minus)
    return j_tc / j, phi_prime, np.pi / 2 - a_plus, np.pi / 2 - a_minus


def s_operation_angles(delta, j: float, omega1):
    """The preparation constraints solved over arrays: (t_c, phi_prime,
    theta_plus, theta_minus), each broadcast over delta and omega1."""
    if np.any(np.asarray(omega1) <= 0):
        raise ValueError("omega1 must be positive")
    if j <= 0:
        raise ValueError("coupling j must be positive")
    return _solve_s_operation(delta, j, omega1)


def s_operation_params(delta: float, j: float, omega1: float) -> SOpSolution:
    """Solve the preparation constraints for the pulse timing t_c and the
    closing tilt angle phi_prime (the scalar case of s_operation_angles)."""
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    if j <= 0:
        raise ValueError("coupling j must be positive")
    return SOpSolution(*map(float, _solve_s_operation(delta, j, omega1)))


def _check_solution(sol: SOpSolution, delta: float, j: float) -> float:
    """Validate a solution record against (delta, j); returns the implied
    RF amplitude."""
    j_tc = j * sol.t_c
    if abs(sol.theta_plus - (math.pi / 2 - (sol.phi_prime + j_tc))) > 1e-9 or abs(
        sol.theta_minus - (math.pi / 2 - (sol.phi_prime - j_tc))
    ) > 1e-9:
        raise ValueError("solution record angles are internally inconsistent")
    w_plus = (delta + j) * math.tan(sol.theta_plus)
    w_minus = (delta - j) * math.tan(sol.theta_minus)
    if not (math.isfinite(w_plus) and w_plus > 0):
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
        if isinstance(step, FreeEvolve):
            inverted.append(FreeEvolve(step.duration, step.delta, step.j, -step.sign))
        elif isinstance(step, FieldLoop):
            inverted.append(FieldLoop(step.params, step.revolutions, step.compensated, -step.sign))
        else:
            inverted.append(type(step)(-step.angle))
    return PulseSequence(tuple(inverted), frame=seq.frame)


_IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)


def _product(a, b) -> tuple:
    """a @ b for two 2x2 given as their entries (u00, u01, u10, u11)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _per_sector(blocks, dim: int):
    """One block per spin-b sector of dimension dim; a single block acts
    alike in both sectors."""
    if len(blocks) == dim // 2:
        return blocks
    if len(blocks) > dim // 2:
        raise ValueError("a conditional loop needs dimension 4")
    return [blocks[0]] * (dim // 2)


def _block_diag(blocks, dim: int) -> np.ndarray:
    """Propagator of dimension dim from the (..., 2, 2) blocks of the spin-b
    sectors."""
    blocks = _per_sector(blocks, dim)
    if dim == 2:
        return blocks[0]
    up, down = blocks
    out = np.zeros(up.shape[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = up
    out[..., 2:, 2:] = down
    return out


def _operator(blocks: list, dim: int) -> np.ndarray:
    """The dim x dim matrix of sector blocks given as entry 4-tuples."""
    return _block_diag(np.array(blocks, dtype=complex).reshape(-1, 2, 2), dim)


def _sector_offsets(step: FreeEvolve, dim: int) -> list:
    """Vertical offset of spin a in each spin-b sector."""
    if dim == 2:
        if step.j != 0.0:
            raise ValueError("j-coupled free evolution needs the two-qubit frame")
        return [step.delta]
    return [step.delta + step.j, step.delta - step.j]


def _free_evolution_unitaries(step: FreeEvolve, dim: int, durations) -> np.ndarray:
    """Diagonal unitaries of the free evolution run for each of durations
    (the step's own duration ignored), as a (len(durations), dim, dim) stack:
    in each sector diag(exp(i a), exp(-i a)) with the half-angle a = -t e / 2,
    e the sector's offset, in _pulse_blocks' operation order."""
    half_t = -0.5 * (step.sign * np.asarray(durations, dtype=float))
    return _block_diag([_z_stack(half_t * e) for e in _sector_offsets(step, dim)], dim)


def _pulse_blocks(step: PulsePrimitive, dim: int) -> list:
    """A hard pulse or a free evolution as its 2x2 blocks (entry 4-tuples):
    one for a hard pulse, one per sector for a free evolution."""
    if isinstance(step, RotX):
        return [_rot_x_entries(step.angle)]
    if isinstance(step, RotY):
        return [_rot_y_entries(step.angle)]
    if isinstance(step, RotZ):
        return [_z_entries(-0.5 * step.angle)]
    half_t = -0.5 * (step.sign * step.duration)
    return [_z_entries(half_t * e) for e in _sector_offsets(step, dim)]


def _loop_fields(step: FieldLoop) -> list[tuple]:
    """Single-spin field (omega0, omega1, gamma, phase0) of each 2x2 block of
    a loop: the loop's own field, or for a conditional loop one per spin-b
    sector (b-up first), each seeing the vertical offset delta + j or
    delta - j."""
    p = step.params
    if isinstance(p, FieldParams):
        return [(p.omega0, p.omega1, p.gamma, p.phase0)]
    s = p.setting
    return [(p.delta + sgn * p.j, s.omega1, s.gamma, p.phase0) for sgn in (+1, -1)]


def _loop_duration(step: FieldLoop, gamma: float) -> float:
    return step.revolutions * (2 * np.pi / abs(gamma))


def _loop_closed_form(step: FieldLoop) -> list:
    """Closed-form blocks of a field loop (entry 4-tuples), one per field;
    sign = -1 takes the adjoint."""
    blocks = []
    for omega0, omega1, gamma, phase0 in _loop_fields(step):
        u00, u01, u10, u11 = _propagator_entries(
            omega0, omega1, gamma, phase0, _loop_duration(step, gamma), step.compensated)
        if step.sign < 0:
            u00, u01, u10, u11 = (u00.conjugate(), u10.conjugate(),
                                  u01.conjugate(), u11.conjugate())
        blocks.append((u00, u01, u10, u11))
    return blocks


def _per_revolution(count: int, step: FieldLoop) -> int:
    """count per revolution scaled to the loop's revolutions, rounded."""
    n = count * step.revolutions
    if not math.isfinite(n):
        raise ValueError(f"a loop of {step.revolutions:g} revolutions at {count} "
                         "per revolution overflows the step or sample count")
    return round(n)


def _loop_steps(step: FieldLoop, steps_per_loop: int) -> int:
    return max(1, _per_revolution(steps_per_loop, step))


def _loop_samples(step: FieldLoop, samples_per_loop: int) -> int:
    """Samples a loop asks to record, its start included."""
    return max(2, _per_revolution(samples_per_loop, step))


def _free_samples(samples_per_loop: int) -> int:
    """Samples a free evolution records, its start included."""
    return max(2, samples_per_loop // 4)


def _integrate_loop(step: FieldLoop, dim: int, steps_per_loop: int, samples: int):
    """Integrator run of one field-loop segment, each 2x2 block on its own.

    Returns (duration, one Trajectory per field, Hamiltonian accessor of
    dimension dim); sign = -1 runs the negated Hamiltonian backwards.
    """
    fields = _loop_fields(step)
    duration = _loop_duration(step, fields[0][2])
    schedules = [
        FieldSchedule(omega0 + gamma if step.compensated else omega0, omega1, gamma, phase0,
                      step.sign, duration)
        for omega0, omega1, gamma, phase0 in fields
    ]
    n = _loop_steps(step, steps_per_loop)
    runs = [integrate(s, duration, total_steps=n, samples=samples) for s in schedules]

    def hamiltonian_at(t):
        return _block_diag([s(t) for s in schedules], dim)

    return duration, runs, hamiltonian_at


def _check_frame_dim(seq: PulseSequence, dim: int) -> None:
    if dim not in (2, 4):
        raise ValueError("dim must be 2 or 4")
    if dim == 2 and seq.frame != SINGLE_QUBIT:
        raise ValueError(f"frame {seq.frame!r} cannot be applied at dimension 2")
    if dim == 4 and seq.frame != TWO_QUBIT:
        raise ValueError(f"frame {seq.frame!r} cannot be applied at dimension 4")


def _compose(seq: PulseSequence, dim: int, loop_blocks) -> np.ndarray:
    """The sequence as one unitary, composed per spin-b sector in listed
    order (the first primitive acts first); loop_blocks(step) gives a field
    loop's blocks."""
    _check_frame_dim(seq, dim)
    sectors = [_IDENTITY] * (dim // 2)
    for step in seq.steps:
        blocks = loop_blocks(step) if isinstance(step, FieldLoop) else _pulse_blocks(step, dim)
        sectors = [_product(u, v) for u, v in zip(_per_sector(blocks, dim), sectors)]
    return _operator(sectors, dim)


def apply_sequence(seq: PulseSequence, dim: int) -> np.ndarray:
    """Compose the sequence into one unitary (closed-form loop segments).
    Steps act in listed order: the first primitive is applied first."""
    return _compose(seq, dim, _loop_closed_form)


def simulate_sequence(
    seq: PulseSequence, dim: int, steps_per_loop: int = 10_000
) -> np.ndarray:
    """Compose the sequence with every field loop run through the stepped
    integrator instead of the closed form. Hard pulses stay exact; free
    evolutions have constant generators, for which the integrator is exact
    anyway. A conditional loop runs as two 2x2 sectors."""

    def integrated(step: FieldLoop) -> list:
        _, runs, _ = _integrate_loop(step, dim, steps_per_loop, samples=2)
        return [run.propagators[-1].ravel().tolist() for run in runs]

    return _compose(seq, dim, integrated)


def sequence_trajectory(
    seq: PulseSequence,
    dim: int,
    psi0: np.ndarray,
    steps_per_loop: int = 10_000,
    samples_per_loop: int = SAMPLES_PER_LOOP,
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
            m = _loop_samples(step, samples_per_loop)
            duration, runs, h_at = _integrate_loop(step, dim, steps_per_loop, m)
            seg_u = _block_diag([run.propagators for run in runs], dim)
            segments.append((now, now + duration, h_at))
            times.append(now + runs[0].times[1:])
            props.append(seg_u[1:] @ u)
            now += duration
        elif isinstance(step, FreeEvolve) and step.duration > 0:
            h_free = _free_evolution_hamiltonian(step, dim)
            segments.append((now, now + step.duration, lambda t, h=h_free: _const(h, t)))
            seg_t = step.duration * np.linspace(0, 1, _free_samples(samples_per_loop))[1:]
            times.append(now + seg_t)
            props.append(_free_evolution_unitaries(step, dim, seg_t) @ u)
            now += step.duration
        else:
            times.append(np.array([now]))
            props.append((_operator(_pulse_blocks(step, dim), dim) @ u)[None])

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


def trajectory_rows(seq: PulseSequence, steps_per_loop: int) -> int:
    """The most rows sequence_trajectory records for seq at its default
    sampling, counted without integrating."""
    rows = 1
    for step in seq.steps:
        if isinstance(step, FieldLoop):
            rows += _recorded_samples(_loop_samples(step, SAMPLES_PER_LOOP),
                                      _loop_steps(step, steps_per_loop)) - 1
        elif isinstance(step, FreeEvolve) and step.duration > 0:
            rows += _free_samples(SAMPLES_PER_LOOP) - 1
        else:
            rows += 1
    return rows


def _const(h: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.broadcast_to(h, t.shape + h.shape).copy()


def _free_evolution_hamiltonian(step: FreeEvolve, dim: int) -> np.ndarray:
    if dim == 2:
        return step.sign * 0.5 * step.delta * SIGMA_Z
    return step.sign * (0.5 * step.delta * SIGMA_ZA + 0.5 * step.j * SIGMA_ZZ)


def build_conditional_loop(delta: float, j: float) -> PulseSequence:
    """Preparation, one compensated conditional revolution, then the exact
    inverse preparation. The composite is diagonal with opposite phases in
    each spectator sector."""
    loop = FieldLoop(ConditionalLoop(delta, j), revolutions=1.0, compensated=True)
    sol = s_operation_params(delta, j, loop.params.setting.omega1)
    s_seq = build_s_operation(sol, delta, j)
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


def _finite(value, where: str) -> float:
    """A document's value as a finite float; errors name the field by its
    path in the document, where."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a finite number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number")
    return value


def _number(doc: dict, key: str, path: str, default: float | None = None) -> float:
    """doc[key] as a finite float (default when absent, if one is given)."""
    if key not in doc:
        if default is None:
            raise ValueError(f"{path}.{key}: missing field")
        return default
    return _finite(doc[key], f"{path}.{key}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected an object")
    return value


_ROTATIONS = {"rot_x": RotX, "rot_y": RotY, "rot_z": RotZ}
# a loop document's keys in constructor order, with their defaults (None: required)
_LOOP_KEYS = {
    ConditionalLoop: (("delta", None), ("j", None), ("phase0", 0.0)),
    FieldParams: (("omega0", None), ("omega1", None), ("gamma", None), ("omega_z", 0.0),
                  ("phase0", 0.0)),
}


def _step_from_dict(d: dict, index: int) -> PulsePrimitive:
    path = f"steps[{index}]"
    d = _object(d, path)
    if "op" not in d:
        raise ValueError(f"{path}.op: missing field")
    op = d["op"]
    if not isinstance(op, str) or op not in (*_ROTATIONS, "free", "loop"):
        raise ValueError(f"{path}.op: unknown op {op!r}")
    if op in _ROTATIONS:
        return _ROTATIONS[op](_number(d, "angle", path))
    if op == "free":
        duration = _number(d, "duration", path)
        delta, j = _number(d, "delta", path), _number(d, "j", path, 0.0)
        return FreeEvolve(abs(duration), delta, j, -1 if duration < 0 else 1)
    rev = _number(d, "revolutions", path, 1.0)
    compensated = d.get("compensated", True)
    if not isinstance(compensated, bool):
        raise ValueError(f"{path}.compensated: expected true or false")
    if "loop" not in d:
        raise ValueError(f"{path}.loop: missing field")
    where = f"{path}.loop"
    loop = _object(d["loop"], where)
    kind = ConditionalLoop if "delta" in loop else FieldParams
    values = [_number(loop, key, where, default) for key, default in _LOOP_KEYS[kind]]
    try:
        return FieldLoop(kind(*values), abs(rev), compensated, -1 if rev < 0 else 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def sequence_to_dict(seq: PulseSequence) -> dict:
    return {"frame": seq.frame, "steps": [_step_to_dict(s) for s in seq.steps]}


def sequence_from_dict(d: dict) -> PulseSequence:
    """The sequence of a schedule document. Every malformed field raises
    ValueError naming its path, such as steps[3].angle."""
    if not isinstance(d, dict) or "steps" not in d:
        raise ValueError("sequence document must be an object with a 'steps' list")
    if not isinstance(d["steps"], list):
        raise ValueError("steps: expected a list")
    steps = tuple(_step_from_dict(s, i) for i, s in enumerate(d["steps"]))
    frame = d.get("frame", SINGLE_QUBIT)
    if frame not in (SINGLE_QUBIT, TWO_QUBIT):
        raise ValueError(f"frame: unknown frame {frame!r}")
    return PulseSequence(steps, frame=frame)


def to_json(seq: PulseSequence, indent: int | None = None) -> str:
    return json.dumps(sequence_to_dict(seq), indent=indent)


def from_json(text: str) -> PulseSequence:
    return sequence_from_dict(json.loads(text))
