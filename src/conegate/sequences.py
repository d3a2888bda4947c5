"""Pulse-sequence intermediate representation, the conditional eigenstate
preparation sequence with its constraint solver, the conditional
geometric loop built from it, and integrate_loop, the integrator run of
one field loop under FieldLoop's rules. A field loop has one integrator
runner, _integrate_loop, which integrate_loop, simulate_sequence and
sequence_trajectory all call.

Rotation convention: R_n(beta) = exp(-i beta (n.sigma) / 2), so free
evolution under (omega/2) sigma_z turns the Bloch vector by +omega*t
about z. Hard pulses are ideal (zero duration). In the two-qubit frame
every primitive addresses spin a; spin b is a sigma_z-conserved spectator.

Sectors. In the two-qubit basis |b a> every primitive is block-diagonal in
spin b: a hard pulse is the same 2x2 in both sectors, free evolution a
rot_z-type diagonal with offset delta + j (b up) or delta - j (b down), and
a conditional loop one single-spin field per sector (_loop_fields). Each
gives its blocks as entries (u00, u01, u10, u11) in Python complex: a hard
pulse or free evolution by its _blocks method, a loop by the closed form
(apply_sequence) or the integrator (simulate_sequence), which runs a
conditional loop's two sectors as one stacked run. One loop, _compose,
multiplies them into a b-up and a b-down product, and _matrix builds the
2x2 or block-diagonal 4x4 from those in one np.array call. For a 2x2 this
is several times cheaper than numpy calls. Python's complex products round
without the fused multiply-adds of a BLAS product, so a composite can
differ from a 4x4 matmul of the same blocks in the last bits.
sequence_trajectory builds its (n, dim, dim) stacks from the same blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .hamiltonians import SIGMA_ZA, SIGMA_ZZ, FieldParams, FieldSchedule, _check_omega_z
from .linalg import SIGMA_Z, check_finite
from .phases import _check_coupling, cone_eigenstate, two_qubit_loop_params
from .propagation import (
    Trajectory,
    _integrate,
    _recorded_samples,
    _revolution_time,
    _static_entries,
    _z_entries,
    _z_stack,
    integrate,  # unused here, but bound: perfbench's tracer wraps it through this module
)

SINGLE_QUBIT = "single-qubit"
TWO_QUBIT = "two-qubit-rotating"
SAMPLES_PER_LOOP = 257  # samples sequence_trajectory records per revolution


def _check_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")


def _made(cls, **fields):
    """A frozen primitive or sequence holding fields, built without its
    __init__ and __post_init__, as Trajectory._of_run builds a trajectory:
    only for values the package derives from ones it has just checked,
    where no check of __post_init__ can fail. Its only callers are the
    primitives' _inverse methods and build_conditional_loop."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


@dataclass(frozen=True)
class _Rotation:
    """A hard pulse: spin a turned by angle about one axis."""

    angle: float

    def __post_init__(self) -> None:
        check_finite(self.angle, "angle")

    def _inverse(self) -> "_Rotation":
        return _made(type(self), angle=-self.angle)

    def __reduce__(self) -> tuple:
        # rebuilt from the angle alone: a pulse _kept holds its blocks in
        # functions, which do not pickle
        return type(self), (self.angle,)


class RotX(_Rotation):
    def _blocks(self, dim: int) -> tuple:
        half = self.angle / 2
        c, s = complex(math.cos(half)), complex(0.0, -math.sin(half))
        return ((c, s, s, c),)


class RotY(_Rotation):
    def _blocks(self, dim: int) -> tuple:
        half = self.angle / 2
        c, s = complex(math.cos(half)), math.sin(half)
        return ((c, complex(-s), complex(s), c),)


class RotZ(_Rotation):
    def _blocks(self, dim: int) -> tuple:
        return (_z_entries(-0.5 * self.angle),)


@dataclass(frozen=True)
class FreeEvolve:
    """Evolution for `duration` under the frame Hamiltonian
    (delta sigma_za + j sigma_za sigma_zb) / 2.

    sign = -1 runs the negated generator (the inverse evolution; every
    term is z-type, so a pair of hard x pulses realizes the negation).
    Each sector's half-angle -sign duration (delta +- j) / 2 must be finite.
    """

    duration: float
    delta: float
    j: float = 0.0
    sign: int = 1

    def __post_init__(self) -> None:
        check_finite(self.duration, "duration")
        check_finite(self.delta, "delta")
        check_finite(self.j, "j")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        _check_sign(self.sign)
        # the sector half-angles as _blocks takes them; at dimension 2,
        # where j is 0, both are its one angle
        half_t = -0.5 * (self.sign * self.duration)
        if not (math.isfinite(half_t * (self.delta + self.j))
                and math.isfinite(half_t * (self.delta - self.j))):
            raise ValueError("free evolution angle duration (delta +- j) / 2 is not finite")

    def _inverse(self) -> "FreeEvolve":
        return _made(FreeEvolve, duration=self.duration, delta=self.delta, j=self.j,
                     sign=-self.sign)

    def _blocks(self, dim: int) -> tuple:
        half_t, d, j = -0.5 * (self.sign * self.duration), self.delta, self.j
        if dim == 2:
            return (_z_entries(half_t * d),)
        return _z_entries(half_t * (d + j)), _z_entries(half_t * (d - j))


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
        check_finite(self.delta, "delta")
        check_finite(self.j, "j")
        check_finite(self.phase0, "phase0")
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
        check_finite(self.revolutions, "revolutions")
        if self.revolutions <= 0:
            raise ValueError("revolutions must be positive")
        _check_sign(self.sign)
        if isinstance(self.params, FieldParams):
            if self.params.gamma == 0.0:
                raise ValueError("a field loop needs a nonzero rotation speed")
            _check_omega_z(self.params, self.compensated)

    def _inverse(self) -> "FieldLoop":
        return _made(FieldLoop, params=self.params, revolutions=self.revolutions,
                     compensated=self.compensated, sign=-self.sign)


_PRIMITIVES = (RotX, RotY, RotZ, FreeEvolve, FieldLoop)
PulsePrimitive = Union[_PRIMITIVES]


@dataclass(frozen=True)
class PulseSequence:
    steps: tuple
    frame: str = SINGLE_QUBIT

    def __post_init__(self) -> None:
        if self.frame not in (SINGLE_QUBIT, TWO_QUBIT):
            raise ValueError(f"unknown frame {self.frame!r}")
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, _PRIMITIVES):
                raise ValueError(f"unknown pulse primitive {step!r}")


class SOpSolution(NamedTuple):
    """Timing and angles solving the eigenstate-preparation constraints:
    tan(phi_prime +- j t_c) = (delta +- j) / omega1, with the prepared
    cone angles theta_pm = pi/2 - (phi_prime +- j t_c)."""

    t_c: float
    phi_prime: float
    theta_plus: float
    theta_minus: float


def _check_s_operation(delta: float, j: float, omega1: float) -> None:
    """Refuse inputs the preparation constraints have no solution for."""
    if not (math.isfinite(delta) and math.isfinite(j) and math.isfinite(omega1)):
        raise ValueError("delta, j and omega1 must be finite")
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    _check_coupling(j)


def _solve_s_operation(a_plus, a_minus, j: float) -> tuple:
    """(t_c, phi_prime, theta_plus, theta_minus) from the angles
    a_pm = arctan((delta +- j) / omega1), given as floats or as arrays."""
    j_tc = 0.5 * (a_plus - a_minus)
    phi_prime = 0.5 * (a_plus + a_minus)
    return j_tc / j, phi_prime, np.pi / 2 - a_plus, np.pi / 2 - a_minus


def s_operation_angles(delta, j: float, omega1):
    """The preparation constraints solved over arrays: (t_c, phi_prime,
    theta_plus, theta_minus), each broadcast over delta and omega1."""
    # each condition is an interval, so the extremes decide; both keep a NaN
    for extreme in (np.min, np.max):
        _check_s_operation(extreme(delta, initial=1.0), j, extreme(omega1, initial=1.0))
    return _solve_s_operation(np.arctan((delta + j) / omega1), np.arctan((delta - j) / omega1), j)


def s_operation_params(delta: float, j: float, omega1: float) -> SOpSolution:
    """Solve the preparation constraints for the pulse timing t_c and the
    closing tilt angle phi_prime (the scalar case of s_operation_angles)."""
    _check_s_operation(delta, j, omega1)
    a_plus = float(np.arctan((delta + j) / omega1))  # Python floats round as float64s do
    a_minus = float(np.arctan((delta - j) / omega1))
    return SOpSolution(*map(float, _solve_s_operation(a_plus, a_minus, j)))


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


def _kept(pulse: _Rotation) -> _Rotation:
    """pulse and its inverse, each with its blocks taken once (a hard
    pulse's blocks are the same at either dimension) and each the other's
    _inverse."""
    inverse = pulse._inverse()
    for p, q in ((pulse, inverse), (inverse, pulse)):
        vars(p).update(_blocks=lambda dim, blocks=p._blocks(2): blocks, _inverse=lambda q=q: q)
    return pulse


# the quarter turns of every preparation and their inverses, built once per
# process (frozen, so shared)
_QUARTER_Y, _QUARTER_X = _kept(RotY(np.pi / 2)), _kept(RotX(np.pi / 2))


def _s_operation_steps(sol: SOpSolution, delta: float, j: float) -> tuple:
    return (_QUARTER_Y, FreeEvolve(sol.t_c, delta, j), RotZ(-delta * sol.t_c), _QUARTER_X,
            RotY(-sol.phi_prime))


def build_s_operation(sol: SOpSolution, delta: float, j: float) -> PulseSequence:
    """Pulse sequence preparing the conditional cone eigenstate from spin-a
    up: a y pulse to the equator, coupled free evolution, an offset-z
    unwind, an x pulse into the xz plane, and the closing y tilt."""
    _check_solution(sol, delta, j)
    return PulseSequence(_s_operation_steps(sol, delta, j), frame=TWO_QUBIT)


def _inverted(steps: tuple) -> tuple:
    """The exact inverse of steps: reversed, each step's _inverse with its
    angle or generator negated. Involutive: _inverted(_inverted(steps)) ==
    steps. The steps are checked primitives, so a negated angle is finite,
    a flipped sign valid and every other field kept: none is checked again."""
    return tuple([step._inverse() for step in reversed(steps)])


def _block_diag(blocks, dim: int) -> np.ndarray:
    """Propagator of dimension dim from the (..., 2, 2) blocks of the spin-b
    sectors; a single block acts alike in both."""
    if dim == 2:
        return blocks[0]
    out = np.zeros(blocks[0].shape[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = blocks[0]
    out[..., 2:, 2:] = blocks[-1]
    return out


def _matrix(blocks, dim: int) -> np.ndarray:
    """The dim x dim matrix of sector blocks given as entry 4-tuples."""
    if dim == 2:
        return np.array(blocks[0], dtype=complex).reshape(2, 2)
    u00, u01, u10, u11 = blocks[0]
    d00, d01, d10, d11 = blocks[-1]
    return np.array((u00, u01, 0j, 0j, u10, u11, 0j, 0j,
                     0j, 0j, d00, d01, 0j, 0j, d10, d11), dtype=complex).reshape(4, 4)


def _free_evolution_unitaries(step: FreeEvolve, dim: int, durations) -> np.ndarray:
    """Diagonal unitaries of the free evolution run for each of durations
    (the step's own duration ignored), as a (len(durations), dim, dim) stack:
    in each sector diag(exp(i a), exp(-i a)) with the half-angle a = -t e / 2,
    e the sector's offset, in FreeEvolve._blocks' operation order."""
    half_t = -0.5 * (step.sign * np.asarray(durations, dtype=float))
    offsets = (step.delta,) if dim == 2 else (step.delta + step.j, step.delta - step.j)
    return _block_diag([_z_stack(half_t * e) for e in offsets], dim)


def _loop_fields(step: FieldLoop) -> tuple:
    """(omega1, gamma, phase0, offsets) of the single-spin field of each 2x2
    block of a loop: the loop's own field, with the one offset omega0, or
    for a conditional loop one field per spin-b sector (b-up first), each
    seeing the vertical offset delta + j or delta - j."""
    p = step.params
    if type(p) is ConditionalLoop:
        return p.setting.omega1, p.setting.gamma, p.phase0, (p.delta + p.j, p.delta - p.j)
    return p.omega1, p.gamma, p.phase0, (p.omega0,)


def _loop_duration(step: FieldLoop, gamma: float) -> float:
    duration = step.revolutions * _revolution_time(gamma)
    if not math.isfinite(duration):
        raise ValueError(f"a loop of {step.revolutions:g} revolutions at gamma = {gamma:g} "
                         "lasts longer than the float range")
    return duration


def _loop_closed_form(step: FieldLoop) -> list:
    """Closed-form blocks of a field loop (entry 4-tuples), one per field,
    with the frame product rot_z(gamma t) @ exp(-i H t) taken in Python
    complex (an entry can round one ulp apart from BLAS's). Every field
    turns at one speed, so t and the frame factor are taken once; sign =
    -1 takes the adjoint."""
    omega1, gamma, phase0, offsets = _loop_fields(step)
    t = _loop_duration(step, gamma)
    r0, _, _, r1 = _z_entries(-0.5 * (gamma * t))
    blocks = []
    for omega0 in offsets:
        s00, s01, s10, s11 = _static_entries(omega0 if step.compensated else omega0 - gamma,
                                             omega1, phase0, t)
        u00, u01, u10, u11 = r0 * s00, r0 * s01, r1 * s10, r1 * s11
        blocks.append((u00.conjugate(), u10.conjugate(), u01.conjugate(), u11.conjugate())
                      if step.sign < 0 else (u00, u01, u10, u11))
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


def _integrate_loop(step: FieldLoop, steps_per_loop: int, samples: int, psi0=None) -> tuple:
    """(duration, one Trajectory per field) of a field-loop segment, whose
    FieldSchedules (each a Trajectory's hamiltonian_at) run in one
    propagation._integrate call: they differ only in their vertical field,
    so they share omega1, gamma, phase0, sign and t_end, and a conditional
    loop's two spin-b sectors run stacked. sign = -1 runs the negated
    Hamiltonian backwards."""
    omega1, gamma, phase0, offsets = _loop_fields(step)
    duration = _loop_duration(step, gamma)
    fields = tuple(FieldSchedule(omega0 + gamma if step.compensated else omega0, omega1, gamma,
                                 phase0, step.sign, duration)
                   for omega0 in offsets)
    return duration, _integrate(fields, duration, _loop_steps(step, steps_per_loop), psi0,
                                samples)


def integrate_loop(
    p: FieldParams,
    compensated: bool,
    steps_per_loop: int = 10_000,
    revolutions: float = 1.0,
    *,
    psi0: np.ndarray | None = None,
    samples: int = 257,
) -> Trajectory:
    """Integrator run over `revolutions` full revolutions of the field: the
    run of FieldLoop(p, revolutions, compensated), whose rules it takes."""
    return _integrate_loop(FieldLoop(p, revolutions, compensated), steps_per_loop, samples,
                           psi0)[1][0]


def _check_frame_dim(seq: PulseSequence, dim: int) -> None:
    """Refuse a sequence that cannot run at dim before any of it runs: at
    dimension 2 no step may act on spin b."""
    if dim not in (2, 4):
        raise ValueError("dim must be 2 or 4")
    if seq.frame != (SINGLE_QUBIT if dim == 2 else TWO_QUBIT):
        raise ValueError(f"frame {seq.frame!r} cannot be applied at dimension {dim}")
    for step in seq.steps if dim == 2 else ():
        if isinstance(step, FieldLoop) and isinstance(step.params, ConditionalLoop):
            raise ValueError("a conditional loop needs dimension 4")
        if isinstance(step, FreeEvolve) and step.j != 0.0:
            raise ValueError("j-coupled free evolution needs the two-qubit frame")


def _compose(seq: PulseSequence, dim: int, loop_blocks) -> np.ndarray:
    """The sequence as one unitary, composed per spin-b sector in listed
    order (the first primitive acts first); loop_blocks(step) gives a field
    loop's blocks. At dimension 2 the b-down product goes unused."""
    _check_frame_dim(seq, dim)
    u00 = d00 = u11 = d11 = 1 + 0j
    u01 = d01 = u10 = d10 = 0j
    for step in seq.steps:
        blocks = loop_blocks(step) if type(step) is FieldLoop else step._blocks(dim)
        a00, a01, a10, a11 = blocks[0]
        u00, u01, u10, u11 = (a00 * u00 + a01 * u10, a00 * u01 + a01 * u11,
                              a10 * u00 + a11 * u10, a10 * u01 + a11 * u11)
        a00, a01, a10, a11 = blocks[-1]
        d00, d01, d10, d11 = (a00 * d00 + a01 * d10, a00 * d01 + a01 * d11,
                              a10 * d00 + a11 * d10, a10 * d01 + a11 * d11)
    return _matrix(((u00, u01, u10, u11), (d00, d01, d10, d11)), dim)


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
    anyway. A conditional loop runs as its two 2x2 sectors, stacked in one
    integrator run.

    Each distinct loop is integrated once per call: a loop object that the
    sequence lists several times (the Hadamard loop of NOT and CNOT) reuses
    its blocks. Loops are told apart by identity, never by equality, which
    would merge loops whose fields differ only in the sign of a zero."""
    integrated: dict = {}  # id of a loop in seq -> its blocks

    def loop_blocks(step: FieldLoop) -> list:
        blocks = integrated.get(id(step))
        if blocks is None:
            _, runs = _integrate_loop(step, steps_per_loop, 2)
            blocks = integrated[id(step)] = [run.propagators[-1].ravel().tolist()
                                             for run in runs]
        return blocks

    return _compose(seq, dim, loop_blocks)


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
    segments = []  # as Trajectory._segments holds them
    now, rows = 0.0, 1
    for step in seq.steps:
        u = props[-1][-1]
        if isinstance(step, FieldLoop):
            duration, runs = _integrate_loop(step, steps_per_loop,
                                             _loop_samples(step, samples_per_loop))
            fields = [run.hamiltonian_at for run in runs]
            seg_u = _block_diag([run.propagators for run in runs], dim)
            segments.append((now, now + duration,
                             lambda t, fields=fields: _block_diag([f(t) for f in fields], dim),
                             rows - 1, runs[0].times.size))
            times.append(now + runs[0].times[1:])
            props.append(seg_u[1:] @ u)
            now += duration
        elif isinstance(step, FreeEvolve) and step.duration > 0:
            seg_t = step.duration * np.linspace(0, 1, _free_samples(samples_per_loop))[1:]
            segments.append((now, now + step.duration, _free_evolution_hamiltonian(step, dim),
                             rows - 1, seg_t.size + 1))
            times.append(now + seg_t)
            props.append(_free_evolution_unitaries(step, dim, seg_t) @ u)
            now += step.duration
        else:
            times.append(np.array([now]))
            props.append((_matrix(step._blocks(dim), dim) @ u)[None])
        rows += times[-1].size

    def hamiltonian_at(t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape + (dim, dim), dtype=complex)
        for t0, t1, h_at, _, _ in segments:
            mask = (t_arr >= t0) & (t_arr <= t1)
            if np.any(mask):
                out[mask] = h_at(t_arr[mask] - t0)
        return out

    props = np.concatenate(props)
    return Trajectory._of_run(np.concatenate(times), props @ psi, props, hamiltonian_at, segments)


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


def _free_evolution_hamiltonian(step: FreeEvolve, dim: int):
    """The accessor t -> (..., dim, dim) of the free evolution's constant
    Hamiltonian, broadcast over t."""
    h = (step.sign * 0.5 * step.delta * SIGMA_Z if dim == 2
         else step.sign * (0.5 * step.delta * SIGMA_ZA + 0.5 * step.j * SIGMA_ZZ))
    return lambda t: np.broadcast_to(h, np.shape(t) + h.shape).copy()


def build_conditional_loop(delta: float, j: float) -> PulseSequence:
    """Preparation, one compensated conditional revolution, then the exact
    inverse preparation. The composite is diagonal with opposite phases in
    each spectator sector."""
    params = ConditionalLoop(delta, j)
    # a checked setting, one literal revolution and sign; the steps are primitives
    loop = _made(FieldLoop, params=params, revolutions=1.0, compensated=True, sign=1)
    s_steps = _s_operation_steps(s_operation_params(delta, j, params.setting.omega1), delta, j)
    return _made(PulseSequence, steps=s_steps + (loop,) + _inverted(s_steps), frame=TWO_QUBIT)


# ---------------------------------------------------------------------------
# JSON round trip


def _step_to_dict(step: PulsePrimitive) -> dict:
    """The document of one step, written from the tables _step_from_dict reads."""
    if isinstance(step, _Rotation):
        op = next(op for op, kind in _ROTATIONS.items() if kind is type(step))
        return {"op": op, "angle": step.angle}
    if isinstance(step, FreeEvolve):
        return {"op": "free", "duration": step.sign * step.duration, "delta": step.delta,
                "j": step.j}
    loop = {key: getattr(step.params, key) for key, _ in _LOOP_KEYS[type(step.params)]}
    return {"op": "loop", "revolutions": step.sign * step.revolutions,
            "compensated": step.compensated, "loop": loop}


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


def _required(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValueError(f"{path}.{key}: missing field")
    return doc[key]


def _number(doc: dict, key: str, path: str, default: float | None = None) -> float:
    """doc[key] as a finite float (default when absent, if one is given)."""
    if default is not None and key not in doc:
        return default
    return _finite(_required(doc, key, path), f"{path}.{key}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected an object")
    return value


_ROTATIONS = {"rot_x": RotX, "rot_y": RotY, "rot_z": RotZ}
# a loop document's keys in constructor order, with their defaults (None: required);
# _step_to_dict writes them in this order
_LOOP_KEYS = {
    ConditionalLoop: (("delta", None), ("j", None), ("phase0", 0.0)),
    FieldParams: (("omega0", None), ("omega1", None), ("gamma", None), ("omega_z", 0.0),
                  ("phase0", 0.0)),
}


def _check_keys(doc: dict, keys, path: str) -> None:
    """Refuse the first key of doc that is not one of keys, naming it by its
    path: path, a dot and the key, or the key alone at the top level."""
    for key in doc:
        if key not in keys:
            raise ValueError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")


def _step_from_dict(d: dict, index: int) -> PulsePrimitive:
    path = f"steps[{index}]"
    d = _object(d, path)
    op = _required(d, "op", path)
    if not isinstance(op, str) or op not in (*_ROTATIONS, "free", "loop"):
        raise ValueError(f"{path}.op: unknown op {op!r}")
    if op in _ROTATIONS:
        _check_keys(d, ("op", "angle"), path)
        return _ROTATIONS[op](_number(d, "angle", path))
    if op == "free":
        _check_keys(d, ("op", "duration", "delta", "j"), path)
        duration = _number(d, "duration", path)
        delta, j = _number(d, "delta", path), _number(d, "j", path, 0.0)
        try:
            return FreeEvolve(abs(duration), delta, j, -1 if duration < 0 else 1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    _check_keys(d, ("op", "revolutions", "compensated", "loop"), path)
    rev = _number(d, "revolutions", path, 1.0)
    compensated = d.get("compensated", True)
    if not isinstance(compensated, bool):
        raise ValueError(f"{path}.compensated: expected true or false")
    where = f"{path}.loop"
    loop = _object(_required(d, "loop", path), where)
    kind = ConditionalLoop if "delta" in loop else FieldParams
    _check_keys(loop, [key for key, _ in _LOOP_KEYS[kind]], where)
    values = [_number(loop, key, where, default) for key, default in _LOOP_KEYS[kind]]
    try:
        return FieldLoop(kind(*values), abs(rev), compensated, -1 if rev < 0 else 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def sequence_to_dict(seq: PulseSequence) -> dict:
    return {"frame": seq.frame, "steps": [_step_to_dict(s) for s in seq.steps]}


def sequence_from_dict(d: dict) -> PulseSequence:
    """The sequence of a schedule document. Every malformed field, and every
    key the document's schema does not hold, raises ValueError naming its
    path, such as steps[3].angle. The value of initial_state is read by
    schedule_from_dict."""
    if not isinstance(d, dict) or "steps" not in d:
        raise ValueError("sequence document must be an object with a 'steps' list")
    _check_keys(d, ("frame", "steps", "initial_state"), "")
    if not isinstance(d["steps"], list):
        raise ValueError("steps: expected a list")
    steps = tuple(_step_from_dict(s, i) for i, s in enumerate(d["steps"]))
    frame = d.get("frame", SINGLE_QUBIT)
    if frame not in (SINGLE_QUBIT, TWO_QUBIT):
        raise ValueError(f"frame: unknown frame {frame!r}")
    return PulseSequence(steps, frame=frame)


def schedule_from_dict(d: dict) -> tuple[PulseSequence, np.ndarray]:
    """The sequence of a schedule document and the state its run starts
    from, the document read whole as sequence_from_dict reads it.

    initial_state holds one [re, im] pair per amplitude of the frame (2 or
    4), and is normalized; one whose squares overflow or underflow, so
    that its plain normalization misses norm 1 by more than 1e-10, is
    first scaled by its largest real or imaginary part. Without it, the
    run starts in the cone eigenstate of the first single-spin loop, at
    that loop's azimuth phase0 (with spin b up in the two-qubit frame), or
    in spin up when the schedule has no such loop."""
    seq = sequence_from_dict(d)
    dim = 2 if seq.frame == SINGLE_QUBIT else 4
    if "initial_state" in d:
        pairs = d["initial_state"]
        if not isinstance(pairs, list) or len(pairs) != dim:
            raise ValueError(f"initial_state: expected {dim} [re, im] pairs")
        psi = np.empty(dim, dtype=complex)
        for k, pair in enumerate(pairs):
            where = f"initial_state[{k}]"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"{where}: expected a [re, im] pair")
            psi[k] = complex(_finite(pair[0], where + "[0]"), _finite(pair[1], where + "[1]"))
        scale = np.max(np.abs(psi.view(float)))  # its largest real or imaginary part
        if scale == 0:
            raise ValueError("initial_state must be a nonzero vector")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            norm = np.linalg.norm(psi)
            # squares that underflow or overflow miss the norm by more than
            # a trajectory's check allows (or make it 0 or infinite)
            plain = abs(np.linalg.norm(psi / norm) - 1.0) <= 1e-10
        if not plain:
            psi = (psi.view(float) / scale).view(complex)  # a subnormal scale has no inverse
            norm = np.linalg.norm(psi)
        return seq, psi / norm
    for step in seq.steps:
        if isinstance(step, FieldLoop) and isinstance(step.params, FieldParams):
            geom = cone_eigenstate(step.params.omega0, step.params.omega1)
            psi2 = geom.psi0 * np.array([1.0, np.exp(1j * step.params.phase0)])
            return seq, psi2 if dim == 2 else np.kron(np.array([1.0, 0.0]), psi2)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return seq, psi


def to_json(seq: PulseSequence, indent: int | None = None) -> str:
    return json.dumps(sequence_to_dict(seq), indent=indent)
