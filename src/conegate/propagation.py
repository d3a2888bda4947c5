"""Closed-form propagators for rotating-field evolutions and an independent
stepped integrator used as the ground-truth oracle.

The closed forms factor the evolution as a frame rotation times a static
exponential:

    uncompensated:  U(t)   = exp(-i gamma t sigma_z / 2) exp(-i H1 t),
                    H1     = H0 - gamma sigma_z / 2
    compensated:    U_W(t) = exp(-i gamma t sigma_z / 2) exp(-i H0 t)

with H0 the field Hamiltonian frozen at t = 0 and the frame factor in the
half-angle convention exp(-i gamma t sigma_z / 2); both factorizations
solve i dU/dt = H(t) U exactly. The static factor is the broadcasting 2x2
kernel of linalg, so a sweep over speeds (loop_infidelities) builds its
propagators as stacks, LOOP_BLOCK speeds at a time. Only the final overlap
<psi0|U|psi0> stays per point: a batched complex dot product would sum in
another order than the BLAS dot of one pair, and the printed sweeps must
keep their bytes.

One point takes a scalar path in Python math (_static_entries,
_rot_z_entries), bit-equal to the stacked kernel because every entry goes
through the same IEEE operations in the same order: the half trace of the
traceless H0 is exactly 0, numpy divides a complex by a real as a product
with the reciprocal, |b| is abs(complex) like numpy's hypot (math.hypot
rounds apart), and math.cos/sin are numpy's, also inside its complex exp
of a zero-real argument. The ndarray propagators keep the frame product a
BLAS matmul, whose fused multiply-adds Python cannot reproduce;
_propagator_entries takes it in Python for callers that compose in Python
(sequences) and can round an entry one ulp apart.

The integrator multiplies per-step exact exponentials of the Hamiltonian
sampled at step midpoints (second-order Magnus). Every step is exactly
unitary; accuracy is controlled solely by the step count, and the global
defect shrinks quadratically under step halving.

The midpoints are drawn in blocks of BLOCK_STEPS. Each block is sampled and
exponentiated at once, its steps are multiplied pairwise within every
recorded interval (vectorised across the intervals), and the interval
products are composed in order with the running product, so memory is
O(block + samples) whatever the step count. 2x2 steps stay in
Cayley-Klein form (a, b) with their trace phase summed apart, and the
running product is projected back onto SU(2) after every block, so
rounding does not drift the norm; larger dimensions use an eigh
exponential and matrix products. Callers with block-diagonal 4x4
propagators (the conditional loop of sequences) integrate each 2x2 block
on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonians import FieldParams, SpeedProfile, h_compensated, h_rotating, h_profile
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, _expm_2x2, require_finite


@dataclass(frozen=True)
class Trajectory:
    """Sampled state history of one evolution.

    times          ascending sample times, starting at 0
    states         (n, d) complex array, states[k] at times[k]
    propagators    optional (n, d, d) array with states[k] = propagators[k] @ states[0]
    hamiltonian_at optional accessor t -> (d, d) Hamiltonian used to
                   generate the evolution (vectorized over t where possible)
    """

    times: np.ndarray
    states: np.ndarray
    propagators: np.ndarray | None = None
    hamiltonian_at: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise ValueError("times and states must have matching leading length")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("times must be ascending")
        norms = np.linalg.norm(states, axis=1)
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("trajectory states must stay normalized within 1e-10")
        if self.propagators is not None:
            props = np.asarray(self.propagators, dtype=complex)
            replay = np.einsum("kij,j->ki", props, states[0])
            if np.max(np.abs(replay - states)) > 1e-9:
                raise ValueError("recorded propagators do not reproduce the states")
            object.__setattr__(self, "propagators", props)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def duration(self) -> float:
        return float(self.times[-1]) if self.times.size else 0.0


def _expi(y: float) -> complex:
    """exp(i y) as numpy's complex exp computes it for a zero real part."""
    return complex(math.cos(y), math.sin(y))


def _rot_z_entries(angle: float) -> tuple:
    """rot_z of one angle as its entries (u00, u01, u10, u11) in Python
    complex, bit for bit the array path's."""
    return (_expi(-0.5 * angle), 0j, 0j, _expi(0.5 * angle))


def rot_z(angle: float | np.ndarray) -> np.ndarray:
    """exp(-i angle sigma_z / 2), broadcasting over angle."""
    if isinstance(angle, (int, float)):
        return np.array(_rot_z_entries(angle)).reshape(2, 2)
    angle = np.asarray(angle, dtype=float)
    out = np.zeros(angle.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-0.5j * angle)
    out[..., 1, 1] = np.exp(0.5j * angle)
    return out


def _static_entries(omega0: float, omega1: float, phase0: float, t: float) -> tuple:
    """exp(-i H0 t) at one point as its entries (u00, u01, u10, u11).

    linalg._expm_2x2's operations on one matrix, in Python floats. H0 =
    [[hz, hx - i hy], [hx + i hy, -hz]] is traceless, so the kernel's half
    trace is exactly 0 and its phase factor exp(-i 0 t) multiplies exactly;
    its n.sigma = (h - c) / r is numpy's complex division by a real, which
    multiplies by the reciprocal 1 / r; |b| is abs(complex), numpy's hypot.
    """
    hz = 0.5 * omega0
    hx = 0.5 * (omega1 * math.cos(phase0))
    hy = 0.5 * (omega1 * math.sin(phase0))
    r = abs(complex(hz, abs(complex(hx, hy))))
    if r == 0.0:
        return (1 + 0j, 0j, 0j, 1 + 0j)
    scale = 1.0 / r
    cos, sin = math.cos(r * t), math.sin(r * t)
    z, x, y = sin * (hz * scale), sin * (hx * scale), sin * (hy * scale)
    return (complex(cos, -z), complex(-y, -x), complex(y, -x), complex(cos, z))


def _static_propagator(omega0, omega1: float, phase0: float, t) -> np.ndarray:
    """exp(-i H0 t) of the frozen field Hamiltonian, broadcasting over omega0
    and t. H0 is Hermitian by construction, so the kernel runs unchecked.

    One point (omega0 and t Python or numpy floats) takes the scalar path,
    _static_entries, which returns the stacked kernel's bits."""
    scalar = isinstance(omega0, (int, float)) and isinstance(t, (int, float))
    if not (math.isfinite(t) if scalar else np.isfinite(t).all()):
        raise ValueError("duration must be finite")
    if scalar:
        return np.array(_static_entries(float(omega0), omega1, phase0, float(t))).reshape(2, 2)
    omega0 = np.asarray(omega0, dtype=float)[..., None, None]
    h0 = 0.5 * (
        omega0 * SIGMA_Z
        + omega1 * (np.cos(phase0) * SIGMA_X + np.sin(phase0) * SIGMA_Y)
    )
    return _expm_2x2(h0, t)


def _propagator_entries(p: FieldParams, t: float, compensated: bool) -> tuple:
    """propagator_compensated (or propagator_uncompensated) at one time as
    its entries (u00, u01, u10, u11), for callers that compose in Python.

    The frame product rot_z(gamma t) @ exp(-i H t) is taken in Python
    complex here; the ndarray propagators take it with BLAS, whose fused
    multiply-adds can round an entry one ulp apart."""
    omega0 = p.omega0 if compensated else p.omega0 - p.gamma
    s00, s01, s10, s11 = _static_entries(omega0, p.omega1, p.phase0, t)
    r0, _, _, r1 = _rot_z_entries(p.gamma * t)
    return (r0 * s00, r0 * s01, r1 * s10, r1 * s11)


def propagator_uncompensated(p: FieldParams, t: float) -> np.ndarray:
    """Evolution operator of the bare rotating field (no compensation)."""
    if p.omega_z != 0.0:
        raise ValueError("uncompensated propagator requires omega_z = 0")
    u_static = _static_propagator(p.omega0 - p.gamma, p.omega1, p.phase0, t)
    return rot_z(p.gamma * t) @ u_static


def propagator_compensated(p: FieldParams, t: float) -> np.ndarray:
    """Evolution operator with the compensation field omega_z = gamma on.

    Applied to an eigenstate of the frozen field Hamiltonian this returns
    the instantaneous eigenstate at every time; after one full revolution
    the state returns to itself up to a phase, exactly.
    """
    if p.omega_z != p.gamma:
        raise ValueError("compensated propagator requires omega_z = gamma")
    u_static = _static_propagator(p.omega0, p.omega1, p.phase0, t)
    return rot_z(p.gamma * t) @ u_static


def loop_duration(p: FieldParams) -> float:
    """Time of one full field revolution, 2 pi / |gamma|."""
    if p.gamma == 0.0:
        raise ValueError("no loop is defined for gamma = 0")
    return 2 * np.pi / abs(p.gamma)


def loop_with_profile(p: FieldParams, profile: SpeedProfile) -> np.ndarray:
    """Closed-form propagator for one revolution traversed with a
    time-dependent speed, compensation tracking gamma_a(t)."""
    if abs(abs(profile.total_angle) - 2 * np.pi) > 1e-9:
        raise ValueError("profile does not integrate to a full revolution")
    u_static = _static_propagator(p.omega0, p.omega1, p.phase0, profile.duration)
    return rot_z(profile.total_angle) @ u_static


LOOP_BLOCK = 4096  # speeds whose propagator stacks loop_infidelities holds at once


def loop_infidelities(
    omega0: float, omega1: float, gamma, phase0: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Infidelity 1 - |<psi0| U(tau) |psi0>|^2 after one revolution, for a
    1-d array of speeds gamma: (uncompensated, compensated), psi0 the upper
    eigenstate of the frozen field Hamiltonian.

    The propagators are built as stacks of LOOP_BLOCK speeds at a time, so
    memory stays bounded at any sweep length; the final dot product stays
    per point, because a batched one sums in another order than BLAS does
    for a single pair of vectors. The uncompensated column squares the
    overlap modulus by power and the compensated one by product; the two
    can round apart in the last bit, and each column keeps its own so that
    printed sweeps stay byte-stable.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma == 0.0):
        raise ValueError("no loop is defined for gamma = 0")
    theta = np.arctan2(omega1, omega0)
    psi0 = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phase0)])
    psi0c = psi0.conj()
    uncompensated = np.empty(gamma.shape)
    compensated = np.empty(gamma.shape)
    for start in range(0, gamma.size, LOOP_BLOCK):
        block = slice(start, start + LOOP_BLOCK)
        g = gamma[block]
        tau = 2 * np.pi / np.abs(g)
        frame = rot_z(g * tau)
        u_un = frame @ _static_propagator(omega0 - g, omega1, phase0, tau)
        u_co = frame @ _static_propagator(omega0, omega1, phase0, tau)
        a_un = [abs(psi0c @ v) for v in u_un @ psi0]
        a_co = np.array([abs(psi0c @ v) for v in u_co @ psi0])
        uncompensated[block] = [max(0.0, 1.0 - a**2) for a in a_un]
        compensated[block] = np.maximum(0.0, 1.0 - a_co * a_co)
    return uncompensated, compensated


def adiabatic_error(p: FieldParams) -> float:
    """Infidelity 1 - |<psi0| U(tau) |psi0>|^2 of the uncompensated loop,
    psi0 the upper eigenstate of the frozen field Hamiltonian."""
    if p.omega_z != 0.0:
        raise ValueError("adiabatic_error is defined for the uncompensated field")
    uncompensated, _ = loop_infidelities(p.omega0, p.omega1, [p.gamma], p.phase0)
    return float(uncompensated[0])


# ---------------------------------------------------------------------------
# stepped integrator

BLOCK_STEPS = 4096  # midpoints sampled, exponentiated and reduced at a time
MAX_STEPS = 50_000_000  # steps one integrate call may take, checked before allocation


class _SU2:
    """2x2 steps as Cayley-Klein pairs: exp(-i h dt) = exp(-i c dt) U with
    U = [[a, -conj(b)], [b, conj(a)]] in SU(2), stored as (..., 2) arrays of
    (a, b); the phase c (the half trace of h) is summed separately."""

    identity = np.array([1.0, 0.0], dtype=complex)

    @staticmethod
    def exp(h: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        c = 0.5 * (h[..., 0, 0].real + h[..., 1, 1].real)
        z = h[..., 0, 0].real - c
        x = h[..., 0, 1]
        r = np.sqrt(z * z + x.real * x.real + x.imag * x.imag)
        sinc = np.sin(r * dt) / np.where(r == 0.0, 1.0, r)
        ck = np.empty(h.shape[:-2] + (2,), dtype=complex)
        parts = ck.view(float)  # a.real, a.imag, b.real, b.imag
        parts[..., 0] = np.cos(r * dt)
        parts[..., 1] = -sinc * z
        parts[..., 2] = -sinc * x.imag
        parts[..., 3] = -sinc * x.real
        return ck, c

    @staticmethod
    def compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
        """Pairs of later @ earlier; earlier broadcasts against later."""
        a2, b2 = later[..., 0], later[..., 1]
        a1, b1 = earlier[..., 0], earlier[..., 1]
        out = np.empty(later.shape, dtype=complex)
        out[..., 0] = a2 * a1 - b2.conj() * b1
        out[..., 1] = b2 * a1 + a2.conj() * b1
        return out

    @staticmethod
    def normalize(ck: np.ndarray) -> np.ndarray:
        """Project back onto SU(2), dropping the norm drift of rounding."""
        return ck / np.sqrt(np.sum(ck.real**2 + ck.imag**2, axis=-1, keepdims=True))

    @staticmethod
    def matrix(ck: np.ndarray) -> np.ndarray:
        a, b = ck[..., 0], ck[..., 1]
        out = np.empty(ck.shape[:-1] + (2, 2), dtype=complex)
        out[..., 0, 0] = a
        out[..., 0, 1] = -b.conj()
        out[..., 1, 0] = b
        out[..., 1, 1] = a.conj()
        return out


class _Dense:
    """d x d steps as matrices from a Hermitian eigendecomposition, the
    phase kept inside."""

    compose = staticmethod(np.matmul)

    def __init__(self, d: int) -> None:
        self.identity = np.eye(d, dtype=complex)

    @staticmethod
    def exp(h: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(h)
        u = np.einsum("...ik,...k,...jk->...ij", vecs, np.exp(-1j * vals * dt), vecs.conj())
        return u, np.zeros(h.shape[:-2])

    @staticmethod
    def normalize(u: np.ndarray) -> np.ndarray:
        return u

    matrix = normalize  # the elements already are the matrices


def _segment_products(kernel, elems: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Ordered product of every run elems[s : s + n], (s, n) in zip(starts,
    lengths), by pairwise reduction vectorised across the runs."""
    if starts.size == 1:
        rows = elems[None]
    else:
        offsets = np.arange(int(lengths.max()))
        rows = np.take(elems, np.minimum(starts[:, None] + offsets, len(elems) - 1), axis=0)
        rows[offsets >= lengths[:, None]] = kernel.identity
    width = rows.shape[1]
    while width > 1:
        even = width - width % 2
        pairs = kernel.compose(rows[:, 1:even:2], rows[:, 0:even:2])
        rows = np.concatenate([pairs, rows[:, even:]], axis=1) if width % 2 else pairs
        width = rows.shape[1]
    return rows[:, 0]


def _prefix_products(kernel, elems: np.ndarray) -> np.ndarray:
    """Running products elems[k] @ ... @ elems[0] for every k."""
    shift = 1
    while shift < len(elems):
        elems = np.concatenate([elems[:shift], kernel.compose(elems[shift:], elems[:-shift])])
        shift *= 2
    return elems


def _sampler(schedule, t: np.ndarray):
    """Samples of the schedule at t and a sampler for later time arrays.

    Whether the schedule takes a time array is decided here, once: a
    scalar-only callable shows itself by raising TypeError or ValueError on
    the array or by returning the wrong shape, and is then called per time.
    Any other error is the schedule's own and propagates.
    """
    try:
        h = np.asarray(schedule(t), dtype=complex)
        vectorised = h.ndim == 3 and h.shape[0] == t.size and h.shape[1] == h.shape[2]
    except (TypeError, ValueError):
        vectorised = False
    if vectorised:
        def sample(times):
            return np.asarray(schedule(times), dtype=complex)
    else:
        def sample(times):
            return np.stack([np.asarray(schedule(float(x)), dtype=complex) for x in times])
        h = sample(t)
    return h, sample


def _check_samples(h: np.ndarray, m: int, d: int) -> np.ndarray:
    if h.shape != (m, d, d):
        raise ValueError(f"schedule returned shape {h.shape}, expected {(m, d, d)}")
    if not np.all(np.isfinite(h)):
        raise ValueError("schedule produced a non-finite Hamiltonian sample")
    return h


def integrate(
    schedule: Callable[[np.ndarray], np.ndarray],
    t_end: float,
    steps_per_unit: float = 1000,
    *,
    total_steps: int | None = None,
    psi0: np.ndarray | None = None,
    samples: int = 257,
) -> Trajectory:
    """Propagate under a time-dependent Hamiltonian by a product of exact
    midpoint exponentials.

    schedule        t -> Hamiltonian; called with arrays of midpoints when
                    it accepts them, per midpoint otherwise
    t_end           final time (>= 0)
    steps_per_unit  step density; the step count is steps_per_unit * t_end
                    rounded, unless total_steps is given explicitly
    psi0            initial state; defaults to the first basis vector
    samples         number of recorded sample points (capped by the step count)

    Returns a Trajectory carrying states and propagators at the sample
    points, with hamiltonian_at = schedule.
    """
    if not np.isfinite(t_end) or t_end < 0:
        raise ValueError("t_end must be finite and nonnegative")
    if t_end == 0.0:
        n_steps = 0
    elif total_steps is None:
        n_steps = max(1, int(round(steps_per_unit * t_end)))
    else:
        n_steps = int(total_steps)
        if n_steps < 1:
            raise ValueError("total_steps must be at least 1")
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"step budget exceeded: {n_steps} steps requested, at most {MAX_STEPS:,} allowed"
        )

    dt = t_end / n_steps if n_steps else 0.0
    # the first block doubles as the dimension probe (t = 0 without steps)
    h, sample = _sampler(schedule, (np.arange(min(max(n_steps, 1), BLOCK_STEPS)) + 0.5) * dt)
    d = h.shape[-1]
    if psi0 is None:
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
    psi0 = require_finite(np.asarray(psi0, dtype=complex), "psi0")
    if n_steps == 0:
        eye = np.eye(d, dtype=complex)[None]
        return Trajectory(np.zeros(1), psi0[None, :], eye, schedule)

    kernel = _SU2 if d == 2 else _Dense(d)
    n_rec = int(min(max(2, samples), n_steps + 1))
    bounds = np.unique(np.round(np.linspace(0, n_steps, n_rec)).astype(int))
    ends = bounds[1:]
    recorded, recorded_phase = [kernel.identity[None]], [np.zeros(1)]
    carry, carry_phase = kernel.identity, 0.0
    for start in range(0, n_steps, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n_steps)
        if start:
            h = sample((np.arange(start, stop) + 0.5) * dt)
        elems, c = kernel.exp(_check_samples(h, stop - start, d), dt)
        inner = ends[np.searchsorted(ends, start, "right") : np.searchsorted(ends, stop)]
        seg_starts = np.concatenate(([start], inner)) - start
        seg_stops = np.concatenate((inner, [stop])) - start
        segs = _segment_products(kernel, elems, seg_starts, seg_stops - seg_starts)
        total = kernel.compose(_prefix_products(kernel, segs), carry)
        total_phase = carry_phase + dt * np.cumsum(np.add.reduceat(c, seg_starts))
        keep = inner.size + int(ends[np.searchsorted(ends, stop)] == stop)
        recorded.append(total[:keep])
        recorded_phase.append(total_phase[:keep])
        carry, carry_phase = kernel.normalize(total[-1]), total_phase[-1]

    phase = np.exp(-1j * np.concatenate(recorded_phase))
    props = kernel.matrix(np.concatenate(recorded)) * phase[:, None, None]
    states = np.einsum("kij,j->ki", props, psi0)
    times = bounds * dt
    times[-1] = t_end
    return Trajectory(times, states, props, schedule)


def integrate_loop(
    p: FieldParams,
    compensated: bool,
    steps_per_loop: int = 10_000,
    revolutions: float = 1.0,
    *,
    psi0: np.ndarray | None = None,
    samples: int = 257,
) -> Trajectory:
    """Integrator run over `revolutions` full revolutions of the field."""
    schedule = (lambda t: h_compensated(p, t)) if compensated else (lambda t: h_rotating(p, t))
    t_end = revolutions * loop_duration(p)
    return integrate(
        schedule,
        t_end,
        total_steps=max(1, int(round(steps_per_loop * revolutions))),
        psi0=psi0,
        samples=samples,
    )


def integrate_profile(
    p: FieldParams,
    profile: SpeedProfile,
    steps_per_loop: int = 10_000,
    *,
    psi0: np.ndarray | None = None,
    samples: int = 257,
) -> Trajectory:
    """Integrator run over one revolution traversed with a speed profile."""
    return integrate(
        lambda t: h_profile(p, profile, t),
        profile.duration,
        total_steps=steps_per_loop,
        psi0=psi0,
        samples=samples,
    )
