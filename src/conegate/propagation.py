"""Closed-form propagators for rotating-field evolutions and an independent
stepped integrator used as the ground-truth oracle.

The closed forms factor the evolution as a frame rotation times a static
exponential:

    uncompensated:  U(t)   = exp(-i gamma t sigma_z / 2) exp(-i H1 t),
                    H1     = H0 - gamma sigma_z / 2
    compensated:    U_W(t) = exp(-i gamma t sigma_z / 2) exp(-i H0 t)

with H0 the field Hamiltonian frozen at t = 0 and the frame factor in the
half-angle convention exp(-i gamma t sigma_z / 2); both factorizations
solve i dU/dt = H(t) U exactly. Each factor is an SU(2) closed form,
written once per representation: Python complex entries for one point
(_static_entries, _z_entries) and numpy stacks for sweeps and
trajectories (_static_stack, _z_stack). A stack runs the entries' IEEE
operations in the same order, so it reproduces the per-point bits, up to
the sign of a zero at a null field or a zero angle: |b| is abs(complex)
like numpy's hypot (math.hypot rounds apart), and math.cos and math.sin
are numpy's, also inside its complex exp of a zero-real argument.

A sweep over speeds (loop_infidelities) builds its propagators as stacks,
LOOP_BLOCK speeds at a time. Only the final overlap <psi0|U|psi0> stays
per point: a batched complex dot product would sum in another order than
the BLAS dot of one pair, and the printed sweeps must keep their bytes.
The ndarray propagators keep the frame product a BLAS matmul, whose fused
multiply-adds Python cannot reproduce; _propagator_entries takes it in
Python for callers that compose in Python (sequences) and can round an
entry one ulp apart.

The integrator multiplies per-step exact exponentials of the Hamiltonian
sampled at step midpoints (second-order Magnus). Every step is exactly
unitary; accuracy is controlled solely by the step count, and the global
defect shrinks quadratically under step halving.

The midpoints are drawn in blocks of BLOCK_STEPS. Each block is
exponentiated at once, its steps are multiplied pairwise within every
recorded interval (vectorised across the intervals), and the interval
products are composed in order with the running product, so memory is
O(block + samples) whatever the step count. 2x2 steps stay in
Cayley-Klein form (a, b) with their trace phase summed apart, and the
running product is projected back onto SU(2) after every block, so
rounding does not drift the norm. They are built from the components
(z, x) of the traceless part of the Hamiltonian: a FieldSchedule (a
rotating-field run, as integrate_loop and the loops of sequences give
it) yields them directly from the field's time and phase, any other
schedule is called and its 2x2 samples are read back. Either way one
workspace per call holds the block's components, its pairs and every
temporary of the reductions, and numpy writes into it with out= in the
operation order of fresh arrays, so the bits do not depend on the
path. Larger dimensions use an eigh exponential and matrix products on
fresh arrays. Callers with block-diagonal 4x4 propagators (the
conditional loop of sequences) integrate each 2x2 block on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .hamiltonians import FieldParams, FieldSchedule
from .linalg import require_finite


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


def _z_entries(alpha: float) -> tuple:
    """diag(exp(i alpha), exp(-i alpha)) of one half-angle as its entries
    (u00, u01, u10, u11) in Python complex: cos and sin of +-alpha, which is
    numpy's complex exp of a zero-real argument, so _z_stack's bits away
    from a zero angle."""
    return (complex(math.cos(alpha), math.sin(alpha)), 0j, 0j,
            complex(math.cos(-alpha), math.sin(-alpha)))


def _z_stack(alpha) -> np.ndarray:
    """diag(exp(i alpha), exp(-i alpha)) over an array of half-angles, as an
    (..., 2, 2) stack."""
    alpha = np.asarray(alpha, dtype=float)
    out = np.zeros(alpha.shape + (2, 2), dtype=complex)
    # the exponents' imaginary parts are 0 + alpha and 0 + (-alpha), so a
    # zero angle gives +0 in both entries
    out[..., 0, 0] = np.exp(1j * alpha)
    out[..., 1, 1] = np.exp(1j * -alpha)
    return out


def rot_z(angle: float | np.ndarray) -> np.ndarray:
    """exp(-i angle sigma_z / 2), broadcasting over angle."""
    if isinstance(angle, (int, float)):
        return np.array(_z_entries(-0.5 * angle)).reshape(2, 2)
    return _z_stack(-0.5 * np.asarray(angle, dtype=float))


def _static_entries(omega0: float, omega1: float, phase0: float, t: float) -> tuple:
    """exp(-i H0 t) at one point as its entries (u00, u01, u10, u11), H0 =
    [[hz, hx - i hy], [hx + i hy, -hz]] the frozen field Hamiltonian.

    Closed form cos(r t) I - i sin(r t) n.sigma with r n.sigma = H0 (H0 is
    traceless, so there is no phase factor); |b| is abs(complex), which is
    numpy's hypot, and n.sigma is taken as H0 times 1 / r."""
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


def _static_stack(omega0: np.ndarray, omega1: float, phase0: float, t) -> np.ndarray:
    """_static_entries' operations over arrays of omega0 and t, as an
    (..., 2, 2) stack; a null field gives the identity up to zero signs."""
    hz = 0.5 * omega0
    hx = 0.5 * (omega1 * math.cos(phase0))
    hy = 0.5 * (omega1 * math.sin(phase0))
    r = np.hypot(hz, abs(complex(hx, hy)))
    scale = 1.0 / np.where(r == 0.0, 1.0, r)
    rt = r * t
    cos, sin = np.cos(rt), np.sin(rt)
    z, x, y = sin * (hz * scale), sin * (hx * scale), sin * (hy * scale)
    out = np.empty(rt.shape + (2, 2), dtype=complex)
    out.real[..., 0, 0], out.imag[..., 0, 0] = cos, -z
    out.real[..., 0, 1], out.imag[..., 0, 1] = -y, -x
    out.real[..., 1, 0], out.imag[..., 1, 0] = y, -x
    out.real[..., 1, 1], out.imag[..., 1, 1] = cos, z
    return out


def _static_propagator(omega0, omega1: float, phase0: float, t) -> np.ndarray:
    """exp(-i H0 t) of the frozen field Hamiltonian, broadcasting over omega0
    and t: one point (omega0 and t Python or numpy floats) as
    _static_entries, anything else as _static_stack, with the same bits."""
    scalar = isinstance(omega0, (int, float)) and isinstance(t, (int, float))
    if not (math.isfinite(t) if scalar else np.isfinite(t).all()):
        raise ValueError("duration must be finite")
    if scalar:
        return np.array(_static_entries(float(omega0), omega1, phase0, float(t))).reshape(2, 2)
    return _static_stack(np.asarray(omega0, dtype=float), omega1, phase0, np.asarray(t))


def _propagator_entries(omega0: float, omega1: float, gamma: float, phase0: float, t: float,
                        compensated: bool) -> tuple:
    """propagator_compensated (or propagator_uncompensated) of the field
    (omega0, omega1, gamma, phase0) at one time as its entries (u00, u01,
    u10, u11), for callers that compose in Python.

    The frame product rot_z(gamma t) @ exp(-i H t) is taken in Python
    complex here; the ndarray propagators take it with BLAS, whose fused
    multiply-adds can round an entry one ulp apart."""
    if not compensated:
        omega0 = omega0 - gamma
    s00, s01, s10, s11 = _static_entries(omega0, omega1, phase0, t)
    r0, _, _, r1 = _z_entries(-0.5 * (gamma * t))
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
TRIG_TABLE = 64  # distinct step norms whose cos and sin a block evaluates once each


class _SU2:
    """2x2 steps as Cayley-Klein pairs: exp(-i h dt) = exp(-i c dt) U with
    U = [[a, -conj(b)], [b, conj(a)]] in SU(2), stored as (..., 2) arrays of
    (a, b); the phase c (the half trace of h) is summed separately.

    An instance is the workspace of one integrate call. A block's steps
    enter as the traceless part [[z, x], [conj(x), -z]] of h, negated: -z
    and the rows (-x.real, -x.imag) of a buffer. Their pairs and every
    temporary of the reductions are buffers too, written with out= in the
    order of operations of a fresh-array evaluation; the views that a block
    size or a reduction reads and writes are made once and then reused.
    No complex product writes over one of its own operands: numpy runs a
    strided in-place product through another, unfused loop, which rounds
    apart."""

    identity = np.array([1.0, 0.0], dtype=complex)

    def __init__(self, m: int) -> None:
        self._pairs = np.empty((m, 2), dtype=complex)
        self._neg_x = np.empty((2, m))
        self._real = np.empty((5, m))
        self._bits = np.empty(m, dtype=np.int64)
        self._temps = np.empty((5, m // 2 + 1), dtype=complex)
        self._spare = self._rows = np.empty((0, 2), dtype=complex)
        self._index = np.empty(0, dtype=np.intp)
        self._pad = np.empty(0, dtype=bool)
        self._blocks: dict = {}  # steps in a block -> views of the buffers, reduction plan

    def _block(self, m: int) -> SimpleNamespace:
        v = self._blocks.get(m)
        if v is None:
            neg_x, parts = self._neg_x[:, :m], self._pairs[:m].view(float)
            phase, r, rdt, sinc, cos = self._real[:, :m]
            v = self._blocks[m] = SimpleNamespace(
                steps=np.arange(m, dtype=float), neg_x=neg_x, neg_x_swapped=neg_x[::-1],
                neg_z=phase, phase=phase, r=r, rdt=rdt, sinc=sinc, cos=cos,
                squares=self._real[2:4, :m], bits=self._bits[:m], pairs=self._pairs[:m],
                a_re=parts[:, 0], a_im=parts[:, 1], b=parts[:, 2:].T, plan=None,
            )
        return v

    def field(self, f: FieldSchedule, start: int, stop: int, dt: float) -> float:
        """Write the record's field at the midpoints of steps start..stop
        into the block's -x rows and return -z.

        x = omega1 / 2 exp(-i phase), and numpy's complex exp of -i phase
        is cos and sin of -phase; -phase is taken as (-gamma) s + (-phase0),
        which rounds to exactly -(gamma s + phase0)."""
        v = self._block(stop - start)
        phase, neg_x = v.phase, v.neg_x
        np.add(v.steps, start + 0.5, out=phase)
        np.multiply(phase, dt, out=phase)
        if f.sign < 0:
            np.subtract(f.t_end, phase, out=phase)
        np.multiply(-f.gamma, phase, out=phase)
        np.add(phase, -f.phase0, out=phase)
        np.cos(phase, out=neg_x[0])
        np.sin(phase, out=neg_x[1])
        half = 0.5 * f.omega1
        np.multiply(-half if f.sign > 0 else half, neg_x, out=neg_x)
        z = 0.5 * f.vertical
        return -z if f.sign > 0 else z

    def samples(self, h: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Write a block of sampled 2x2 Hamiltonians with half traces c into
        the block's -x rows and -z row; returns -z."""
        v = self._block(len(h))
        np.negative(h[:, 0, 0].real - c, out=v.neg_z)
        np.negative(h[:, 0, 1].real, out=v.neg_x[0])
        np.negative(h[:, 0, 1].imag, out=v.neg_x[1])
        return v.neg_z

    def exp(self, neg_z, m: int, dt: float) -> np.ndarray:
        """Pairs of the block's m steps exp(-i h dt), from its -x rows and
        -z (a float or an array).

        cos(r dt) and sin(r dt) / r are taken once per distinct r when r
        spans at most TRIG_TABLE floats, as it does along a field loop
        (|x| is constant up to rounding): the bit patterns of nonnegative
        floats count up with their values, so r's offset from the least r
        in bit patterns indexes a table of the values in between."""
        v = self._block(m)
        r, sinc = v.r, v.sinc
        np.multiply(v.neg_x, v.neg_x, out=v.squares)
        np.add(neg_z * neg_z, v.squares[0], out=r)
        np.add(r, v.squares[1], out=r)
        np.sqrt(r, out=r)
        bits = r.view(np.int64)
        low, high = int(bits.min()), int(bits.max())
        if high - low < TRIG_TABLE:
            np.subtract(bits, low, out=v.bits)
            values = np.arange(low, high + 1, dtype=np.int64).view(float)
            values_dt = values * dt
            table = np.sin(values_dt) / np.where(values == 0.0, 1.0, values)
            np.take(table, v.bits, out=sinc, mode="clip")
            np.take(np.cos(values_dt), v.bits, out=v.a_re, mode="clip")
        else:
            np.multiply(r, dt, out=v.rdt)
            np.sin(v.rdt, out=sinc)
            np.cos(v.rdt, out=v.cos)
            np.divide(sinc, r if r.all() else np.where(r == 0.0, 1.0, r), out=sinc)
            v.a_re[...] = v.cos
        np.multiply(sinc, neg_z, out=v.a_im)
        np.multiply(sinc, v.neg_x_swapped, out=v.b)  # b = -i sinc conj(x)
        return v.pairs

    def operands(self, later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> tuple:
        """The arrays run() reads and writes for the pairs of later @ earlier
        into out: earlier broadcasts against later, and out may overlap
        either, as the products go to temporaries first."""
        shape = later.shape[:-1]
        n = math.prod(shape)
        if n > self._temps.shape[1]:
            self._temps = np.empty((5, n), dtype=complex)
            self._blocks.clear()  # their plans read the old temporaries
        temps = self._temps[:, :n].reshape((5,) + shape)
        return (later[..., 0], later[..., 1], earlier[..., 0], earlier[..., 1],
                out[..., 0], out[..., 1], *temps)

    @staticmethod
    def run(a2, b2, a1, b1, a, b, aa, bb, ba, ab, conj) -> None:
        """a = a2 a1 - conj(b2) b1 and b = b2 a1 + conj(a2) b1."""
        np.multiply(a2, a1, out=aa)
        np.conjugate(b2, out=conj)
        np.multiply(conj, b1, out=bb)
        np.multiply(b2, a1, out=ba)
        np.conjugate(a2, out=conj)
        np.multiply(conj, b1, out=ab)
        np.subtract(aa, bb, out=a)
        np.add(ba, ab, out=b)

    def compose(self, later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.run(*self.operands(later, earlier, out))
        return out

    def plan(self, pairs: np.ndarray) -> list:
        """_reduction_plan of a block's pairs as exp() returns them, made
        once per block size: they are always the same buffer."""
        v = self._block(len(pairs))
        if v.plan is None:
            v.plan = _reduction_plan(self, pairs)
        return v.plan

    def rows(self, width: int, nseg: int) -> tuple:
        """Gather buffers for nseg runs of at most width steps: the rows
        (width, nseg, 2), their step indices and their padding mask."""
        n = width * nseg
        if n > len(self._rows):
            self._rows = np.empty((n, 2), dtype=complex)
            self._index = np.empty(n, dtype=np.intp)
            self._pad = np.empty(n, dtype=bool)
        shape = (width, nseg)
        return (self._rows[:n].reshape(shape + (2,)), self._index[:n].reshape(shape),
                self._pad[:n].reshape(shape))

    def spare(self, n: int) -> np.ndarray:
        if n > len(self._spare):
            self._spare = np.empty((n, 2), dtype=complex)
        return self._spare[:n]

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
    phase kept inside; its arrays are allocated as they are needed."""

    def __init__(self, d: int) -> None:
        self.identity = np.eye(d, dtype=complex)

    @staticmethod
    def exp_samples(h: np.ndarray, dt: float) -> np.ndarray:
        vals, vecs = np.linalg.eigh(h)
        return np.einsum("...ik,...k,...jk->...ij", vecs, np.exp(-1j * vals * dt), vecs.conj())

    @staticmethod
    def operands(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> tuple:
        return later, earlier, out

    compose = run = staticmethod(np.matmul)

    def plan(self, elems: np.ndarray) -> list:
        return _reduction_plan(self, elems)

    def rows(self, width: int, nseg: int) -> tuple:
        shape = (width, nseg)
        return (np.empty(shape + self.identity.shape, dtype=complex),
                np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool))

    def spare(self, n: int) -> np.ndarray:
        return np.empty((n,) + self.identity.shape, dtype=complex)

    @staticmethod
    def normalize(u: np.ndarray) -> np.ndarray:
        return u

    matrix = normalize  # the elements already are the matrices


def _reduction_plan(kernel, rows: np.ndarray) -> list:
    """Pairwise reduction of rows along their first axis, in place, as a
    list of levels: the kernel's operands composing each pair into
    the front of rows, and the (to, from) rows moving an odd last element
    behind them."""
    plan = []
    width = len(rows)
    while width > 1:
        half = width // 2
        pairs = kernel.operands(rows[1 : 2 * half : 2], rows[0 : 2 * half : 2], rows[:half])
        plan.append((pairs, (rows[half], rows[width - 1]) if width % 2 else None))
        width -= half
    return plan


def _segment_products(kernel, elems: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Ordered products of the runs of elems between the cuts (offsets into
    elems), as an (n_runs, ...) array, by pairwise reduction vectorised
    across the runs. The reduction runs in place: in elems itself for one
    run, else in the kernel's gather buffer, which holds step k of every
    run in row k, the runs shorter than the longest padded with the
    identity."""
    if cuts.size == 0:
        rows, plan = elems, kernel.plan(elems)
    else:
        starts = np.concatenate(([0], cuts))
        lengths = np.diff(starts, append=len(elems))
        rows, index, pad = kernel.rows(int(lengths.max()), starts.size)
        offsets = np.arange(len(rows))[:, None]
        np.add(offsets, starts, out=index)
        np.take(elems, index, axis=0, out=rows, mode="clip")
        np.greater_equal(offsets, lengths, out=pad)
        rows[pad] = kernel.identity
        plan = _reduction_plan(kernel, rows)
    for pairs, move in plan:
        kernel.run(*pairs)
        if move is not None:
            move[0][...] = move[1]
    return rows[0] if cuts.size else rows[:1]


def _prefix_products(kernel, elems: np.ndarray) -> np.ndarray:
    """Running products elems[k] @ ... @ elems[0] for every k, by doubling
    between elems and the kernel's spare buffer; returns the one holding
    them."""
    spare = kernel.spare(len(elems))
    shift = 1
    while shift < len(elems):
        spare[:shift] = elems[:shift]
        kernel.compose(elems[shift:], elems[:-shift], out=spare[shift:])
        elems, spare = spare, elems
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


def _check_field(f: FieldSchedule, t_end: float) -> None:
    """A record's samples over [0, t_end] are finite when its fields are and
    its phase is at both ends: the phase at a midpoint rounds between them,
    and the other components are bounded by the fields."""
    ends = (0.0, t_end) if f.sign > 0 else (f.t_end - t_end, f.t_end)
    phases = tuple(f.gamma * s + f.phase0 for s in ends)
    if not all(map(math.isfinite, (f.vertical, f.omega1, f.gamma, f.phase0) + phases)):
        raise ValueError("schedule produced a non-finite Hamiltonian sample")


def _recorded_samples(samples: int, n_steps: int) -> int:
    """Sample points a run of n_steps records when asked for samples: the
    start and the end at least, one per step boundary at most."""
    return int(min(max(2, samples), n_steps + 1))


def integrate(
    schedule: Callable[[np.ndarray], np.ndarray],
    t_end: float,
    *,
    total_steps: int,
    psi0: np.ndarray | None = None,
    samples: int = 257,
) -> Trajectory:
    """Propagate under a time-dependent Hamiltonian by a product of exact
    midpoint exponentials.

    schedule        t -> Hamiltonian; called with arrays of midpoints when
                    it accepts them, per midpoint otherwise. A FieldSchedule
                    is read as its components instead of being called.
    t_end           final time (>= 0)
    total_steps     step count (at least 1; no steps are taken when t_end is 0)
    psi0            initial state; defaults to the first basis vector
    samples         number of recorded sample points (capped by the step count)

    Returns a Trajectory carrying states and propagators at the sample
    points, with hamiltonian_at = schedule.
    """
    if not np.isfinite(t_end) or t_end < 0:
        raise ValueError("t_end must be finite and nonnegative")
    if t_end == 0.0:
        n_steps = 0
    else:
        n_steps = int(total_steps)
        if n_steps < 1:
            raise ValueError("total_steps must be at least 1")
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"step budget exceeded: {n_steps} steps requested, at most {MAX_STEPS:,} allowed"
        )

    dt = t_end / n_steps if n_steps else 0.0
    m = min(max(n_steps, 1), BLOCK_STEPS)
    field = isinstance(schedule, FieldSchedule)
    if field:
        _check_field(schedule, t_end)
        d = 2
    else:
        # the first block doubles as the dimension probe (t = 0 without steps)
        h, sample = _sampler(schedule, (np.arange(m) + 0.5) * dt)
        d = h.shape[-1]
    if psi0 is None:
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
    psi0 = require_finite(np.asarray(psi0, dtype=complex), "psi0")
    if n_steps == 0:
        eye = np.eye(d, dtype=complex)[None]
        return Trajectory(np.zeros(1), psi0[None, :], eye, schedule)

    kernel = _SU2(m) if d == 2 else _Dense(d)
    n_rec = _recorded_samples(samples, n_steps)
    bounds = np.round(np.linspace(0, n_steps, n_rec)).astype(int)
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]  # ascending, so unique is a diff
    ends = bounds[1:]
    recorded = np.empty((bounds.size,) + kernel.identity.shape, dtype=complex)
    recorded[0] = kernel.identity
    recorded_phase = np.zeros(bounds.size)  # stays 0 where no phase is kept apart
    carry, carry_phase, done = kernel.identity, 0.0, 1
    for start in range(0, n_steps, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n_steps)
        c = None
        if field:
            elems = kernel.exp(kernel.field(schedule, start, stop, dt), stop - start, dt)
        else:
            if start:
                h = sample((np.arange(start, stop) + 0.5) * dt)
            h = _check_samples(h, stop - start, d)
            if d == 2:
                c = 0.5 * (h[:, 0, 0].real + h[:, 1, 1].real)
                elems = kernel.exp(kernel.samples(h, c), stop - start, dt)
            else:
                elems = kernel.exp_samples(h, dt)
        first, last = np.searchsorted(ends, start, "right"), np.searchsorted(ends, stop)
        cuts = ends[first:last] - start
        segs = _segment_products(kernel, elems, cuts)
        prefix = _prefix_products(kernel, segs)
        total = kernel.compose(prefix, carry, out=prefix)
        keep = cuts.size + int(ends[last] == stop)
        recorded[done : done + keep] = total[:keep]
        if c is not None:
            seg_phase = np.add.reduceat(c, np.concatenate(([0], cuts)))
            total_phase = carry_phase + dt * np.cumsum(seg_phase)
            recorded_phase[done : done + keep] = total_phase[:keep]
            carry_phase = total_phase[-1]
        carry = kernel.normalize(total[-1])
        done += keep

    phase = np.exp(-1j * recorded_phase)
    props = kernel.matrix(recorded) * phase[:, None, None]
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
    t_end = revolutions * loop_duration(p)
    return integrate(
        FieldSchedule.of(p, compensated),
        t_end,
        total_steps=max(1, int(round(steps_per_loop * revolutions))),
        psi0=psi0,
        samples=samples,
    )
