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
(_static_entries, _z_entries), which the composites of sequences take,
and numpy stacks (_static_stack, _z_stack), which every ndarray
propagator takes, one point included (_static_propagator and rot_z have
no scalar fork). A stack runs the entries' IEEE operations in the same
order, so it reproduces the per-point bits, up to the sign of a zero at a
null field or a zero angle: |b| is abs(complex) like numpy's hypot
(math.hypot rounds apart), and math.cos and math.sin are numpy's, also
inside its complex exp of a zero-real argument.

A sweep over speeds (loop_infidelities) builds its propagators as stacks,
LOOP_BLOCK speeds at a time, and takes a block's overlaps <psi0|U|psi0> in
one np.vecdot. Its inner loop is the dot of one pair, which numpy hands to
BLAS's conjugating dot; conjugation only flips signs, so each overlap sums
as psi0.conj() @ v does and keeps the per-point bits (tests compare the
two by bytes on 100,000 pairs). The modulus and the squares stay per point
on Python floats: numpy's abs of a complex array rounds apart from hypot,
and its array square is a product where the uncompensated column takes
pow, so the printed sweeps would lose their bytes.
The ndarray propagators keep the frame product a BLAS matmul, whose fused
multiply-adds Python cannot reproduce; sequences._loop_closed_form takes
it in Python, for its composition in Python, and can round an entry one
ulp apart.

The integrator multiplies per-step exact exponentials of the Hamiltonian
sampled at step midpoints (second-order Magnus). Every step is exactly
unitary; accuracy is controlled solely by the step count, and the global
defect shrinks quadratically under step halving.

Three sizes shape a run. The association block of BLOCK_STEPS fixes the
order of every product: its steps are multiplied pairwise within every
recorded interval (vectorised across the intervals), and the interval
products are composed in order with the running product, so memory is
O(pass + samples) whatever the step count. The evaluation pass is how
many steps are sampled, exponentiated and reduced at once: up to
PASS_BLOCKS whole blocks in a row that no recorded end falls inside,
and any other block (one with an end inside, and the partial last
block) on its own: a block with ends inside gathers its intervals into
a padded buffer, and gathers over several blocks measured slower than
one block at a time. A multi-block pass has one run per block, and since
BLOCK_STEPS is a power of two, one flat pairwise sweep over the pass
that stops at one product per block pairs, level by level, the same
steps as each block's own tree. The window is how many blocks' interval
products are carried at once: blocks in a row, sized from the recorded
bounds before it fills, whose intervals, each block's padded at its end
with the identity to the most that any of them holds, number at most
PASS_BLOCKS BLOCK_STEPS. A full window's (intervals, blocks) stack takes
its prefix products in one doubling, and then one carry loop, in block
order, composes each block's prefixes with the running product, records
the samples that end in the block and projects the running product
back. Padding at the end of a block's column never enters a kept prefix,
and every product keeps its operands and their order, so neither a pass
nor a window changes a bit; they only spend fewer numpy calls per step,
and a window's memory stays of the order of a pass's whatever the
samples. One block plan (_block_plan) derives all of this structure once
per call, and the pass loop, the windows and the carry loop read it.

_integrate picks the kernel once, by the kind of input, and the kernel
owns that input: it checks it and hands out each pass's steps (steps()).
A FieldSchedule (a rotating-field run, as every loop of sequences gives
it) goes to _SU2: its steps are built from the field's time and phase as
the components (z, x) of its traceless Hamiltonian, stay in Cayley-Klein
form (a, b), and the running product is projected back onto SU(2) after
every block, so rounding does not drift the norm. One workspace per call
holds the pass's components, its pairs and every temporary of the
reductions, and numpy writes into it with out= in the operation order of
fresh arrays. The workspace is one allocation, sized from the records
the call stacks, made by the first pass and freed when the call returns.
Any callable, 2x2 or larger, goes to _Dense, whose first pass's samples
are the dimension probe: an eigh exponential per step and matrix
products on fresh arrays.

Field records that differ only in their vertical field share the field's
phase at every step, and _integrate runs a tuple of them as one stacked
run: the two spin-b sectors of a conditional loop, the 2x2 blocks of its
block-diagonal 4x4 propagator, which sequences._integrate_loop builds
that way. The phase, its cos and sin, the passes and the reduction plans
are made once. Each record's pairs go to one stacked buffer, all records'
runs reduce in one call, the window's prefix products double once over
its (runs, blocks, records, 2) stack, and the composition with the
running products and the projection each run once on (runs, records, 2)
stacks. Each record keeps the bytes of a run of its own: the stack
changes which numpy calls carry an operation, never the operation.
numpy's complex product is a fused multiply-add, except that it rounds
unfused where one-element operands of different ranks broadcast, so a
record run alone keeps its rank-one shapes (_by_run).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .hamiltonians import FieldParams, FieldSchedule, _check_omega_z
from .linalg import check_finite, require_finite


@dataclass(frozen=True)
class Trajectory:
    """Sampled state history of one evolution.

    times          ascending sample times, starting at 0
    states         (n, d) complex array, states[k] at times[k]
    propagators    optional (n, d, d) array with states[k] = propagators[k] @ states[0]
    hamiltonian_at optional accessor t -> (d, d) Hamiltonian used to
                   generate the evolution (vectorized over t where possible)

    A piecewise run (sequence_trajectory) also keeps its timed segments in
    _segments, each as (start time, end time, the segment's own accessor
    of the time since its start, first sample, sample count).
    """

    times: np.ndarray
    states: np.ndarray
    propagators: np.ndarray | None = None
    hamiltonian_at: Callable[[np.ndarray], np.ndarray] | None = None
    _segments = ()  # not a field: one smooth run has none

    def __post_init__(self) -> None:
        times, states = _checked_samples(self.times, self.states)
        if self.propagators is not None:
            props = np.asarray(self.propagators, dtype=complex)
            replay = np.einsum("kij,j->ki", props, states[0]) if len(states) else states
            if np.max(np.abs(replay - states), initial=0.0) > 1e-9:
                raise ValueError("recorded propagators do not reproduce the states")
            object.__setattr__(self, "propagators", props)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @classmethod
    def _of_run(cls, times, states, propagators, hamiltonian_at, segments=()) -> "Trajectory":
        """The trajectory of a run whose states are its propagators applied
        to the initial state, as an integrator run or a simulated sequence
        builds them: the replay of __post_init__ cannot fail there, so it is
        skipped, and the time and norm checks are kept."""
        self = object.__new__(cls)
        times, states = _checked_samples(times, states)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "propagators", propagators)
        object.__setattr__(self, "hamiltonian_at", hamiltonian_at)
        object.__setattr__(self, "_segments", tuple(segments))
        return self


def _checked_samples(times, states) -> tuple:
    """times and states as float and complex arrays, refused unless the
    times ascend and every state is normalized."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.shape[0]:
        raise ValueError("times and states must have matching leading length")
    # each comparison is written so that a NaN fails it
    if times.size and not np.all(np.diff(times) >= 0):
        raise ValueError("times must be ascending")
    norms = np.linalg.norm(states, axis=1)
    if norms.size and not np.max(np.abs(norms - 1.0)) <= 1e-10:
        raise ValueError("trajectory states must stay normalized within 1e-10")
    return times, states


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
    """exp(-i angle sigma_z / 2), broadcasting over angle: _z_stack, also
    for one angle."""
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
    and t: _static_stack, also for one point."""
    # a NaN or an infinity among the times carries through the max
    check_finite(float(np.max(np.abs(t), initial=0.0)), "duration")
    return _static_stack(np.asarray(omega0, dtype=float), omega1, phase0, np.asarray(t))


def propagator_uncompensated(p: FieldParams, t: float) -> np.ndarray:
    """Evolution operator of the bare rotating field (no compensation)."""
    _check_omega_z(p, False)
    u_static = _static_propagator(p.omega0 - p.gamma, p.omega1, p.phase0, t)
    return rot_z(p.gamma * t) @ u_static


def propagator_compensated(p: FieldParams, t: float) -> np.ndarray:
    """Evolution operator with the compensation field omega_z = gamma on.

    Applied to an eigenstate of the frozen field Hamiltonian this returns
    the instantaneous eigenstate at every time; after one full revolution
    the state returns to itself up to a phase, exactly.
    """
    _check_omega_z(p, True)
    u_static = _static_propagator(p.omega0, p.omega1, p.phase0, t)
    return rot_z(p.gamma * t) @ u_static


def _revolution_time(gamma):
    """2 pi / |gamma|, the time of one field revolution, of one speed (on
    Python floats) or of an array of speeds; a zero speed makes no loop."""
    zero = (gamma == 0.0).any() if isinstance(gamma, np.ndarray) else gamma == 0.0
    if zero:
        raise ValueError("no loop is defined for gamma = 0")
    return 2 * math.pi / abs(gamma)


def loop_duration(p: FieldParams) -> float:
    """Time of one full field revolution, 2 pi / |gamma|."""
    return _revolution_time(p.gamma)


LOOP_BLOCK = 4096  # speeds whose propagator stacks loop_infidelities holds at once


def loop_infidelities(
    omega0: float, omega1: float, gamma, phase0: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Infidelity 1 - |<psi0| U(tau) |psi0>|^2 after one revolution, for a
    1-d array of speeds gamma: (uncompensated, compensated), psi0 the upper
    eigenstate of the frozen field Hamiltonian.

    The propagators are built as stacks of LOOP_BLOCK speeds at a time, so
    memory stays bounded at any sweep length, and each block's overlaps come
    from one np.vecdot, whose per-pair BLAS dot sums as the dot of one pair
    does. The modulus and the squares stay per point on Python floats. The
    uncompensated column squares the overlap modulus by power and the
    compensated one by product; the two can round apart in the last bit,
    and each column keeps its own so that printed sweeps stay byte-stable.
    """
    gamma = np.asarray(gamma, dtype=float)
    theta = np.arctan2(omega1, omega0)
    psi0 = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phase0)])
    uncompensated = np.empty(gamma.shape)
    compensated = np.empty(gamma.shape)
    for start in range(0, gamma.size, LOOP_BLOCK):
        block = slice(start, start + LOOP_BLOCK)
        g = gamma[block]
        tau = _revolution_time(g)
        frame = rot_z(g * tau)
        u_un = frame @ _static_propagator(omega0 - g, omega1, phase0, tau)
        u_co = frame @ _static_propagator(omega0, omega1, phase0, tau)
        ov_un = np.vecdot(psi0, u_un @ psi0).tolist()
        ov_co = np.vecdot(psi0, u_co @ psi0).tolist()
        uncompensated[block] = [max(0.0, 1.0 - abs(c) ** 2) for c in ov_un]
        compensated[block] = [max(0.0, 1.0 - a * a) for a in map(abs, ov_co)]
    return uncompensated, compensated


def adiabatic_error(p: FieldParams) -> float:
    """Infidelity 1 - |<psi0| U(tau) |psi0>|^2 of the uncompensated loop,
    psi0 the upper eigenstate of the frozen field Hamiltonian."""
    _check_omega_z(p, False)
    uncompensated, _ = loop_infidelities(p.omega0, p.omega1, [p.gamma], p.phase0)
    return float(uncompensated[0])


# ---------------------------------------------------------------------------
# stepped integrator

BLOCK_STEPS = 4096  # steps whose product one pairwise tree associates
PASS_BLOCKS = 3  # whole blocks whose steps one pass samples, exponentiates and reduces
MAX_STEPS = 50_000_000  # steps one integrate call may take, checked before allocation
TRIG_TABLE = 64  # distinct step norms whose cos and sin a pass evaluates once each


class _SU2:
    """The steps of field records as Cayley-Klein pairs: exp(-i h dt) =
    [[a, -conj(b)], [b, conj(a)]] in SU(2), stored as (..., 2) arrays of
    (a, b). A record's h = [[z, x], [conj(x), -z]] is traceless.

    An instance is built from the records of one integrate call, which it
    checks, and is the call's workspace. Stacked records must share omega1,
    gamma, phase0, sign and t_end, and so the field's phase at every step:
    sequences._integrate_loop builds them that way. A pass's steps enter
    as h negated: the rows (-x.real, -x.imag) of a buffer, which stacked
    records share, and each record's -z. The records' pairs are stacked in
    one buffer, record s's m steps from row s m on. Every temporary of the
    reductions is a buffer too, written with out= in the order of
    operations of a fresh-array evaluation; the views that a pass size or
    a reduction reads and writes are made once per call and then reused.
    The reductions' temporaries share the memory of the real rows, which
    hold nothing once the pass's pairs are made; they are as wide as every
    record's pairs, so that one flat sweep reduces them all. These buffers
    are views of one allocation of (9 records + 2) PASS_BLOCKS BLOCK_STEPS
    floats (1.08 MB for one record, 1.97 MB for two), made by the first
    pass (a run without steps makes none) and freed with the call. No
    complex product writes over one of its own operands: numpy runs a
    strided in-place product through another, unfused loop, which rounds
    apart."""

    identity = np.array([1.0, 0.0], dtype=complex)
    dim = 2

    def __init__(self, fields: tuple, t_end: float) -> None:
        for f in fields:
            _check_field(f, t_end)
        self.fields, self.records = fields, len(fields)
        self._rows = np.empty((0, 2), dtype=complex)
        self._index = np.empty(0, dtype=np.intp)
        self._pad = np.empty(0, dtype=bool)
        self._blocks: dict = {}  # steps in a pass -> views of the buffers
        self._plans: dict = {}  # (allocation, shape, rows left) -> reduction plan

    @functools.cached_property
    def _buffer(self) -> np.ndarray:
        size = (9 * self.records + 2) * PASS_BLOCKS * BLOCK_STEPS
        # from a 64-byte boundary: a vector load of a row then never
        # straddles two cache lines, whatever address malloc returned
        raw = np.empty(size + 7)
        return raw[-raw.ctypes.data % 64 // 8 :][:size]

    def _parts(self) -> tuple:
        """The buffer's pairs (w, 2), -x rows (2, m) and real rows (5, w),
        m = PASS_BLOCKS BLOCK_STEPS and w = records m: the real rows' width
        takes a flat sweep over every record's pairs."""
        m = PASS_BLOCKS * BLOCK_STEPS
        w = self.records * m
        buffer = self._buffer
        return (buffer[: 4 * w].view(complex).reshape(w, 2),
                buffer[4 * w : 4 * w + 2 * m].reshape(2, m), buffer[4 * w + 2 * m :].reshape(5, w))

    @functools.cached_property
    def _temps(self) -> np.ndarray:
        return self._parts()[2].view(complex)

    def _block(self, m: int) -> SimpleNamespace:
        v = self._blocks.get(m)
        if v is None:
            pairs, neg_x, real = self._parts()
            neg_x = neg_x[:, :m]
            phase, r, rdt, sinc, cos = real[:, :m]
            pairs = pairs[: self.records * m]
            parts = [p.view(float) for p in pairs.reshape(self.records, m, 2)]
            v = self._blocks[m] = SimpleNamespace(
                steps=np.arange(m, dtype=float), neg_x=neg_x, neg_x_swapped=neg_x[::-1],
                phase=phase, r=r, rdt=rdt, sinc=sinc, cos=cos,
                squares=real[2:4, :m], pairs=pairs,
                bits=rdt.view(np.int64),  # the table's indices, where rdt is not taken
                out=[(p[:, 0], p[:, 1], p[:, 2:].T) for p in parts],  # each record's a, b
            )
        return v

    def steps(self, start: int, stop: int, dt: float) -> np.ndarray:
        """Stacked pairs exp(-i h dt) of each record's steps start..stop, h
        at the steps' midpoints.

        The records' field goes into the pass's -x rows first: x = omega1 /
        2 exp(-i phase), and numpy's complex exp of -i phase is cos and sin
        of -phase; -phase is taken as (-gamma) s + (-phase0), which rounds
        to exactly -(gamma s + phase0). The records share x, which is read
        from the first.

        cos(r dt) and sin(r dt) / r are taken once per distinct r when r
        spans at most TRIG_TABLE floats, as it does along a field loop
        (|x| is constant up to rounding): the bit patterns of nonnegative
        floats count up with their values, so r's offset from the least r
        in bit patterns indexes a table of the values in between."""
        f = self.fields[0]
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
        r, sinc = v.r, v.sinc
        for g, (a_re, a_im, b) in zip(self.fields, v.out):
            neg_z = -(0.5 * g.vertical) if f.sign > 0 else 0.5 * g.vertical
            np.multiply(neg_x, neg_x, out=v.squares)
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
                np.take(np.cos(values_dt), v.bits, out=v.cos, mode="clip")
            else:
                np.multiply(r, dt, out=v.rdt)
                np.sin(v.rdt, out=sinc)
                np.cos(v.rdt, out=v.cos)
                np.divide(sinc, r if r.all() else np.where(r == 0.0, 1.0, r), out=sinc)
            a_re[...] = v.cos
            np.multiply(sinc, neg_z, out=a_im)
            np.multiply(sinc, v.neg_x_swapped, out=b)  # b = -i sinc conj(x)
        return v.pairs

    def operands(self, later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> tuple:
        """The arrays run() reads and writes for the pairs of later @ earlier
        into out: earlier broadcasts against later, and out may overlap
        either, as the products go to temporaries first."""
        shape = later.shape[:-1]
        n = math.prod(shape)
        if n > self._temps.shape[1]:
            self._temps = np.empty((5, n), dtype=complex)
            self._plans.clear()  # they read the old temporaries
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

    def plan(self, rows: np.ndarray, stop: int) -> list:
        """_reduction_plan of rows, made once per buffer, shape and stop:
        rows are always a view from the start of steps()' stacked pairs or of
        the gather buffer of rows(), so the key tells the two apart by the
        allocation they view even where their shapes agree."""
        key = (id(rows.base), rows.shape, stop)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _reduction_plan(self, rows, stop)
        return plan

    def rows(self, width: int, nseg: int) -> tuple:
        """Gather buffers for nseg runs of at most width steps: the rows
        (width, nseg, 2), their step indices and their padding mask."""
        n = width * nseg
        if n > len(self._rows):
            self._rows = np.empty((n, 2), dtype=complex)
            self._index = np.empty(n, dtype=np.intp)
            self._pad = np.empty(n, dtype=bool)
            self._plans.clear()  # they read the old gather buffer
        shape = (width, nseg)
        return (self._rows[:n].reshape(shape + (2,)), self._index[:n].reshape(shape),
                self._pad[:n].reshape(shape))

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
    """The steps of one callable schedule, d x d, as matrices from a
    Hermitian eigendecomposition, the phase kept inside; its arrays are
    allocated as they are needed. The first pass's m samples (one, at t =
    0, for a run without steps) are taken when it is built: the probe of d."""

    records = 1

    def __init__(self, schedule: Callable, m: int, dt: float) -> None:
        self.schedule, self.dim = schedule, None
        self._probe = self._samples(0, m, dt)
        self.identity = np.eye(self.dim, dtype=complex)

    def _samples(self, start: int, stop: int, dt: float) -> np.ndarray:
        h = np.asarray(self.schedule((np.arange(start, stop) + 0.5) * dt), dtype=complex)
        if self.dim is None:  # the probe; the shape check refuses the rest
            self.dim = h.shape[-1] if h.ndim == 3 else 2
        return _check_samples(h, stop - start, self.dim)

    def steps(self, start: int, stop: int, dt: float) -> np.ndarray:
        """exp(-i h dt) of the samples h at the midpoints of steps
        start..stop; the first pass's are the probe's, freed with it."""
        h = self._samples(start, stop, dt) if start else self._probe
        self._probe = None
        vals, vecs = np.linalg.eigh(h)
        return np.einsum("...ik,...k,...jk->...ij", vecs, np.exp(-1j * vals * dt), vecs.conj())

    @staticmethod
    def operands(later: np.ndarray, earlier: np.ndarray, out: np.ndarray) -> tuple:
        return later, earlier, out

    run = staticmethod(np.matmul)

    def plan(self, rows: np.ndarray, stop: int) -> list:
        return _reduction_plan(self, rows, stop)

    def rows(self, width: int, nseg: int) -> tuple:
        shape = (width, nseg)
        return (np.empty(shape + self.identity.shape, dtype=complex),
                np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool))

    @staticmethod
    def normalize(u: np.ndarray) -> np.ndarray:
        """u itself as a fresh array: the window that holds it is reused."""
        return u.copy()

    @staticmethod
    def matrix(u: np.ndarray) -> np.ndarray:
        return u  # the elements already are the matrices


def _reduction_plan(kernel, rows: np.ndarray, stop: int) -> list:
    """Pairwise reduction of rows along their first axis, in place, down to
    its first stop rows, as a list of levels: the kernel's operands
    composing each pair into the front of rows, and the (to, from) rows
    moving an odd last element behind them."""
    plan = []
    width = len(rows)
    while width > stop:
        half = width // 2
        pairs = kernel.operands(rows[1 : 2 * half : 2], rows[0 : 2 * half : 2], rows[:half])
        plan.append((pairs, (rows[half], rows[width - 1]) if width % 2 else None))
        width -= half
    return plan


def _segment_products(kernel, elems: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Ordered products of the runs of elems that begin at starts (offsets
    into elems, the first 0), as an (n_runs, ...) array, by pairwise
    reduction vectorised across the runs.

    The reduction runs in place in elems itself for one run, and for runs
    of one power-of-two length: there a flat pairwise sweep that stops at
    one product per run pairs the same steps, level by level, as each
    run's own reduction. Other runs go to the kernel's gather buffer, which
    holds step k of every run in row k, the runs shorter than the longest
    padded with the identity."""
    nseg = starts.size
    lengths = np.diff(starts, append=len(elems))
    width = int(lengths.max())
    if nseg == 1 or (width & (width - 1) == 0 and width == lengths.min()):
        rows, stop, products = elems, nseg, elems[:nseg]
    else:
        rows, index, pad = kernel.rows(width, nseg)
        offsets = np.arange(width)[:, None]
        np.add(offsets, starts, out=index)
        np.take(elems, index, axis=0, out=rows, mode="clip")
        np.greater_equal(offsets, lengths, out=pad)
        rows[pad] = kernel.identity
        stop, products = 1, rows[0]
    for pairs, move in kernel.plan(rows, stop):
        kernel.run(*pairs)
        if move is not None:
            move[0][...] = move[1]
    return products


def _prefix_products(kernel, elems: np.ndarray) -> None:
    """Running products elems[k] @ ... @ elems[0] along the first axis, for
    every k, in place, by doubling: at each level every element from shift
    on takes its product with the element shift before it. The level reads
    all its operands before it writes: _SU2 composes into temporaries
    first, and numpy copies a matmul's operands that overlap its output.
    An element's products reach back to elems[0] and no further forward
    than itself, so the identity padding behind a window's blocks never
    enters a kept product."""
    shift = 1
    while shift < len(elems):
        kernel.run(*kernel.operands(elems[shift:], elems[:-shift], elems[shift:]))
        shift *= 2


def _check_sampled(finite: bool) -> None:
    if not finite:
        raise ValueError("schedule produced a non-finite Hamiltonian sample")


def _check_samples(h: np.ndarray, m: int, d: int) -> np.ndarray:
    if h.shape != (m, d, d):
        raise ValueError(f"schedule returned shape {h.shape}, expected {(m, d, d)}")
    _check_sampled(np.all(np.isfinite(h)))
    return h


def _check_field(f: FieldSchedule, t_end: float) -> None:
    """A record's samples over [0, t_end] are finite when its fields are and
    its phase is at both ends: the phase at a midpoint rounds between them,
    and the other components are bounded by the fields."""
    ends = (0.0, t_end) if f.sign > 0 else (f.t_end - t_end, f.t_end)
    phases = tuple(f.gamma * s + f.phase0 for s in ends)
    _check_sampled(all(map(math.isfinite, (f.vertical, f.omega1, f.gamma, f.phase0) + phases)))


def _count_text(count) -> str:
    """A count as a refusal shows it: in full up to 10**12 in magnitude and
    beyond that as %.3g shows it, taken from integers, so that a count past
    the float range shows too. A float count is shown as its integer part,
    and an infinite one as inf."""
    if isinstance(count, float):
        if math.isinf(count):
            return f"{count:g}"
        count = int(count)
    size = abs(count)
    shown = str(size)
    if size > 10**12:
        lead = round(size / 10 ** (len(shown) - 3))  # 3 digits, or 1000 rounded up
        up = lead == 1000
        shown = f"{lead / 10 ** (2 + up):g}e+{len(shown) - 1 + up}"
    return "-" * (count < 0) + shown


def _check_step_budget(n_steps: int) -> None:
    """Refuse more than MAX_STEPS steps before anything is allocated."""
    if n_steps > MAX_STEPS:
        raise ValueError(f"step budget exceeded: {_count_text(n_steps)} steps requested, "
                         f"at most {MAX_STEPS:,} allowed")


def _recorded_samples(samples: int, n_steps: int) -> int:
    """Sample points a run of n_steps records when asked for samples: the
    start and the end at least, one per step boundary at most."""
    return int(min(max(2, samples), n_steps + 1))


def _block_plan(n_steps: int, ends: np.ndarray) -> tuple:
    """How a run of n_steps that records the ascending step counts ends
    (the last of them n_steps) splits up, as (starts, cuts, dones, passes):

    starts  every run's first step: each block's start, and each end short
            of n_steps;
    cuts    where each block's runs begin among starts: block b's are
            starts[cuts[b] : cuts[b + 1]];
    dones   the samples recorded once each block is composed;
    passes  (start, stop) of each pass: up to PASS_BLOCKS whole blocks in
            a row that no end falls inside, whose runs reduce in one flat
            sweep, and every other block alone (one with an end inside,
            and the partial last block)."""
    lows = np.arange(0, n_steps, BLOCK_STEPS)
    inner = ends[(ends < n_steps) & (ends % BLOCK_STEPS > 0)]  # the ends inside a block
    # merged by rank: a first np.sort or np.union1d call adds 0.4-0.6 MB of RSS (numpy 2.4)
    cuts = np.append(np.searchsorted(inner, lows) + np.arange(lows.size), lows.size + inner.size)
    starts = np.empty(cuts[-1], dtype=lows.dtype)
    starts[cuts[:-1]] = lows
    starts[np.searchsorted(lows, inner) + np.arange(inner.size)] = inner
    dones = (1 + np.searchsorted(ends, lows + BLOCK_STEPS, "right")).tolist()
    single = (np.diff(cuts)[: n_steps // BLOCK_STEPS] == 1).tolist()  # the whole blocks' runs
    passes, first = [], 0
    while first < lows.size:
        last = first + 1
        while last < min(first + PASS_BLOCKS, len(single)) and single[first] and single[last]:
            last += 1
        passes.append((first * BLOCK_STEPS, min(last * BLOCK_STEPS, n_steps)))
        first = last
    return starts, cuts.tolist(), dones, passes


def _windows(runs: list) -> list:
    """(first, stop, width) of each window over the blocks, runs the runs of
    each block: blocks in a row whose runs, each block's padded to the
    width of the most any of them holds, number at most PASS_BLOCKS
    BLOCK_STEPS, so that a window's prefix products take memory of the
    order of a pass's whatever the samples."""
    windows, first, width = [], 0, 0
    for b, n in enumerate(runs):
        if (b + 1 - first) * max(width, n) > PASS_BLOCKS * BLOCK_STEPS:
            windows.append((first, b, width))
            first, width = b, 0
        width = max(width, n)
    return windows + [(first, len(runs), width)]


def _step_count(t_end: float, total_steps) -> int:
    """The steps of a run over [0, t_end]: total_steps, an integer of at
    least 1, or none when t_end is 0."""
    if not np.isfinite(t_end) or t_end < 0:
        raise ValueError("t_end must be finite and nonnegative")
    if isinstance(total_steps, bool) or not isinstance(total_steps, (int, np.integer)):
        raise ValueError(f"total_steps must be an integer step count, got {total_steps!r}")
    if t_end == 0.0:
        return 0
    if total_steps < 1:
        raise ValueError("total_steps must be at least 1")
    _check_step_budget(int(total_steps))
    return int(total_steps)


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

    schedule        t -> Hamiltonian stack: called with an array of m
                    midpoints at a time, it returns their (m, d, d)
                    Hamiltonians, whose steps are eigh exponentials. A
                    FieldSchedule is read as its components instead of
                    being called, and its steps are SU(2) closed forms.
    t_end           final time (>= 0)
    total_steps     step count, an integer (at least 1; no steps are taken
                    when t_end is 0)
    psi0            initial state; defaults to the first basis vector
    samples         number of recorded sample points (capped by the step count)

    Returns a Trajectory carrying states and propagators at the sample
    points, with hamiltonian_at = schedule.
    """
    return _integrate((schedule,), t_end, total_steps, psi0, samples)[0]


def _integrate(schedules: tuple, t_end: float, total_steps, psi0, samples: int) -> list:
    """The run of integrate and of sequences._integrate_loop: of one
    callable through _Dense, or through _SU2 stacked over FieldSchedules
    that share their phase schedule, one Trajectory each. The kind of
    input picks the kernel, once; the run's blocks, runs and passes come
    from _block_plan, once.

    The pass loop (_block_products) hands over each block's run products,
    which go into the window's (runs, blocks, ...) stack, each block's
    column padded at its end with the identity. Once a window is full,
    _prefix_products doubles over its stack once, and the carry loop
    composes each block's prefixes with the running product in block
    order, records the samples that end inside the block, and projects the
    running product back. Every product keeps its operands and their order
    of the block-by-block carry, so the bytes do not depend on the window."""
    n_steps = _step_count(t_end, total_steps)
    dt = t_end / n_steps if n_steps else 0.0
    bounds = np.round(np.linspace(0, n_steps, _recorded_samples(samples, n_steps))).astype(int)
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]  # ascending, so unique is a diff
    plan = _block_plan(n_steps, bounds[1:])
    _, cuts, dones, passes = plan
    # whatever n_steps: a callable's first pass doubles as the dimension probe
    kernel = (_SU2(schedules, t_end) if isinstance(schedules[0], FieldSchedule)
              else _Dense(schedules[0], passes[0][1] if passes else 1, dt))
    if psi0 is None:
        psi0 = np.zeros(kernel.dim, dtype=complex)
        psi0[0] = 1.0
    psi0 = require_finite(np.asarray(psi0, dtype=complex), "psi0")
    if n_steps == 0:
        eye = np.eye(kernel.dim, dtype=complex)[None]
        return [Trajectory._of_run(np.zeros(1), psi0[None, :], eye, s) for s in schedules]

    k = kernel.records
    # record s's propagators at the bounds are rows s n_bounds on
    recorded = np.empty((k * bounds.size,) + kernel.identity.shape, dtype=complex)
    recorded[:: bounds.size] = kernel.identity
    by_bound = _by_run(recorded, k)
    runs = np.diff(cuts).tolist()  # each block's runs
    windows = _windows(runs)
    # one window's products, shaped as _by_run shapes a block's runs
    stack = np.empty((max(w * (stop - first) for first, stop, w in windows),)
                     + (k,) * (k > 1) + kernel.identity.shape, dtype=complex)
    blocks = _block_products(kernel, plan, dt)
    carry, done = kernel.identity, 1
    for first, stop, width in windows:
        prefix = stack[: width * (stop - first)].reshape((width, stop - first) + stack.shape[1:])
        prefix[...] = kernel.identity
        for b in range(stop - first):
            products = next(blocks)
            prefix[: len(products), b] = products
        _prefix_products(kernel, prefix)
        for b, (n, upto) in enumerate(zip(runs[first:stop], dones[first:stop])):
            column = prefix[:n, b]
            kernel.run(*kernel.operands(column, carry, column))
            by_bound[done:upto] = column[: upto - done]
            carry = kernel.normalize(column[-1])
            done = upto

    # times exp(-1j * 0) = 1 - 0j, which sets the sign of zeros as the
    # recorded bytes have it: the -0 real part of entry [0, 1] of the
    # identity recorded at t = 0 turns +0
    unit = np.exp(-1j * np.zeros(bounds.size))
    props = (kernel.matrix(recorded.reshape((k, bounds.size) + kernel.identity.shape))
             * unit[:, None, None])
    times = bounds * dt
    times[-1] = t_end
    return [Trajectory._of_run(times if s == 0 else times.copy(),
                               np.einsum("kij,j->ki", u, psi0), u, schedule)
            for s, (schedule, u) in enumerate(zip(schedules, props))]


def _block_products(kernel, plan: tuple, dt: float):
    """The pass loop: each block's run products, indexed as _by_run indexes
    them, block after block. Each pass's steps come from the kernel at
    once and reduce in one call over the pass's runs in the plan. A
    block's products stay valid until the next one is asked for."""
    starts, cuts, _, passes = plan
    k = kernel.records
    for start, stop in passes:
        first, last = start // BLOCK_STEPS, -(-stop // BLOCK_STEPS)
        runs = starts[cuts[first] : cuts[last]] - start
        # record s's runs start at s m + runs in the stacked elements
        stacked = runs if k == 1 else np.add.outer(np.arange(k) * (stop - start), runs)
        products = _segment_products(kernel, kernel.steps(start, stop, dt), stacked.ravel())
        segs = _by_run(products, k)
        for b in range(first, last):
            yield segs[cuts[b] - cuts[first] : cuts[b + 1] - cuts[first]]


def _by_run(stack: np.ndarray, k: int) -> np.ndarray:
    """The rows of k records, stacked record after record, indexed (row,
    record, ...); one record's rows stay (row, ...). numpy takes
    one-dimensional operands through its fastest loops, and a record run
    alone keeps the shapes, so the loops and the bits, of its products."""
    return stack if k == 1 else stack.reshape((k, -1) + stack.shape[1:]).swapaxes(0, 1)
