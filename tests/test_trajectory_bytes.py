"""Byte identity of the evolve path against frozen reference copies.

The references below are `sequences.sequence_trajectory`,
`sequences.trajectory_rows` with their sample counts (`_loop_samples`,
`_free_samples`), and `phases.running_dynamical_phase` with its
expectation (`_expectations`), as they were written before each rule of
the trajectory got one owner. `ref_trajectory_columns` is
`cli._trajectory_columns` on those references. They are copied here so
that any rewrite must reproduce their bytes: times, states and
propagators, the segment table with each segment's accessor at its own
samples, the trajectory's accessor at every sample time and every evolve
column under a full and a `--t-end` mask, all compared by `tobytes()`,
and the row count `evolve` checks before it runs. The references call the
module's other helpers, which the rewrite does not touch.

The seeded schedules hold every step kind: hard pulses with angles of
+-0.0 or drawn, zero and timed free evolutions of both signs (with a
coupling j at dimension 4), and single and conditional loops of both
compensations and signs, at 0.5, 1, 1.37 and 2 revolutions, with phase0
+-0.0 or drawn. Step counts sit at the integrator's block edges, and
sample counts below 8 (where a free evolution records 2 samples) and at
few steps (where a loop records at most n + 1). Two more schedules hold a
loop whose samples span two of the integrator's windows, at step counts
off the block edges.

A loop whose duration rounds to 0 is compared with the references only
as a schedule's last step: before any other step, the reference indexes
the empty propagator stack such a loop leaves. There the oracle is the
same schedule without the loop.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conegate import cli, propagation
from conegate import sequences as S
from conegate.hamiltonians import FieldParams
from conegate.linalg import bloch_vector
from conegate.phases import compensation_gamma
from conegate.propagation import Trajectory, _recorded_samples
from conegate.sequences import (
    SINGLE_QUBIT,
    TWO_QUBIT,
    ConditionalLoop,
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    RotY,
    RotZ,
    sequence_trajectory,
    trajectory_rows,
)

STEPS = (1, 7, 4095, 4096, 4097)
SAMPLES = (2, 3, 7, 8, 9, 33, 257)
REVOLUTIONS = (0.5, 1.0, 1.37, 2.0)
SCHEDULES = 216
# loops whose duration rounds to 0, per frame, and the steps that follow them
ZERO_TIME = {SINGLE_QUBIT: FieldLoop(FieldParams(1.0, 0.5, -1e10), 5e-324, compensated=False),
             TWO_QUBIT: FieldLoop(ConditionalLoop(1e150, 1.0), 5e-324)}
AFTER = [RotX(0.3), RotY(-1.1), RotZ(2.0), FreeEvolve(0.0, 0.4), FreeEvolve(0.7, 0.4, sign=-1),
         FieldLoop(FieldParams(1.0, 0.5, -1.25), 1.37, compensated=False)]


# ---------------------------------------------------------------------------
# references


def ref_loop_samples(step, samples_per_loop):
    return max(2, S._per_revolution(samples_per_loop, step))


def ref_free_samples(samples_per_loop):
    return max(2, samples_per_loop // 4)


def ref_sequence_trajectory(seq, dim, psi0, steps_per_loop=10_000,
                            samples_per_loop=S.SAMPLES_PER_LOOP):
    S._check_frame_dim(seq, dim)
    psi = np.asarray(psi0, dtype=complex)
    times = [np.zeros(1)]
    props = [np.eye(dim, dtype=complex)[None]]
    segments = []
    now, rows = 0.0, 1
    for step in seq.steps:
        u = props[-1][-1]
        if isinstance(step, FieldLoop):
            loop_fields, loop_times, loop_props = S._integrate_loop(
                step, steps_per_loop, ref_loop_samples(step, samples_per_loop))
            duration = loop_times[-1]
            runs = [SimpleNamespace(times=loop_times, propagators=u, hamiltonian_at=f)
                    for f, u in zip(loop_fields, loop_props)]
            fields = [run.hamiltonian_at for run in runs]
            seg_u = S._block_diag([run.propagators for run in runs], dim)
            segments.append((now, now + duration,
                             lambda t, fields=fields: S._block_diag([f(t) for f in fields], dim),
                             rows - 1, runs[0].times.size))
            times.append(now + runs[0].times[1:])
            props.append(seg_u[1:] @ u)
            now += duration
        elif isinstance(step, FreeEvolve) and step.duration > 0:
            seg_t = step.duration * np.linspace(0, 1, ref_free_samples(samples_per_loop))[1:]
            segments.append((now, now + step.duration, S._free_evolution_hamiltonian(step, dim),
                             rows - 1, seg_t.size + 1))
            times.append(now + seg_t)
            props.append(S._free_evolution_unitaries(step, dim, seg_t) @ u)
            now += step.duration
        else:
            times.append(np.array([now]))
            props.append((S._matrix(step._blocks(dim), dim) @ u)[None])
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


def ref_trajectory_rows(seq, steps_per_loop):
    rows = 1
    for step in seq.steps:
        if isinstance(step, FieldLoop):
            rows += _recorded_samples(ref_loop_samples(step, S.SAMPLES_PER_LOOP),
                                      S._loop_steps(step, steps_per_loop)) - 1
        elif isinstance(step, FreeEvolve) and step.duration > 0:
            rows += ref_free_samples(S.SAMPLES_PER_LOOP) - 1
        else:
            rows += 1
    return rows


def ref_expectations(states, h):
    return np.einsum("ki,kij,kj->k", states.conj(), h, states).real


def ref_running_dynamical_phase(traj, mask):
    times = traj.times[mask]
    states = traj.states[mask]
    running = np.zeros(times.size)
    if times.size > 1:
        dt = np.diff(times)
        t_left = times[:-1] + 1e-9 * dt
        t_right = times[1:] - 1e-9 * dt
        h_left = np.asarray(traj.hamiltonian_at(t_left), dtype=complex)
        h_right = np.asarray(traj.hamiltonian_at(t_right), dtype=complex)
        e_left = ref_expectations(states[:-1], h_left)
        e_right = ref_expectations(states[1:], h_right)
        running[1:] = -np.cumsum(0.5 * (e_left + e_right) * dt)
    return running


def ref_trajectory_columns(traj, mask):
    times, states = traj.times[mask], traj.states[mask]
    cols = {"t": times}
    for k in range(states.shape[1]):
        cols[f"re_amp{k}"] = states[:, k].real
        cols[f"im_amp{k}"] = states[:, k].imag
    if states.shape[1] == 2:
        cols["bloch_x"], cols["bloch_y"], cols["bloch_z"] = bloch_vector(states).T
    cols["dynamical_phase"] = ref_running_dynamical_phase(traj, mask)
    return cols


# ---------------------------------------------------------------------------
# schedules


def drawn_or_zero(rng, scale):
    """+0.0, -0.0 or a value drawn from [-scale, scale]."""
    r = rng.random()
    return 0.0 if r < 0.15 else -0.0 if r < 0.3 else float(rng.uniform(-scale, scale))


def draw_loop(rng, two_qubit):
    revolutions = REVOLUTIONS[rng.integers(len(REVOLUTIONS))]
    compensated, sign = bool(rng.integers(2)), int(rng.choice((-1, 1)))
    phase0 = drawn_or_zero(rng, math.pi)
    if two_qubit and rng.random() < 0.6:
        j = float(rng.uniform(0.3, 2.0))
        params = ConditionalLoop(j * (1.0 + 10.0 ** rng.uniform(-1.0, 1.0)), j, phase0)
    else:
        omega0 = float(rng.uniform(0.2, 2.0) * rng.choice((-1, 1)))
        omega1 = float(rng.uniform(0.0, 2.0))
        gamma = (compensation_gamma(omega0, omega1) if rng.random() < 0.5
                 else float(rng.uniform(0.5, 3.0) * rng.choice((-1, 1))))
        params = FieldParams(omega0, omega1, gamma, gamma if compensated else 0.0, phase0)
    return FieldLoop(params, revolutions, compensated, sign)


def draw_step(rng, two_qubit):
    kind = rng.integers(5)
    if kind == 0:
        return (RotX, RotY, RotZ)[rng.integers(3)](drawn_or_zero(rng, 2 * math.pi))
    if kind == 1:
        return FreeEvolve(0.0, float(rng.uniform(-2.0, 2.0)))
    if kind == 2:
        j = float(rng.uniform(-1.0, 1.0)) if two_qubit and rng.random() < 0.7 else 0.0
        return FreeEvolve(float(rng.uniform(0.05, 3.0)), float(rng.uniform(-2.0, 2.0)), j,
                          int(rng.choice((-1, 1))))
    return draw_loop(rng, two_qubit)


def schedules():
    """(seq, dim, psi0, steps_per_loop, samples_per_loop) of each seeded
    schedule: 1 to 5 steps, at most two of them loops."""
    rng = np.random.default_rng(3002)
    out = []
    for k in range(SCHEDULES):
        two_qubit = k % 2 == 1
        dim = 4 if two_qubit else 2
        steps, loops = [], 0
        for _ in range(rng.integers(1, 6)):
            step = draw_step(rng, two_qubit)
            if isinstance(step, FieldLoop):
                if loops == 2:
                    continue
                loops += 1
            steps.append(step)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append((PulseSequence(tuple(steps), TWO_QUBIT if two_qubit else SINGLE_QUBIT), dim,
                    psi0 / np.linalg.norm(psi0), STEPS[k % len(STEPS)],
                    SAMPLES[(k // len(STEPS)) % len(SAMPLES)]))
    return out


SCHEDULE_LIST = schedules()

# (frame, revolutions, steps_per_loop, samples_per_loop) of each loop that
# spans two windows: 50 revolutions at 20,000 steps record 12,850 samples
# over 245 blocks, about 53 runs a block, and a window holds at most 3 x
# 4,096 runs; the conditional loop's 15,647 samples over 150 blocks fill
# two windows too. Neither step count, nor either loop's, is a whole
# number of blocks.
WINDOW_EDGES = ((SINGLE_QUBIT, 50.0, 20_000, 257), (TWO_QUBIT, 30.5, 20_011, 513))


def window_edge_schedules():
    """(seq, dim, psi0, steps_per_loop, samples_per_loop) of a seeded
    schedule around each loop of WINDOW_EDGES: a hard pulse, the loop,
    and a timed free evolution."""
    rng = np.random.default_rng(3003)
    out = []
    for frame, revolutions, steps, samples in WINDOW_EDGES:
        two_qubit = frame == TWO_QUBIT
        dim = 4 if two_qubit else 2
        loop = replace(draw_loop(rng, two_qubit), revolutions=revolutions)
        pulse = (RotX, RotY, RotZ)[rng.integers(3)](drawn_or_zero(rng, 2 * math.pi))
        free = FreeEvolve(float(rng.uniform(0.05, 3.0)), float(rng.uniform(-2.0, 2.0)))
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append((PulseSequence((pulse, loop, free), frame), dim, psi0 / np.linalg.norm(psi0),
                    steps, samples))
    return out


def step_kind(step):
    if isinstance(step, FieldLoop):
        loop = "conditional" if isinstance(step.params, ConditionalLoop) else "single"
        zero = step.params.phase0 == 0.0
        phase0 = (math.copysign(1.0, step.params.phase0) if zero else "drawn")
        return ("loop", loop, step.compensated, step.sign, step.revolutions, phase0)
    if isinstance(step, FreeEvolve):
        return ("free", step.duration > 0, step.sign, step.j != 0.0)
    zero = step.angle == 0.0
    return (type(step).__name__, math.copysign(1.0, step.angle) if zero else "drawn")


# ---------------------------------------------------------------------------
# comparisons


def trajectory_bytes(traj):
    """times, states, propagators, the accessor at the sample times and the
    segment table, each segment's accessor taken at its own samples."""
    segments = [(np.array([t0, t1]).tobytes(), first, count,
                 np.asarray(h_at(traj.times[first:first + count] - t0)).tobytes())
                for t0, t1, h_at, first, count in traj._segments]
    return (traj.times.tobytes(), traj.states.tobytes(), traj.propagators.tobytes(),
            np.asarray(traj.hamiltonian_at(traj.times)).tobytes(), segments)


def column_bytes(cols):
    return {name: np.asarray(col).tobytes() for name, col in cols.items()}


def t_end_mask(rng, times):
    """A --t-end mask as evolve builds it, at a sample time or between two."""
    t_end = (times[rng.integers(times.size)] if rng.random() < 0.5
             else float(rng.uniform(0.0, times[-1])))
    return times <= t_end + 1e-15


class TestEvolvePath:
    def test_the_draws_cover_every_kind(self):
        kinds = {step_kind(step) for seq, *_ in SCHEDULE_LIST for step in seq.steps}
        for name in ("RotX", "RotY", "RotZ"):
            assert {(name, 1.0), (name, -1.0), (name, "drawn")} <= kinds
        for sign in (-1, 1):
            assert {("free", True, sign, False), ("free", True, sign, True)} <= kinds
        assert ("free", False, 1, False) in kinds
        for loop in ("single", "conditional"):
            for compensated in (False, True):
                for sign in (-1, 1):
                    drawn = {k for k in kinds if k[:4] == ("loop", loop, compensated, sign)}
                    assert {k[4] for k in drawn} == set(REVOLUTIONS), (loop, compensated, sign)
        assert {k[5] for k in kinds if k[0] == "loop"} == {1.0, -1.0, "drawn"}
        assert {(s[3], s[4]) for s in SCHEDULE_LIST} >= {(n, m) for n in STEPS for m in SAMPLES}

    @pytest.mark.parametrize("part", range(4))
    def test_trajectories_and_columns_keep_their_bytes(self, part):
        rng = np.random.default_rng(3101 + part)
        for seq, dim, psi0, steps, samples in SCHEDULE_LIST[part::4]:
            want = ref_sequence_trajectory(seq, dim, psi0, steps, samples)
            got = sequence_trajectory(seq, dim, psi0, steps, samples)
            assert trajectory_bytes(got) == trajectory_bytes(want)
            assert trajectory_rows(seq, steps) == ref_trajectory_rows(seq, steps)
            for mask in (slice(None), t_end_mask(rng, want.times)):
                assert (column_bytes(cli._trajectory_columns(got, mask))
                        == column_bytes(ref_trajectory_columns(want, mask)))

    @pytest.mark.parametrize("case", range(len(WINDOW_EDGES)))
    def test_a_loop_across_a_window_edge(self, case, monkeypatch):
        seq, dim, psi0, steps, samples = window_edge_schedules()[case]
        windows, plan = [], propagation._windows
        monkeypatch.setattr(propagation, "_windows",
                            lambda runs: windows.append(plan(runs)) or windows[-1])
        got = sequence_trajectory(seq, dim, psi0, steps, samples)
        assert len(windows) == 1 and len(windows[0]) == 2  # the loop's run spans two
        assert steps % 4096 and S._loop_steps(seq.steps[1], steps) % 4096
        want = ref_sequence_trajectory(seq, dim, psi0, steps, samples)
        assert trajectory_bytes(got) == trajectory_bytes(want)
        assert trajectory_rows(seq, steps) == ref_trajectory_rows(seq, steps)
        rng = np.random.default_rng(3201 + case)
        for mask in (slice(None), t_end_mask(rng, want.times)):
            assert (column_bytes(cli._trajectory_columns(got, mask))
                    == column_bytes(ref_trajectory_columns(want, mask)))
        # a window's carry that went astray would move the product far from
        # the closed form, which both sides share no code with
        assert np.abs(got.propagators[-1] - S.apply_sequence(seq, dim)).max() < 1e-5

    def test_evolve_rows_are_counted_at_the_default_sampling(self):
        for seq, dim, psi0, steps, _ in SCHEDULE_LIST[:40]:
            rows = trajectory_rows(seq, steps)
            assert rows == ref_trajectory_rows(seq, steps)
            assert sequence_trajectory(seq, dim, psi0, steps).times.size == rows

    def test_a_loop_that_takes_no_time(self):
        # 2 pi / 1e10 times the smallest subnormal revolution count is 0:
        # the loop records its start alone, and its segment holds one sample
        loop = FieldLoop(FieldParams(1.0, 0.5, -1e10), 5e-324, compensated=False)
        seq = PulseSequence((RotX(0.3), FreeEvolve(0.7, 0.4), loop))
        psi0 = np.array([0.6, 0.8j])
        for steps, samples in ((1, 2), (4097, 257)):
            want = ref_sequence_trajectory(seq, 2, psi0, steps, samples)
            got = sequence_trajectory(seq, 2, psi0, steps, samples)
            assert [s[4] for s in want._segments] == [max(2, samples // 4), 1]
            assert trajectory_bytes(got) == trajectory_bytes(want)
            assert (column_bytes(cli._trajectory_columns(got, slice(None)))
                    == column_bytes(ref_trajectory_columns(want, slice(None))))
            # the reference counted a row the loop does not record
            rows = trajectory_rows(seq, steps)
            assert rows == sequence_trajectory(seq, 2, psi0, steps).times.size
            assert rows == ref_trajectory_rows(seq, steps) - 1

    @pytest.mark.parametrize("frame, after", [(SINGLE_QUBIT, a) for a in AFTER] + [
        (TWO_QUBIT, a) for a in AFTER + [FreeEvolve(0.7, 0.4, j=0.3),
                                         FieldLoop(ConditionalLoop(1.3, 0.4, 0.2), 0.5, sign=-1)]])
    def test_a_loop_that_takes_no_time_before_each_kind(self, frame, after):
        # the reference indexes the loop's empty stack at the next step, so
        # the oracle is the same schedule without the loop
        zero = ZERO_TIME[frame]
        assert S._loop_duration(zero, S._loop_fields(zero)[1]) == 0.0
        dim = 2 if frame == SINGLE_QUBIT else 4
        psi0 = np.array([0.6, 0.8j]) if dim == 2 else np.array([0.6, 0.48j, 0.0, 0.64])
        for steps in (1, 100, 5000):
            for head in ((), (RotY(0.4), FreeEvolve(0.3, -0.6))):
                seq = PulseSequence(head + (zero, after), frame)
                got = sequence_trajectory(seq, dim, psi0, steps)
                want = sequence_trajectory(PulseSequence(head + (after,), frame), dim, psi0,
                                           steps)
                for name in ("times", "states", "propagators"):
                    assert (getattr(got, name).tobytes()
                            == getattr(want, name).tobytes()), (name, steps, head)
                assert trajectory_rows(seq, steps) == got.times.size


def refusal(run):
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


class TestRefusals:
    SINGLE = FieldLoop(FieldParams(1.0, 0.5, -1.25, omega_z=-1.25))

    @pytest.mark.parametrize("steps, frame, dim", [
        ((RotX(0.3),), SINGLE_QUBIT, 4),
        ((RotX(0.3),), TWO_QUBIT, 3),
        ((RotX(0.3), FieldLoop(ConditionalLoop(1.3, 0.4))), SINGLE_QUBIT, 2),
        ((RotX(0.3), FreeEvolve(1.0, 0.5, j=0.3)), SINGLE_QUBIT, 2),
        # more steps than the budget, at 10,000 per revolution
        ((RotX(0.3), FieldLoop(FieldParams(1.0, 0.5, -1.0), 1e4, compensated=False)),
         SINGLE_QUBIT, 2),
        # the sample count overflows, and the step count with it
        ((RotX(0.3), FieldLoop(FieldParams(1.0, 0.5, -1.0), 1e307, compensated=False)),
         TWO_QUBIT, 4),
        # the duration overflows, but neither count does
        ((FieldLoop(FieldParams(1.0, 0.5, -1e-10), 1e300, compensated=False),), SINGLE_QUBIT, 2),
    ])
    def test_the_texts_are_kept(self, steps, frame, dim):
        seq = PulseSequence((self.SINGLE,) + steps, frame)
        psi0 = np.eye(dim, dtype=complex)[0]
        want = refusal(lambda: ref_sequence_trajectory(seq, dim, psi0))
        assert refusal(lambda: sequence_trajectory(seq, dim, psi0)) == want

    def test_the_step_count_may_be_refused_before_the_duration(self):
        # 1e305 revolutions at gamma = -1e-10: the step count and the
        # duration overflow, the sample count does not. The reference
        # measures the duration first; a direct library call may refuse
        # the step count first, as evolve's row count already does.
        loop = FieldLoop(FieldParams(1.0, 0.5, -1e-10), 1e305, compensated=False)
        seq = PulseSequence((loop,))
        psi0 = np.array([1.0, 0.0j])
        duration = ("a loop of 1e+305 revolutions at gamma = -1e-10 "
                    "lasts longer than the float range")
        count = ("a loop of 1e+305 revolutions at 10000 per revolution "
                 "overflows the step or sample count")
        assert refusal(lambda: ref_sequence_trajectory(seq, 2, psi0)) == duration
        assert refusal(lambda: sequence_trajectory(seq, 2, psi0)) in (duration, count)
        assert refusal(lambda: ref_trajectory_rows(seq, 10_000)) == count
        assert refusal(lambda: trajectory_rows(seq, 10_000)) == count
