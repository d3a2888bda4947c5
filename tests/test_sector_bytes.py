"""Byte identity of the two-sector loop run against a frozen reference copy.

The reference below is `sequences._integrate_loop` as it was written
before the two spin-b sectors of a conditional loop ran as one stacked
integrator run: one `integrate` call per sector, each on its own
`FieldSchedule`. It is copied here so that any rewrite must reproduce its
bytes: times, states and propagators compared by `tobytes()`. A
conditional loop cannot give exact zeros (its compensated verticals are
both nonzero), so `propagation._integrate` is also run directly on records
whose zeros are exact, against `integrate` of each record alone.
"""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from conegate import propagation, sequences
from conegate.hamiltonians import FieldSchedule
from conegate.propagation import _integrate, integrate
from conegate.sequences import ConditionalLoop, FieldLoop

STEPS = (1, 7, 4095, 4096, 4097, 12287, 12289, 24581)
REVOLUTIONS = (0.5, 1.0, 1.37, 2.0)


# ---------------------------------------------------------------------------
# reference


def ref_integrate_loop(step, steps_per_loop, samples):
    p = step.params
    s = p.setting
    fields = [(p.delta + sgn * p.j, s.omega1, s.gamma, p.phase0) for sgn in (+1, -1)]
    duration = step.revolutions * (2 * math.pi / abs(fields[0][2]))
    schedules = [
        FieldSchedule(omega0 + gamma if step.compensated else omega0, omega1, gamma, phase0,
                      step.sign, duration)
        for omega0, omega1, gamma, phase0 in fields
    ]
    n = max(1, round(steps_per_loop * step.revolutions))
    return duration, [integrate(f, duration, total_steps=n, samples=samples)
                      for f in schedules]


# ---------------------------------------------------------------------------
# draws


def steps_per_loop(steps, revolutions):
    """A per-revolution count whose loop takes exactly steps, or None."""
    guess = round(steps / revolutions)
    for spl in range(max(1, guess - 3), guess + 4):
        if max(1, round(spl * revolutions)) == steps:
            return spl
    return None


def conditional_step(rng, k):
    j = rng.uniform(0.1, 2.0)
    phase0 = (0.0, -0.0, rng.uniform(-4, 4))[k % 3]
    return ConditionalLoop(j * rng.uniform(1.01, 4.0), j, phase0)


def draws(seed):
    """(loop, steps per loop, samples, steps) covering every step count with
    2, 3, 257 and n + 1 samples, compensation on and off, both signs, the
    revolutions 0.5 to 2 and a phase0 of +0.0, -0.0 or drawn."""
    rng = np.random.default_rng(seed)
    k = 0
    for steps in STEPS:
        for samples in (2, 3, 257, steps + 1):
            exact = [r for r in REVOLUTIONS if steps_per_loop(steps, r) is not None]
            revolutions = exact[k % len(exact)]
            loop = FieldLoop(conditional_step(rng, k), revolutions, compensated=bool(k % 2),
                             sign=(1, -1)[(k // 2) % 2])
            yield loop, steps_per_loop(steps, revolutions), samples, steps
            k += 1


# ---------------------------------------------------------------------------
# tests


def assert_same_runs(got, want, label):
    assert len(got) == len(want), label
    for sector, (a, b) in enumerate(zip(got, want)):
        for name in ("times", "states", "propagators"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (label, sector, name)


def test_the_draws_cover_every_case():
    seen = {(loop.compensated, loop.sign, loop.revolutions) for loop, *_ in draws(0)}
    assert {c for c, _, _ in seen} == {True, False}
    assert {s for _, s, _ in seen} == {1, -1}
    assert {r for _, _, r in seen} == set(REVOLUTIONS)
    zeros = {math.copysign(1.0, loop.params.phase0) for loop, *_ in draws(0)
             if loop.params.phase0 == 0.0}
    assert zeros == {1.0, -1.0}


@pytest.mark.parametrize("seed", range(2))
def test_conditional_loop_is_the_reference(seed):
    for loop, spl, samples, steps in draws(1800 + seed):
        duration, got = sequences._integrate_loop(loop, spl, samples)
        want_duration, want = ref_integrate_loop(loop, spl, samples)
        assert duration == want_duration
        assert got[0].times.size == min(samples, steps + 1)
        assert_same_runs(got, want, (steps, samples))


# ---------------------------------------------------------------------------
# the stacked function on records, where exact zeros reach every sign


def alone(fields, t_end, steps, samples, psi0=None):
    return [integrate(f, t_end, total_steps=steps, psi0=psi0, samples=samples) for f in fields]


def zero_pairs(rng, sign, t_end):
    """Pairs of records that share their phase: vertical +0.0 and -0.0
    under a field, and zero fields (omega1 = 0) with a vertical of +-0.0 or
    drawn, their speed and phase0 signed zeros or drawn."""
    gamma = rng.uniform(0.2, 3.0) * (1, -1)[int(rng.integers(2))]
    phase0 = (0.0, -0.0, rng.uniform(-4, 4))[int(rng.integers(3))]
    zeros = (0.0, -0.0)[int(rng.integers(2))]
    return [
        (FieldSchedule(0.0, 1.3, gamma, phase0, sign, t_end),
         FieldSchedule(-0.0, 1.3, gamma, phase0, sign, t_end)),
        (FieldSchedule(-0.0, 0.0, gamma, phase0, sign, t_end),
         FieldSchedule(rng.uniform(-2, 2), 0.0, gamma, phase0, sign, t_end)),
        (FieldSchedule(0.0, 0.0, zeros, -zeros, sign, t_end),
         FieldSchedule(-0.0, 0.0, zeros, -zeros, sign, t_end)),
    ]


@pytest.mark.parametrize("steps", STEPS)
def test_records_with_exact_zeros_stack_as_they_run_alone(steps):
    rng = np.random.default_rng(1900 + steps)
    for k, samples in enumerate((2, 3, 257, steps + 1)):
        sign, t_end = (1, -1)[k % 2], rng.uniform(0.5, 20.0)
        for fields in zero_pairs(rng, sign, t_end):
            got = _integrate(tuple(fields), t_end, steps, None, samples)
            assert_same_runs(got, alone(fields, t_end, steps, samples), (steps, samples, fields))
            if fields[0].omega1 == 0.0 and fields[0].vertical == 0.0:  # no field at all
                assert np.array_equal(got[0].propagators,
                                      np.broadcast_to(np.eye(2), got[0].propagators.shape))


def test_shared_records_from_a_start_state_stack_as_they_run_alone():
    rng = np.random.default_rng(1950)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi0 = psi / np.linalg.norm(psi)
    t_end = 7.3
    shared = [FieldSchedule(rng.uniform(-2, 2), 0.9, -1.1, 0.4, -1, t_end) for _ in range(3)]
    for fields in (shared, shared[:1]):
        for steps, samples in ((4097, 3), (12289, 257)):
            got = _integrate(tuple(fields), t_end, steps, psi0, samples)
            want = alone(fields, t_end, steps, samples, psi0)
            assert_same_runs(got, want, (len(fields), steps))


def test_three_records_stack_in_a_workspace_of_their_own():
    fields = [FieldSchedule(v, 1.1, 0.7, 0.2) for v in (0.3, -0.4, 1.5)]
    got = _integrate(tuple(fields), 5.0, 9000, None, 5)
    assert_same_runs(got, alone(fields, 5.0, 9000, 5), "three")


class TestWorkspace:
    """Each call allocates its own workspace, from a 64-byte boundary, and
    holds none of it once it returns."""

    @pytest.mark.parametrize("records", [1, 2])
    def test_the_workspace_starts_on_a_cache_line(self, records):
        buffer = propagation._SU2((FieldSchedule(0.3, 0.9, -1.1),) * records, 1.0)._buffer
        assert buffer.ctypes.data % 64 == 0
        assert buffer.size == (9 * records + 2) * propagation.PASS_BLOCKS * propagation.BLOCK_STEPS

    def test_nothing_is_held_once_a_call_returns(self):
        # in a fresh interpreter, so that no workspace predates the tracing
        code = """if True:
            import tracemalloc
            from conegate.hamiltonians import FieldSchedule
            from conegate.propagation import _integrate, integrate
            tracemalloc.start()
            got = [integrate(FieldSchedule(0.3, 0.8, -1.25), 5.0, total_steps=30000, samples=257),
                   *_integrate((FieldSchedule(0.4, 1.2, 0.9), FieldSchedule(-0.4, 1.2, 0.9)),
                               3.0, 20000, None, 257)]
            held = [t.size for t in tracemalloc.take_snapshot().traces if t.size >= 1_000_000]
            print(len(got), held)
        """
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout == "3 []\n"

    def test_a_schedule_that_integrates_gets_a_workspace_of_its_own(self):
        record = FieldSchedule(0.4, 1.2, 0.9)
        inner = []

        def schedule(t):
            inner.append(integrate(record, 1.0, total_steps=50, samples=2).propagators[-1])
            return record(t)

        got = integrate(schedule, 2.0, total_steps=5000, samples=9)
        want = integrate(record.__call__, 2.0, total_steps=5000, samples=9)
        assert got.propagators.tobytes() == want.propagators.tobytes()
        assert all(u.tobytes() == inner[0].tobytes() for u in inner)

    def test_threads_never_share_a_workspace(self):
        records = [(FieldSchedule(0.3 * k, 1.1, 0.7), FieldSchedule(-0.2 * k, 1.1, 0.7))
                   for k in range(4)]
        want = [_integrate(pair, 4.0, 5000, None, 9) for pair in records]
        bad, done = [], []

        def work(k):
            for _ in range(6):
                got = _integrate(records[k], 4.0, 5000, None, 9)
                bad.extend(k for a, b in zip(got, want[k])
                           if a.propagators.tobytes() != b.propagators.tobytes())
                done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == [] and len(done) == 24

    def test_plans_tell_buffers_of_one_shape_apart(self):
        kernel = propagation._SU2((FieldSchedule(0.3, 0.9, -1.1),), 1.0)
        pairs = kernel._block(8).pairs
        rows = kernel.rows(16, 1)[0].reshape(16, 2)[:8]
        assert pairs.shape == rows.shape
        for view in (pairs, rows):
            (later, *_, a, b, _aa, _bb, _ba, _ab, _conj), _move = kernel.plan(view, 1)[0]
            assert np.shares_memory(a, view) and np.shares_memory(later, view)
