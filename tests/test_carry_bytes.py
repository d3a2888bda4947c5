"""Byte identity of the integrator's carry against a frozen reference copy.

The reference below is `propagation._integrate` as it was written before
the prefix products of a run's blocks were taken in one stacked doubling:
every block's run products doubled on their own, composed with the running
product and normalized, block after block. It is copied here so that any
rewrite of the carry must reproduce its bytes: times, states and
propagators compared by `tobytes()`. It uses the module's step kernels,
which the carry does not touch, and copies of what the carry's rewrites
changed, as each was written before: the pass plan (`propagation._passes`),
the run reduction, which reduced every block's runs to their products
within its pass, and the projection onto SU(2) in numpy.

The draws reach every kernel: field records alone and stacked, records
whose zeros are exact (signed-zero speed, phase and vertical field), the
equatorial uncompensated loop (a vertical field of exactly zero), 2x2
callables with a trace, which take the eigh kernel as every callable
does, and diagonal and non-diagonal 4x4 callables, at
step counts on both sides of the block and pass edges and with 2, 3, 257
and n + 1 samples. Two-sample runs, whose whole blocks finish their
reductions a window of blocks at a time once a run has more than one
pass of them, are drawn on both sides of that step count and across two
windows.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from conegate import propagation as P
from conegate.hamiltonians import FieldParams, FieldSchedule
from conegate.propagation import Trajectory, integrate
from conegate.sequences import FieldLoop, _integrate_loop

STEPS = (1, 7, 4095, 4096, 4097, 12287, 12289, 24581, 33333)
KINDS = 8  # six field runs, the traced 2x2 callable and one 4x4 callable
DRAW_SEEDS, DRAWS = 6, 17  # runs at drawn step counts up to 6,000, without 4x4 callables


# ---------------------------------------------------------------------------
# reference


def ref_prefix_products(kernel, elems):
    spare = np.empty(elems.shape, dtype=complex)
    shift = 1
    while shift < len(elems):
        spare[:shift] = elems[:shift]
        kernel.run(*kernel.operands(elems[shift:], elems[:-shift], spare[shift:]))
        elems, spare = spare, elems
        shift *= 2
    return elems


def ref_segment_products(kernel, elems, starts):
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


def ref_normalize(kernel, u):
    if isinstance(kernel, P._SU2):
        return u / np.sqrt(np.sum(u.real**2 + u.imag**2, axis=-1, keepdims=True))
    return u.copy()


def ref_passes(n_steps, ends):
    blocks = -(-n_steps // P.BLOCK_STEPS)
    lows = np.arange(blocks) * P.BLOCK_STEPS
    inside = np.searchsorted(ends, lows + P.BLOCK_STEPS) > np.searchsorted(ends, lows, "right")
    alone = set(np.flatnonzero(inside).tolist())
    alone.add(blocks)
    passes, first = [], 0
    while first < blocks:
        last = first + 1
        while first not in alone and last not in alone and last < first + P.PASS_BLOCKS:
            last += 1
        passes.append((first * P.BLOCK_STEPS, min(last * P.BLOCK_STEPS, n_steps)))
        first = last
    return passes


def ref_integrate(schedules, t_end, total_steps, psi0, samples, taken=None):
    """The frozen run; taken, when given, holds the step matrices of a
    callable's live run, which stand in for the kernel's own."""
    n_steps = P._step_count(t_end, total_steps)
    dt = t_end / n_steps if n_steps else 0.0
    bounds = np.round(np.linspace(0, n_steps, P._recorded_samples(samples, n_steps))).astype(int)
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]
    ends = bounds[1:]
    passes = ref_passes(n_steps, ends)
    field = isinstance(schedules[0], FieldSchedule)
    if field:
        for f in schedules:
            P._check_field(f, t_end)
        d = 2
    else:
        m = passes[0][1] if passes else 1
        h = np.asarray(schedules[0]((np.arange(m) + 0.5) * dt), dtype=complex)
        d = h.shape[-1] if h.ndim == 3 else 2
        h = P._check_samples(h, m, d)
    if psi0 is None:
        psi0 = np.zeros(d, dtype=complex)
        psi0[0] = 1.0
    psi0 = np.asarray(psi0, dtype=complex)
    if n_steps == 0:
        eye = np.eye(d, dtype=complex)[None]
        return [Trajectory._of_run(np.zeros(1), psi0[None, :], eye, s) for s in schedules]

    k = len(schedules)
    kernel = P._SU2(schedules, t_end) if field else P._Dense(schedules[0], passes[0][1], dt)
    recorded = np.empty((k * bounds.size,) + kernel.identity.shape, dtype=complex)
    recorded[:: bounds.size] = kernel.identity
    by_bound = P._by_run(recorded, k)
    recorded_phase = np.zeros(bounds.size)
    carry, done = kernel.identity, 1
    for start, stop in passes:
        elems = kernel.steps(start, stop, dt) if taken is None else taken[start:stop].copy()
        if stop - start > P.BLOCK_STEPS:
            starts = np.arange(0, stop - start, P.BLOCK_STEPS)
            runs = range(starts.size + 1)
        else:
            inside = ends[np.searchsorted(ends, start, "right") : np.searchsorted(ends, stop)]
            starts = np.concatenate(([0], inside - start))
            runs = (0, starts.size)
        stacked = starts if k == 1 else np.add.outer(np.arange(k) * (stop - start), starts)
        segs = P._by_run(ref_segment_products(kernel, elems, stacked.ravel()), k)
        edges = [*range(start, stop, P.BLOCK_STEPS), stop]
        dones = (1 + np.searchsorted(ends, edges[1:], "right")).tolist()
        for b, upto in enumerate(dones):
            prefix = ref_prefix_products(kernel, segs[runs[b] : runs[b + 1]])
            kernel.run(*kernel.operands(prefix, carry, prefix))
            by_bound[done:upto] = prefix[: upto - done]
            carry = ref_normalize(kernel, prefix[-1])
            done = upto

    phase = np.exp(-1j * recorded_phase)
    props = (kernel.matrix(recorded.reshape((k, bounds.size) + kernel.identity.shape))
             * phase[:, None, None])
    times = bounds * dt
    times[-1] = t_end
    return [Trajectory._of_run(times if s == 0 else times.copy(),
                               np.einsum("kij,j->ki", u, psi0), u, schedule)
            for s, (schedule, u) in enumerate(zip(schedules, props))]


# ---------------------------------------------------------------------------
# draws


def signed_zero(rng):
    return (0.0, -0.0)[int(rng.integers(2))]


def record(rng, vertical, omega1, t_end, gamma=None, phase0=None):
    gamma = rng.uniform(0.2, 3.0) * (1, -1)[int(rng.integers(2))] if gamma is None else gamma
    phase0 = rng.uniform(-4, 4) if phase0 is None else phase0
    return FieldSchedule(vertical, omega1, gamma, phase0, (1, -1)[int(rng.integers(2))], t_end)


def field_runs(rng, t_end):
    """(label, records): one record, a stacked pair, the three pairs whose
    zeros are exact, and the equatorial uncompensated loop."""
    one = record(rng, rng.uniform(-2, 2), rng.uniform(0.1, 2), t_end)
    pair = (one, FieldSchedule(rng.uniform(-2, 2), one.omega1, one.gamma, one.phase0, one.sign,
                               t_end))
    z = signed_zero(rng)
    zeros = [
        (record(rng, 0.0, 1.3, t_end), None),  # +0.0 and -0.0 vertical under a field
        (record(rng, -0.0, 0.0, t_end), rng.uniform(-2, 2)),  # no horizontal field
        (record(rng, z, 0.0, t_end, gamma=z, phase0=-z), -z),  # no field at all
    ]
    zero_pairs = [(f, FieldSchedule(-f.vertical if v is None else v, f.omega1, f.gamma,
                                    f.phase0, f.sign, t_end)) for f, v in zeros]
    loop = FieldLoop(FieldParams(signed_zero(rng), rng.uniform(0.1, 2),
                                       rng.uniform(0.2, 3.0) * (1, -1)[int(rng.integers(2))],
                                       phase0=rng.uniform(-4, 4)),
                           revolutions=rng.uniform(0.5, 2.0), compensated=False,
                           sign=(1, -1)[int(rng.integers(2))])
    (equatorial,), times, _ = _integrate_loop(loop, 1, 2)
    duration = times[-1]
    return [("record", (one,), t_end), ("pair", pair, t_end),
            *[(f"zeros{j}", p, t_end) for j, p in enumerate(zero_pairs)],
            ("equatorial", (equatorial,), duration)]


def traced_2x2(rng):
    """A 2x2 schedule with a trace that varies in time."""
    c0, c1, w, v, omega1, gamma = rng.uniform(-2, 2, size=6)

    def schedule(t):
        h = np.empty((len(t), 2, 2), dtype=complex)
        c = c0 + c1 * np.cos(w * t)
        h[:, 0, 0] = c + 0.5 * v
        h[:, 1, 1] = c - 0.5 * v
        h[:, 0, 1] = 0.5 * omega1 * np.exp(-1j * gamma * t)
        h[:, 1, 0] = h[:, 0, 1].conj()
        return h

    return schedule


def diagonal_4x4(rng):
    a, b, w = rng.uniform(-2, 2, size=(3, 4))

    def schedule(t):
        h = np.zeros((len(t), 4, 4), dtype=complex)
        h[:, range(4), range(4)] = a + b * np.cos(np.multiply.outer(t, w))
        return h

    return schedule


def full_4x4(rng):
    g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    a, b, c = 0.5 * (g + g.conj().transpose(0, 2, 1))
    w = rng.uniform(0.2, 2)

    def schedule(t):
        return (a + np.multiply.outer(np.cos(w * t), b) + np.multiply.outer(np.sin(w * t), c))

    return schedule


def callable_runs(rng, t_end, dense):
    """(label, schedule, t_end): the 2x2 callable with a trace, and the
    diagonal 4x4 callable when dense is 0, the non-diagonal one when it is
    1, neither when it is None."""
    runs = [("traced 2x2", (traced_2x2(rng),), t_end)]
    if dense is not None:
        label, make = (("diagonal 4x4", diagonal_4x4), ("full 4x4", full_4x4))[dense]
        runs.append((label, (make(rng),), t_end))
    return runs


def random_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def run(schedules, t_end, steps, psi0, samples):
    """The live run, and for a callable the step matrices its kernel made,
    copied before the run reduces them in place (None for field records):
    the reference takes them instead of taking every eigendecomposition
    again."""
    if isinstance(schedules[0], FieldSchedule):
        times, props = P._integrate(tuple(schedules), t_end, steps, samples)
        return [P._trajectory(times, u, psi0, f) for f, u in zip(schedules, props)], None
    taken, live = [], P._Dense.steps

    def steps_taken(kernel, start, stop, dt):
        elems = live(kernel, start, stop, dt)
        taken.append(elems.copy())
        return elems

    P._Dense.steps = steps_taken
    try:
        got = integrate(schedules[0], t_end, total_steps=steps, psi0=psi0, samples=samples)
    finally:
        P._Dense.steps = live
    return [got], np.concatenate(taken) if taken else None


def assert_same_runs(got, want, label):
    assert len(got) == len(want), label
    for s, (a, b) in enumerate(zip(got, want)):
        for name in ("times", "states", "propagators"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (label, s, name)


def check_draws(rng, steps, samples_list, dense):
    """Every kind of run at steps, for each samples count, the 4x4 callables
    as dense picks them for each count (an index, or None); returns the
    number of runs."""
    count = 0
    for samples, d4 in zip(samples_list, dense):
        t_end = rng.uniform(0.5, 20.0)
        for label, schedules, duration in field_runs(rng, t_end) + callable_runs(rng, t_end, d4):
            d = 4 if "4x4" in label else 2
            psi0 = random_state(rng, d) if rng.integers(2) else None
            got, taken = run(schedules, duration, steps, psi0, samples)
            want = ref_integrate(tuple(schedules), duration, steps, psi0, samples, taken)
            assert_same_runs(got, want, (label, steps, samples))
            count += 1
    return count


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("steps", STEPS)
def test_every_kernel_keeps_the_reference_bytes(steps):
    # the two 4x4 callables take most of the time; each takes two of the
    # four sample counts
    rng = np.random.default_rng(2000 + steps)
    assert check_draws(rng, steps, (2, 3, 257, steps + 1), (0, 1, 1, 0)) == 4 * KINDS


@pytest.mark.parametrize("seed", range(DRAW_SEEDS))
def test_drawn_runs_keep_the_reference_bytes(seed):
    rng = np.random.default_rng(2100 + seed)
    for _ in range(DRAWS):
        steps = int(np.exp(rng.uniform(0, np.log(6000))))
        samples = (2, 3, 257, steps + 1, int(rng.integers(2, steps + 2)))[int(rng.integers(5))]
        assert check_draws(rng, steps, (samples,), (None,)) == KINDS - 1


def test_the_draws_reach_a_thousand_runs():
    assert len(STEPS) * 4 * KINDS + DRAW_SEEDS * DRAWS * (KINDS - 1) >= 1000


def test_a_run_that_fills_several_windows_keeps_the_bytes():
    # at n + 1 samples every whole block holds BLOCK_STEPS runs, so the
    # run's 8 blocks cannot share one window
    rng = np.random.default_rng(2999)
    assert check_draws(rng, 30_000, (30_001, 30_001), (0, 1)) == 2 * KINDS


def test_the_window_does_not_grow_with_the_samples():
    """The peak of a run at n + 1 samples grows from 100,000 to 200,000
    steps by no more than the reference loop's peak, which holds no more
    than one block's prefixes, plus one pass's workspace. The run's final
    arrays (recorded pairs, matrices, phases, states) grow with the samples
    on both sides, about twice the returned arrays at their peak."""
    code = """if True:
        import tracemalloc
        import sys
        sys.path.insert(0, %r)
        from test_carry_bytes import ref_integrate
        from conegate.hamiltonians import FieldSchedule
        from conegate.propagation import integrate
        f = FieldSchedule(0.3, 0.8, -1.25)
        tracemalloc.start()
        for name, call in (("run", lambda n: integrate(f, 5.0, total_steps=n, samples=n + 1)),
                           ("reference", lambda n: ref_integrate((f,), 5.0, n, None, n + 1)[0])):
            call(1000)
            peaks = []
            for n in (100_000, 200_000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                got = call(n)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del got
            print(name, peaks[1] - peaks[0])
    """ % os.path.dirname(__file__)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    growth = {name: int(value) for name, value in map(str.split, out.stdout.splitlines())}
    workspace = 9 * P.PASS_BLOCKS * P.BLOCK_STEPS * 8 + 2 * P.PASS_BLOCKS * P.BLOCK_STEPS * 8
    assert workspace == 1_081_344
    assert growth["run"] <= growth["reference"] + workspace, growth


# a run defers its whole blocks' tails from its second pass of them on, and
# a window holds PASS_BLOCKS BLOCK_STEPS / TAIL_ROWS whole blocks
DEFERRED_FROM = (P.PASS_BLOCKS + 1) * P.BLOCK_STEPS
WINDOW_BLOCKS = P.PASS_BLOCKS * P.BLOCK_STEPS // P.TAIL_ROWS


@pytest.mark.parametrize("steps", (DEFERRED_FROM - 1, DEFERRED_FROM, DEFERRED_FROM + 1, 800_001))
def test_two_sample_runs_keep_the_bytes_across_tail_windows(steps):
    """Two-sample runs on both sides of the step count where the tails are
    deferred, every field run and the 2x2 callable, and across two
    windows, one record and two stacked (the other runs take the same
    path there, and their time)."""
    assert DEFERRED_FROM == 16_384 and WINDOW_BLOCKS == 192
    assert 800_001 // P.BLOCK_STEPS > WINDOW_BLOCKS
    rng = np.random.default_rng(3000 + steps)
    t_end = rng.uniform(0.5, 20.0)
    runs = field_runs(rng, t_end)
    runs = runs[:2] if steps == 800_001 else runs + callable_runs(rng, t_end, None)
    assert [label for label, _, _ in runs[:2]] == ["record", "pair"]
    for label, schedules, duration in runs:
        psi0 = random_state(rng, 2) if rng.integers(2) else None
        got, taken = run(schedules, duration, steps, psi0, 2)
        want = ref_integrate(tuple(schedules), duration, steps, psi0, 2, taken)
        assert_same_runs(got, want, (label, steps))


# parts of a pair: signed zeros, subnormals and the smallest normal, beside
# the part that carries the pair's norm
TINY_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315, 2.2250738585072014e-308)


@pytest.mark.parametrize("records", (1, 2))
def test_the_projection_keeps_the_numpy_bytes(records):
    """_SU2.normalize, in Python floats, against the frozen numpy projection
    on pairs near SU(2) whose other parts are signed zeros or subnormal
    (a pair whose squares sum to zero is no SU(2) element and never
    reaches the carry)."""
    rng = np.random.default_rng(4100 + records)
    kernel = P._SU2((FieldSchedule(0.3, 0.8, -1.25),) * records, 1.0)
    for _ in range(500):
        parts = rng.choice(TINY_PARTS, size=(records, 4))
        big = rng.integers(4, size=records)
        norm = rng.uniform(1 - 1e-12, 1 + 1e-12, size=records) * rng.choice((1, -1), size=records)
        parts[np.arange(records), big] = norm
        if rng.integers(2):  # a second part of ordinary size
            parts[np.arange(records), (big + 1 + rng.integers(3, size=records)) % 4] = (
                rng.uniform(-0.8, 0.8, size=records))
        ck = (parts[:, 0::2] + 1j * parts[:, 1::2]).reshape((2,) if records == 1 else (2, 2))
        got = kernel.normalize(ck)
        want = ref_normalize(kernel, ck)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), ck.tolist()
