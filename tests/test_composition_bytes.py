"""Byte identity of the sector composition and of the two constraint
solvers against frozen reference copies.

The references below are the composition loop (sector blocks kept as
Python-complex entry tuples, multiplied in listed order, the 4x4 block
diagonal built from them at the end) and the scalar solvers as they were
written before the single-loop composition, copied here so that any
rewrite of `sequences._compose`, `s_operation_params` or
`two_qubit_loop_params` must reproduce their bits: composites compared by
`tobytes()`, solver outputs by `float.hex`.
"""

import math

import numpy as np
import pytest

from conegate import sequences
from conegate.gates import (
    cnot_recipe,
    conditional_recipe,
    hadamard_recipe,
    not_recipe,
    phase_gate_recipe,
)
from conegate.hamiltonians import FieldParams
from conegate.phases import two_qubit_loop_params
from conegate.sequences import (
    SINGLE_QUBIT,
    TWO_QUBIT,
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    RotY,
    RotZ,
    apply_sequence,
    build_conditional_loop,
    invert_sequence,
    s_operation_params,
    simulate_sequence,
)

SIM_STEPS = 200  # integrator steps per loop of the simulate_sequence checks


# ---------------------------------------------------------------------------
# reference composition


def ref_z_entries(alpha):
    return (complex(math.cos(alpha), math.sin(alpha)), 0j, 0j,
            complex(math.cos(-alpha), math.sin(-alpha)))


def ref_pulse_blocks(step, dim):
    if isinstance(step, RotX):
        c, s = math.cos(step.angle / 2), math.sin(step.angle / 2)
        return [(complex(c), complex(0.0, -s), complex(0.0, -s), complex(c))]
    if isinstance(step, RotY):
        c, s = math.cos(step.angle / 2), math.sin(step.angle / 2)
        return [(complex(c), complex(-s), complex(s), complex(c))]
    if isinstance(step, RotZ):
        return [ref_z_entries(-0.5 * step.angle)]
    if dim == 2:
        if step.j != 0.0:
            raise ValueError("j-coupled free evolution needs the two-qubit frame")
        offsets = [step.delta]
    else:
        offsets = [step.delta + step.j, step.delta - step.j]
    half_t = -0.5 * (step.sign * step.duration)
    return [ref_z_entries(half_t * e) for e in offsets]


def ref_product(a, b):
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def ref_per_sector(blocks, dim):
    if len(blocks) == dim // 2:
        return blocks
    if len(blocks) > dim // 2:
        raise ValueError("a conditional loop needs dimension 4")
    return [blocks[0]] * (dim // 2)


def ref_operator(blocks, dim):
    blocks = ref_per_sector(np.array(blocks, dtype=complex).reshape(-1, 2, 2), dim)
    if dim == 2:
        return blocks[0]
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = blocks
    return out


def ref_compose(seq, dim, loop_blocks):
    sectors = [(1 + 0j, 0j, 0j, 1 + 0j)] * (dim // 2)
    for step in seq.steps:
        blocks = loop_blocks(step) if isinstance(step, FieldLoop) else ref_pulse_blocks(step, dim)
        sectors = [ref_product(u, v) for u, v in zip(ref_per_sector(blocks, dim), sectors)]
    return ref_operator(sectors, dim)


def ref_apply(seq, dim):
    return ref_compose(seq, dim, sequences._loop_closed_form)


def simulate_both(seq, dim, monkeypatch):
    """simulate_sequence(seq, dim, SIM_STEPS) and the reference composition
    of the same integrated loop blocks (each loop integrated once)."""
    runs = {}
    integrate_loop = sequences._integrate_loop

    def recording(step, *args, **kwargs):
        out = runs[id(step)] = integrate_loop(step, *args, **kwargs)
        return out

    monkeypatch.setattr(sequences, "_integrate_loop", recording)
    got = simulate_sequence(seq, dim, steps_per_loop=SIM_STEPS)
    monkeypatch.setattr(sequences, "_integrate_loop", integrate_loop)

    def loop_blocks(step):
        return [run.propagators[-1].ravel().tolist() for run in runs[id(step)][1]]

    return got, ref_compose(seq, dim, loop_blocks)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def conditional_loops(rng, n):
    """n conditional-loop composites, delta/J from 1 + 1e-9 to 1e3, at
    couplings J from 0.1 to 10."""
    ratio = 1.0 + 10.0 ** rng.uniform(-9.0, math.log10(999.0), size=n)
    ratio[:2] = 1.0 + 1e-9, 1e3
    j = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    return [build_conditional_loop(float(r * jj), float(jj)) for r, jj in zip(ratio, j)]


# ---------------------------------------------------------------------------
# composites


class TestCompositeBytes:
    def test_conditional_loops_apply(self):
        seqs = conditional_loops(np.random.default_rng(1401), 10_000)
        for seq in seqs:
            assert_same_bytes(apply_sequence(seq, 4), ref_apply(seq, 4))

    def test_conditional_loops_simulate(self, monkeypatch):
        # the composition is the one apply_sequence runs; these check the
        # integrated blocks' way into it
        for seq in conditional_loops(np.random.default_rng(1402), 1_000):
            assert_same_bytes(*simulate_both(seq, 4, monkeypatch))

    def test_both_loop_signs(self, monkeypatch):
        for seq in conditional_loops(np.random.default_rng(1403), 200):
            inverse = invert_sequence(seq)
            assert inverse.steps[5].sign == -seq.steps[5].sign == -1
            for s in (seq, inverse):
                assert_same_bytes(apply_sequence(s, 4), ref_apply(s, 4))
            assert_same_bytes(*simulate_both(inverse, 4, monkeypatch))

    @pytest.mark.parametrize("build", [
        lambda: phase_gate_recipe(np.pi / 3),
        lambda: phase_gate_recipe(1.1, loops=2),
        hadamard_recipe,
        not_recipe,
        lambda: conditional_recipe(1.058),
        lambda: conditional_recipe(1.8, 0.5),
        cnot_recipe,
    ])
    def test_every_gate_recipe(self, build, monkeypatch):
        recipe = build()
        seq, dim = recipe.sequence, recipe.dim
        for s in (seq, invert_sequence(seq)):
            assert_same_bytes(apply_sequence(s, dim), ref_apply(s, dim))
            assert_same_bytes(*simulate_both(s, dim, monkeypatch))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_every_primitive_with_signed_zeros(self, dim, monkeypatch):
        rng = np.random.default_rng(1404 + dim)
        frame = SINGLE_QUBIT if dim == 2 else TWO_QUBIT
        loop_params = [FieldParams(0.9, 0.5, -1.4, omega_z=-1.4, phase0=0.0),
                       FieldParams(0.9, 0.5, -1.4, omega_z=-1.4, phase0=-0.0),
                       FieldParams(-0.0, 0.7, 0.8, phase0=0.3)]
        loops = [FieldLoop(p, revolutions=r, compensated=p.omega_z != 0.0, sign=sign)
                 for p in loop_params for r in (0.5, 1.0) for sign in (1, -1)]
        if dim == 4:
            loops.append(FieldLoop(sequences.ConditionalLoop(1.3, 0.4, phase0=-0.0)))

        def primitives(angle, duration):
            yield from (RotX(angle), RotY(angle), RotZ(angle))
            for delta in (0.0, -0.0, 1.7 * angle):
                for j in ((0.0,) if dim == 2 else (0.0, -0.0, 0.6)):
                    for sign in (1, -1):
                        yield FreeEvolve(duration, delta, j, sign)

        # each primitive alone, at both zeros and at drawn values
        for angle in (0.0, -0.0, *rng.uniform(-20, 20, 6).tolist()):
            for step in primitives(angle, abs(angle)):
                seq = PulseSequence((step,), frame)
                assert_same_bytes(apply_sequence(seq, dim), ref_apply(seq, dim))
        for loop in loops:
            seq = PulseSequence((loop,), frame)
            assert_same_bytes(apply_sequence(seq, dim), ref_apply(seq, dim))

        # mixed programs of every primitive, loops included
        for k in range(300):
            pool = list(primitives(float(rng.choice([0.0, -0.0, rng.uniform(-9, 9)])),
                                   float(rng.choice([0.0, rng.uniform(0, 4)]))))
            steps = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 9))]
            steps.insert(int(rng.integers(0, len(steps) + 1)), loops[k % len(loops)])
            seq = PulseSequence(tuple(steps), frame)
            assert_same_bytes(apply_sequence(seq, dim), ref_apply(seq, dim))
            if k % 30 == 0:
                assert_same_bytes(*simulate_both(seq, dim, monkeypatch))

    def test_empty_sequence(self):
        for dim, frame in ((2, SINGLE_QUBIT), (4, TWO_QUBIT)):
            seq = PulseSequence((), frame)
            assert_same_bytes(apply_sequence(seq, dim), ref_apply(seq, dim))
            assert_same_bytes(simulate_sequence(seq, dim, steps_per_loop=SIM_STEPS),
                              ref_apply(seq, dim))


# ---------------------------------------------------------------------------
# solvers


def ref_s_operation_params(delta, j, omega1):
    a_plus = np.arctan((delta + j) / omega1)
    a_minus = np.arctan((delta - j) / omega1)
    j_tc = 0.5 * (a_plus - a_minus)
    phi_prime = 0.5 * (a_plus + a_minus)
    return tuple(map(float, (j_tc / j, phi_prime, np.pi / 2 - a_plus, np.pi / 2 - a_minus)))


def ref_two_qubit_loop_params(delta, j):
    omega1 = float(np.sqrt(delta * delta - j * j))
    gamma = -2.0 * delta
    theta_plus = float(np.arccos(np.sqrt((delta + j) / (2 * delta))))
    theta_minus = float(np.arccos(np.sqrt((delta - j) / (2 * delta))))
    return omega1, gamma, theta_plus, theta_minus


def hexes(values):
    return [float(v).hex() for v in values]


def log_uniform(rng, low, high, n):
    return 10.0 ** rng.uniform(low, high, size=n)


class TestSolverBits:
    N = 100_000

    def test_s_operation_params(self):
        rng = np.random.default_rng(1405)
        delta = log_uniform(rng, -3, 3, self.N) * rng.choice([-1.0, 1.0], self.N)
        delta[:4] = 0.0, -0.0, 1.0, 1.058
        j = log_uniform(rng, -3, 3, self.N)
        omega1 = log_uniform(rng, -3, 3, self.N)
        for d, jj, w in zip(delta.tolist(), j.tolist(), omega1.tolist()):
            sol = s_operation_params(d, jj, w)
            got = (sol.t_c, sol.phi_prime, sol.theta_plus, sol.theta_minus)
            assert hexes(got) == hexes(ref_s_operation_params(d, jj, w)), (d, jj, w)

    def test_two_qubit_loop_params(self):
        rng = np.random.default_rng(1406)
        j = log_uniform(rng, -3, 3, self.N)
        delta = j * (1.0 + log_uniform(rng, -9, 3, self.N))
        for d, jj in zip(delta.tolist(), j.tolist()):
            if not d > jj:  # 1 + 1e-9 rounds to 1 at some couplings
                continue
            got = two_qubit_loop_params(d, jj)
            assert hexes(got) == hexes(ref_two_qubit_loop_params(d, jj)), (d, jj)
