"""Byte identity of the sector composition, of the two constraint solvers
and of the sequence builders against frozen reference copies.

The references below are the composition loop (sector blocks kept as
Python-complex entry tuples, multiplied in listed order, the 4x4 block
diagonal built from them at the end) and the scalar solvers as they were
written before the single-loop composition, copied here so that any
rewrite of `sequences._compose`, `s_operation_params` or
`two_qubit_loop_params` must reproduce their bits: composites compared by
`tobytes()`, solver outputs by `float.hex`. The builders
`build_conditional_loop`, `build_s_operation` and `sequences._inverted` are
copied as they were before their re-checks of package-made values were
removed; every field of every step they build is compared by `float.hex`.
The steps the builders now make without their checks are rebuilt through
their public constructors, which must accept them unchanged.
"""

import ast
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path

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
    ConditionalLoop,
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    RotY,
    RotZ,
    SOpSolution,
    apply_sequence,
    build_conditional_loop,
    build_s_operation,
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
        return [u[-1].ravel().tolist() for u in runs[id(step)][2]]

    return got, ref_compose(seq, dim, loop_blocks)


def inverted(seq):
    """The exact inverse of seq, its steps as sequences._inverted builds them."""
    return PulseSequence(sequences._inverted(seq.steps), frame=seq.frame)


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
            inverse = inverted(seq)
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
        for s in (seq, inverted(seq)):
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


# ---------------------------------------------------------------------------
# builders


def ref_check_solution(sol, delta, j):
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


def ref_s_operation_steps(sol, delta, j):
    ref_check_solution(sol, delta, j)
    return (RotY(np.pi / 2), FreeEvolve(sol.t_c, delta, j), RotZ(-delta * sol.t_c),
            RotX(np.pi / 2), RotY(-sol.phi_prime))


def ref_inverted(steps):
    inverted = []
    for step in reversed(steps):
        if isinstance(step, FreeEvolve):
            inverted.append(FreeEvolve(step.duration, step.delta, step.j, -step.sign))
        elif isinstance(step, FieldLoop):
            inverted.append(FieldLoop(step.params, step.revolutions, step.compensated, -step.sign))
        else:
            inverted.append(type(step)(-step.angle))
    return tuple(inverted)


def ref_build_conditional_loop(delta, j):
    loop = FieldLoop(ConditionalLoop(delta, j), revolutions=1.0, compensated=True)
    omega1 = ref_two_qubit_loop_params(delta, j)[0]
    sol = SOpSolution(*ref_s_operation_params(delta, j, omega1))
    s_steps = ref_s_operation_steps(sol, delta, j)
    return PulseSequence(s_steps + (loop,) + ref_inverted(s_steps), frame=TWO_QUBIT)


def fields_hex(obj):
    """The type and every field of a step or of its loop parameters, floats
    as float.hex; a conditional loop's solved setting included."""
    out = [type(obj).__name__]
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.append(fields_hex(value))
        else:
            out.append(value.hex() if isinstance(value, float) else repr(value))
    if isinstance(obj, ConditionalLoop):
        out.append(hexes(obj.setting))
    return out


def assert_same_steps(got, want):
    assert got.frame == want.frame
    assert [fields_hex(s) for s in got.steps] == [fields_hex(s) for s in want.steps]


def mixed_programs(rng, n, frame):
    """n programs of every primitive at drawn and signed-zero angles, loops
    with phase0 of +-0.0 and both signs included."""
    def zeros_and_draws():
        return float(rng.choice([0.0, -0.0, rng.uniform(-9, 9)]))

    for _ in range(n):
        steps = []
        for _ in range(int(rng.integers(0, 9))):
            kind = int(rng.integers(0, 6))
            if kind < 3:
                steps.append((RotX, RotY, RotZ)[kind](zeros_and_draws()))
            elif kind == 3:
                j = zeros_and_draws() if frame == TWO_QUBIT else 0.0
                steps.append(FreeEvolve(abs(zeros_and_draws()), zeros_and_draws(), j,
                                        int(rng.choice([-1, 1]))))
            elif kind == 4 or frame == SINGLE_QUBIT:
                gamma = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1, 1]))
                compensated = bool(rng.integers(0, 2))
                p = FieldParams(zeros_and_draws(), abs(zeros_and_draws()), gamma,
                                gamma if compensated else 0.0, zeros_and_draws())
                steps.append(FieldLoop(p, float(rng.uniform(0.25, 3.0)), compensated,
                                       int(rng.choice([-1, 1]))))
            else:
                j = float(rng.uniform(0.1, 2.0))
                loop = ConditionalLoop(j * float(rng.uniform(1.01, 5.0)), j, zeros_and_draws())
                steps.append(FieldLoop(loop, sign=int(rng.choice([-1, 1]))))
        yield PulseSequence(tuple(steps), frame)


class TestBuilderSteps:
    N = 1_000

    def test_build_conditional_loop(self):
        rng = np.random.default_rng(1701)
        ratio = 1.0 + 10.0 ** rng.uniform(-9.0, math.log10(999.0), size=self.N)
        ratio[:2] = 1.0 + 1e-9, 1e3
        j = 10.0 ** rng.uniform(-1.0, 1.0, size=self.N)
        for r, jj in zip(ratio.tolist(), j.tolist()):
            want = ref_build_conditional_loop(r * jj, jj)
            got = build_conditional_loop(r * jj, jj)
            assert_same_steps(got, want)
            assert_same_steps(inverted(got), PulseSequence(ref_inverted(want.steps),
                                                                   frame=want.frame))

    def test_build_s_operation(self):
        rng = np.random.default_rng(1702)
        delta = log_uniform(rng, -3, 3, self.N) * rng.choice([-1.0, 1.0], self.N)
        delta[:4] = 0.0, -0.0, 1.0, 1.058
        j = log_uniform(rng, -3, 3, self.N)
        omega1 = log_uniform(rng, -3, 3, self.N)
        built = 0
        for d, jj, w in zip(delta.tolist(), j.tolist(), omega1.tolist()):
            sol = s_operation_params(d, jj, w)
            try:
                want = PulseSequence(ref_s_operation_steps(sol, d, jj), frame=TWO_QUBIT)
            except ValueError as exc:  # a record the check refuses stays refused
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    build_s_operation(sol, d, jj)
                continue
            got = build_s_operation(sol, d, jj)
            assert_same_steps(got, want)
            assert_same_steps(inverted(got), PulseSequence(ref_inverted(want.steps),
                                                                   frame=want.frame))
            built += 1
        assert built >= 0.9 * self.N

    @pytest.mark.parametrize("frame", [SINGLE_QUBIT, TWO_QUBIT])
    def test_invert_sequence(self, frame):
        rng = np.random.default_rng(1703 + (frame == TWO_QUBIT))
        for seq in mixed_programs(rng, self.N, frame):
            want = PulseSequence(ref_inverted(seq.steps), frame=frame)
            assert_same_steps(inverted(seq), want)
            assert_same_steps(inverted(inverted(seq)), seq)


# ---------------------------------------------------------------------------
# steps built without their checks


def references(name: str) -> set:
    """Each scope of the package that refers to name, as a bare name or as
    an attribute: module.class.function, or the module alone for its
    top-level code. A def of that name is not a reference."""
    found = set()

    def visit(node, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(sequences.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return found


def block_bytes(step, dim):
    """The bytes of a step's sector blocks at dim; a loop's closed form."""
    blocks = sequences._loop_closed_form(step) if isinstance(step, FieldLoop) else step._blocks(dim)
    return np.array(blocks, dtype=complex).tobytes()


class TestTrustedSteps:
    """build_conditional_loop builds its loop, its sequence and, through
    _inverted, its inverse preparation with propagation._made, which runs no
    __post_init__; the two quarter turns of the preparation are shared and
    keep their blocks. Rebuilt through its public constructor
    (dataclasses.replace runs __post_init__ again), each such step must
    pass every check and compare equal, with the same blocks."""

    N = 1_000

    @staticmethod
    def draws(n):
        """(delta, J) with delta/J from just above 1 to about 1e15, at
        couplings J from 0.1 to 10 other than 1."""
        rng = np.random.default_rng(1801)
        ratio = 1.0 + 10.0 ** rng.uniform(-9.0, 15.0, size=n)
        ratio[:2] = 1.0 + 1e-9, 1e15
        j = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        assert not np.any(j == 1.0)
        return list(zip((ratio * j).tolist(), j.tolist()))

    def test_rebuilt_steps_pass_their_checks(self):
        for delta, j in self.draws(self.N):
            seq = build_conditional_loop(delta, j)
            for s in (seq, inverted(seq)):
                assert dataclasses.replace(s) == s
                for step in s.steps:
                    rebuilt = dataclasses.replace(step)
                    assert rebuilt == step and fields_hex(rebuilt) == fields_hex(step)
                    for dim in (2, 4):
                        assert block_bytes(rebuilt, dim) == block_bytes(step, dim)

    def test_sequences_read_back_from_their_documents(self):
        for delta, j in self.draws(self.N):
            seq = build_conditional_loop(delta, j)
            for s in (seq, inverted(seq)):
                back = sequences.sequence_from_dict(json.loads(sequences.to_json(s)))
                assert back == s
                assert_same_steps(back, s)

    def test_the_quarter_turns_are_shared_with_their_inverses(self):
        seq = build_conditional_loop(1.8, 1.0)
        assert seq.steps[0] is sequences._QUARTER_Y and seq.steps[3] is sequences._QUARTER_X
        for quarter, kind in ((sequences._QUARTER_Y, RotY), (sequences._QUARTER_X, RotX)):
            inverse = quarter._inverse()
            assert inverse._inverse() is quarter
            assert inverse == kind(-np.pi / 2) and quarter == kind(np.pi / 2)
            for pulse in (quarter, inverse):
                assert block_bytes(pulse, 4) == block_bytes(kind(pulse.angle), 4)
        # a pickled sequence comes back as freshly built pulses
        back = pickle.loads(pickle.dumps(seq))
        assert back == seq and back.steps[0] is not sequences._QUARTER_Y
        assert [block_bytes(s, 4) for s in back.steps] == [block_bytes(s, 4) for s in seq.steps]

    def test_only_the_builders_skip_the_checks(self):
        # _made is reached only from build_conditional_loop, from the
        # _inverse methods, which negate an already checked angle or sign,
        # and from Trajectory._of_run, which the integrator and
        # sequence_trajectory reach with arrays they built; _inverse is
        # reached only from _inverted and _kept, and _inverted only from
        # build_conditional_loop. So neither the schedule reader nor a
        # public constructor hands an outside value to _made.
        assert references("_made") == {"sequences._Rotation._inverse",
                                       "sequences.FreeEvolve._inverse",
                                       "sequences.FieldLoop._inverse",
                                       "sequences.build_conditional_loop",
                                       "propagation.Trajectory._of_run"}
        assert references("_of_run") == {"propagation._trajectory",
                                         "sequences.sequence_trajectory"}
        assert references("_inverse") == {"sequences._inverted", "sequences._kept"}
        assert references("_inverted") == {"sequences.build_conditional_loop"}
        assert references("_kept") == {"sequences"}
