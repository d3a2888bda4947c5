import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from conegate import sequences
from conegate.hamiltonians import FieldParams
from conegate.linalg import IDENTITY_2, bloch_vector, fidelity
from conegate.propagation import propagator_compensated, rot_z
from conegate.phases import (
    canonical_phase,
    cone_eigenstate,
    geometric_phase_cone,
    two_qubit_loop_params,
)
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
    _free_evolution_unitaries,
    _inverted,
    integrate_loop,
    s_operation_angles,
    sequence_from_dict,
    s_operation_params,
    sequence_trajectory,
    simulate_sequence,
    to_json,
)

from conftest import is_unitary

CNOT_DELTA = 4 / np.sqrt(7)


def inverse(seq: PulseSequence) -> PulseSequence:
    """The exact inverse of seq, its steps as _inverted builds them."""
    return PulseSequence(_inverted(seq.steps), frame=seq.frame)

# frozen from the arctan formulas at delta/J = 1.058, omega1/J = 1
EXPECTED_J_TC = 0.5302750602609773
EXPECTED_PHI_PRIME = 0.5882101538843943


def up_state(dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def sector_state(b_up: bool, psi_a: np.ndarray) -> np.ndarray:
    b = np.array([1.0, 0.0]) if b_up else np.array([0.0, 1.0])
    return np.kron(b, psi_a).astype(complex)


class TestSOperationParams:
    def test_experimental_point(self):
        sol = s_operation_params(1.058, 1.0, 1.0)
        assert sol.t_c == pytest.approx(EXPECTED_J_TC, abs=1e-12)
        assert sol.phi_prime == pytest.approx(EXPECTED_PHI_PRIME, abs=1e-12)

    def test_constraint_residuals(self, rng):
        for _ in range(30):
            j = rng.uniform(0.2, 2.0)
            delta = rng.uniform(0.1, 4.0)
            omega1 = rng.uniform(0.1, 5.0)
            sol = s_operation_params(delta, j, omega1)
            r1 = np.tan(sol.phi_prime + j * sol.t_c) - (delta + j) / omega1
            r2 = np.tan(sol.phi_prime - j * sol.t_c) - (delta - j) / omega1
            assert abs(r1) < 1e-12
            assert abs(r2) < 1e-12

    def test_prepared_angles(self):
        sol = s_operation_params(1.058, 1.0, 1.0)
        assert sol.theta_plus == pytest.approx(np.arctan(1.0 / 2.058), abs=1e-14)
        assert sol.theta_minus == pytest.approx(np.arctan(1.0 / 0.058), abs=1e-14)

    def test_symmetric_offset(self):
        # delta = j: the minus constraint collapses to arctan(0) = 0
        sol = s_operation_params(1.0, 1.0, 0.7)
        assert sol.t_c == pytest.approx(0.5 * np.arctan(2.0 / 0.7), abs=1e-14)
        assert sol.phi_prime == pytest.approx(sol.t_c, abs=1e-14)

    def test_monotone_in_omega1(self):
        omega1 = np.arange(0.5, 10.0 + 1e-9, 0.05)
        sols = [s_operation_params(1.058, 1.0, float(w)) for w in omega1]
        j_tc = np.array([s.t_c for s in sols])
        phi = np.array([s.phi_prime for s in sols])
        assert np.all(np.diff(j_tc) < 0)
        assert np.all(np.diff(phi) < 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            s_operation_params(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            s_operation_params(1.0, 0.0, 1.0)

    def test_grid_is_bitwise_per_point(self):
        delta = np.repeat(np.arange(0.5, 2.5 + 1e-9, 0.25), 40)
        omega1 = np.tile(np.arange(0.1, 10.0, 0.25), 9)
        grid = np.column_stack(s_operation_angles(delta, 1.0, omega1))
        per_point = np.array([
            [s.t_c, s.phi_prime, s.theta_plus, s.theta_minus]
            for s in (s_operation_params(float(d), 1.0, float(w)) for d, w in zip(delta, omega1))
        ])
        assert np.array_equal(grid, per_point)

    def test_grid_rejects_any_nonpositive_omega1(self):
        with pytest.raises(ValueError, match="omega1 must be positive"):
            s_operation_angles(np.ones(3), 1.0, np.array([0.5, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_both_front_ends_refuse_non_finite_inputs(self, bad):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="delta, j and omega1 must be finite"):
                s_operation_params(*args)
        grid = np.array([0.5, 1.0, 2.0])
        for position in (0, 2):
            for k in range(3):
                args = [grid.copy(), 1.0, grid.copy()]
                args[position][k] = bad
                with pytest.raises(ValueError, match="delta, j and omega1 must be finite"):
                    s_operation_angles(*args)
        with pytest.raises(ValueError, match="delta, j and omega1 must be finite"):
            s_operation_angles(grid, bad, grid)

    def test_grid_of_no_points_is_solved(self):
        empty = np.zeros(0)
        assert all(a.size == 0 for a in s_operation_angles(empty, 1.0, empty))


class TestBuildSOperation:
    def test_prepares_conditional_eigenstates(self):
        sol = s_operation_params(1.058, 1.0, 1.0)
        seq = build_s_operation(sol, 1.058, 1.0)
        u4 = apply_sequence(seq, 4)
        for b_up, offset in ((True, 2.058), (False, 0.058)):
            out = u4 @ sector_state(b_up, np.array([1, 0]))
            target = cone_eigenstate(offset, 1.0).psi0
            a_part = out[:2] if b_up else out[2:]
            assert abs(target.conj() @ a_part) == pytest.approx(1.0, abs=1e-12)

    def test_many_random_draws(self, rng):
        for _ in range(50):
            j = rng.uniform(0.2, 2.0)
            delta = j * rng.uniform(1.01, 4.0)
            omega1 = rng.uniform(0.2, 4.0)
            sol = s_operation_params(delta, j, omega1)
            seq = build_s_operation(sol, delta, j)
            u4 = apply_sequence(seq, 4)
            for b_up, offset in ((True, delta + j), (False, delta - j)):
                out = u4 @ sector_state(b_up, np.array([1, 0]))
                target = cone_eigenstate(offset, omega1).psi0
                a_part = out[:2] if b_up else out[2:]
                assert abs(target.conj() @ a_part) >= 1 - 1e-8

    def test_uncoupled_limit(self):
        # j -> 0: both branches coincide with the single-spin eigenstate;
        # the timing becomes irrelevant, so the record is built by hand
        delta, omega1 = 1.3, 0.9
        phi = float(np.arctan(delta / omega1))
        sol = SOpSolution(t_c=0.0, phi_prime=phi,
                          theta_plus=np.pi / 2 - phi, theta_minus=np.pi / 2 - phi)
        seq = build_s_operation(sol, delta, 0.0)
        u4 = apply_sequence(seq, 4)
        target = cone_eigenstate(delta, omega1).psi0
        for b_up in (True, False):
            out = u4 @ sector_state(b_up, np.array([1, 0]))
            a_part = out[:2] if b_up else out[2:]
            assert abs(target.conj() @ a_part) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_inconsistent_record(self):
        sol = s_operation_params(1.058, 1.0, 1.0)
        broken = SOpSolution(sol.t_c * 1.01, sol.phi_prime,
                             sol.theta_plus, sol.theta_minus)
        with pytest.raises(ValueError):
            build_s_operation(broken, 1.058, 1.0)


class TestInvertSequence:
    def test_single_rotation(self):
        seq = PulseSequence((RotY(np.pi / 2),))
        assert _inverted(seq.steps) == (RotY(-np.pi / 2),)

    def test_empty(self):
        seq = PulseSequence(())
        assert _inverted(seq.steps) == ()

    def test_structural_involution(self):
        sol = s_operation_params(1.5, 1.0, 1.2)
        seq = build_s_operation(sol, 1.5, 1.0)
        assert inverse(inverse(seq)) == seq

    def test_s_inverse_cancels(self):
        sol = s_operation_params(1.058, 1.0, 1.0)
        seq = build_s_operation(sol, 1.058, 1.0)
        u = apply_sequence(seq, 4)
        u_inv = apply_sequence(inverse(seq), 4)
        assert fidelity(u_inv @ u, np.eye(4, dtype=complex)) >= 1 - 1e-10

    def test_loop_inverse_cancels(self):
        gamma = -2.0
        p = FieldParams(1.0, 1.0, gamma, omega_z=gamma)
        seq = PulseSequence((FieldLoop(p),), frame=SINGLE_QUBIT)
        u = apply_sequence(seq, 2)
        u_inv = apply_sequence(inverse(seq), 2)
        assert np.max(np.abs(u_inv @ u - np.eye(2))) < 1e-12
        # the integrator route inverts too
        u_sim = simulate_sequence(seq, 2, steps_per_loop=4000)
        u_inv_sim = simulate_sequence(inverse(seq), 2, steps_per_loop=4000)
        assert fidelity(u_inv_sim @ u_sim, np.eye(2, dtype=complex)) >= 1 - 1e-10


class TestApplySequence:
    def test_y_pulse_convention(self):
        u = apply_sequence(PulseSequence((RotY(np.pi / 2),)), 2)
        out = u @ up_state(2)
        assert np.allclose(bloch_vector(out), [1, 0, 0], atol=1e-15)

    def test_z_pulse_matrix(self):
        alpha = 0.73
        u = apply_sequence(PulseSequence((RotZ(alpha),)), 2)
        assert np.allclose(u, np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)]))

    def test_time_order_is_left_to_right(self):
        seq = PulseSequence((RotY(np.pi / 2), RotZ(np.pi / 2)))
        out = apply_sequence(seq, 2) @ up_state(2)
        # y pulse to +x, then a quarter turn about z lands on +y
        assert np.allclose(bloch_vector(out), [0, 1, 0], atol=1e-14)

    def test_frame_dim_mismatch(self):
        seq = PulseSequence((RotX(0.1),), frame=TWO_QUBIT)
        with pytest.raises(ValueError):
            apply_sequence(seq, 2)
        seq2 = PulseSequence((RotX(0.1),), frame=SINGLE_QUBIT)
        with pytest.raises(ValueError):
            apply_sequence(seq2, 4)

    def test_coupled_free_evolution_needs_two_qubit_frame(self):
        seq = PulseSequence((FreeEvolve(1.0, 0.5, j=1.0),), frame=SINGLE_QUBIT)
        with pytest.raises(ValueError):
            apply_sequence(seq, 2)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_free_evolution_stack_is_bitwise_per_sample(self, dim, sign):
        step = FreeEvolve(1.7, 1.3, 0.4 if dim == 4 else 0.0, sign)
        durations = step.duration * np.linspace(0, 1, 64)[1:]

        def per_sample(t):
            # the per-sample unitary: rot_z for one spin, the zz diagonal for two
            t = step.sign * t
            if dim == 2:
                return rot_z(step.delta * t)
            d, j = step.delta, step.j
            return np.diag(np.exp(-0.5j * t * np.array([d + j, -(d + j), d - j, -(d - j)])))

        stacked = _free_evolution_unitaries(step, dim, durations)
        assert np.array_equal(stacked, np.array([per_sample(t) for t in durations]))
        assert np.array_equal(
            stacked, np.array([_free_evolution_unitaries(replace(step, duration=t), dim,
                                                         [t])[0] for t in durations]))

    def test_conditional_loop_needs_dim_4(self):
        step = FieldLoop(ConditionalLoop(1.5, 1.0))
        seq = PulseSequence((step,), frame=SINGLE_QUBIT)
        with pytest.raises(ValueError):
            apply_sequence(seq, 2)


def rot_x_oracle(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rot_y_oracle(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rot_z_oracle(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def free_oracle(step, dim):
    """The eigenvalue table of the two-spin frame Hamiltonian, exponentiated."""
    d, j = step.delta, step.j
    eigenvalues = [d, -d] if dim == 2 else [d + j, -(d + j), d - j, -(d - j)]
    return np.diag(np.exp((-0.5j * (step.sign * step.duration)) * np.array(eigenvalues)))


def seeded_angles(rng, n):
    return np.concatenate([[0.0, -0.0, np.pi, -np.pi / 2, 1e-300, 1e3],
                           rng.uniform(-20, 20, n)])


# primitive and oracle of each hard pulse
PULSES = {"rot_x": (RotX, rot_x_oracle), "rot_y": (RotY, rot_y_oracle),
          "rot_z": (RotZ, rot_z_oracle)}


class TestSectorComposition:
    @pytest.mark.parametrize("rot", list(PULSES))
    def test_hard_pulse_matches_kronecker_oracle(self, rot, rng):
        kind, oracle = PULSES[rot]
        for angle in seeded_angles(rng, 300).tolist():
            u2 = oracle(angle)
            assert np.array_equal(np.array(kind(angle)._blocks(2)[0]).reshape(2, 2), u2)
            if kind is RotZ:
                assert np.array_equal(rot_z(angle), u2)
            assert np.array_equal(apply_sequence(PulseSequence((kind(angle),)), 2), u2)
            assert np.array_equal(apply_sequence(PulseSequence((kind(angle),), TWO_QUBIT), 4),
                                  np.kron(IDENTITY_2, u2))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_free_evolution_matches_diagonal_oracle(self, dim, rng):
        for k in range(300):
            step = FreeEvolve(rng.uniform(0, 5) * 10.0 ** rng.uniform(-3, 2), rng.uniform(-4, 4),
                              rng.uniform(-2, 2) if dim == 4 else 0.0, 1 if k % 2 else -1)
            frame = TWO_QUBIT if dim == 4 else SINGLE_QUBIT
            assert np.array_equal(apply_sequence(PulseSequence((step,), frame), dim),
                                  free_oracle(step, dim))

    def test_conditional_loop_matches_4x4_composition(self, rng):
        for delta in rng.uniform(1.05, 3.0, size=500):
            seq = build_conditional_loop(float(delta), 1.0)
            setting = two_qubit_loop_params(float(delta), 1.0)
            expected = np.eye(4, dtype=complex)
            for step in seq.steps:
                if isinstance(step, FieldLoop):
                    blocks = []
                    for sgn in (1, -1):
                        p = FieldParams(delta + sgn, setting.omega1, setting.gamma,
                                        omega_z=setting.gamma)
                        blocks.append(propagator_compensated(p, 2 * np.pi / abs(p.gamma)))
                    m = np.zeros((4, 4), dtype=complex)
                    m[:2, :2], m[2:, 2:] = blocks
                elif isinstance(step, FreeEvolve):
                    m = free_oracle(step, 4)
                else:
                    oracle = {RotX: rot_x_oracle, RotY: rot_y_oracle, RotZ: rot_z_oracle}
                    m = np.kron(IDENTITY_2, oracle[type(step)](step.angle))
                expected = m @ expected
            assert np.max(np.abs(apply_sequence(seq, 4) - expected)) <= 4e-15

    def test_simulate_composes_the_integrated_sectors(self):
        seq = build_conditional_loop(1.6, 1.0)
        loop = seq.steps[5]
        runs = sequences._integrate_loop(loop, 3000, samples=2)[2]
        expected = np.eye(4, dtype=complex)
        for step in seq.steps:
            if step is loop:
                m = np.zeros((4, 4), dtype=complex)
                m[:2, :2], m[2:, 2:] = (u[-1] for u in runs)
            else:
                m = apply_sequence(PulseSequence((step,), TWO_QUBIT), 4)
            expected = m @ expected
        assert np.max(np.abs(simulate_sequence(seq, 4, steps_per_loop=3000) - expected)) <= 4e-15

    def test_trajectory_propagators_keep_their_bits(self):
        # sha256 of the propagators before sector composition (x86-64,
        # OpenBLAS); the pulse and free-evolution oracles above pin the
        # pieces portably
        base = build_conditional_loop(1.7, 1.0)
        p = FieldParams(0.9, 0.5, -1.4, omega_z=-1.4, phase0=0.3)
        seq = PulseSequence(base.steps + (FreeEvolve(0.3, 1.7, 1.0, sign=-1), RotZ(0.4),
                                          FieldLoop(p, revolutions=0.5, sign=-1)), TWO_QUBIT)
        traj = sequence_trajectory(seq, 4, np.eye(4)[0], steps_per_loop=2000)
        assert traj.propagators.shape == (582, 4, 4)
        assert hashlib.sha256(traj.propagators.tobytes()).hexdigest() == (
            "e970914fa258e95e0ed1a7a67022496cbe6bf6f1e0f656f6449492b0db3a03cf")

    def test_builder_solves_the_loop_once(self, monkeypatch):
        calls = []

        def counting(delta, j):
            calls.append((delta, j))
            return two_qubit_loop_params(delta, j)

        monkeypatch.setattr(sequences, "two_qubit_loop_params", counting)
        apply_sequence(build_conditional_loop(1.4, 1.0), 4)
        assert calls == [(1.4, 1.0)]

    def test_overflowing_conditional_loop_names_delta_and_j(self):
        message = r"no finite conditional loop setting for delta = 1e\+200, j = 1.0"
        with pytest.raises(ValueError, match=message):
            two_qubit_loop_params(1e200, 1.0)
        with pytest.raises(ValueError, match=message):
            apply_sequence(build_conditional_loop(1e200, 1.0), 4)
        with pytest.raises(ValueError, match="no finite conditional loop setting"):
            two_qubit_loop_params(2.0, np.nan)

    @pytest.mark.parametrize("compose", [
        lambda seq: apply_sequence(seq, 2),
        lambda seq: simulate_sequence(seq, 2, steps_per_loop=100),
    ])
    def test_overflowing_loop_duration_names_the_loop(self, compose):
        loop = FieldLoop(FieldParams(1.0, 0.5, 2.0, 2.0), 1e308)
        with pytest.raises(ValueError, match="a loop of 1e[+]308 revolutions at gamma = 2 "):
            compose(PulseSequence((loop,)))

    def test_conditional_loop_rejects_nonfinite_offsets(self):
        with pytest.raises(ValueError, match="delta must be finite"):
            ConditionalLoop(np.nan, 1.0)
        with pytest.raises(ValueError, match="j must be finite"):
            ConditionalLoop(2.0, np.inf)


class TestPrimitiveValidation:
    def test_negative_duration(self):
        with pytest.raises(ValueError):
            FreeEvolve(-1.0, 1.0)

    @pytest.mark.parametrize("duration, delta, j, sign", [
        (1.0, 1e308, 1e308, 1),  # delta + j overflows
        (1.0, 1e308, -1e308, -1),  # delta - j overflows
        (1e308, 1e308, 0.0, 1),  # the angle itself overflows
        (0.0, 1e308, 1e308, 1),  # 0 times an infinity
    ])
    def test_overflowing_free_evolution_is_refused_where_it_is_built(
            self, duration, delta, j, sign):
        with pytest.raises(ValueError, match=r"^free evolution angle duration \(delta \+- j\) "
                                             r"/ 2 is not finite$"):
            apply_sequence(PulseSequence((FreeEvolve(duration, delta, j, sign),), TWO_QUBIT), 4)

    def test_the_largest_free_evolution_angles_build(self):
        for step in (FreeEvolve(1.0, 1e308), FreeEvolve(3.0, 5e307, 5e307, sign=-1)):
            u = apply_sequence(PulseSequence((step,), TWO_QUBIT), 4)
            assert np.all(np.isfinite(u))

    def test_nonpositive_revolutions(self):
        with pytest.raises(ValueError):
            FieldLoop(FieldParams(1, 1, -2, omega_z=-2), revolutions=0.0)

    def test_loop_needs_rotation(self):
        with pytest.raises(ValueError):
            FieldLoop(FieldParams(1, 1, 0.0))

    def test_compensation_consistency(self):
        with pytest.raises(ValueError):
            FieldLoop(FieldParams(1, 1, -2.0), compensated=True)
        with pytest.raises(ValueError):
            FieldLoop(FieldParams(1, 1, -2.0, omega_z=-2.0), compensated=False)


class TestIntegrateLoop:
    """integrate_loop is the run of FieldLoop(p, 1.0, compensated) and
    refuses what the loop refuses, naming the field; a loop of other
    revolutions runs in simulate_sequence, which refuses those."""

    def test_uncompensated_run_refuses_a_vertical_field(self):
        p = FieldParams(1.0, 0.5, -1.25, omega_z=0.3)
        with pytest.raises(ValueError, match="^uncompensated loop requires omega_z = 0$"):
            integrate_loop(p, False, steps_per_loop=100)

    def test_compensated_run_refuses_a_mismatched_field(self):
        p = FieldParams(1.0, 0.5, -1.25, omega_z=0.3)
        with pytest.raises(ValueError, match="^compensated loop requires omega_z = gamma$"):
            integrate_loop(p, True, steps_per_loop=100)

    @pytest.mark.parametrize("revolutions, message", [
        (np.nan, "^revolutions must be finite$"),
        (np.inf, "^revolutions must be finite$"),
        (-np.inf, "^revolutions must be finite$"),
        (-1.0, "^revolutions must be positive$"),
        (0.0, "^revolutions must be positive$"),
        (1e308, "^a loop of 1e[+]308 revolutions at gamma = -1.25 lasts longer"),
    ])
    @pytest.mark.parametrize("compensated", [True, False])
    def test_bad_revolutions_are_refused(self, revolutions, message, compensated):
        p = FieldParams(1.0, 0.5, -1.25, omega_z=-1.25 if compensated else 0.0)
        with pytest.raises(ValueError, match=message):
            simulate_sequence(PulseSequence([FieldLoop(p, revolutions, compensated)]), 2,
                              steps_per_loop=100)

    def test_overflowing_step_count_names_the_revolutions(self):
        p = FieldParams(1.0, 0.5, -1e10)  # a loop this fast lasts about 6e-10 per turn
        with pytest.raises(ValueError, match="^a loop of 1e[+]305 revolutions at 10000 per "):
            simulate_sequence(PulseSequence([FieldLoop(p, 1e305, False)]), 2)

    def test_zero_speed_is_refused(self):
        with pytest.raises(ValueError, match="nonzero rotation speed"):
            integrate_loop(FieldParams(1.0, 0.5, 0.0), False)


class TestConditionalLoopSequence:
    def test_composite_is_diagonal(self):
        seq = build_conditional_loop(CNOT_DELTA, 1.0)
        u = apply_sequence(seq, 4)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-12

    def test_diagonal_phases(self):
        setting = two_qubit_loop_params(CNOT_DELTA, 1.0)
        g_plus = geometric_phase_cone(setting.theta_plus)
        g_minus = geometric_phase_cone(setting.theta_minus)
        u = apply_sequence(build_conditional_loop(CNOT_DELTA, 1.0), 4)
        expected = (g_plus, -g_plus, g_minus, -g_minus)
        for k in range(4):
            assert abs(canonical_phase(np.angle(u[k, k]) - expected[k])) < 1e-10

    def test_phase_antisymmetry(self):
        u = apply_sequence(build_conditional_loop(1.8, 1.0), 4)
        angles = np.angle(np.diag(u))
        assert abs(canonical_phase(angles[0] + angles[1])) < 1e-10
        assert abs(canonical_phase(angles[2] + angles[3])) < 1e-10

    def test_simulated_composite_matches_target(self):
        from conegate.gates import _sector_phase_diag

        seq = build_conditional_loop(CNOT_DELTA, 1.0)
        u = simulate_sequence(seq, 4, steps_per_loop=20_000)
        target = _sector_phase_diag(two_qubit_loop_params(CNOT_DELTA, 1.0))
        assert fidelity(u, target) >= 1 - 1e-6
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-7

    def test_requires_offset_above_coupling(self):
        with pytest.raises(ValueError):
            build_conditional_loop(0.9, 1.0)

    def test_composite_unitary(self):
        assert is_unitary(apply_sequence(build_conditional_loop(2.0, 1.0), 4), atol=1e-10)


class TestSimulateSequence:
    def test_matches_closed_form_for_pulses(self):
        seq = PulseSequence((RotY(0.4), RotZ(-1.1), RotX(2.2)))
        assert np.allclose(apply_sequence(seq, 2), simulate_sequence(seq, 2))

    def test_matches_closed_form_for_loops(self):
        gamma = -2.0
        p = FieldParams(1.0, 1.0, gamma, omega_z=gamma)
        seq = PulseSequence((RotY(0.3), FieldLoop(p), RotY(-0.3)))
        u_closed = apply_sequence(seq, 2)
        u_sim = simulate_sequence(seq, 2, steps_per_loop=30_000)
        assert np.max(np.abs(u_closed - u_sim)) < 5e-9


class TestSequenceTrajectory:
    def test_replay_and_accessor(self):
        gamma = -2.0
        p = FieldParams(1.0, 1.0, gamma, omega_z=gamma)
        seq = PulseSequence((RotY(0.2), FieldLoop(p), RotY(-0.2)))
        psi0 = up_state(2)
        traj = sequence_trajectory(seq, 2, psi0, steps_per_loop=4000)
        assert traj.times[0] == 0.0
        assert np.max(np.abs(
            np.einsum("kij,j->ki", traj.propagators, psi0) - traj.states
        )) < 1e-9
        h_mid = traj.hamiltonian_at(traj.times[-1] / 2)
        assert h_mid.shape == (2, 2)

    @pytest.mark.parametrize("steps", [1, 3, 100, 257, 2000])
    def test_row_count_is_known_before_integrating(self, steps):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        free = FreeEvolve(0.53, 1.058)
        schedules = [
            PulseSequence((RotY(0.2), FieldLoop(p), RotY(-0.2))),
            PulseSequence((FieldLoop(p, revolutions=0.3), free, FieldLoop(p, revolutions=2.7))),
            build_conditional_loop(1.8, 1.0),
        ]
        for seq in schedules:
            dim = 2 if seq.frame == SINGLE_QUBIT else 4
            traj = sequence_trajectory(seq, dim, up_state(dim), steps_per_loop=steps)
            assert sequences.trajectory_rows(seq, steps) == len(traj.times)


class TestTrajectoryBuilders:
    """Only the public runners that return a Trajectory build one: integrate
    and integrate_loop one each, through propagation._trajectory, and
    sequence_trajectory one for the whole program. simulate_sequence, and so
    verify_gate, reads the integrator's arrays and builds none, for every
    loop of the program."""

    def test_each_runner_builds_what_it_returns(self, monkeypatch):
        from conegate.gates import cnot_recipe, verify_gate
        from conegate.propagation import Trajectory, integrate

        built, of_run = [], Trajectory._of_run.__func__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return of_run(cls, *args, **kwargs)

        monkeypatch.setattr(Trajectory, "_of_run", classmethod(counting))
        recipe = cnot_recipe()  # two distinct loops, one of them listed twice
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        runs = [
            (lambda: simulate_sequence(recipe.sequence, 4, steps_per_loop=500), 0),
            (lambda: verify_gate(recipe, steps_per_loop=500), 0),
            (lambda: sequence_trajectory(recipe.sequence, 4, up_state(4), steps_per_loop=500), 1),
            (lambda: sequence_trajectory(build_conditional_loop(1.8, 1.0), 4, up_state(4),
                                         steps_per_loop=500), 1),
            (lambda: integrate(sequences.FieldSchedule.of(p, True), 3.0, total_steps=500), 1),
            (lambda: integrate(lambda t: np.zeros((len(t), 4, 4)), 3.0, total_steps=500), 1),
            (lambda: integrate_loop(p, True, 500, samples=9), 1),
        ]
        for run, count in runs:
            built.clear()
            run()
            assert built == [Trajectory] * count


class TestSerialization:
    def build_reference(self) -> PulseSequence:
        sol = s_operation_params(1.058, 1.0, 1.0)
        base = build_s_operation(sol, 1.058, 1.0)
        loop = FieldLoop(ConditionalLoop(1.058, 1.0), revolutions=1.0)
        return PulseSequence(
            base.steps + (loop,) + _inverted(base.steps), frame=TWO_QUBIT
        )

    def test_round_trip_is_bit_exact(self):
        seq = self.build_reference()
        text = to_json(seq)
        assert to_json(sequence_from_dict(json.loads(text))) == text
        assert sequence_from_dict(json.loads(text)) == seq

    def test_single_qubit_loop_round_trip(self):
        p = FieldParams(0.123456789012345, 1.0, -2.25, omega_z=-2.25, phase0=0.7)
        seq = PulseSequence((RotZ(-0.1), FieldLoop(p, revolutions=3.0), RotZ(0.1)))
        text = to_json(seq)
        assert to_json(sequence_from_dict(json.loads(text))) == text

    def test_inverse_primitives_round_trip(self):
        seq = inverse(self.build_reference())
        text = to_json(seq)
        assert sequence_from_dict(json.loads(text)) == seq

    def test_malformed_step_reports_index(self):
        with pytest.raises(ValueError, match=r"^steps\[1\]\.angle: missing field$"):
            sequence_from_dict(json.loads('{"frame": "single-qubit", "steps": '
                                          '[{"op": "rot_x", "angle": 1.0}, {"op": "rot_y"}]}'))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            sequence_from_dict(json.loads(
                '{"frame": "single-qubit", "steps": [{"op": "warp", "angle": 1}]}'))
