import re
import tracemalloc

import numpy as np
import pytest

from conegate import propagation
from conegate.gates import hadamard_recipe
from conegate.hamiltonians import (
    FieldParams,
    FieldSchedule,
    h_compensated,
    h_two_qubit_rotating,
)
from conegate.linalg import SIGMA_X, SIGMA_Z
from conegate.phases import (
    compensation_gamma,
    cone_eigenstate,
    two_qubit_loop_params,
)
from conegate.propagation import (
    BLOCK_STEPS,
    Trajectory,
    adiabatic_error,
    integrate,
    _static_entries,
    _static_propagator,
    _z_entries,
    loop_duration,
    loop_infidelities,
    propagator_compensated,
    propagator_uncompensated,
    rot_z,
)
from conegate.sequences import (
    TWO_QUBIT,
    ConditionalLoop,
    FieldLoop,
    PulseSequence,
    _loop_closed_form,
    _loop_duration,
    integrate_loop,
    sequence_trajectory,
    simulate_sequence,
)

from conftest import expm_hermitian, is_unitary, random_field_draws


class TestUncompensatedPropagator:
    def test_identity_at_zero(self):
        p = FieldParams(1.0, 1.0, 0.3)
        assert np.allclose(propagator_uncompensated(p, 0.0), np.eye(2), atol=1e-15)

    def test_static_field_reduction(self):
        p = FieldParams(1.2, 0.8, 0.0)
        h0 = 0.5 * (1.2 * SIGMA_Z + 0.8 * SIGMA_X)
        for t in (0.5, 2.0):
            assert np.allclose(
                propagator_uncompensated(p, t), expm_hermitian(h0, t), atol=1e-13
            )

    def test_full_loop_matches_integrator(self):
        p = FieldParams(1.0, 1.0, 0.3)
        tau = loop_duration(p)
        closed = propagator_uncompensated(p, tau)
        traj = integrate_loop(p, compensated=False, steps_per_loop=300_000, samples=2)
        assert np.max(np.abs(closed - traj.propagators[-1])) < 1e-9

    def test_requires_no_compensation(self):
        p = FieldParams(1.0, 1.0, 0.3, omega_z=0.3)
        with pytest.raises(ValueError):
            propagator_uncompensated(p, 1.0)


class TestOmegaZRule:
    """Every caller of a field loop refuses an omega_z that is not gamma
    (compensated) or 0 (uncompensated), with the same message."""

    BARE = FieldParams(1.0, 0.5, -1.25)
    TRACKED = FieldParams(1.0, 0.5, -1.25, omega_z=-1.25)

    @pytest.mark.parametrize("call", [
        lambda p: h_compensated(p, 0.0),
        lambda p: propagator_compensated(p, 1.0),
        lambda p: FieldSchedule.of(p, True),
        lambda p: FieldLoop(p, compensated=True),
        lambda p: integrate_loop(p, True, steps_per_loop=10),
    ])
    def test_compensated_callers(self, call):
        with pytest.raises(ValueError, match="^compensated loop requires omega_z = gamma$"):
            call(self.BARE)
        call(self.TRACKED)

    @pytest.mark.parametrize("call", [
        lambda p: propagator_uncompensated(p, 1.0),
        lambda p: adiabatic_error(p),
        lambda p: FieldSchedule.of(p, False),
        lambda p: FieldLoop(p, compensated=False),
        lambda p: integrate_loop(p, False, steps_per_loop=10),
    ])
    def test_uncompensated_callers(self, call):
        with pytest.raises(ValueError, match="^uncompensated loop requires omega_z = 0$"):
            call(self.TRACKED)
        call(self.BARE)


class TestCompensatedPropagator:
    def test_cyclic_return_phase(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        tau = loop_duration(p)
        geom = cone_eigenstate(1.0, 1.0)
        final = propagator_compensated(p, tau) @ geom.psi0
        overlap = geom.psi0.conj() @ final
        assert abs(abs(overlap) - 1.0) < 1e-12
        expected_phase = -np.pi - geom.eigenvalue * tau
        assert np.angle(overlap) == pytest.approx(
            np.angle(np.exp(1j * expected_phase)), abs=1e-12
        )

    def test_static_reduction(self):
        p = FieldParams(0.6, 1.1, 0.0, omega_z=0.0)
        h0 = 0.5 * (0.6 * SIGMA_Z + 1.1 * SIGMA_X)
        assert np.allclose(
            propagator_compensated(p, 1.7), expm_hermitian(h0, 1.7), atol=1e-13
        )

    def test_matches_integrator_along_the_loop(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        from conegate.hamiltonians import h_compensated

        for t in (0.5, 1.7, np.pi):
            closed = propagator_compensated(p, t)
            traj = integrate(
                lambda tt: h_compensated(p, tt), t, total_steps=100_000, samples=2
            )
            assert np.max(np.abs(closed - traj.propagators[-1])) < 1e-9

    def test_requires_matching_compensation(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=0.0)
        with pytest.raises(ValueError):
            propagator_compensated(p, 1.0)

    def test_cyclicity_over_random_draws(self, rng):
        for omega0, omega1 in random_field_draws(rng, 100):
            gamma = compensation_gamma(omega0, omega1)
            p = FieldParams(omega0, omega1, gamma, omega_z=gamma)
            geom = cone_eigenstate(omega0, omega1)
            u = propagator_compensated(p, loop_duration(p))
            overlap = abs(geom.psi0.conj() @ (u @ geom.psi0))
            assert abs(overlap - 1.0) < 1e-10

    def test_phase0_rebasing_composition(self, rng):
        for _ in range(10):
            omega0, omega1 = rng.uniform(0.3, 2), rng.uniform(0.1, 2)
            gamma = rng.uniform(-4, -0.5)
            t1, t2 = rng.uniform(0.1, 2, size=2)
            phase0 = rng.uniform(0, 2 * np.pi)
            pc = FieldParams(omega0, omega1, gamma, omega_z=gamma, phase0=phase0)
            pc_shifted = FieldParams(
                omega0, omega1, gamma, omega_z=gamma, phase0=phase0 + gamma * t1
            )
            whole = propagator_compensated(pc, t1 + t2)
            split = propagator_compensated(pc_shifted, t2) @ propagator_compensated(pc, t1)
            assert np.max(np.abs(whole - split)) < 1e-10

    def test_propagators_unitary(self, rng):
        for omega0, omega1 in random_field_draws(rng, 20):
            gamma = compensation_gamma(omega0, max(omega1, 1e-3))
            p = FieldParams(omega0, omega1, gamma, omega_z=gamma)
            assert is_unitary(propagator_compensated(p, rng.uniform(0, 5)), atol=1e-10)
            p_u = FieldParams(omega0, omega1, gamma)
            assert is_unitary(propagator_uncompensated(p_u, rng.uniform(0, 5)), atol=1e-10)


class TestIntegrate:
    def test_constant_hamiltonian_exact(self, rng):
        from conftest import random_hermitian

        for dim in (2, 4):
            h = random_hermitian(rng, dim)
            t = 1.3
            traj = integrate(
                lambda tt: np.broadcast_to(h, np.shape(tt) + h.shape).copy(),
                t,
                total_steps=500,
                samples=2,
            )
            assert np.max(np.abs(traj.propagators[-1] - expm_hermitian(h, t))) < 1e-10

    def test_convergence_order_two(self):
        p = FieldParams(1.0, 1.0, 0.3)
        tau = loop_duration(p)
        closed = propagator_uncompensated(p, tau)
        errors = []
        for n in (2000, 4000):
            traj = integrate_loop(p, compensated=False, steps_per_loop=n, samples=2)
            errors.append(np.max(np.abs(closed - traj.propagators[-1])))
        order = np.log2(errors[0] / errors[1])
        assert order == pytest.approx(2.0, abs=0.1)

    def test_convergence_order_two_compensated(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        closed = propagator_compensated(p, loop_duration(p))
        errors = []
        for n in (2000, 4000):
            traj = integrate_loop(p, compensated=True, steps_per_loop=n, samples=2)
            errors.append(np.max(np.abs(closed - traj.propagators[-1])))
        assert np.log2(errors[0] / errors[1]) == pytest.approx(2.0, abs=0.1)

    def test_rejects_nonfinite_hamiltonian(self):
        def bad(t):
            t = np.asarray(t)
            h = np.zeros(t.shape + (2, 2), dtype=complex)
            h[..., 0, 0] = np.inf
            return h

        with pytest.raises(ValueError):
            integrate(bad, 1.0, total_steps=10)

    def test_trajectory_contract(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        geom = cone_eigenstate(1.0, 1.0)
        traj = integrate_loop(
            p, compensated=True, steps_per_loop=2000, psi0=geom.psi0, samples=33
        )
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(loop_duration(p))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-10
        replay = np.einsum("kij,j->ki", traj.propagators, traj.states[0])
        assert np.max(np.abs(replay - traj.states)) < 1e-9


class TestTrajectoryValidation:
    def test_rejects_unnormalized_states(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([[1, 0], [2, 0]], dtype=complex))

    @pytest.mark.parametrize("state", [[np.nan, 0], [1, np.nan]])
    def test_rejects_non_finite_states(self, state):
        states = np.array([[1, 0], state], dtype=complex)
        with pytest.raises(ValueError, match="^trajectory states must stay normalized"):
            Trajectory(np.array([0.0, 1.0]), states)
        with pytest.raises(ValueError, match="^trajectory states must stay normalized"):
            Trajectory._of_run(np.array([0.0, 1.0]), states, None, None)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [np.nan, 1.0, 2.0]])
    def test_rejects_a_nan_time(self, times):
        with pytest.raises(ValueError, match="^times must be ascending$"):
            Trajectory(np.array(times), np.tile([1.0 + 0j, 0j], (3, 1)))

    def test_rejects_mismatched_propagators(self):
        times = np.array([0.0, 1.0])
        states = np.array([[1, 0], [0, 1]], dtype=complex)
        props = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        with pytest.raises(ValueError):
            Trajectory(times, states, props)


class TestAdiabaticError:
    def test_vanishes_in_slow_limit(self):
        p = FieldParams(1.0, 1.0, 1e-4)
        assert adiabatic_error(p) < 1e-7

    def test_matches_integrator(self):
        p = FieldParams(1.0, 1.0, 0.5)
        geom = cone_eigenstate(1.0, 1.0)
        traj = integrate_loop(
            p, compensated=False, steps_per_loop=200_000, psi0=geom.psi0, samples=2
        )
        overlap = abs(geom.psi0.conj() @ traj.states[-1])
        assert adiabatic_error(p) == pytest.approx(1 - overlap**2, abs=1e-9)

    def test_compensated_counterpart_exactly_cyclic(self):
        p = FieldParams(1.0, 1.0, 0.5, omega_z=0.5)
        geom = cone_eigenstate(1.0, 1.0)
        u = propagator_compensated(p, loop_duration(p))
        overlap = abs(geom.psi0.conj() @ (u @ geom.psi0))
        assert 1 - overlap**2 < 1e-10

    def test_requires_loop(self):
        with pytest.raises(ValueError):
            adiabatic_error(FieldParams(1.0, 1.0, 0.0))

    def test_requires_uncompensated(self):
        with pytest.raises(ValueError):
            adiabatic_error(FieldParams(1.0, 1.0, 0.5, omega_z=0.5))


def _per_point_infidelities(omega0, omega1, gamma):
    """The point-by-point evaluation the stacked sweep must reproduce bit for
    bit: both propagators per speed, the uncompensated overlap squared by
    power and the compensated one by product."""
    psi0 = cone_eigenstate(omega0, omega1).psi0
    p_un = FieldParams(omega0, omega1, gamma)
    p_co = FieldParams(omega0, omega1, gamma, omega_z=gamma)
    ov_un = abs(psi0.conj() @ (propagator_uncompensated(p_un, loop_duration(p_un)) @ psi0))
    ov_co = abs(psi0.conj() @ (propagator_compensated(p_co, loop_duration(p_co)) @ psi0))
    return max(0.0, 1.0 - ov_un**2), max(0.0, 1.0 - ov_co * ov_co)


class TestStackedClosedForms:
    """The stacks against the per-point entries that the composites take,
    by value: the two may differ in the sign of a zero at a null field or a
    zero angle."""

    def test_static_propagator_stack_is_bitwise_per_point(self, rng):
        omega0 = rng.uniform(-3, 3, size=50)
        t = rng.uniform(0, 20, size=50)
        stacked = _static_propagator(omega0, 0.8, 0.4, t)
        per_point = np.array([_static_entries(float(w), 0.8, 0.4, float(x))
                              for w, x in zip(omega0, t)]).reshape(-1, 2, 2)
        assert stacked.shape == (50, 2, 2)
        assert np.array_equal(stacked, per_point)

    def test_scalar_static_propagator_is_the_stacked_kernel(self, rng):
        # 40 (omega1, phase0) settings x 500 (omega0, t) points; null fields,
        # t = 0 and phases far outside [0, 2 pi] included
        scales = 10.0 ** rng.uniform(-3, 2, 38)
        omega1s = np.concatenate([[0.0, 0.0], rng.uniform(0, 5, 38) * scales])
        phases = np.concatenate([[0.0, 1e3], rng.uniform(-1e3, 1e3, 38)])
        for omega1, phase0 in zip(omega1s.tolist(), phases.tolist()):
            omega0 = rng.uniform(-5, 5, 500) * 10.0 ** rng.uniform(-3, 2, 500)
            t = rng.uniform(0, 30, 500) * 10.0 ** rng.uniform(-3, 2, 500)
            omega0[:20], t[20:40] = 0.0, 0.0
            stacked = _static_propagator(omega0, omega1, phase0, t)
            scalar = np.array([_static_entries(w, omega1, phase0, x)
                               for w, x in zip(omega0.tolist(), t.tolist())])
            assert np.array_equal(scalar.reshape(-1, 2, 2), stacked)

    @pytest.mark.parametrize("compensated", [True, False])
    def test_scalar_propagators_are_the_stacked_ones(self, compensated, rng):
        propagator = propagator_compensated if compensated else propagator_uncompensated
        for _ in range(40):
            gamma = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 5.0)
            p = FieldParams(rng.uniform(-3, 3), rng.uniform(0, 3), gamma,
                            omega_z=gamma if compensated else 0.0, phase0=rng.uniform(-50, 50))
            t = np.concatenate([[0.0], rng.uniform(0, 20, 499)])
            stacked = propagator(p, t)
            assert np.array_equal(np.array([propagator(p, x) for x in t.tolist()]), stacked)
            # the same closed form with the frame product taken in Python, as a
            # loop of t[k] / loop_duration(p) revolutions composes it
            loops = [FieldLoop(p, x / loop_duration(p), compensated) for x in t[1:].tolist()]
            durations = np.array([_loop_duration(loop, p.gamma) for loop in loops])
            entries = np.array([_loop_closed_form(loop) for loop in loops])
            assert np.max(np.abs(entries.reshape(-1, 2, 2) - propagator(p, durations))) <= 4.5e-16

    def test_scalar_rot_z_is_the_stacked_one(self, rng):
        angles = np.concatenate([[0.0, -0.0, 1e-300, 1e6], rng.uniform(-50, 50, 996)])
        per_point = np.array([_z_entries(-0.5 * a) for a in angles.tolist()])
        assert np.array_equal(per_point.reshape(-1, 2, 2), rot_z(angles))

    def test_static_propagator_rejects_nonfinite_duration(self):
        with pytest.raises(ValueError, match="finite"):
            _static_propagator(np.ones(3), 1.0, 0.0, np.array([1.0, np.inf, 2.0]))

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.3])
    def test_sweep_columns_are_bitwise_per_point(self, theta):
        omega0, omega1 = float(np.cos(theta)), float(np.sin(theta))
        gammas = np.concatenate([np.arange(-3.0, -0.01, 0.0731), np.arange(0.01, 1.0, 0.0173)])
        uncompensated, compensated = loop_infidelities(omega0, omega1, gammas * omega0)
        expected = np.array([_per_point_infidelities(omega0, omega1, float(g))
                             for g in gammas * omega0])
        assert np.array_equal(uncompensated, expected[:, 0])
        assert np.array_equal(compensated, expected[:, 1])
        for g, value in zip(gammas[::7] * omega0, uncompensated[::7]):
            assert adiabatic_error(FieldParams(omega0, omega1, float(g))) == value

    def test_uncompensated_column_squares_by_power(self):
        # at these speeds (theta = 0.6) 1 - a**2 and 1 - a * a round apart in
        # the last bit; the uncompensated column has always taken the power
        omega0, omega1 = float(np.cos(0.6)), float(np.sin(0.6))
        gammas = [0.18239917089503785, 0.305951912447016, 0.37288663081619045,
                  0.391869349959113]
        uncompensated, _ = loop_infidelities(omega0, omega1, np.array(gammas))
        expected = [_per_point_infidelities(omega0, omega1, g)[0] for g in gammas]
        assert uncompensated.tobytes() == np.array(expected).tobytes()

    def test_vecdot_is_the_per_pair_dot(self, rng):
        # loop_infidelities takes a block's overlaps <psi0|U psi0> in one
        # np.vecdot; the printed sweeps keep their bytes only while it sums
        # each pair as the dot of that pair alone does
        psi0 = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        v = rng.normal(size=(100, 1000, 2)) + 1j * rng.normal(size=(100, 1000, 2))
        v *= 10.0 ** rng.integers(-8, 3, size=(100, 1000, 1))
        for a, vs in zip(psi0, v):
            per_pair = np.array([a.conj() @ b for b in vs])
            assert np.vecdot(a, vs).tobytes() == per_pair.tobytes(), (
                "np.vecdot and the dot of one pair round apart on this numpy/BLAS "
                "build, so loop_infidelities would not print the pinned sweeps' bytes")

    def test_sweep_rejects_zero_speed(self):
        with pytest.raises(ValueError, match="gamma = 0"):
            loop_infidelities(1.0, 1.0, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("n", [1, 6, 7, 50])
    def test_sweep_blocks_are_bitwise_one_block(self, n, rng, monkeypatch):
        gamma = rng.uniform(-3.0, 3.0, size=n)
        whole = loop_infidelities(0.7, 0.9, gamma, 0.3)
        monkeypatch.setattr(propagation, "LOOP_BLOCK", 7)
        blocked = loop_infidelities(0.7, 0.9, gamma, 0.3)
        assert np.array_equal(blocked[0], whole[0])
        assert np.array_equal(blocked[1], whole[1])

    def test_sweep_memory_is_bounded(self):
        gamma = np.arange(0.1, 20.0, 0.0002) * np.cos(np.pi / 4)
        assert gamma.size > 99_000
        tracemalloc.start()
        try:
            loop_infidelities(np.cos(np.pi / 4), np.sin(np.pi / 4), gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # one block of stacks plus the two output columns


def _per_step_reference(schedule, t_end, n_steps, samples):
    """Recorded propagators from a plain left-to-right product of per-step
    eigh exponentials, the rule integrate must reproduce."""
    dt = t_end / n_steps
    h = np.asarray(schedule((np.arange(n_steps) + 0.5) * dt), dtype=complex)
    vals, vecs = np.linalg.eigh(h)
    steps = np.einsum("kij,kj,klj->kil", vecs, np.exp(-1j * vals * dt), vecs.conj())
    n_rec = min(max(2, samples), n_steps + 1)
    bounds = np.unique(np.round(np.linspace(0, n_steps, n_rec)).astype(int))
    u = np.eye(h.shape[-1], dtype=complex)
    recorded = [u]
    for k in range(n_steps):
        u = steps[k] @ u
        if k + 1 in bounds:
            recorded.append(u)
    return bounds * dt, np.array(recorded)


class TestChunkedIntegrator:
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("samples", [2, 3, 257, None])
    def test_block_edges_match_per_step_product(self, dim, offset, samples):
        n = BLOCK_STEPS + offset
        samples = n + 1 if samples is None else samples
        if dim == 2:
            p = FieldParams(0.7, 1.3, 0.9)
            schedule = lambda t: FieldSchedule.of(p, False)(t) + 0.37 * np.eye(2)  # nonzero trace
        else:
            schedule = lambda t: h_two_qubit_rotating(1.8, 1.0, 1.5, -3.6, t)
        t_end = 2.5
        traj = integrate(schedule, t_end, total_steps=n, samples=samples)
        times, reference = _per_step_reference(schedule, t_end, n, samples)
        assert traj.propagators.shape == reference.shape
        assert np.max(np.abs(traj.times - times)) < 1e-12
        assert np.max(np.abs(traj.propagators - reference)) <= 1e-12

    @pytest.mark.parametrize("compensated", [True, False])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_conditional_loop_sectors_match_4x4(self, compensated, sign):
        delta, j, n = 1.8, 1.0, 3000
        setting = two_qubit_loop_params(delta, j)
        loop = FieldLoop(ConditionalLoop(delta, j, phase0=0.4), compensated=compensated,
                         sign=sign)
        seq = PulseSequence((loop,), frame=TWO_QUBIT)
        tau = 2 * np.pi / abs(setting.gamma)

        def h4(t):
            t = np.asarray(t)
            if sign < 0:
                t = tau - t
            h = h_two_qubit_rotating(delta, j, setting.omega1, setting.gamma, t,
                                     compensated=compensated, phase0=0.4)
            return sign * h

        full = integrate(h4, tau, total_steps=n, samples=33)
        sectors = sequence_trajectory(seq, 4, np.eye(4)[0], steps_per_loop=n,
                                      samples_per_loop=33)
        assert np.max(np.abs(sectors.propagators - full.propagators)) <= 1e-12
        u = simulate_sequence(seq, 4, steps_per_loop=n)
        assert np.max(np.abs(u - full.propagators[-1])) <= 1e-12

    def test_unitarity_defect_at_1e6_steps(self):
        # the whole-run pairwise product of earlier versions left 2.7e-11 here
        u = simulate_sequence(hadamard_recipe().sequence, 2, steps_per_loop=1_000_000)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 2.7e-11

    @pytest.mark.parametrize("steps", [100_000, 1_000_000])
    def test_memory_stays_bounded(self, steps):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        tracemalloc.start()
        try:
            integrate_loop(p, compensated=True, steps_per_loop=steps, samples=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize(
        "sample, shape",
        [
            (lambda t: SIGMA_Z, (2, 2)),  # one matrix, whatever the times
            (lambda t: 0.5, ()),  # a scalar
            (lambda t: np.ones((np.size(t), 2)), (5, 2)),  # one row per time
            (lambda t: np.ones((np.size(t), 2, 3)), (5, 2, 3)),  # not square
        ],
    )
    def test_first_sample_not_a_stack_is_refused(self, sample, shape):
        calls = []

        def schedule(t):
            calls.append(np.shape(t))
            return sample(t)

        with pytest.raises(ValueError, match=rf"schedule returned shape {re.escape(str(shape))}"):
            integrate(schedule, 1.0, total_steps=5)
        assert calls == [(5,)]  # one call on the time array, no per-time retry

    @pytest.mark.parametrize("first, later", [(2, 4), (4, 2)])
    def test_a_later_pass_keeps_the_first_dimension(self, first, later):
        def schedule(t):
            d = first if t[0] < 1.0 else later
            return np.broadcast_to(np.eye(d, dtype=complex), (len(t), d, d))

        shape = (4096, later, later)
        with pytest.raises(ValueError, match=rf"schedule returned shape {re.escape(str(shape))}"):
            integrate(schedule, 10.0, total_steps=20_000, samples=2)

    def test_step_budget_is_a_value_error(self):
        calls = []
        with pytest.raises(ValueError, match="60000000 steps requested, at most 50,000,000"):
            integrate(lambda t: calls.append(t), 1.0, total_steps=60_000_000)
        assert calls == []  # refused before sampling or allocating

    def test_genuine_schedule_error_propagates(self):
        calls = []

        def broken(t):
            calls.append(t)
            raise RuntimeError("schedule table missing")

        with pytest.raises(RuntimeError, match="schedule table missing"):
            integrate(broken, 1.0, total_steps=10)
        assert len(calls) == 1  # no scalar retry hides the error


class TestFieldScheduleComponents:
    """integrate reads a FieldSchedule as its components, through the SU(2)
    kernel; a callable of the same Hamiltonian goes through eigh, and the
    two agree within rounding."""

    @pytest.mark.parametrize("compensated", [True, False])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_component_path_is_the_callable_path(self, compensated, sign, rng):
        # the kernels round apart by a gap that grows as n eps. Over 200
        # drawn loops of each kind: at most 2.1 n eps from 113 steps on,
        # where 4 n eps passes 1e-13; 3.1 n eps from 7 to 112 steps;
        # 1.4e-14 at one step; and 1.2e-11 at 30,001 steps
        h = h_compensated if compensated else lambda p, t: FieldSchedule.of(p, False)(t)
        for n in (1, 7, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 5,
                  30_001):
            bound = max(1e-13, 4 * n * np.finfo(float).eps)
            gamma = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            p = FieldParams(rng.uniform(-2, 2), rng.uniform(0.1, 2), gamma,
                            omega_z=gamma if compensated else 0.0,
                            phase0=rng.uniform(-3, 3))
            t_end = rng.uniform(0.5, 2.5) * loop_duration(p)
            record = FieldSchedule.of(p, compensated)
            if sign < 0:
                record = FieldSchedule(record.vertical, p.omega1, p.gamma, p.phase0, -1, t_end)

                def schedule(t):
                    return -h(p, t_end - np.asarray(t))
            else:
                def schedule(t):
                    return h(p, t)
            for samples in (2, 257, n + 1):
                fast = integrate(record, t_end, total_steps=n, samples=samples)
                slow = integrate(schedule, t_end, total_steps=n, samples=samples)
                assert np.array_equal(fast.times, slow.times)
                assert np.max(np.abs(fast.propagators - slow.propagators)) <= bound
                assert np.max(np.abs(fast.states - slow.states)) <= bound

    def test_record_is_the_hamiltonian(self, rng):
        p = FieldParams(0.8, 1.1, -1.3, omega_z=-1.3, phase0=0.4)
        traj = integrate_loop(p, True, steps_per_loop=3000, samples=101)
        assert isinstance(traj.hamiltonian_at, FieldSchedule)
        assert np.array_equal(traj.hamiltonian_at(traj.times), h_compensated(p, traj.times))
        t = rng.uniform(0, 10, 50)
        assert np.array_equal(traj.hamiltonian_at(t), h_compensated(p, t))
        assert np.array_equal(traj.hamiltonian_at(1.5), h_compensated(p, 1.5))
        backwards = FieldSchedule.of(p, True)
        backwards = FieldSchedule(backwards.vertical, p.omega1, p.gamma, p.phase0, -1, 2.0)
        assert np.array_equal(backwards(t), -h_compensated(p, 2.0 - t))

    def test_record_checks_compensation(self):
        with pytest.raises(ValueError, match="compensated loop requires omega_z = gamma"):
            FieldSchedule.of(FieldParams(1.0, 1.0, -2.0), compensated=True)

    def test_non_finite_phase_is_refused(self):
        record = FieldSchedule(1.0, 1.0, 1e300, 0.0)
        with pytest.raises(ValueError, match="non-finite Hamiltonian sample"):
            integrate(record, 1e10, total_steps=10)

    @pytest.mark.parametrize("schedule", ["record", "subnormal"])
    def test_trig_table_is_bitwise(self, schedule, monkeypatch):
        # a field loop's step norms span a few floats and take the table; a
        # record whose |x|^2 is subnormal spans many and takes the direct path
        n = BLOCK_STEPS + 9
        p = FieldParams(0.3, 2.7, 1.7, omega_z=1.7, phase0=0.1)
        if schedule == "record":
            record = FieldSchedule.of(p, True)
            args = (record, 1500.0)  # long steps: neighbouring norms differ in cos and sin
            kernel = propagation._SU2((record,), 1500.0)
            kernel.steps(0, BLOCK_STEPS, 1500.0 / n)
            assert np.unique(kernel._block(BLOCK_STEPS).r).size > 1
        else:
            record = FieldSchedule(0.0, 2e-160, 1.3, 0.2)
            args = (record, 3.0)
            kernel = propagation._SU2((record,), 3.0)
            kernel.steps(0, BLOCK_STEPS, 3.0 / n)
            bits = kernel._block(BLOCK_STEPS).r.view(np.int64)
            assert int(bits.max()) - int(bits.min()) > propagation.TRIG_TABLE
            got = integrate(*args, total_steps=n, samples=33).propagators
            eigh = integrate(record.__call__, 3.0, total_steps=n, samples=33).propagators
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - eigh)) <= max(1e-13, 4 * n * np.finfo(float).eps)
        table = integrate(*args, total_steps=n, samples=33)
        monkeypatch.setattr(propagation, "TRIG_TABLE", 0)
        direct = integrate(*args, total_steps=n, samples=33)
        assert np.array_equal(table.propagators, direct.propagators)

    def test_zero_field_steps_are_the_identity(self):
        traj = integrate(FieldSchedule(0.0, 0.0, 1.0), 2.0, total_steps=10, samples=3)
        assert np.array_equal(traj.propagators, np.broadcast_to(np.eye(2), (3, 2, 2)))


PASS_STEPS = propagation.PASS_BLOCKS * BLOCK_STEPS


def _pass_schedules():
    """(name, schedule, t_end): a field record, an equatorial uncompensated
    loop (its z = 0 steps carry exact zeros), and callable 2x2 (with a
    trace) and 4x4 schedules."""
    p = FieldParams(0.7, 1.3, -0.9, omega_z=-0.9, phase0=0.4)
    equatorial = FieldParams(0.0, 1.1, 1.7)
    bare = FieldSchedule(p.omega0, p.omega1, p.gamma, p.phase0)  # p without its omega_z
    return [
        ("record", FieldSchedule.of(p, True), 2.0 * loop_duration(p)),
        ("equatorial", FieldSchedule.of(equatorial, False), loop_duration(equatorial)),
        ("callable 2x2", lambda t: bare(t) + 0.37 * np.eye(2), 2.5),
        ("callable 4x4", lambda t: h_two_qubit_rotating(1.8, 1.0, 1.5, -3.6, t), 2.5),
    ]


class TestEvaluationPasses:
    """A pass evaluates several association blocks at once; every recorded
    bit is the one of a pass per block."""

    @pytest.mark.parametrize("n", [PASS_STEPS - 1, PASS_STEPS, PASS_STEPS + 1,
                                   2 * PASS_STEPS + 5])
    @pytest.mark.parametrize("schedule", _pass_schedules(), ids=lambda s: s[0])
    def test_passes_are_bitwise_one_block_per_pass(self, schedule, n, monkeypatch):
        _, h, t_end = schedule
        for samples in (2, 3, 257, n + 1):
            default = integrate(h, t_end, total_steps=n, samples=samples)
            monkeypatch.setattr(propagation, "PASS_BLOCKS", 1)
            single = integrate(h, t_end, total_steps=n, samples=samples)
            monkeypatch.undo()
            for name in ("times", "propagators", "states"):
                got, want = getattr(default, name), getattr(single, name)
                assert got.tobytes() == want.tobytes(), (name, samples)

    @pytest.mark.parametrize("n, inner, passes", [
        (1, [], [(0, 1)]),
        (BLOCK_STEPS, [], [(0, BLOCK_STEPS)]),
        (PASS_STEPS - 1, [], [(0, PASS_STEPS - BLOCK_STEPS),
                              (PASS_STEPS - BLOCK_STEPS, PASS_STEPS - 1)]),
        (PASS_STEPS + BLOCK_STEPS, [], [(0, PASS_STEPS),
                                        (PASS_STEPS, PASS_STEPS + BLOCK_STEPS)]),
        (2 * PASS_STEPS + 5, [], [(0, PASS_STEPS), (PASS_STEPS, 2 * PASS_STEPS),
                                  (2 * PASS_STEPS, 2 * PASS_STEPS + 5)]),
        # an end inside a block leaves it alone; one on a block edge does not
        (2 * BLOCK_STEPS + PASS_STEPS, [BLOCK_STEPS + 7, 2 * BLOCK_STEPS],
         [(0, BLOCK_STEPS), (BLOCK_STEPS, 2 * BLOCK_STEPS),
          (2 * BLOCK_STEPS, 2 * BLOCK_STEPS + PASS_STEPS)]),
    ])
    def test_pass_edges(self, n, inner, passes):
        ends = np.array(inner + [n])
        assert propagation._block_plan(n, ends)[3] == passes

    def test_equal_power_of_two_runs_reduce_in_place(self):
        # the flat sweep over runs of one power-of-two length is each run's tree
        record = FieldSchedule(0.3, 1.2, 0.8, 0.1)
        want = []
        for k in range(8):  # each run in a workspace of its own
            kernel = propagation._SU2((record,), 3.2)
            elems = kernel.steps(8 * k, 8 * k + 8, 0.05)
            want.append(propagation._segment_products(kernel, elems, np.zeros(1, dtype=int)))
        kernel = propagation._SU2((record,), 3.2)
        elems = kernel.steps(0, 64, 0.05)
        got = propagation._segment_products(kernel, elems, np.arange(0, 64, 8))
        assert got.tobytes() == np.concatenate(want).tobytes()


class TestLoopReuse:
    """simulate_sequence integrates each distinct loop object once."""

    @staticmethod
    def counting(monkeypatch):
        from conegate import sequences

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return propagation._integrate(*args, **kwargs)

        monkeypatch.setattr(sequences, "_integrate", counted)
        return calls

    @staticmethod
    def without_reuse(seq, dim, steps):
        from conegate import sequences

        def loop_blocks(step):
            runs = sequences._integrate_loop(step, steps, samples=2)[2]
            return [u[-1].ravel().tolist() for u in runs]

        return sequences._compose(seq, dim, loop_blocks)

    @pytest.mark.parametrize("name, dim, calls", [("not", 2, 2), ("cnot", 4, 2)])
    def test_repeated_hadamard_loop_is_integrated_once(self, name, dim, calls, monkeypatch):
        from conegate.gates import cnot_recipe, not_recipe

        seq = (not_recipe() if name == "not" else cnot_recipe()).sequence
        reference = self.without_reuse(seq, dim, 3000)
        made = self.counting(monkeypatch)
        u = simulate_sequence(seq, dim, steps_per_loop=3000)
        assert len(made) == calls
        assert u.tobytes() == reference.tobytes()

    def test_loops_differing_in_a_zero_sign_stay_apart(self, monkeypatch):
        loops = [FieldLoop(FieldParams(0.0, 1.0, 1.3, phase0=zero), compensated=False)
                 for zero in (0.0, -0.0)]
        assert loops[0] == loops[1]  # equal as values, so equality must not be the key
        seq = PulseSequence(tuple(loops))
        reference = self.without_reuse(seq, 2, 2000)
        made = self.counting(monkeypatch)
        u = simulate_sequence(seq, 2, steps_per_loop=2000)
        assert len(made) == 2
        assert u.tobytes() == reference.tobytes()
