import os
import subprocess
import sys

import numpy as np
import pytest

import conegate

from conegate.hamiltonians import FieldParams, FieldSchedule, h_compensated
from conegate.linalg import SIGMA_X, SIGMA_Z, bloch_vector
from conegate.phases import (
    _simpson,
    canonical_phase,
    compensation_gamma,
    cone_eigenstate,
    dynamical_phase,
    energy_expectations,
    geometric_phase_cone,
    phase_decomposition,
    running_dynamical_phase,
    two_qubit_loop_params,
)
from conegate.propagation import (
    Trajectory,
    loop_duration,
    propagator_compensated,
    propagator_uncompensated,
)
from conegate.sequences import (
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    build_conditional_loop,
    integrate_loop,
    sequence_trajectory,
)

from conftest import random_field_draws

CNOT_DELTA = 4 / np.sqrt(7)


def closed_form_loop_trajectory(p: FieldParams, n: int = 2001) -> Trajectory:
    """Trajectory of the upper cone eigenstate under the compensated loop,
    sampled from the closed-form propagator."""
    geom = cone_eigenstate(p.omega0, p.omega1)
    times = np.linspace(0.0, loop_duration(p), n)
    props = np.stack([propagator_compensated(p, float(t)) for t in times])
    states = np.einsum("kij,j->ki", props, geom.psi0)
    return Trajectory(times, states, props, lambda t: h_compensated(p, t))


class TestConeEigenstate:
    def test_vertical_field(self):
        geom = cone_eigenstate(1.5, 0.0)
        assert geom.theta == 0.0
        assert np.allclose(geom.psi0, [1, 0])
        assert geom.eigenvalue == pytest.approx(0.75)

    def test_symmetric_field(self):
        geom = cone_eigenstate(1.0, 1.0)
        assert geom.theta == pytest.approx(np.pi / 4)
        assert np.allclose(geom.psi0, [np.cos(np.pi / 8), np.sin(np.pi / 8)])

    def test_experimental_ratio_cross_check(self):
        geom = cone_eigenstate(2.058, 1.0)
        assert geom.theta == pytest.approx(np.arctan(1 / 2.058), abs=1e-15)
        h0 = 0.5 * (2.058 * SIGMA_Z + 1.0 * SIGMA_X)
        values, vectors = np.linalg.eigh(h0)  # ascending: the upper branch is last
        upper = vectors[:, 1] * abs(vectors[0, 1]) / vectors[0, 1]  # first entry real >= 0
        assert geom.eigenvalue == pytest.approx(values[1], abs=1e-14)
        assert np.max(np.abs(geom.psi0 - upper)) < 1e-12

    def test_eigenstate_property(self, rng):
        for omega0, omega1 in random_field_draws(rng, 20):
            geom = cone_eigenstate(omega0, omega1)
            h0 = 0.5 * (omega0 * SIGMA_Z + omega1 * SIGMA_X)
            residual = h0 @ geom.psi0 - geom.eigenvalue * geom.psi0
            assert np.max(np.abs(residual)) < 1e-10

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            cone_eigenstate(0.0, 0.0)

    @pytest.mark.parametrize("omega0, omega1, shown", [
        (np.nan, 1.0, "omega0 = nan, omega1 = 1.0"),
        (np.inf, 1.0, "omega0 = inf, omega1 = 1.0"),
        (1.0, np.nan, "omega0 = 1.0, omega1 = nan"),
        (-np.inf, np.inf, "omega0 = -inf, omega1 = inf"),
    ])
    def test_non_finite_field_rejected(self, omega0, omega1, shown):
        with pytest.raises(ValueError, match=f"^no finite field for {shown}$"):
            cone_eigenstate(omega0, omega1)


class TestCompensationGamma:
    def test_symmetric_value(self):
        assert compensation_gamma(1.0, 1.0) == -2.0

    def test_vertical_limit(self):
        assert compensation_gamma(1.5, 0.0) == pytest.approx(-1.5)

    def test_zero_vertical_rejected(self):
        with pytest.raises(ValueError):
            compensation_gamma(0.0, 1.0)

    @pytest.mark.parametrize("omega0, omega1, shown", [
        (1.0, np.inf, "omega0 = 1.0, omega1 = inf"),
        (np.nan, 1.0, "omega0 = nan, omega1 = 1.0"),
        (np.inf, 1.0, "omega0 = inf, omega1 = 1.0"),
        (1e-310, 1.0, "omega0 = 1e-310, omega1 = 1.0"),  # 1 / 1e-310 overflows
        (1e200, 1.0, "omega0 = 1e[+]200, omega1 = 1.0"),  # omega0 squared overflows
    ])
    def test_non_finite_speed_rejected(self, omega0, omega1, shown):
        with pytest.raises(ValueError, match=f"^no finite compensation speed for {shown}$"):
            compensation_gamma(omega0, omega1)

    def test_nulls_energy_expectation(self, rng):
        for omega0, omega1 in random_field_draws(rng, 20):
            gamma = compensation_gamma(omega0, omega1)
            geom = cone_eigenstate(omega0, omega1)
            p = FieldParams(omega0, omega1, gamma, omega_z=gamma)
            for t in np.linspace(0, loop_duration(p), 7):
                psi = propagator_compensated(p, float(t)) @ geom.psi0
                value = (psi.conj() @ (h_compensated(p, float(t)) @ psi)).real
                assert abs(value) < 1e-10

    def test_max_energy_expectation_over_draws(self, rng):
        # dense sampling along the loop for 50 draws
        worst = 0.0
        for omega0, omega1 in random_field_draws(rng, 50):
            gamma = compensation_gamma(omega0, omega1)
            p = FieldParams(omega0, omega1, gamma, omega_z=gamma)
            traj = closed_form_loop_trajectory(p, n=501)
            values = np.einsum(
                "ki,kij,kj->k",
                traj.states.conj(),
                traj.hamiltonian_at(traj.times),
                traj.states,
            ).real
            worst = max(worst, float(np.max(np.abs(values))))
        assert worst < 1e-9


class TestTwoQubitLoopParams:
    def test_cnot_point_values(self):
        setting = two_qubit_loop_params(CNOT_DELTA, 1.0)
        assert setting.omega1 == pytest.approx(3 * np.sqrt(7) / 7, abs=1e-14)
        assert setting.gamma == pytest.approx(-2 * CNOT_DELTA, abs=1e-14)

    def test_cosine_difference_is_half(self):
        setting = two_qubit_loop_params(CNOT_DELTA, 1.0)
        diff = np.cos(setting.theta_plus) - np.cos(setting.theta_minus)
        assert abs(diff - 0.5) < 1e-12

    def test_simultaneous_conditions(self, rng):
        for _ in range(20):
            j = rng.uniform(0.2, 2.0)
            delta = j * rng.uniform(1.01, 4.0)
            setting = two_qubit_loop_params(delta, j)
            for sign, theta in ((+1, setting.theta_plus), (-1, setting.theta_minus)):
                offset = delta + sign * j
                residual = setting.gamma * np.cos(theta) + np.hypot(offset, setting.omega1)
                assert abs(residual) < 1e-12

    def test_requires_offset_above_coupling(self):
        with pytest.raises(ValueError):
            two_qubit_loop_params(1.0, 1.0)
        with pytest.raises(ValueError):
            two_qubit_loop_params(0.5, 1.0)


class TestDynamicalPhase:
    def test_static_eigenstate(self):
        omega0, omega1, t_end = 1.3, 0.7, 5.0
        geom = cone_eigenstate(omega0, omega1)
        h0 = 0.5 * (omega0 * SIGMA_Z + omega1 * SIGMA_X)
        times = np.linspace(0, t_end, 101)
        states = np.stack(
            [np.exp(-1j * geom.eigenvalue * t) * geom.psi0 for t in times]
        )
        traj = Trajectory(
            times, states, None,
            lambda t: np.broadcast_to(h0, np.shape(t) + (2, 2)).copy(),
        )
        assert dynamical_phase(traj) == pytest.approx(-geom.eigenvalue * t_end, abs=1e-12)

    def test_compensated_loop_vanishes(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        traj = closed_form_loop_trajectory(p)
        assert abs(dynamical_phase(traj)) < 1e-9

    def test_uncompensated_loop_matches_analytic_integral(self):
        omega0, omega1, gamma = 1.0, 1.0, 0.5
        p = FieldParams(omega0, omega1, gamma)
        geom = cone_eigenstate(omega0, omega1)
        tau = loop_duration(p)

        times = np.linspace(0, tau, 4001)
        props = np.stack([propagator_uncompensated(p, float(t)) for t in times])
        states = np.einsum("kij,j->ki", props, geom.psi0)
        traj = Trajectory(times, states, props, FieldSchedule.of(p, False))
        measured = dynamical_phase(traj)

        # independent closed-form integral: <psi|H|psi> = <H1> + (gamma/2) z(t),
        # z(t) the z component of the initial Bloch vector precessing about
        # the axis of H1 = H0 - gamma sigma_z / 2
        h1 = 0.5 * ((omega0 - gamma) * SIGMA_Z + omega1 * SIGMA_X)
        big_omega = np.hypot(omega0 - gamma, omega1)
        axis = np.array([omega1, 0.0, omega0 - gamma]) / big_omega
        r0 = bloch_vector(geom.psi0)
        h1_expect = (geom.psi0.conj() @ (h1 @ geom.psi0)).real
        a = axis[2] * (axis @ r0)
        b = r0[2] - a
        c = np.cross(axis, r0)[2]
        integral = (
            h1_expect * tau
            + 0.5 * gamma * (
                a * tau
                + b * np.sin(big_omega * tau) / big_omega
                + c * (1 - np.cos(big_omega * tau)) / big_omega
            )
        )
        assert abs(measured) > 0.1  # genuinely nonzero
        assert measured == pytest.approx(-integral, abs=1e-8)

    @pytest.mark.parametrize("accessor", [lambda t: 0.5 * SIGMA_Z, lambda t: 0.5])
    def test_accessor_not_a_stack_is_refused(self, accessor):
        times = np.linspace(0.0, 1.0, 5)
        states = np.tile(np.array([1.0, 0.0], dtype=complex), (5, 1))
        with pytest.raises(ValueError, match=r"schedule returned shape \(.*\), expected \(5, 2, 2\)"):
            energy_expectations(Trajectory(times, states, None, accessor))

    def test_accessor_errors_propagate(self):
        times = np.linspace(0.0, 1.0, 5)
        states = np.tile(np.array([1.0, 0.0], dtype=complex), (5, 1))

        calls = []

        def broken(t):
            calls.append(np.ndim(t))
            raise RuntimeError("field table missing")

        with pytest.raises(RuntimeError, match="field table missing"):
            energy_expectations(Trajectory(times, states, None, broken))
        assert calls == [1]  # no per-time retry of a genuine error

    def test_needs_three_samples(self):
        times = np.array([0.0, 1.0])
        states = np.stack([np.array([1, 0]), np.array([1, 0])]).astype(complex)
        traj = Trajectory(times, states, None,
                          lambda t: np.broadcast_to(SIGMA_Z, np.shape(t) + (2, 2)).copy())
        with pytest.raises(ValueError):
            dynamical_phase(traj)


class TestPiecewiseDynamicalPhase:
    """dynamical_phase of a sequence_trajectory: Simpson within each timed
    segment, with that segment's own Hamiltonian, summed."""

    @pytest.mark.parametrize("steps", [2_000, 20_000])
    def test_conditional_loop_meets_the_running_phase(self, steps):
        # from |0000>, <psi|H|psi> is nearly constant along each segment, so
        # Simpson and the trapezoid of running_dynamical_phase agree closely
        # (-3.3e-7 at 2,000 steps, -3.3e-9 at 20,000; Simpson across the
        # segment edges read -1.24e-3 and -1.23e-3)
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        traj = sequence_trajectory(build_conditional_loop(1.8, 1.0), 4, psi0,
                                   steps_per_loop=steps)
        running = running_dynamical_phase(traj, np.ones(traj.times.size, dtype=bool))
        assert abs(dynamical_phase(traj) - running[-1]) < 1e-9

    @pytest.mark.parametrize("samples", [4, 257])
    def test_free_evolutions_between_pulses_are_exact(self, samples):
        # <H> = delta <sigma_z> / 2 stays constant along each free evolution
        # and jumps at the x pulse between them; at 4 samples per loop each
        # free evolution records two samples and takes the trapezoid
        seq = PulseSequence((FreeEvolve(1.0, 0.7), RotX(0.9), FreeEvolve(0.5, -1.3)))
        traj = sequence_trajectory(seq, 2, np.array([1.0, 0.0]), samples_per_loop=samples)
        assert [count for *_, count in traj._segments] == [max(2, samples // 4)] * 2
        exact = -0.35 * 1.0 + 0.65 * np.cos(0.9) * 0.5
        assert dynamical_phase(traj) == pytest.approx(exact, abs=1e-14)

    def test_one_segment_keeps_the_whole_run_rule(self):
        p = FieldParams(0.6, 0.8, -1.25, phase0=0.3)
        psi0 = cone_eigenstate(p.omega0, p.omega1).psi0
        traj = sequence_trajectory(PulseSequence((FieldLoop(p, compensated=False),)), 2, psi0,
                                   steps_per_loop=1_000)
        assert len(traj._segments) == 1
        assert dynamical_phase(traj) == -_simpson(energy_expectations(traj), traj.times)
        assert integrate_loop(p, False, steps_per_loop=1_000)._segments == ()


class TestExactFieldLoopEnergy:
    """<H> along a field loop in closed form. The loop runs U(t) = Rz(gamma
    t) exp(-i H_b t), with H_b the field frozen at t = 0 minus gamma
    sigma_z / 2, so <H>(t) = <psi0|H_b|psi0> + (gamma / 2) <sigma_z> of
    exp(-i H_b t) psi0, whose Bloch vector turns at 2 |H_b| about H_b's
    axis; its integral is a constant plus sinusoids. The integrator's
    figures miss it by its truncation at 200,000 steps: at most 2.4e-10
    pointwise and 6.5e-10 in the phase over these eight loops."""

    @staticmethod
    def exact(p: FieldParams, compensated: bool, psi0: np.ndarray, times: np.ndarray) -> tuple:
        """<H> at times, and -integral of <H> over [0, times[-1]]."""
        vertical = p.omega0 + p.gamma if compensated else p.omega0
        x = 0.5 * p.omega1 * np.exp(-1j * p.phase0)
        h_b = (np.array([[0.5 * vertical, x], [np.conj(x), -0.5 * vertical]])
               - 0.5 * p.gamma * SIGMA_Z)
        axis = np.array([h_b[1, 0].real, h_b[1, 0].imag, h_b[0, 0].real])
        rate = 2 * np.linalg.norm(axis)
        axis /= np.linalg.norm(axis)
        s = bloch_vector(psi0)
        along, across, turned = s @ axis, s - (s @ axis) * axis, np.cross(axis, s)
        energy = float((psi0.conj() @ h_b @ psi0).real)
        sz = along * axis[2] + np.cos(rate * times) * across[2] + np.sin(rate * times) * turned[2]
        end = times[-1]
        sz_integral = (along * axis[2] * end + np.sin(rate * end) / rate * across[2]
                       + (1 - np.cos(rate * end)) / rate * turned[2])
        return energy + 0.5 * p.gamma * sz, -(energy * end + 0.5 * p.gamma * sz_integral)

    @staticmethod
    def loops() -> list:
        """(params, compensated, start state) of eight seeded loops: both
        compensations and both senses, twice each, from starts off the
        eigenstate."""
        rng = np.random.default_rng(2607)
        loops = []
        for k in range(8):
            compensated, gamma = bool(k % 2), (1, -1)[k // 2 % 2] * rng.uniform(0.3, 2.0)
            p = FieldParams(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5), gamma,
                            omega_z=gamma if compensated else 0.0, phase0=rng.uniform(-3, 3))
            psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi0 /= np.linalg.norm(psi0)
            eigen = cone_eigenstate(p.omega0, p.omega1).psi0 * np.array([1, np.exp(1j * p.phase0)])
            assert abs(abs(np.vdot(eigen, psi0)) - 1) > 1e-3  # off the eigenstate
            loops.append((p, compensated, psi0))
        return loops

    def test_the_integrator_meets_the_closed_form(self):
        cases = set()
        for p, compensated, psi0 in self.loops():
            traj = integrate_loop(p, compensated, 200_000, psi0=psi0, samples=1025)
            energy, phase = self.exact(p, compensated, psi0, traj.times)
            assert np.max(np.abs(energy_expectations(traj) - energy)) <= 5e-10
            assert abs(dynamical_phase(traj) - phase) <= 1.3e-9
            cases.add((compensated, p.gamma > 0))
        assert len(cases) == 4

    @pytest.mark.parametrize("samples", [65, 129, 257])
    def test_each_rule_meets_its_order(self, samples):
        """Simpson (dynamical_phase) misses the exact integral by at most
        0.015 h^4 plus the integrator's 1.3e-9, and the trapezoid's last row
        (running_dynamical_phase, the column evolve prints) by at most
        0.06 h^2, h = T / (samples - 1). Over these loops at 65, 129 and
        257 samples the largest |error| / h^4 is 0.0120 and |error| / h^2
        0.0469."""
        for p, compensated, psi0 in self.loops():
            traj = integrate_loop(p, compensated, 200_000, psi0=psi0, samples=samples)
            _, phase = self.exact(p, compensated, psi0, traj.times)
            h = traj.times[-1] / (samples - 1)
            assert abs(dynamical_phase(traj) - phase) <= 0.015 * h**4 + 1.3e-9
            running = running_dynamical_phase(traj, np.ones(samples, dtype=bool))
            assert abs(running[-1] - phase) <= 0.06 * h**2


class TestSimpson:
    """The numpy composite Simpson rule behind dynamical_phase."""

    @staticmethod
    def grids(rng, n):
        """A uniform, a sorted-random and a repeated-time grid of n points."""
        length = rng.uniform(0.5, 8.0)
        yield np.linspace(0.0, length, n)
        yield np.sort(rng.uniform(0.0, length, n))
        yield np.sort(rng.integers(0, max(3, n // 2), n)).astype(float)

    def test_odd_counts_match_scipy_bit_for_bit(self, rng):
        integrate = pytest.importorskip("scipy.integrate")
        counts = [3, 5, 7, 33, 257, 4097] + [2 * int(k) + 1 for k in rng.integers(1, 200, 60)]
        for n in counts:
            for x in self.grids(rng, n):
                y = rng.normal(size=n)
                assert _simpson(y, x) == float(integrate.simpson(y, x=x))

    @pytest.mark.parametrize("n", [4, 6, 10, 64, 4096])
    def test_even_counts_integrate_a_quadratic_exactly(self, n, rng):
        for x in list(self.grids(rng, n))[:2]:
            c0, c1, c2 = rng.uniform(0.5, 2.0, size=3)
            a, b = x[0], x[-1]
            exact = c0 * (b - a) + c1 * (b**2 - a**2) / 2 + c2 * (b**3 - a**3) / 3
            assert _simpson(c0 + c1 * x + c2 * x**2, x) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("n", [10, 64, 256, 1000])
    def test_even_counts_converge_on_a_sine(self, n, rng):
        mpmath = pytest.importorskip("mpmath")
        x = np.sort(rng.uniform(0.0, 5.0, n))
        x[0], x[-1] = 0.0, 5.0
        with mpmath.workdps(30):
            exact = float(mpmath.cos(mpmath.mpf(x[0])) - mpmath.cos(mpmath.mpf(x[-1])))
        # composite Simpson error: O(h^4) over the interval, |d^4 sin / dx^4| <= 1
        bound = (x[-1] - x[0]) * np.max(np.diff(x)) ** 4
        assert abs(_simpson(np.sin(x), x) - exact) <= bound


_WITHOUT_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} blocked")


sys.meta_path.insert(0, BlockScipy())
import conegate, conegate.cli
from conegate.hamiltonians import FieldParams
from conegate.phases import cone_eigenstate, phase_decomposition
from conegate.sequences import integrate_loop

geom = cone_eigenstate(1.0, 1.0)
traj = integrate_loop(FieldParams(1.0, 1.0, -2.0, omega_z=-2.0), compensated=True,
                      steps_per_loop=2000, psi0=geom.psi0, samples=65)
print(repr(phase_decomposition(traj)))
"""


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(conegate.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


class TestWithoutScipy:
    def test_import_loads_no_scipy(self):
        run = _run_python("import sys, conegate, conegate.cli\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_phase_decomposition_runs_with_scipy_blocked(self):
        run = _run_python(_WITHOUT_SCIPY)
        assert run.returncode == 0, run.stderr
        geom = cone_eigenstate(1.0, 1.0)
        traj = integrate_loop(FieldParams(1.0, 1.0, -2.0, omega_z=-2.0), compensated=True,
                              steps_per_loop=2000, psi0=geom.psi0, samples=65)
        assert run.stdout.strip() == repr(phase_decomposition(traj))


class TestPhaseDecomposition:

    def test_compensated_loop_geometric_phase(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        dec = phase_decomposition(closed_form_loop_trajectory(p))
        expected = geometric_phase_cone(np.pi / 4)
        assert abs(canonical_phase(dec.geometric - expected)) < 1e-9

    def test_simulated_loop_geometric_phase(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        geom = cone_eigenstate(1.0, 1.0)
        traj = integrate_loop(
            p, compensated=True, steps_per_loop=30_000, psi0=geom.psi0, samples=2001
        )
        dec = phase_decomposition(traj)
        assert abs(canonical_phase(dec.geometric - geometric_phase_cone(geom.theta))) < 1e-7

    def test_static_field_gives_zero_geometric(self):
        omega0, omega1, t_end = 0.9, 1.2, 4.0
        geom = cone_eigenstate(omega0, omega1)
        h0 = 0.5 * (omega0 * SIGMA_Z + omega1 * SIGMA_X)
        times = np.linspace(0, t_end, 201)
        states = np.stack(
            [np.exp(-1j * geom.eigenvalue * t) * geom.psi0 for t in times]
        )
        traj = Trajectory(times, states, None,
                          lambda t: np.broadcast_to(h0, np.shape(t) + (2, 2)).copy())
        dec = phase_decomposition(traj)
        assert abs(canonical_phase(dec.geometric)) < 1e-10
        assert dec.total == pytest.approx(dec.dynamical + dec.geometric)

    def test_decomposition_identity_mod_2pi(self):
        p = FieldParams(1.3, 0.8, compensation_gamma(1.3, 0.8),
                        omega_z=compensation_gamma(1.3, 0.8))
        dec = phase_decomposition(closed_form_loop_trajectory(p))
        assert abs(canonical_phase(dec.total - (dec.dynamical + dec.geometric))) < 1e-12

    def test_two_qubit_sector_phases(self):
        setting = two_qubit_loop_params(CNOT_DELTA, 1.0)
        phases = {}
        for sign, theta in ((+1, setting.theta_plus), (-1, setting.theta_minus)):
            p = FieldParams(
                CNOT_DELTA + sign * 1.0, setting.omega1, setting.gamma,
                omega_z=setting.gamma,
            )
            dec = phase_decomposition(closed_form_loop_trajectory(p))
            assert abs(canonical_phase(dec.geometric - geometric_phase_cone(theta))) < 1e-9
            phases[sign] = geometric_phase_cone(theta)
        assert phases[+1] == pytest.approx(phases[-1] - np.pi / 2, abs=1e-12)

    def test_noncyclic_rejected_with_defect(self):
        p = FieldParams(1.0, 1.0, 0.9)  # uncompensated: visibly noncyclic
        geom = cone_eigenstate(1.0, 1.0)
        times = np.linspace(0, loop_duration(p), 101)
        props = np.stack([propagator_uncompensated(p, float(t)) for t in times])
        states = np.einsum("kij,j->ki", props, geom.psi0)
        traj = Trajectory(times, states, props, FieldSchedule.of(p, False))
        with pytest.raises(ValueError, match="defect"):
            phase_decomposition(traj)


class TestGeometricPhaseCone:
    def test_equator(self):
        assert geometric_phase_cone(np.pi / 2) == pytest.approx(-np.pi)

    def test_degenerate_cone(self):
        value = geometric_phase_cone(0.0)
        assert value == pytest.approx(-2 * np.pi)
        assert abs(canonical_phase(value)) < 1e-15

    def test_cnot_point_value(self):
        setting = two_qubit_loop_params(CNOT_DELTA, 1.0)
        assert geometric_phase_cone(setting.theta_minus) == pytest.approx(
            -4.434162710708865, abs=1e-12
        )

    def test_branch_sum(self, rng):
        for theta in rng.uniform(0, np.pi, size=20):
            total = geometric_phase_cone(theta) + geometric_phase_cone(np.pi - theta)
            assert total == pytest.approx(-2 * np.pi, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            geometric_phase_cone(-0.1)


class TestCanonicalPhase:
    def test_representative_interval(self):
        assert canonical_phase(3 * np.pi) == pytest.approx(np.pi)
        assert canonical_phase(-np.pi) == pytest.approx(np.pi)
        assert canonical_phase(0.3) == pytest.approx(0.3)
        assert canonical_phase(-0.3 - 4 * np.pi) == pytest.approx(-0.3)
