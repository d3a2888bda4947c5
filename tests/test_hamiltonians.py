import numpy as np
import pytest

from conegate.hamiltonians import (
    FieldParams,
    FieldSchedule,
    h_compensated,
    h_two_qubit_rotating,
)
from conegate.linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z


class TestFieldParams:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            FieldParams(1.0, -0.5, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FieldParams(np.nan, 1.0, 1.0)


class TestRotatingField:
    def test_vertical_only(self):
        p = FieldParams(1.0, 0.0, 3.7)
        for t in (0.0, 0.4, 12.0):
            assert np.allclose(FieldSchedule.of(p, False)(t), 0.5 * SIGMA_Z)

    def test_quarter_turn_gives_sigma_y(self):
        p = FieldParams(0.0, 1.0, 2.0)
        t = (np.pi / 2) / 2.0  # gamma * t = pi/2
        assert np.allclose(FieldSchedule.of(p, False)(t), 0.5 * SIGMA_Y, atol=1e-15)

    def test_off_diagonal_phase(self):
        p = FieldParams(1.0, 1.0, 0.5)
        h = FieldSchedule.of(p, False)(1.0)
        assert h[0, 1] == pytest.approx(0.5 * np.exp(-0.5j))
        assert h[1, 0] == pytest.approx(0.5 * np.exp(0.5j))

    def test_vectorized_over_time(self):
        p = FieldParams(0.7, 1.3, -2.0, phase0=0.3)
        ts = np.linspace(0, 5, 11)
        stacked = FieldSchedule.of(p, False)(ts)
        assert stacked.shape == (11, 2, 2)
        for k, t in enumerate(ts):
            assert np.allclose(stacked[k], FieldSchedule.of(p, False)(float(t)))


class TestCompensatedField:
    def test_gamma_zero_matches_bare(self):
        p = FieldParams(1.0, 1.0, 0.0)
        for t in (0.0, 0.7, 3.0):
            assert np.allclose(h_compensated(p, t), FieldSchedule.of(p, False)(t))

    def test_symmetric_point(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=-2.0)
        expected = 0.5 * (-SIGMA_Z + SIGMA_X)
        assert np.allclose(h_compensated(p, 0.0), expected)

    def test_diagonal_is_time_independent(self):
        p = FieldParams(0.9, 1.4, -3.1, omega_z=-3.1)
        for t in np.linspace(0, 7, 9):
            h = h_compensated(p, float(t))
            assert h[0, 0] == pytest.approx(0.5 * (0.9 - 3.1))
            assert h[1, 1] == pytest.approx(-0.5 * (0.9 - 3.1))

    def test_misconfigured_compensation_raises(self):
        p = FieldParams(1.0, 1.0, -2.0, omega_z=0.0)
        with pytest.raises(ValueError):
            h_compensated(p, 0.0)

    def test_difference_is_half_gamma_sigma_z(self, rng):
        for _ in range(10):
            gamma = rng.uniform(-4, 4)
            p_c = FieldParams(
                rng.uniform(-2, 2), rng.uniform(0, 2), gamma, omega_z=gamma
            )
            p_u = FieldParams(p_c.omega0, p_c.omega1, gamma)
            t = rng.uniform(0, 10)
            diff = h_compensated(p_c, t) - FieldSchedule.of(p_u, False)(t)
            assert np.max(np.abs(diff - 0.5 * gamma * SIGMA_Z)) < 1e-15


class TestTwoQubitStatic:
    """The undriven pair in the rotating frame (omega1 = gamma = 0): its
    diagonal fixes the |b a> basis order."""

    @staticmethod
    def static(delta, j):
        return h_two_qubit_rotating(delta, j, 0.0, 0.0, 0.3)

    def test_pure_coupling(self):
        assert np.allclose(self.static(0.0, 1.0), 0.5 * np.diag([1, -1, -1, 1]))

    def test_basis_ordering_a_low_order(self):
        assert np.allclose(self.static(2.0, 0.0), 0.5 * np.diag([2, -2, 2, -2]))

    def test_matches_tensor_assembly(self, rng):
        for _ in range(10):
            delta, j = rng.uniform(-3, 3), rng.uniform(0.1, 2)
            expected = 0.5 * (delta * np.kron(IDENTITY_2, SIGMA_Z)
                              + j * np.kron(SIGMA_Z, SIGMA_Z))
            assert np.allclose(self.static(delta, j), expected)

    def test_commutes_with_single_spin_z(self):
        h = h_two_qubit_rotating(1.3, 0.9, 0.7, -2.0, 0.4)  # the drive acts on spin a only
        sz_b = np.kron(SIGMA_Z, IDENTITY_2)
        assert np.max(np.abs(h @ sz_b - sz_b @ h)) == 0.0
        h = self.static(1.3, 0.9)
        sz_a = np.kron(IDENTITY_2, SIGMA_Z)
        assert np.max(np.abs(h @ sz_a - sz_a @ h)) == 0.0


class TestTwoQubitRotating:
    def test_block_structure_matches_sectors(self):
        delta, j, omega1, gamma = 1.5, 1.0, 0.9, -3.0
        for t in (0.0, 0.4):
            h4 = h_two_qubit_rotating(delta, j, omega1, gamma, t)
            up = h_compensated(
                FieldParams(delta + j, omega1, gamma, omega_z=gamma), t
            )
            down = h_compensated(
                FieldParams(delta - j, omega1, gamma, omega_z=gamma), t
            )
            assert np.allclose(h4[:2, :2], up)
            assert np.allclose(h4[2:, 2:], down)
            assert np.max(np.abs(h4[:2, 2:])) == 0.0
