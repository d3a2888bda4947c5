import sys

import numpy as np
import pytest

from conegate import gates
from conegate.gates import (
    CNOT_DELTA_FACTOR,
    CNOT_TARGET,
    HADAMARD,
    GateRecipe,
    _conjugated_loop_gate,
    apply_recipe,
    _sector_phase_diag,
    cnot_recipe,
    conditional_recipe,
    hadamard_recipe,
    not_recipe,
    phase_gate,
    phase_gate_recipe,
    verify_gate,
)
from conegate.linalg import IDENTITY_2, SIGMA_X, fidelity
from conegate.phases import (
    canonical_phase,
    geometric_phase_cone,
    two_qubit_loop_params,
)
from conegate.sequences import (
    SINGLE_QUBIT,
    PulseSequence,
    RotY,
    RotZ,
    apply_sequence,
    build_conditional_loop,
    simulate_sequence,
)

from conftest import is_unitary


def verified(recipe, steps_per_loop=10_000):
    """The recipe after verify_gate, as the CLI's gate command runs it."""
    verify_gate(recipe, steps_per_loop=steps_per_loop)
    return recipe


def correction(gamma_minus):
    """I_b (x) diag(e^{-i G-}, e^{+i G-}): turns the conditional diagonal at
    the CNOT point into diag(-i, i, 1, 1)."""
    return np.kron(IDENTITY_2, np.diag([np.exp(-1j * gamma_minus), np.exp(1j * gamma_minus)]))


class TestPhaseGate:
    def test_doubled_convention_quarter_cosine(self):
        # one doubled winding is two single-winding loops
        u = phase_gate(np.arccos(0.25), loops=2)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-14)

    def test_equator_is_identity(self):
        u = phase_gate(np.pi / 2, loops=3)
        assert fidelity(u, IDENTITY_2) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_tilts_rejected(self):
        for theta in (0.0, np.pi):
            with pytest.raises(ValueError):
                phase_gate(theta)

    def test_loop_count_validation(self):
        with pytest.raises(ValueError):
            phase_gate(1.0, loops=0)

    def test_commutes_with_sigma_z(self):
        from conegate.linalg import SIGMA_Z

        u = phase_gate(1.1, loops=2)
        assert np.max(np.abs(u @ SIGMA_Z - SIGMA_Z @ u)) < 1e-14

    @pytest.mark.parametrize("theta0", [0.6, 1.0, 2.2, 2.8])
    def test_simulated_loop_realizes_single_winding(self, theta0):
        recipe = phase_gate_recipe(theta0)
        u = simulate_sequence(recipe.sequence, 2, steps_per_loop=30_000)
        off = np.max(np.abs(u - np.diag(np.diag(u))))
        assert off < 1e-7
        relative = np.angle(u[0, 0]) - np.angle(u[1, 1])
        assert abs(canonical_phase(relative + 2 * np.pi * np.cos(theta0))) < 1e-7
        assert fidelity(u, recipe.target) >= 1 - 1e-7

    def test_branch_difference_equals_relative_phase(self, rng):
        # the per-loop relative phase is the difference of the two branch
        # phases of the same loop
        for theta0 in rng.uniform(0.1, np.pi / 2 - 0.1, size=10):
            diff = geometric_phase_cone(theta0) - geometric_phase_cone(np.pi - theta0)
            assert abs(canonical_phase(diff + 2 * np.pi * np.cos(theta0))) < 1e-12


class TestConjugatedLoopGate:
    def test_zero_phase_is_identity(self):
        assert np.allclose(_conjugated_loop_gate(0.7, 0.0), np.eye(2), atol=1e-15)

    def test_axis_aligned_is_diagonal(self):
        g = 1.3
        u = _conjugated_loop_gate(0.0, g)
        assert np.allclose(u, np.diag([np.exp(1j * g), np.exp(-1j * g)]), atol=1e-14)

    def test_balanced_regime_moduli(self):
        # |sin G sin theta0| = sqrt2/2 puts all entry magnitudes at sqrt2/2
        theta0 = 1.3059994129746395
        g = geometric_phase_cone(theta0)
        assert abs(abs(np.sin(g) * np.sin(theta0)) - np.sqrt(2) / 2) < 1e-9
        u = _conjugated_loop_gate(theta0, g)
        assert np.allclose(np.abs(u), np.sqrt(2) / 2, atol=1e-9)

    def test_equals_rotation_conjugation(self, rng):
        for _ in range(10):
            theta0 = rng.uniform(0, np.pi)
            g = rng.uniform(-2 * np.pi, 2 * np.pi)
            direct = _conjugated_loop_gate(theta0, g)
            built = (apply_sequence(PulseSequence((RotY(theta0),)), 2)
                     @ np.diag([np.exp(1j * g), np.exp(-1j * g)])
                     @ apply_sequence(PulseSequence((RotY(-theta0),)), 2))
            assert np.max(np.abs(direct - built)) < 1e-14

    def test_unitary(self, rng):
        for _ in range(10):
            u = _conjugated_loop_gate(rng.uniform(0, np.pi), rng.uniform(-7, 7))
            assert is_unitary(u, atol=1e-12)


class TestSolveHadamard:
    def test_root_location(self):
        recipe = hadamard_recipe()
        theta0 = recipe.parameters["theta0"]
        assert theta0 == pytest.approx(1.306, abs=1e-3)
        residual = np.sin(np.pi * np.cos(theta0)) * np.sin(theta0) - np.sqrt(2) / 2
        assert abs(residual) < 1e-12

    def test_matches_independent_scan(self):
        # coarse scan plus midpoint refinement, independent of the solver
        def f(theta):
            return np.sin(np.pi * np.cos(theta)) * np.sin(theta) - np.sqrt(2) / 2

        grid = np.linspace(1.1, np.pi / 2 - 1e-9, 2_000_001)
        vals = f(grid)
        k = int(np.argmax(vals[:-1] * vals[1:] <= 0))
        independent = 0.5 * (grid[k] + grid[k + 1])
        recipe = hadamard_recipe()
        assert recipe.parameters["theta0"] == pytest.approx(independent, abs=1e-6)

    def test_closed_form_composition_is_hadamard(self):
        recipe = hadamard_recipe()
        assert fidelity(apply_recipe(recipe), HADAMARD) >= 1 - 1e-8

    def test_simulated_fidelity(self):
        recipe = verified(hadamard_recipe())
        assert recipe.fidelity >= 1 - 1e-6

    def test_involution(self):
        recipe = hadamard_recipe()
        u = apply_recipe(recipe)
        assert fidelity(u @ u, np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-10)

    def test_tilt_is_solved_once_per_process(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return bisect(*args)

        bisect = gates._bisect
        monkeypatch.setattr(gates, "_bisect", counting)
        gates._hadamard_root.cache_clear()
        first, second = hadamard_recipe(), hadamard_recipe()
        assert len(calls) == 1
        assert first.parameters == second.parameters


class TestSolveNot:
    def test_single_winding_tilt(self):
        recipe = verified(not_recipe())
        assert np.cos(recipe.parameters["theta0"]) == pytest.approx(0.5, abs=1e-9)
        assert recipe.fidelity >= 1 - 1e-6

    def test_closed_form_is_sigma_x(self):
        recipe = not_recipe()
        assert fidelity(apply_recipe(recipe), SIGMA_X) >= 1 - 1e-9

    def test_squares_to_identity(self):
        recipe = not_recipe()
        u = apply_recipe(recipe)
        assert fidelity(u @ u, np.eye(2, dtype=complex)) == pytest.approx(1.0, abs=1e-9)


class TestConditionalPhase:
    def test_analytic_correction(self):
        delta = CNOT_DELTA_FACTOR
        setting = two_qubit_loop_params(delta, 1.0)
        g_minus = geometric_phase_cone(setting.theta_minus)
        product = _sector_phase_diag(setting) @ correction(g_minus)
        assert np.max(np.abs(product - np.diag([-1j, 1j, 1, 1]))) < 1e-12

    def test_simulated_correction(self):
        delta = CNOT_DELTA_FACTOR
        setting = two_qubit_loop_params(delta, 1.0)
        g_minus = geometric_phase_cone(setting.theta_minus)
        u = simulate_sequence(build_conditional_loop(delta, 1.0), 4, steps_per_loop=20_000)
        product = u @ correction(g_minus)
        assert np.max(np.abs(product - np.diag([-1j, 1j, 1, 1]))) < 1e-6

    def test_conditional_recipe_verifies(self):
        recipe = conditional_recipe(1.058)
        fid = verify_gate(recipe, steps_per_loop=20_000)
        assert fid >= 1 - 1e-6


class TestCnot:
    def test_sector_phase_identity(self):
        setting = two_qubit_loop_params(CNOT_DELTA_FACTOR, 1.0)
        g_plus = geometric_phase_cone(setting.theta_plus)
        g_minus = geometric_phase_cone(setting.theta_minus)
        assert abs(g_plus - (g_minus - np.pi / 2)) < 1e-12
        assert abs((np.cos(setting.theta_plus) - np.cos(setting.theta_minus)) - 0.5) < 1e-12

    def test_hadamard_sandwich_of_conditional_diag(self):
        sandwich = (
            np.kron(IDENTITY_2, HADAMARD)
            @ np.diag([-1j, 1j, 1, 1]).astype(complex)
            @ np.kron(IDENTITY_2, HADAMARD)
        )
        assert np.max(np.abs(sandwich - CNOT_TARGET)) < 1e-14

    def test_closed_form_recipe_hits_target(self):
        recipe = cnot_recipe()
        assert fidelity(apply_recipe(recipe), CNOT_TARGET) >= 1 - 1e-12

    def test_simulated_fidelity(self):
        recipe = cnot_recipe()
        fid = verify_gate(recipe, steps_per_loop=20_000)
        assert fid >= 1 - 1e-5

    def test_basis_action(self):
        for a in (0, 1):
            down = np.zeros(4, dtype=complex)
            down[2 + a] = 1.0
            assert np.allclose(CNOT_TARGET @ down, down)
            up = np.zeros(4, dtype=complex)
            up[a] = 1.0
            flipped = np.zeros(4, dtype=complex)
            flipped[1 - a] = -1j
            assert np.allclose(CNOT_TARGET @ up, flipped)

    def test_target_square(self):
        assert np.max(np.abs(CNOT_TARGET @ CNOT_TARGET - np.diag([-1, -1, 1, 1]))) < 1e-14

    def test_gates_unitary(self):
        assert is_unitary(CNOT_TARGET)
        assert is_unitary(_sector_phase_diag(two_qubit_loop_params(1.8, 1.0)))
        assert is_unitary(apply_recipe(cnot_recipe()), atol=1e-10)


class TestVerifyGate:
    def test_identity_recipe(self):
        recipe = GateRecipe(
            name="idle",
            target=np.eye(2, dtype=complex),
            sequence=PulseSequence((), frame=SINGLE_QUBIT),
        )
        assert verify_gate(recipe) == pytest.approx(1.0, abs=1e-14)
        assert recipe.fidelity == pytest.approx(1.0, abs=1e-14)

    def test_perturbed_tilt_lowers_fidelity(self):
        good = verified(hadamard_recipe())
        theta0 = good.parameters["theta0"]
        from conegate.gates import _tilted_loop

        perturbed = GateRecipe(
            name="hadamard-perturbed",
            target=HADAMARD.copy(),
            sequence=PulseSequence(
                (
                    RotZ(-good.parameters["pre_phase"]),
                    _tilted_loop(theta0 + 0.1),
                    RotZ(-good.parameters["post_phase"]),
                ),
                frame=SINGLE_QUBIT,
            ),
        )
        fid = verify_gate(perturbed, steps_per_loop=5000)
        assert fid < good.fidelity - 1e-4


class TestUnverifiedBuilders:
    def test_builders_leave_fidelity_unset(self, monkeypatch):
        import conegate.gates as gates

        monkeypatch.setattr(gates, "verify_gate", lambda *a, **k: pytest.fail("verified"))
        for recipe in (hadamard_recipe(), not_recipe(), cnot_recipe()):
            assert recipe.fidelity is None


class TestSettingSolvedOnce:
    """A conditional-loop recipe solves its loop setting once and passes it
    on, to the loop, the target and the parameters."""

    @pytest.mark.parametrize("build", [lambda: conditional_recipe(1.8), lambda: cnot_recipe()])
    def test_one_solve_per_recipe(self, build, monkeypatch):
        from conegate import phases, sequences

        calls = []

        def counting(*args):
            calls.append(args)
            return phases.two_qubit_loop_params(*args)

        monkeypatch.setattr(sequences, "two_qubit_loop_params", counting)
        recipe = build()
        assert len(calls) == 1
        setting = phases.two_qubit_loop_params(*calls[0])
        assert recipe.parameters["omega1"] == setting.omega1
        assert recipe.parameters["gamma"] == setting.gamma

    def test_one_solve_per_cphase_command(self, monkeypatch, capsys):
        from conegate import cli, phases

        calls = []
        solve = phases.two_qubit_loop_params

        def counting(*args):
            calls.append(args)
            return solve(*args)

        # every module of the package that holds the name, so that no solve escapes
        for module in [m for name, m in sys.modules.items() if name.startswith("conegate")]:
            if getattr(module, "two_qubit_loop_params", None) is solve:
                monkeypatch.setattr(module, "two_qubit_loop_params", counting)
        assert cli.main(["gate", "cphase", "--delta-over-j", "1.8", "--steps", "200"]) == 0
        assert "cphase" in capsys.readouterr().out
        assert calls == [(1.8, 1.0)]
