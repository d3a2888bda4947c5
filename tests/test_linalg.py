import numpy as np
import pytest

from conegate.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_vector,
    fidelity,
)
from conegate.propagation import _Dense, _static_entries, _static_propagator

from conftest import expm_hermitian, is_unitary, random_hermitian


def expm_taylor(m: np.ndarray, order: int = 12) -> np.ndarray:
    """Independent matrix-exponential oracle: scaling and squaring with a
    12th-order Taylor core."""
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 2)
    x = m / (2**squarings)
    term = np.eye(m.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, order + 1):
        term = term @ x / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def field_of(h: np.ndarray) -> tuple:
    """(omega0, omega1, phase0) of the traceless part of a 2x2 Hermitian h."""
    b = complex(h[1, 0])
    return float((h[0, 0] - h[1, 1]).real), 2 * abs(b), float(np.angle(b))


def exp_kernel(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) as the package evaluates it: a 2x2 through propagation's
    closed form (its half trace as a phase), a 4x4 as the integrator's eigh
    step."""
    if len(h) == 4:
        return _Dense(lambda _: h[None], 1, t).steps(0, 1, t)[0]
    c = 0.5 * (h[0, 0] + h[1, 1]).real
    return np.exp(-1j * c * t) * _static_propagator(*field_of(h), float(t))


class TestMatExpHermitian:
    """The package's exponentials of Hermitian matrices against the
    oracles."""

    def test_zero_duration_is_identity(self, rng):
        for dim in (2, 4):
            h = random_hermitian(rng, dim)
            assert np.allclose(exp_kernel(h, 0.0), np.eye(dim), atol=1e-14)

    def test_diagonal_analytic(self):
        # exponent (pi/2) sigma_z: exp(-i pi/2 sigma_z) = diag(-i, i)
        u = exp_kernel(SIGMA_Z, np.pi / 2)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-15)

    def test_4x4_against_taylor_oracle(self, rng):
        h = random_hermitian(rng, 4)
        t = 0.37
        expected = expm_taylor(-1j * h * t)
        assert np.max(np.abs(exp_kernel(h, t) - expected)) < 1e-10

    def test_2x2_against_taylor_oracle(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 2)
            t = rng.uniform(-3, 3)
            expected = expm_taylor(-1j * h * t)
            assert np.max(np.abs(exp_kernel(h, t) - expected)) < 1e-10

    def test_rejects_nonfinite_duration(self):
        with pytest.raises(ValueError, match="finite"):
            _static_propagator(1.0, 1.0, 0.0, np.inf)

    def test_stacked_kernel_is_bitwise_per_matrix(self, rng):
        hs = [random_hermitian(rng, 2) for _ in range(40)] + [
            0.3 * np.eye(2), np.zeros((2, 2)), SIGMA_X, -2.0 * SIGMA_Z]
        ts = rng.uniform(-4, 4, size=50)
        for h in hs:
            omega0, omega1, phase0 = field_of(h)
            per_point = np.array([_static_entries(omega0, omega1, phase0, t)
                                  for t in ts.tolist()]).reshape(-1, 2, 2)
            assert np.array_equal(_static_propagator(omega0, omega1, phase0, ts), per_point)

    def test_null_field_is_exactly_a_phase(self):
        assert np.array_equal(_static_propagator(0.0, 0.0, 0.0, 2.0), np.eye(2))
        assert np.array_equal(_static_propagator(np.zeros(3), 0.0, 0.0, 2.0),
                              np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(exp_kernel(0.3 * np.eye(2), 2.0), np.exp(-0.6j) * np.eye(2))

    def test_semigroup_property(self, rng):
        for dim in (2, 4):
            for _ in range(5):
                h = random_hermitian(rng, dim)
                s, t = rng.uniform(-10, 10, size=2)
                combined = exp_kernel(h, s + t)
                split = exp_kernel(h, s) @ exp_kernel(h, t)
                assert np.max(np.abs(combined - split)) < 1e-10

    def test_output_unitary(self, rng):
        for dim in (2, 4):
            for _ in range(5):
                u = exp_kernel(random_hermitian(rng, dim), rng.uniform(-5, 5))
                assert is_unitary(u, atol=1e-10)


class TestFidelity:
    def test_self_fidelity(self, rng):
        h = random_hermitian(rng, 4)
        u = expm_hermitian(h, 1.3)
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        u = expm_hermitian(random_hermitian(rng, 2), 0.7)
        for alpha in (0.1, 1.0, -2.5):
            assert fidelity(u, np.exp(1j * alpha) * u) == pytest.approx(1.0, abs=1e-12)

    def test_traceless_product(self):
        assert fidelity(IDENTITY_2, SIGMA_X) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(IDENTITY_2, np.eye(4, dtype=complex))


class TestBlochVector:
    def test_poles_and_equator(self):
        assert np.allclose(bloch_vector(np.array([1, 0], dtype=complex)), [0, 0, 1])
        assert np.allclose(bloch_vector(np.array([0, 1], dtype=complex)), [0, 0, -1])
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(bloch_vector(plus), [1, 0, 0], atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            bloch_vector(np.array([1.0, 1.0], dtype=complex))


def bloch_one_state(psi: np.ndarray) -> np.ndarray:
    """The one-state Bloch vector as the package first computed it: a
    matrix-vector product and a dot per Pauli matrix, in this order."""
    psi = np.asarray(psi, dtype=complex)
    norm_sq = float((psi.conj() @ psi).real)
    return np.array(
        [
            (psi.conj() @ (SIGMA_X @ psi)).real,
            (psi.conj() @ (SIGMA_Y @ psi)).real,
            (psi.conj() @ (SIGMA_Z @ psi)).real,
        ]
    ) / norm_sq


def per_row(states: np.ndarray) -> np.ndarray:
    return np.array([bloch_one_state(s) for s in states]).reshape(states.shape[:-1] + (3,))


def random_states(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestBlochVectorStack:
    """A (..., 2) stack gives the (..., 3) vectors of its states, each one
    byte for byte the one-state computation."""

    def test_random_stack_is_bytewise_per_state(self):
        states = random_states(100_000, 7)
        stacked = bloch_vector(states)
        assert stacked.shape == (100_000, 3)
        assert stacked.tobytes() == per_row(states).tobytes()

    def test_edge_states_are_bytewise_per_state(self):
        r = 1 / np.sqrt(2)
        parts = [1.0, -1.0, 0.0, -0.0, 1j, -1j, complex(-0.0, -0.0), complex(1.0, -0.0)]
        basis = [[a, b] for a in parts for b in parts if abs(a) ** 2 + abs(b) ** 2 == 1]
        phased = [[r * a, r * b] for a in (1, -1, 1j, -1j) for b in (1, -1, 1j, -1j)]
        states = np.array(basis + phased, dtype=complex)
        assert len(basis) >= 8
        stacked = bloch_vector(states)
        assert stacked.tobytes() == per_row(states).tobytes()
        for state, vector in zip(states, stacked):
            assert bloch_vector(state).tobytes() == vector.tobytes()

    def test_strided_and_fortran_stacks_are_bytewise_per_state(self):
        states = random_states(5_000, 11)
        wide = np.zeros((2 * len(states), 3), dtype=complex)
        wide[::2, 1:] = states
        strided = wide[::2, 1:]
        fortran = np.asfortranarray(states)
        assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
        for stack in (strided, fortran):
            assert bloch_vector(stack).tobytes() == per_row(stack).tobytes()
            assert bloch_vector(stack).tobytes() == per_row(states).tobytes()

    def test_one_state_and_nested_stacks_keep_their_shape(self):
        states = random_states(12, 3)
        assert bloch_vector(states[0]).shape == (3,)
        nested = bloch_vector(states.reshape(3, 4, 2))
        assert nested.shape == (3, 4, 3)
        assert nested.reshape(12, 3).tobytes() == per_row(states).tobytes()

    def test_empty_stack(self):
        assert bloch_vector(np.zeros((0, 2), dtype=complex)).shape == (0, 3)

    def test_nan_row_is_refused(self):
        states = random_states(5, 1)
        states[2, 1] = np.nan
        with pytest.raises(ValueError, match="^state contains NaN or Inf entries$"):
            bloch_vector(states)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), ()])
    def test_three_component_rows_are_refused(self, shape):
        with pytest.raises(ValueError, match="^bloch_vector is defined for dimension 2 only$"):
            bloch_vector(np.ones(shape, dtype=complex) / np.sqrt(3))

    def test_one_unnormalized_row_is_refused(self):
        states = random_states(6, 2)
        states[4] *= 1.0 + 1e-5
        with pytest.raises(ValueError, match="^state is not normalized$"):
            bloch_vector(states)
        states[4] /= 1.0 + 1e-5
        bloch_vector(states)
