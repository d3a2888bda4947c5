import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_field_draws(rng, n):
    """(omega0, omega1) pairs with omega0 bounded away from zero."""
    omega0 = rng.uniform(0.2, 2.0, size=n)
    omega1 = rng.uniform(0.0, 2.0, size=n)
    return np.column_stack([omega0, omega1])


def is_unitary(u, atol=1e-10):
    """Whether u is a square matrix with u^dag u = I within atol."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol)


def expm_hermitian(h, t):
    """exp(-i h t) for a Hermitian h, by its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
