"""Minimal dense complex linear algebra for two- and four-level systems.

States are plain 1-d complex ndarrays, operators are square complex
ndarrays. Dimensions are restricted to 2 and 4; nothing here scales
beyond that and nothing needs to.

The 2x2 exponential is one closed-form kernel, _expm_2x2, that broadcasts
over (..., 2, 2) stacks with the same elementwise operations for one matrix
or many, so a stacked call reproduces the per-matrix bits; mat_exp_hermitian
is its checked front door. Two reductions do not broadcast that way: a
batched complex dot product sums in another order than BLAS does for one
pair of vectors, and a batched complex abs is not the scalar hypot. Callers
that must reproduce per-point bits keep those two per point.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def require_hermitian(h: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    h = require_finite(h, "operator")
    if not (h.ndim == 2 and h.shape[0] == h.shape[1]
            and np.allclose(h, h.conj().T, rtol=1e-10, atol=atol)):
        raise ValueError("operator is not Hermitian within tolerance")
    return h


def _expm_2x2(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for a (..., 2, 2) stack of Hermitian h, t broadcasting
    against the stack's leading shape.

    Closed form exp(-i c t) (cos(r t) I - i sin(r t) n.sigma) with c the half
    trace and r n.sigma the traceless part. Every entry goes through the same
    elementwise operations whatever the stack shape, so a stacked call and a
    call per matrix agree bit for bit. No Hermitian check: callers pass h
    that is Hermitian by construction or checked already.
    """
    h = np.asarray(h)
    t = np.asarray(t)[..., None, None]
    # (..., 1, 1) slices keep every intermediate an array that broadcasts
    # against the matrices; |b| is hypot(re, im) as for a complex scalar
    c = 0.5 * (h[..., :1, :1].real + h[..., 1:, 1:].real)
    b = h[..., :1, 1:]
    r = np.hypot(h[..., :1, :1].real - c, np.hypot(b.real, b.imag))
    null = r == 0.0
    n_sigma = (h - c * IDENTITY_2) / np.where(null, 1.0, r)
    u = np.cos(r * t) * IDENTITY_2 - 1j * np.sin(r * t) * n_sigma
    return np.exp(-1j * c * t) * np.where(null, IDENTITY_2, u)


def mat_exp_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, exact up to rounding.

    Dimension 2 uses the closed-form kernel; larger dimensions go through a
    Hermitian eigendecomposition.
    """
    h = require_hermitian(h)
    if not np.isfinite(t):
        raise ValueError("duration must be finite")
    if h.shape[0] == 2:
        return _expm_2x2(h, t)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate fidelity |Tr(u^dag v)| / d in [0, 1].

    Rounding can push the raw value a hair above 1 for near-unitary
    inputs; that excess is clipped. A gross excess means the inputs were
    not unitary and raises instead.
    """
    u = require_finite(u, "u")
    v = require_finite(v, "v")
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("fidelity expects two square matrices of equal dimension")
    d = u.shape[0]
    value = float(abs(np.trace(u.conj().T @ v)) / d)
    if value > 1.0 + 1e-6:
        raise ValueError("fidelity above 1: inputs are not unitary")
    return min(1.0, value)


def bloch_vector(psi: np.ndarray) -> np.ndarray:
    """Bloch coordinates (x, y, z) of a normalized two-level state.

    Tolerates the norm drift long exact-exponential products accumulate
    from rounding (the result is renormalized), but rejects vectors that
    are not close to normalized.
    """
    psi = require_finite(psi, "state")
    if psi.ndim != 1 or psi.shape[0] != 2:
        raise ValueError("bloch_vector is defined for dimension 2 only")
    norm_sq = float((psi.conj() @ psi).real)
    if abs(norm_sq - 1.0) > 1e-6:
        raise ValueError("state is not normalized")
    return np.array(
        [
            (psi.conj() @ (SIGMA_X @ psi)).real,
            (psi.conj() @ (SIGMA_Y @ psi)).real,
            (psi.conj() @ (SIGMA_Z @ psi)).real,
        ]
    ) / norm_sq
