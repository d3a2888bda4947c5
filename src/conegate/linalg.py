"""Minimal dense complex linear algebra for two- and four-level systems.

States are plain 1-d complex ndarrays, operators are square complex
ndarrays. Dimensions are restricted to 2 and 4; nothing here scales
beyond that and nothing needs to.

Matrix exponentials live where they are evaluated: the SU(2) closed forms
of the propagators and the integrator's steps in propagation.
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


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
