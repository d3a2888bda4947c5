"""Minimal dense complex linear algebra for two- and four-level systems.

States are plain 1-d complex ndarrays, operators are square complex
ndarrays. Dimensions are restricted to 2 and 4; nothing here scales
beyond that and nothing needs to.

Matrix exponentials live where they are evaluated: the SU(2) closed forms
of the propagators and the integrator's steps in propagation.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
_PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def check_finite(value: float, name: str) -> None:
    """Refuse one number that is NaN or infinite, naming it; Python's math,
    as a numpy call on one float costs several times more."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


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
    """Bloch coordinates (x, y, z) of normalized two-level states: a
    (..., 2) stack gives (..., 3), one state (3,).

    Tolerates the norm drift long exact-exponential products accumulate
    from rounding (each result is renormalized), but rejects any state that
    is not close to normalized. Every <psi|sigma|psi> and the norm are
    stacked matmuls, whose loop hands each state to the same BLAS calls as
    a single state's `@`, so a stack gives each state's own bytes.
    """
    psi = require_finite(psi, "state")
    if psi.ndim < 1 or psi.shape[-1] != 2:
        raise ValueError("bloch_vector is defined for dimension 2 only")
    ket = psi[..., None, :, None]
    bra = psi.conj()[..., None, None, :]
    norm_sq = (bra @ ket).real[..., 0, 0]
    if np.any(np.abs(norm_sq - 1.0) > 1e-6):
        raise ValueError("state is not normalized")
    return (bra @ (_PAULI @ ket)).real[..., 0, 0] / norm_sq
