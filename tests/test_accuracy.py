"""Correct digits of printed sweep columns against a 40-digit mpmath
reference.

The reference takes the same float inputs and the same float loop time
tau = 2 pi / |gamma| as the code under test, so it measures the rounding of
the float evaluation alone. Each column asserts a floor measured over
derandomized draws; CHANGES.md records the floors.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conegate.propagation import loop_infidelities  # noqa: E402
from conegate.sequences import s_operation_angles  # noqa: E402

mp.mp.dps = 40

# loop_infidelities, both columns, over cone angles (0.01, pi/2 - 0.01),
# phases (-pi, pi) and speeds 1e-4 <= |gamma| / omega0 <= 10. On 12,000
# seeded draws the worst absolute errors were 9.1e-16 (uncompensated) and
# 8.9e-16 (compensated); the floors leave about a factor 2:
# - uncompensated: 1 - |<psi0|U psi0>|^2 cancels, so its correct significant
#   digits are at least 14.7 + log10(value), at most 14.5: 13.7 digits at an
#   infidelity of 1e-1, 10.7 at 1e-4, 5.5 at the 6e-10 of a slow loop;
# - compensated: exactly 0 up to the rounding of gamma * tau, so the column
#   is rounding residue with no correct significant digit; its absolute
#   error stays below 2e-15.
UNCOMPENSATED_ABS_DIGITS = 14.7
UNCOMPENSATED_SIG_DIGITS = 14.5
COMPENSATED_ABS_ERROR = 2e-15


def reference_infidelities(omega0, omega1, gamma, phase0, tau):
    """(uncompensated, compensated) 1 - |<psi0| U(tau) psi0>|^2 in mpmath:
    U = exp(-i gamma tau sigma_z / 2) exp(-i H tau), H the frozen field with
    omega0 - gamma (uncompensated) or omega0 (compensated) on sigma_z / 2."""
    w0, w1, g, f, t = map(mp.mpf, (omega0, omega1, gamma, phase0, tau))
    half = mp.atan2(w1, w0) / 2
    psi = (mp.cos(half), mp.sin(half) * mp.expj(f))
    hx, hy = w1 * mp.cos(f) / 2, w1 * mp.sin(f) / 2
    out = []
    for hz in ((w0 - g) / 2, w0 / 2):
        r = mp.sqrt(hz**2 + hx**2 + hy**2)
        c, s = mp.cos(r * t), mp.sin(r * t) / r
        v0 = (c - 1j * s * hz) * psi[0] - 1j * s * (hx - 1j * hy) * psi[1]
        v1 = -1j * s * (hx + 1j * hy) * psi[0] + (c + 1j * s * hz) * psi[1]
        overlap = (mp.conj(psi[0]) * mp.expj(-g * t / 2) * v0
                   + mp.conj(psi[1]) * mp.expj(g * t / 2) * v1)
        out.append(1 - abs(overlap) ** 2)
    return out


def significant_digits(value: float, reference) -> float:
    """Correct significant digits of value, -log10 of its relative error."""
    error = abs(mp.mpf(value) - reference)
    return math.inf if error == 0 else float(-mp.log10(error / abs(reference)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(theta=st.floats(0.01, math.pi / 2 - 0.01), phase0=st.floats(-math.pi, math.pi),
       speeds=st.lists(st.tuples(st.booleans(), st.floats(-4.0, 1.0)), min_size=1, max_size=4))
def test_loop_infidelities_digits(theta, phase0, speeds):
    omega0, omega1 = math.cos(theta), math.sin(theta)
    gamma = np.array([(-1.0 if neg else 1.0) * 10.0**e * omega0 for neg, e in speeds])
    uncompensated, compensated = loop_infidelities(omega0, omega1, gamma, phase0)
    for g, un, co in zip(gamma.tolist(), uncompensated.tolist(), compensated.tolist()):
        ref_un, ref_co = reference_infidelities(omega0, omega1, g, phase0, 2 * np.pi / abs(g))
        floor = min(UNCOMPENSATED_SIG_DIGITS,
                    UNCOMPENSATED_ABS_DIGITS + float(mp.log10(ref_un)))
        assert significant_digits(un, ref_un) >= floor, (theta, phase0, g, un, ref_un)
        assert abs(mp.mpf(co) - ref_co) < COMPENSATED_ABS_ERROR, (theta, phase0, g, co, ref_co)


# scurve's columns J t_c = (a+ - a-) / 2 and phi' = (a+ + a-) / 2, with
# a+- = atan((delta +- J) / omega1) at J = 1, over |delta| / J < 10 (a fifth
# of the draws scaled down to 1e-8) and 1e-2 <= omega1 / J <= 1e2. On 80,000
# seeded draws the worst absolute errors were 2.6e-16 (J t_c) and 2.3e-16
# (phi'); the floor leaves about a factor 2. Both columns are differences
# or sums of angles near +-pi/2, so their correct significant digits are at
# least 15.3 + log10(value): J t_c falls below the 12 printed digits when
# delta / J >> omega1 / J (11.x digits at delta / J = 10, omega1 / J = 0.01),
# phi' near delta = 0 (5.4 digits at delta / J = 3e-10).
SCURVE_ABS_ERROR = 5e-16


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(deltas=st.lists(st.tuples(st.floats(-10.0, 10.0), st.booleans(), st.floats(-8.0, 0.0)),
                       min_size=1, max_size=4),
       omega1_exponents=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_scurve_columns_digits(deltas, omega1_exponents):
    delta = np.array([d * (10.0**e if small else 1.0) for d, small, e in deltas])
    omega1 = 10.0 ** np.array(omega1_exponents)
    # the grid as scurve evaluates it: delta the outer axis, omega1 the inner one
    t_c, phi_prime, _, _ = s_operation_angles(delta[:, None], 1.0, omega1)
    for i, d in enumerate(delta.tolist()):
        for k, w in enumerate(omega1.tolist()):
            a_plus = mp.atan((mp.mpf(d) + 1) / mp.mpf(w))
            a_minus = mp.atan((mp.mpf(d) - 1) / mp.mpf(w))
            for got, ref in ((t_c[i, k], (a_plus - a_minus) / 2),
                             (phi_prime[i, k], (a_plus + a_minus) / 2)):
                assert abs(mp.mpf(float(got)) - ref) < SCURVE_ABS_ERROR, (d, w, got, ref)
