"""Geometric gate constructors: diagonal phase gates from tilted-axis
loops, the Hadamard and NOT built on them, the conditional phase gate, and
the controlled-NOT composition.

Every recipe is frozen data: a target and the pulse program that realizes
it, whose loops can be re-simulated with the stepped integrator;
verify_gate returns the fidelity of that simulation against the target.
Diagonal phase convention: one simulated compensated loop advances the
relative diagonal phase by -2 pi cos(theta0) per revolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import FieldParams
from .linalg import fidelity
from .phases import compensation_gamma, geometric_phase_cone
from .sequences import (
    SINGLE_QUBIT,
    STEPS_PER_LOOP,
    TWO_QUBIT,
    FieldLoop,
    PulseSequence,
    RotY,
    RotZ,
    apply_sequence,
    build_conditional_loop,
    simulate_sequence,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
NOT_TARGET = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class GateRecipe:
    """A target unitary together with the pulse program that realizes it.

    verify_gate returns the program's simulated fidelity (global-phase-
    invariant, against target); the gate command fails a recipe whose
    fidelity is below 1 - 1e-5 (cli.GATE_FIDELITY_GATE).
    """

    target: np.ndarray
    sequence: PulseSequence
    parameters: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.target.shape[0]


def _bisect(f, lo: float, hi: float) -> float:
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f_lo * f(hi) > 0:
        raise ValueError("root is not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or hi - lo < 1e-14:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def phase_gate(theta0: float, loops: int = 1) -> np.ndarray:
    """Diagonal phase gate diag(e^{-i n pi cos theta0}, e^{+i n pi cos theta0})
    with n = loops, up to global phase.

    theta0 is the tilt of the loop axis away from the qubit axis; the
    degenerate tilts 0 and pi are rejected.
    """
    if not 0.0 < theta0 < np.pi:
        raise ValueError("theta0 must lie strictly inside (0, pi)")
    if loops < 1 or int(loops) != loops:
        raise ValueError("loops must be a positive integer")
    x = loops * np.pi * np.cos(theta0)
    return np.diag([np.exp(-1j * x), np.exp(1j * x)]).astype(complex)


def _tilted_loop(theta: float, revolutions: float = 1.0) -> FieldLoop:
    """One compensated revolution about z with the field tilted by theta."""
    gamma = compensation_gamma(np.cos(theta), np.sin(theta))
    p = FieldParams(float(np.cos(theta)), float(np.sin(theta)), gamma, omega_z=gamma)
    return FieldLoop(p, revolutions=revolutions, compensated=True)


def _phase_loop_tilt(theta0: float) -> float:
    """Tilt angle whose compensated loop realizes the phase gate at theta0.

    For theta0 < pi/2 the loop axis is tilted by theta0 itself (traversal
    sense negative, per-branch phase -pi(1 + cos theta0), gate equal to the
    target up to the sign (-1)^loops). For theta0 > pi/2 the compensation
    flips the traversal sense, so the direct tilt realizes the wrong sign
    of the relative phase; the tilt arccos(-1 - cos theta0) produces the
    target phase exactly.
    """
    c = np.cos(theta0)
    if c > 0:
        return theta0
    return float(np.arccos(-1.0 - c))


def phase_gate_recipe(theta0: float, loops: int = 1) -> GateRecipe:
    """Pulse program for the phase gate: conjugate a tilted compensated
    loop into the qubit frame with a y-rotation pair."""
    target = phase_gate(theta0, loops)
    tilt = _phase_loop_tilt(theta0)
    seq = PulseSequence(
        (RotY(tilt), _tilted_loop(tilt, revolutions=float(loops)), RotY(-tilt)),
        frame=SINGLE_QUBIT,
    )
    return GateRecipe(
        target=target,
        sequence=seq,
        parameters={"theta0": float(theta0), "loops": int(loops), "tilt": float(tilt)},
    )


def _conjugated_loop_gate(theta0: float, gamma_phase: float) -> np.ndarray:
    """Gate of one loop whose eigenbasis is tilted by theta0 about y:
    R_y(theta0) diag(e^{i G}, e^{-i G}) R_y(-theta0), evaluated exactly."""
    cg, sg = np.cos(gamma_phase), np.sin(gamma_phase)
    ct, st = np.cos(theta0), np.sin(theta0)
    return np.array(
        [
            [cg + 1j * sg * ct, 1j * sg * st],
            [1j * sg * st, cg - 1j * sg * ct],
        ],
        dtype=complex,
    )


@functools.cache
def _hadamard_root() -> float:
    """Tilt theta0 in (0, pi/2) with |sin(pi cos theta0) sin theta0| = sqrt2/2,
    taken on the decreasing branch past the maximum; it has no inputs, so it
    is solved once per process."""

    def f(theta):
        return np.sin(np.pi * np.cos(theta)) * np.sin(theta)

    grid = np.linspace(1e-6, np.pi / 2 - 1e-9, 20001)
    peak = grid[int(np.argmax(f(grid)))]
    assert f(peak) > np.sqrt(2) / 2  # the equation always has a root here
    return _bisect(lambda th: f(th) - np.sqrt(2) / 2, peak, np.pi / 2 - 1e-9)


def hadamard_recipe() -> GateRecipe:
    """Hadamard from one tilted compensated loop sandwiched between two
    diagonal phase corrections, not yet verified.

    Bisects for the tilt that equalizes the composite's entry moduli at
    1/sqrt2, then solves the sandwich phases entrywise against the target.
    """
    theta0 = _hadamard_root()
    gamma_phase = geometric_phase_cone(theta0)
    w = _conjugated_loop_gate(theta0, gamma_phase)
    # diag(e^{i a}, 1) @ w @ diag(e^{i b}, 1) = e^{i chi} H, solved entrywise;
    # consistency of the remaining entry is certified by the fidelity gate.
    chi = float(np.angle(-np.sqrt(2) * w[1, 1]))
    alpha = chi - float(np.angle(np.sqrt(2) * w[0, 1]))
    beta = chi - float(np.angle(np.sqrt(2) * w[1, 0]))
    seq = PulseSequence(
        (RotZ(-beta), _tilted_loop(theta0), RotZ(-alpha)),
        frame=SINGLE_QUBIT,
    )
    return GateRecipe(
        target=HADAMARD.copy(),
        sequence=seq,
        parameters={
            "theta0": float(theta0),
            "loop_phase": float(gamma_phase),
            "pre_phase": float(beta),
            "post_phase": float(alpha),
        },
    )


def not_recipe() -> GateRecipe:
    """NOT gate as a one-loop phase gate conjugated by two Hadamards, not
    yet verified: the tilt solves pi cos(theta0) = pi/2, so the conjugated
    gate is sigma_x up to global phase."""
    theta0 = _bisect(lambda th: np.pi * np.cos(th) - np.pi / 2, 1e-9, np.pi / 2)
    hadamard = hadamard_recipe()
    phase = phase_gate_recipe(theta0)
    seq = PulseSequence(
        hadamard.sequence.steps + phase.sequence.steps + hadamard.sequence.steps,
        frame=SINGLE_QUBIT,
    )
    return GateRecipe(
        target=NOT_TARGET.copy(),
        sequence=seq,
        parameters={
            "theta0": float(theta0),
            "loops": 1,
            "relative_winding": 1,  # the report names its convention: one winding per loop
            "hadamard_theta0": hadamard.parameters["theta0"],
        },
    )


def _sector_phase_diag(setting) -> np.ndarray:
    """Target of the conditional loop of a solved setting: diag(e^{i G+},
    e^{-i G+}, e^{i G-}, e^{-i G-}) in the |b a> basis."""
    g_plus = geometric_phase_cone(setting.theta_plus)
    g_minus = geometric_phase_cone(setting.theta_minus)
    return np.diag(
        np.exp(1j * np.array([g_plus, -g_plus, g_minus, -g_minus]))
    ).astype(complex)


def _loop_setting(seq: PulseSequence):
    """The setting solved for the conditional loop of seq, which
    build_conditional_loop made."""
    return next(step.params.setting for step in seq.steps if isinstance(step, FieldLoop))


def conditional_recipe(delta: float, j: float = 1.0) -> GateRecipe:
    """Recipe for the bare conditional geometric phase gate."""
    sol_seq = build_conditional_loop(delta, j)
    setting = _loop_setting(sol_seq)
    return GateRecipe(
        target=_sector_phase_diag(setting),
        sequence=sol_seq,
        parameters={
            "delta": float(delta),
            "j": float(j),
            "omega1": setting.omega1,
            "gamma": setting.gamma,
            "theta_plus": setting.theta_plus,
            "theta_minus": setting.theta_minus,
            "gamma_plus_phase": geometric_phase_cone(setting.theta_plus),
            "gamma_minus_phase": geometric_phase_cone(setting.theta_minus),
        },
    )


CNOT_DELTA_FACTOR = 4 / np.sqrt(7)  # delta/j making the sector phases differ by pi/2

CNOT_TARGET = np.array(
    [
        [0, -1j, 0, 0],
        [-1j, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def cnot_recipe() -> GateRecipe:
    """Controlled-NOT on spin a (control b up), up to the -i conditional
    phase: Hadamard on a, diagonal phase correction, the conditional loop,
    and a closing Hadamard on a.

    At delta = (4/sqrt7) j, with j = 1, the two sector phases differ by
    exactly pi/2, which the correction turns into diag(-i, i, 1, 1); the
    Hadamard sandwich converts that into the conditional bit flip.
    """
    conditional = build_conditional_loop(CNOT_DELTA_FACTOR, 1.0)
    setting = _loop_setting(conditional)
    g_minus = geometric_phase_cone(setting.theta_minus)
    hadamard = hadamard_recipe()
    correction = RotZ(2.0 * g_minus)  # = I_b (x) diag(e^{-i G-}, e^{i G-}) up to phase
    steps = (
        hadamard.sequence.steps
        + (correction,)
        + conditional.steps
        + hadamard.sequence.steps
    )
    return GateRecipe(
        target=CNOT_TARGET.copy(),
        sequence=PulseSequence(steps, frame=TWO_QUBIT),
        parameters={
            "delta_over_j": float(CNOT_DELTA_FACTOR),
            "j": 1.0,
            "omega1": setting.omega1,
            "gamma": setting.gamma,
            "gamma_minus_phase": g_minus,
            "hadamard_theta0": hadamard.parameters["theta0"],
        },
    )


def verify_gate(recipe: GateRecipe, steps_per_loop: int = STEPS_PER_LOOP) -> float:
    """Simulate the recipe's pulse program with the stepped integrator, at
    steps_per_loop steps per revolution of each loop (simulate_sequence
    refuses one that is not an integer of at least 1), and return its
    global-phase-invariant fidelity against the target."""
    simulated = simulate_sequence(recipe.sequence, recipe.dim, steps_per_loop=steps_per_loop)
    return fidelity(simulated, recipe.target)


def apply_recipe(recipe: GateRecipe) -> np.ndarray:
    """Closed-form composition of the recipe's pulse program."""
    return apply_sequence(recipe.sequence, recipe.dim)


def format_matrix(u: np.ndarray) -> str:
    """Aligned text rendering of a complex matrix, six decimals per part."""
    u = np.asarray(u, dtype=complex)
    cells = [[f"{z.real:+.6f}{z.imag:+.6f}j" for z in row] for row in u]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)
