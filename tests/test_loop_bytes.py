"""Byte identity of the loop run, the schedule writer and the compensated
Hamiltonian against frozen reference copies.

The references below are `integrate_loop`, `_step_to_dict` with `to_json`,
and `h_compensated` as they were written before the field-loop rules got
one owner each, copied here so that any rewrite must reproduce their
bytes: trajectories and Hamiltonian stacks compared by `tobytes()`,
documents as text.
"""

import json

import numpy as np
import pytest

from conegate import integrate_loop
from conegate.hamiltonians import FieldParams, FieldSchedule, h_compensated
from conegate.propagation import integrate
from conegate.sequences import (
    SINGLE_QUBIT,
    TWO_QUBIT,
    ConditionalLoop,
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    RotY,
    RotZ,
    to_json,
)


# ---------------------------------------------------------------------------
# references


def ref_integrate_loop(p, compensated, steps_per_loop=10_000, revolutions=1.0, *,
                       psi0=None, samples=257):
    t_end = revolutions * (2 * np.pi / abs(p.gamma))
    vertical = p.omega0 + p.gamma if compensated else p.omega0
    return integrate(FieldSchedule(vertical, p.omega1, p.gamma, p.phase0), t_end,
                     total_steps=max(1, int(round(steps_per_loop * revolutions))),
                     psi0=psi0, samples=samples)


def ref_step_to_dict(step):
    if isinstance(step, RotX):
        return {"op": "rot_x", "angle": step.angle}
    if isinstance(step, RotY):
        return {"op": "rot_y", "angle": step.angle}
    if isinstance(step, RotZ):
        return {"op": "rot_z", "angle": step.angle}
    if isinstance(step, FreeEvolve):
        return {"op": "free", "duration": step.sign * step.duration, "delta": step.delta,
                "j": step.j}
    if isinstance(step.params, FieldParams):
        p = step.params
        loop = {"omega0": p.omega0, "omega1": p.omega1, "gamma": p.gamma,
                "omega_z": p.omega_z, "phase0": p.phase0}
    else:
        loop = {"delta": step.params.delta, "j": step.params.j, "phase0": step.params.phase0}
    return {"op": "loop", "revolutions": step.sign * step.revolutions,
            "compensated": step.compensated, "loop": loop}


def ref_to_json(seq, indent=None):
    doc = {"frame": seq.frame, "steps": [ref_step_to_dict(s) for s in seq.steps]}
    return json.dumps(doc, indent=indent)


def ref_h_compensated(p, t):
    phase = np.asarray(p.gamma * np.asarray(t) + p.phase0, dtype=float)
    omega_vert = np.broadcast_to(np.asarray(p.omega0 + p.gamma, dtype=float), phase.shape)
    h = np.zeros(phase.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = 0.5 * omega_vert
    h[..., 1, 1] = -0.5 * omega_vert
    h[..., 0, 1] = 0.5 * p.omega1 * np.exp(-1j * phase)
    h[..., 1, 0] = np.conj(h[..., 0, 1])
    return h


# ---------------------------------------------------------------------------
# draws


def signed_zero(rng):
    return -0.0 if rng.random() < 0.5 else 0.0


def pick(rng, options):
    return options[rng.integers(len(options))]


def field_params(rng, compensated):
    gamma = pick(rng, (-1.0, 1.0)) * 10.0 ** rng.uniform(-1, 1)
    omega0 = signed_zero(rng) if rng.random() < 0.1 else rng.uniform(-2, 2)
    omega1 = signed_zero(rng) if rng.random() < 0.1 else rng.uniform(0, 2)
    phase0 = signed_zero(rng) if rng.random() < 0.3 else rng.uniform(-4, 4)
    omega_z = gamma if compensated else signed_zero(rng)
    return FieldParams(omega0, omega1, gamma, omega_z=omega_z, phase0=phase0)


def random_step(rng, frame):
    kind = rng.integers(5)
    value = signed_zero(rng) if rng.random() < 0.15 else rng.uniform(-7, 7)
    sign = pick(rng, (-1, 1))
    if kind < 3:
        return (RotX, RotY, RotZ)[kind](value)
    if kind == 3:
        j = 0.0 if frame == SINGLE_QUBIT else pick(rng, (signed_zero(rng), rng.uniform(-2, 2)))
        return FreeEvolve(abs(value), rng.uniform(-3, 3), j, sign)
    revolutions = pick(rng, (1.0, 2, 0.5, rng.uniform(0.1, 3)))
    if frame == TWO_QUBIT and rng.random() < 0.5:
        j = rng.uniform(0.1, 2)
        params = ConditionalLoop(j * rng.uniform(1.01, 4), j, signed_zero(rng)
                                 if rng.random() < 0.5 else rng.uniform(-3, 3))
        return FieldLoop(params, revolutions, True, sign)
    compensated = bool(rng.random() < 0.5)
    return FieldLoop(field_params(rng, compensated), revolutions, compensated, sign)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("chunk", range(4))
def test_integrate_loop_is_the_reference(chunk):
    rng = np.random.default_rng(1500 + chunk)
    for k in range(250):
        compensated = bool(k % 2)
        p = field_params(rng, compensated)
        revolutions = pick(rng, (1.0, 2, rng.uniform(0.05, 3.0)))
        if k % 25 == 0:  # enough steps to record every sample asked for
            steps, samples = int(rng.integers(4096, 4400)), int(rng.integers(4000, 4098))
        else:
            steps, samples = int(rng.integers(1, 400)), int(rng.integers(2, 300))
        kwargs = {"samples": samples}
        if k % 3 == 0:
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            kwargs["psi0"] = psi / np.linalg.norm(psi)
        got = integrate_loop(p, compensated, steps, revolutions, **kwargs)
        want = ref_integrate_loop(p, compensated, steps, revolutions, **kwargs)
        for name in ("times", "states", "propagators"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)


def test_integrate_loop_records_up_to_4097_samples():
    p = FieldParams(0.7, 1.1, -1.3, omega_z=-1.3)
    got = integrate_loop(p, True, 4096, samples=4097)
    want = ref_integrate_loop(p, True, 4096, samples=4097)
    assert got.times.size == 4097
    assert got.propagators.tobytes() == want.propagators.tobytes()


@pytest.mark.parametrize("chunk", range(4))
def test_to_json_is_the_reference(chunk):
    rng = np.random.default_rng(1600 + chunk)
    for k in range(2500):
        frame = TWO_QUBIT if k % 2 else SINGLE_QUBIT
        seq = PulseSequence([random_step(rng, frame) for _ in range(rng.integers(0, 7))],
                            frame=frame)
        for indent in (None, 2):
            assert to_json(seq, indent) == ref_to_json(seq, indent), (k, indent)


def test_to_json_draws_cover_every_primitive():
    rng = np.random.default_rng(1600)
    seen = set()
    for k in range(400):
        step = random_step(rng, TWO_QUBIT if k % 2 else SINGLE_QUBIT)
        params = getattr(step, "params", None)
        seen.add((type(step).__name__, type(params).__name__,
                  getattr(step, "compensated", None), getattr(step, "sign", None)))
    kinds = {entry[0] for entry in seen}
    assert kinds == {"RotX", "RotY", "RotZ", "FreeEvolve", "FieldLoop"}
    loops = {entry[1:] for entry in seen if entry[0] == "FieldLoop"}
    assert {("ConditionalLoop", True, 1), ("ConditionalLoop", True, -1),
            ("FieldParams", True, 1), ("FieldParams", False, -1)} <= loops


def test_signed_zeros_reach_the_document():
    seq = PulseSequence((RotX(-0.0), FreeEvolve(0.0, -0.0, 0.0, -1),
                         FieldLoop(FieldParams(-0.0, 0.0, -1.0, omega_z=-0.0), 1.0, False)))
    text = to_json(seq)
    assert text == ref_to_json(seq)
    assert '"angle": -0.0' in text and '"duration": -0.0' in text


@pytest.mark.parametrize("shape", [(), (1,), (37,), (5, 8)])
def test_h_compensated_is_the_reference(shape):
    rng = np.random.default_rng(1700 + len(shape))
    for _ in range(50):
        p = field_params(rng, True)
        t = rng.uniform(-20, 20, size=shape)
        if not shape:
            t = float(t)
        assert h_compensated(p, t).tobytes() == ref_h_compensated(p, t).tobytes()
