"""Generated schedules checked against three oracles.

Each schedule document is drawn from a fixed seed and run through
`cli.main(["evolve", ...])`, which must exit 0 or 2 and let no exception
escape. Where the document builds and runs, its `sequence_trajectory` must
record the rows `trajectory_rows` counts, with times that do not decrease
and a segment table that tiles the timed rows. Its last propagator must
meet `apply_sequence` (the closed forms) within the midpoint rule's
truncation plus rounding, c R / n^2 + c' n eps, and `simulate_sequence`
(the same integrator, composed per spin-b sector) within rounding,
c' n eps. R is the schedule's revolutions and n the steps per loop; c and
c' sit above the largest values measured on these draws.

The draws hold every step kind in both frames: the three hard pulses,
instant and timed free evolutions of both signs (with a coupling j in the
two-qubit frame), and single and conditional loops of both compensations
and signs. Durations and revolution counts are 0, +-0.0, 5e-324, 1e-310,
1e-300 or ordinary values, and single loops turn at speeds up to 1e308.
Half the schedules also hold a loop whose duration rounds to 0, followed
by a step of each kind in turn.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from conegate import cli
from conegate.phases import compensation_gamma
from conegate.propagation import _revolution_time
from conegate.sequences import (
    FieldLoop,
    FreeEvolve,
    _loop_fields,
    apply_sequence,
    schedule_from_dict,
    sequence_trajectory,
    simulate_sequence,
    trajectory_rows,
)

SCHEDULES = 320
STEPS = (1, 7, 64, 500, 2000)
TINY = (0.0, 5e-324, 1e-310, 1e-300)  # each drawn with either sign
TRUNCATION = 20.0  # c of c R / n^2; the draws reach 8.4
ROUNDING = 4.0  # c' of c' n eps; the draws reach 1.03
EPS = np.finfo(float).eps
FRAMES = ("single-qubit", "two-qubit-rotating")
KINDS = ("pulse", "instant", "free", "loop")


# ---------------------------------------------------------------------------
# documents


def signed(rng, magnitude):
    return magnitude * (1.0, -1.0)[int(rng.integers(2))]


def span(rng, lo, hi):
    """A signed duration or revolution count: tiny (zero, subnormal or
    rounding to zero once scaled) two times in five, else from [lo, hi]."""
    if rng.random() < 0.4:
        return signed(rng, TINY[int(rng.integers(len(TINY)))])
    return signed(rng, float(rng.uniform(lo, hi)))


def speed(rng):
    """A loop speed: ordinary three times in five, else up to 1e308 (1e308
    itself one time in ten)."""
    r = rng.random()
    if r < 0.6:
        return signed(rng, float(rng.uniform(0.5, 3.0)))
    return signed(rng, 1e308 if r < 0.7 else float(10.0 ** rng.uniform(1.0, 308.0)))


def loop_doc(rng, two_qubit, revolutions, gamma=None):
    """A loop at speed gamma; when None, one drawn by speed(), or for a
    single loop one time in five the speed that nulls its dynamical phase."""
    drawn, gamma = gamma is None, speed(rng) if gamma is None else gamma
    compensated = bool(rng.integers(2))
    phase0 = float(rng.uniform(-math.pi, math.pi))
    if two_qubit and rng.random() < 0.5:
        j = float(rng.uniform(0.3, 2.0))
        # the loop turns at -2 delta; delta^2 leaves the float range past 1.34e154
        delta = j + 0.5 * abs(gamma)
        loop = {"delta": delta, "j": j, "phase0": phase0}
    else:
        omega0, omega1 = signed(rng, float(rng.uniform(0.2, 2.0))), float(rng.uniform(0.0, 2.0))
        if drawn and rng.random() < 0.2:
            gamma = compensation_gamma(omega0, omega1)
        loop = {"omega0": omega0, "omega1": omega1, "gamma": gamma,
                "omega_z": gamma if compensated else 0.0, "phase0": phase0}
    return {"op": "loop", "revolutions": revolutions, "compensated": compensated, "loop": loop}


def zero_time_loop_doc(rng, two_qubit):
    """A loop of 5e-324 or 1e-300 revolutions at a speed from 1e25 to
    1e150, whose duration rounds to 0."""
    revolutions = signed(rng, (5e-324, 1e-300)[int(rng.integers(2))])
    return loop_doc(rng, two_qubit, revolutions, signed(rng, 10.0 ** rng.uniform(25.0, 150.0)))


def step_doc(rng, two_qubit, op=None):
    op = op or ("rot_x", "rot_y", "rot_z", "free", "loop", "loop")[int(rng.integers(6))]
    if op == "free":
        j = float(rng.uniform(-1.0, 1.0)) if two_qubit and rng.random() < 0.7 else 0.0
        return {"op": op, "duration": span(rng, 0.05, 3.0),
                "delta": float(rng.uniform(-2.0, 2.0)), "j": j}
    if op == "loop":
        return loop_doc(rng, two_qubit, span(rng, 0.25, 2.0))
    return {"op": op, "angle": float(rng.uniform(-7, 7))}


def follower(rng, two_qubit, name):
    """A step of the kind name (see kind()) with an ordinary duration or
    revolution count, or a free evolution of +-0.0 for an instant."""
    doc = step_doc(rng, two_qubit, {"pulse": "rot_y", "instant": "free"}.get(name, name))
    if name == "instant":
        doc["duration"] = signed(rng, 0.0)
    elif name == "free":
        doc["duration"] = signed(rng, float(rng.uniform(0.05, 3.0)))
    elif name == "loop":
        doc["revolutions"] = signed(rng, float(rng.uniform(0.25, 2.0)))
    return doc


def documents():
    """(document, steps per loop) of each drawn schedule: 1 to 4 drawn
    steps, at most two of them loops, the frames alternating. Every other
    pair of schedules also holds a loop that takes no time, followed by a
    step of each of KINDS in turn, somewhere among the drawn steps."""
    rng = np.random.default_rng(3110)
    out = []
    for k in range(SCHEDULES):
        two_qubit = k % 2 == 1
        steps = []
        for _ in range(rng.integers(1, 5)):
            step = step_doc(rng, two_qubit)
            if step["op"] != "loop" or sum(s["op"] == "loop" for s in steps) < 2:
                steps.append(step)
        if k % 4 < 2:
            at = int(rng.integers(len(steps) + 1))
            steps[at:at] = [zero_time_loop_doc(rng, two_qubit),
                            follower(rng, two_qubit, KINDS[k // 4 % len(KINDS)])]
        out.append(({"frame": FRAMES[two_qubit], "steps": steps}, STEPS[k % len(STEPS)]))
    return out


DOCUMENTS = documents()


# ---------------------------------------------------------------------------
# checks


def evolve(doc, steps, tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["evolve", "--schedule", str(path), "--steps", str(steps)])
    return code, out.getvalue(), err.getvalue()


def built(doc):
    """(sequence, start state) of a document, or None when it is refused."""
    try:
        return schedule_from_dict(doc)
    except ValueError:
        return None


def kind(step):
    if isinstance(step, FieldLoop):
        return "loop"
    if isinstance(step, FreeEvolve):
        return "free" if step.duration > 0 else "instant"
    return "pulse"


def takes_no_time(step):
    return (isinstance(step, FieldLoop)
            and step.revolutions * _revolution_time(_loop_fields(step)[1]) == 0.0)


def check_rows(seq, traj, steps):
    """The rows trajectory_rows counts, times that do not decrease, and one
    segment per timed step, in order, that starts and ends on its rows at
    its own times; every row that no segment holds past its start is a
    pulse's or an instant's, at the time of the row before it."""
    times = traj.times
    assert times.size == trajectory_rows(seq, steps)
    assert np.all(np.diff(times) >= 0)
    assert len(traj._segments) == sum(kind(s) in ("loop", "free") for s in seq.steps)
    held = np.zeros(times.size, dtype=bool)
    end = 0
    for t0, t1, _, first, count in traj._segments:
        assert first >= end and count >= 1 and first + count <= times.size
        assert times[first] == t0 and times[first + count - 1] == t1
        held[first + 1 : first + count] = True
        end = first + count - 1
    instants = np.flatnonzero(~held[1:]) + 1
    assert instants.size == sum(kind(s) in ("pulse", "instant") for s in seq.steps)
    assert np.array_equal(times[instants], times[instants - 1])


class TestGeneratedSchedules:
    def test_the_draws_cover_every_kind(self):
        kinds = set()
        for doc, _ in DOCUMENTS:
            for s in doc["steps"]:
                if s["op"] == "loop":
                    kinds.add((doc["frame"], "delta" in s["loop"], s["compensated"],
                               math.copysign(1, s["revolutions"]), abs(s["revolutions"]) in TINY))
                elif s["op"] == "free":
                    kinds.add((doc["frame"], "free", math.copysign(1, s["duration"]),
                               abs(s["duration"]) in TINY, s["j"] != 0))
                else:
                    kinds.add((doc["frame"], s["op"]))
        for frame in FRAMES:
            two_qubit = frame == FRAMES[1]
            assert {(frame, op) for op in ("rot_x", "rot_y", "rot_z")} <= kinds
            assert {(frame, conditional, c, sign, tiny) for conditional in {False, two_qubit}
                    for c in (False, True) for sign in (-1, 1) for tiny in (False, True)} <= kinds
            assert {(frame, "free", sign, tiny, j) for sign in (-1, 1) for tiny in (False, True)
                    for j in {False, two_qubit}} <= kinds
        gammas = [abs(s["loop"].get("gamma", 0.0)) for doc, _ in DOCUMENTS for s in doc["steps"]
                  if s["op"] == "loop"]
        assert max(gammas) == 1e308
        assert sum(len(doc["steps"]) for doc, _ in DOCUMENTS) >= 3 * SCHEDULES // 2

    def test_loops_that_take_no_time_run_before_every_kind(self):
        followed = set()
        for doc, steps in DOCUMENTS:
            made = built(doc)
            pairs = made and [(a, b) for a, b in zip(made[0].steps, made[0].steps[1:])
                              if takes_no_time(a)]
            if not pairs:
                continue
            seq, psi0 = made
            try:
                sequence_trajectory(seq, psi0.size, psi0, steps)
            except ValueError:
                continue
            followed |= {(seq.frame, kind(b)) for _, b in pairs}
        assert followed == {(frame, k) for frame in FRAMES for k in KINDS}

    @pytest.mark.parametrize("part", range(4))
    def test_evolve_and_the_oracles(self, part, tmp_path):
        for doc, steps in DOCUMENTS[part::4]:
            code, out, err = evolve(doc, steps, tmp_path)
            assert code in (0, 2), (doc, steps, err)
            made = built(doc)
            if made is None:
                assert code == 2 and out == "", (doc, err)
                continue
            seq, psi0 = made
            try:
                traj = sequence_trajectory(seq, psi0.size, psi0, steps)
            except ValueError as exc:
                assert code == 2 and str(exc) in err, (doc, steps, err)
                continue
            assert code == 0, (doc, steps, err)
            check_rows(seq, traj, steps)
            u = traj.propagators[-1]
            rounding = ROUNDING * steps * EPS
            gap = np.max(np.abs(u - simulate_sequence(seq, psi0.size, steps)))
            assert gap <= rounding, (doc, steps, gap)
            revolutions = sum(s.revolutions for s in seq.steps if isinstance(s, FieldLoop))
            gap = np.max(np.abs(u - apply_sequence(seq, psi0.size)))
            assert gap <= TRUNCATION * revolutions / steps**2 + rounding, (doc, steps, gap)
