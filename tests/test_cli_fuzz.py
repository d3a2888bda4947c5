"""Generated command lines, --config objects and schedule documents, run
in-process through cli.main: every run exits 0, 2 or 3, prints nothing to
stdout when it exits 2, and lets no exception escape.

Half the examples are evolve runs whose every field is well-formed, at
values from the ordinary to the degenerate ones the other strategies hold
(revolution counts and durations that round to zero, speeds up to 1e308),
and which hold a loop: the other half rarely reach the integrator, since a
schedule there needs every field of every step to be good.

Work stays small so the whole test takes a few seconds: at most 2,000
integrator steps per loop (or the default), a few revolutions per loop and
at most 1,000 points per sweep. Larger values appear only where they are
refused before any work is done.
"""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from conegate.cli import main  # noqa: E402

# values that a field of the wrong type or range may hold
ODD = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 1e308, -1e308,
                       0, -0.0, True, False, None, "abc", "", "1.5", [], [1.0], {}])


def mostly(good, odd=ODD):
    """good, or one time in eight odd: most runs then get deep enough to
    integrate and print."""
    return st.integers(0, 7).flatmap(lambda k: odd if k == 0 else good)


# durations and revolution counts that are zero, subnormal or round to
# zero once scaled by a loop's time, and loop speeds up to the float range
TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300])
FAST = st.one_of(st.floats(1e10, 1e308), st.floats(-1e308, -1e10))


def numbers(lo, hi, *extra):
    return mostly(st.one_of(st.floats(lo, hi, allow_nan=False), st.integers(int(lo), int(hi)),
                            *extra))


def counts(hi):
    return mostly(st.integers(1, hi), st.one_of(
        st.sampled_from([0, -3, 10**8, 10**12, 10**400, 2.0, 1.5]), ODD))


@st.composite
def ranges(draw, lo=-3.0):
    """start:stop:step text of at most 1,000 points from lo on, or a
    malformed one."""
    start = draw(st.floats(lo, 3, allow_nan=False))
    points = draw(st.integers(1, 1000))
    step = draw(st.floats(1e-3, 1.0))
    good = f"{start!r}:{start + step * (points - 1)!r}:{step!r}"
    return draw(mostly(st.just(good), st.one_of(st.sampled_from(
        ["1:2", "a:b:c", "nan:1:0.1", "0:inf:1", "2:1:0.5", "1:2:0", "1:2:-1", "0:1:1e-12",
         "1e308:1e308:1e300", ""]), ODD)))


@st.composite
def loop_docs(draw, compensated):
    if draw(st.booleans()):  # a conditional loop
        loop = {"delta": draw(numbers(-2, 4)), "j": draw(numbers(-1, 2)),
                "phase0": draw(numbers(-7, 7))}
    else:
        gamma = draw(numbers(-4, 4, FAST))
        loop = {"omega0": draw(numbers(-3, 3)), "omega1": draw(numbers(-1, 3)),
                "gamma": gamma, "phase0": draw(numbers(-7, 7))}
        loop["omega_z"] = draw(mostly(st.just(gamma if compensated else 0.0), numbers(-4, 4)))
    if draw(st.integers(0, 9)) == 0:
        del loop[draw(st.sampled_from(sorted(loop)))]
    return loop


@st.composite
def step_docs(draw):
    op = draw(mostly(st.sampled_from(["rot_x", "rot_y", "rot_z", "free", "loop"]),
                     st.sampled_from(["bogus", 3])))
    if op == "free":
        doc = {"op": op, "duration": draw(numbers(-3, 3, TINY)), "delta": draw(numbers(-3, 3)),
               "j": draw(numbers(-2, 2))}
    elif op == "loop":
        compensated = draw(st.booleans())
        doc = {"op": op, "revolutions": draw(mostly(st.one_of(st.floats(-3, 3), TINY))),
               "compensated": draw(mostly(st.just(compensated))),
               "loop": draw(mostly(loop_docs(compensated)))}
    else:
        doc = {"op": op, "angle": draw(numbers(-10, 10))}
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(mostly(st.just(doc)))


@st.composite
def schedules(draw):
    doc = {"frame": draw(mostly(st.sampled_from(["single-qubit", "two-qubit-rotating"]))),
           "steps": draw(mostly(st.lists(step_docs(), max_size=4)))}
    if draw(st.integers(0, 4)) == 0:
        doc["initial_state"] = draw(mostly(
            st.lists(st.lists(numbers(-1, 1), min_size=2, max_size=2), min_size=2, max_size=4)))
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


# the same fields, each well-formed; a conditional loop only in the two-qubit
# frame, a coupling j only there, and at least one loop in every schedule
TINY_NONZERO = st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300])
SPEEDS = st.one_of(st.floats(0.1, 4), st.floats(-4, -0.1), FAST)


@st.composite
def good_loop_docs(draw, two_qubit):
    compensated = draw(st.booleans())
    if two_qubit and draw(st.booleans()):
        j = draw(st.floats(0.1, 2))
        loop = {"delta": j + draw(st.floats(0.05, 3)), "j": j, "phase0": draw(st.floats(-7, 7))}
    else:
        gamma = draw(SPEEDS)
        loop = {"omega0": draw(st.floats(-3, 3)), "omega1": draw(st.floats(0, 3)),
                "gamma": gamma, "omega_z": gamma if compensated else 0.0,
                "phase0": draw(st.floats(-7, 7))}
    return {"op": "loop", "compensated": compensated, "loop": loop,
            "revolutions": draw(st.one_of(st.floats(0.1, 3), st.floats(-3, -0.1), TINY_NONZERO))}


@st.composite
def good_step_docs(draw, two_qubit):
    op = draw(st.sampled_from(["rot_x", "rot_y", "rot_z", "free", "loop"]))
    if op == "loop":
        return draw(good_loop_docs(two_qubit))
    if op == "free":
        return {"op": op, "duration": draw(st.one_of(st.floats(-3, 3), TINY)),
                "delta": draw(st.floats(-3, 3)), "j": draw(st.floats(-2, 2)) if two_qubit else 0.0}
    return {"op": op, "angle": draw(st.floats(-10, 10))}


@st.composite
def good_schedules(draw):
    two_qubit = draw(st.booleans())
    steps = draw(st.lists(good_step_docs(two_qubit), max_size=3))
    steps.insert(draw(st.integers(0, len(steps))), draw(good_loop_docs(two_qubit)))
    doc = {"frame": ("single-qubit", "two-qubit-rotating")[two_qubit], "steps": steps}
    if draw(st.booleans()):
        state = draw(st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                              min_size=4 if two_qubit else 2, max_size=4 if two_qubit else 2))
        if any(map(any, state)):
            doc["initial_state"] = state
    return doc


@st.composite
def good_evolve_invocations(draw):
    """(argv, config object or None, schedule document) of an evolve run
    whose every field is well-formed and whose schedule holds a loop."""
    argv, config = ["evolve"], {}
    for key, value in (("steps", st.integers(1, 500)),
                       ("format", st.sampled_from(["csv", "json"])),
                       ("t_end", st.floats(0, 8)), ("out", st.just("out.txt"))):
        where = draw(st.sampled_from(["argv", "config", "neither"]))
        if where == "config":
            config[key] = draw(value)
        elif where == "argv":
            argv.append(f"{FLAGS.get(key, '--' + key)}={as_text(draw(value))}")
    return argv, config or None, draw(good_schedules())


# every option a command reads, with the values it may be given
OPTIONS = {
    "steps": counts(2000),
    "format": mostly(st.sampled_from(["csv", "json"]), st.sampled_from(["xml", 5])),
    "theta": st.one_of(numbers(0.05, 1.5), numbers(-1, 4)),
    "loops": counts(4),
    "delta_over_j": st.one_of(numbers(-1, 4), ranges()),
    "omega1_range": ranges(lo=1e-3),
    "gamma_range": ranges(),
    "t_end": numbers(-1, 8),
    "out": st.sampled_from(["out.txt", "", 5, ["x"]]),
}
FLAGS = {"delta_over_j": "--delta-over-j", "omega1_range": "--omega1-range",
         "gamma_range": "--gamma-range", "t_end": "--t-end"}
COMMANDS = {
    "scurve": ["delta_over_j", "omega1_range"],
    "evolve": ["t_end"],
    "gate": ["theta", "loops", "delta_over_j"],
    "compare-adiabatic": ["theta", "gamma_range"],
}
COMMON = ["steps", "format", "out"]


def as_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


@st.composite
def invocations(draw):
    """(argv, config object or None, schedule document or None)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "gate":
        argv.append(draw(st.sampled_from(["phase", "hadamard", "not", "cphase", "cnot"])))
    config = {}
    for key in COMMANDS[command] + COMMON:
        # an optional flag is mostly left out; a required one mostly given
        where = draw(st.sampled_from(["argv"] * 3 + ["config"] * 2 + ["neither"] * (
            5 if key in ("out", "format") else 1)))
        if where == "neither":
            continue
        value = draw(OPTIONS[key])
        if where == "config":
            config[key] = value
        else:
            argv.append(f"{FLAGS.get(key, '--' + key)}={as_text(value)}")
    if draw(st.integers(0, 19)) == 0:
        config = draw(ODD)
    schedule = draw(schedules()) if command == "evolve" else None
    return argv, config, schedule


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(invocations(), good_evolve_invocations()))
def test_generated_invocations_exit_cleanly(tmp_path, monkeypatch, invocation):
    argv, config, schedule = invocation
    monkeypatch.delenv("CONEGATE_STEPS", raising=False)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    if schedule is not None:
        (tmp_path / "schedule.json").write_text(json.dumps(schedule))
        argv = argv + ["--schedule", "schedule.json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, config, schedule, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, config, schedule)
