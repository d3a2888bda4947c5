"""One owner per refusal, and refusals made where a value enters.

The table of refusals is derived from the source: every module of the
package is parsed, and the first argument of each `raise ValueError(...)`
is read as a message pattern, a literal or an f-string whose fields are
wildcards. No two functions may raise patterns that can render to the
same text. A field stands for a run of non-blank characters, as the names,
numbers, paths and reprs these messages format do; a field that could hold
blanks would let any two messages that begin and end with one render
alike. A message that formats the caught exception itself (`f"{path}:
{exc}"`) passes another refusal on and is not counted as one.
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import conegate
from conegate import cli, propagation, sequences
from conegate.hamiltonians import FieldParams, FieldSchedule
from conegate.phases import phase_decomposition, two_qubit_loop_params
from conegate.propagation import MAX_STEPS, Trajectory, integrate
from conegate.sequences import (
    SINGLE_QUBIT,
    ConditionalLoop,
    FieldLoop,
    FreeEvolve,
    PulseSequence,
    RotX,
    integrate_loop,
    sequence_trajectory,
    simulate_sequence,
)

PACKAGE = Path(conegate.__file__).resolve().parent
FIELD = None  # a wildcard in a message pattern


def _pattern(node: ast.expr, caught: set) -> list | None:
    """The message of node as characters and FIELDs, or None when it passes
    a caught exception on."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return list(node.value)
    if isinstance(node, ast.JoinedStr):
        out = []
        for part in node.values:
            if isinstance(part, ast.Constant):
                out += part.value
            elif isinstance(part.value, ast.Name) and part.value.id in caught:
                return None
            else:
                out.append(FIELD)
        return out
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _pattern(node.left, caught), _pattern(node.right, caught)
        return None if left is None or right is None else left + right
    return [FIELD]


def _owned_messages() -> dict:
    """{message pattern as a tuple: the functions raising it}, each function
    named module.qualname; nested functions count as their enclosing one."""
    table: dict = {}

    def visit(node, module: str, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, scope + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = ".".join((module,) + scope + (child.name,))
                caught = {h.name for h in ast.walk(child)
                          if isinstance(h, ast.ExceptHandler) and h.name}
                for r in ast.walk(child):
                    call = r.exc if isinstance(r, ast.Raise) else None
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == "ValueError" and call.args
                            and isinstance(call.args[0], (ast.Constant, ast.JoinedStr,
                                                          ast.BinOp))):
                        pattern = _pattern(call.args[0], caught)
                        if pattern is not None:
                            table.setdefault(tuple(pattern), set()).add(owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return table


def _can_meet(a, b) -> bool:
    """Whether patterns a and b can render to one text: a walk over pairs of
    positions, a FIELD matching any run of non-blank characters."""
    seen, todo = set(), [(0, 0)]
    while todo:
        i, k = state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        if i == len(a) and k == len(b):
            return True
        x = a[i] if i < len(a) else ""
        y = b[k] if k < len(b) else ""
        if x is FIELD:
            todo.append((i + 1, k))
        if y is FIELD:
            todo.append((i, k + 1))
        if x == y != "" and x is not FIELD:
            todo.append((i + 1, k + 1))
        elif x is FIELD and y and y is not FIELD and not y.isspace():
            todo.append((i, k + 1))
        elif y is FIELD and x and x is not FIELD and not x.isspace():
            todo.append((i + 1, k))
    return False


def _text(pattern) -> str:
    return "".join("{}" if c is FIELD else c for c in pattern)


def _parse(text: str) -> list:
    return [FIELD if c == "\0" else c for c in text.replace("{}", "\0")]


class TestOneOwner:
    def test_the_table_is_read_from_every_module(self):
        table = _owned_messages()
        modules = {owner.split(".")[0] for owners in table.values() for owner in owners}
        assert {"cli", "gates", "hamiltonians", "linalg", "phases", "propagation",
                "sequences"} <= modules
        assert len(table) > 60
        # a message that passes a caught exception on is no refusal of its own
        assert not any(_text(p).startswith("{}: {}") for p in table)

    @pytest.mark.parametrize("a, b, meet", [
        ("{} must be finite", "angle must be finite", True),
        ("{} must be finite", "FieldParams.{} must be finite", True),
        ("{}.{}: missing field", "{}.op: missing field", True),
        ("a{}c", "{}bc", True),
        ("{} must be finite", "delta, j and omega1 must be finite", False),
        ("unknown frame {}", "frame: unknown frame {}", False),
        ("{} must be an integer, got {}", "{} must be a finite number, got {}", False),
    ])
    def test_patterns_meet_where_a_text_renders_both(self, a, b, meet):
        assert _can_meet(_parse(a), _parse(b)) is meet
        assert _can_meet(_parse(b), _parse(a)) is meet

    def test_no_two_functions_raise_the_same_text(self):
        table = sorted(_owned_messages().items(), key=lambda item: _text(item[0]))
        clashes = []
        for k, (a, owners_a) in enumerate(table):
            if len(owners_a) > 1:
                clashes.append(f"{_text(a)!r}: {sorted(owners_a)}")
            for b, owners_b in table[k + 1:]:
                if owners_a | owners_b != owners_a and _can_meet(a, b):
                    clashes.append(f"{_text(a)!r} {sorted(owners_a)} and "
                                   f"{_text(b)!r} {sorted(owners_b)}")
        assert not clashes, "raised by more than one function:\n" + "\n".join(clashes)


def _counting_integrate(monkeypatch) -> list:
    """The integrator runs started from now on, through sequences (every
    loop) or through propagation.integrate."""
    calls, integrate_run = [], propagation._integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate_run(*args, **kwargs)

    for module in (propagation, sequences):
        monkeypatch.setattr(module, "_integrate", counting)
    return calls


class TestRefusedAtEntry:
    """A program that cannot run at its dimension is refused before any of
    its loops is integrated."""

    FIELD_LOOP = FieldLoop(FieldParams(1.0, 0.5, -1.25, omega_z=-1.25))

    @pytest.mark.parametrize("step, message", [
        (FieldLoop(ConditionalLoop(1.3, 0.4)), "^a conditional loop needs dimension 4$"),
        (FreeEvolve(1.0, 0.5, j=0.3), "^j-coupled free evolution needs the two-qubit frame$"),
    ])
    @pytest.mark.parametrize("run", [
        lambda seq: simulate_sequence(seq, 2, steps_per_loop=100),
        lambda seq: sequence_trajectory(seq, 2, np.array([1.0, 0.0]), steps_per_loop=100),
    ])
    def test_no_loop_is_integrated_first(self, step, message, run, monkeypatch):
        calls = _counting_integrate(monkeypatch)
        seq = PulseSequence((RotX(0.3), self.FIELD_LOOP, step), SINGLE_QUBIT)
        with pytest.raises(ValueError, match=message):
            run(seq)
        assert calls == []

    def test_a_program_that_fits_is_integrated(self, monkeypatch):
        calls = _counting_integrate(monkeypatch)
        seq = PulseSequence((RotX(0.3), self.FIELD_LOOP, FreeEvolve(1.0, 0.5)), SINGLE_QUBIT)
        simulate_sequence(seq, 2, steps_per_loop=100)
        assert len(calls) == 1


class TestUnderflowingConditionalLoop:
    """omega1^2 = delta^2 - j^2 below the smallest normal float leaves omega1
    few bits or none, while the cone angles stay those of a real field."""

    MESSAGE = r"^conditional loop setting underflows for delta = 1e-170, j = 5e-171$"

    def test_the_solver_refuses_it(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            two_qubit_loop_params(1e-170, 5e-171)
        with pytest.raises(ValueError, match="underflows for delta = 1.4e-154"):
            two_qubit_loop_params(1.4e-154, 1e-300)  # delta^2 itself is subnormal
        with pytest.raises(ValueError, match="underflows for delta = 1e-150"):
            two_qubit_loop_params(1e-150, 1e-150 * (1 - 1e-15))  # only delta^2 - j^2 is
        assert two_qubit_loop_params(1.6e-154, 1e-300).omega1 == 1.6e-154

    def test_the_loop_refuses_it(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            ConditionalLoop(1e-170, 5e-171)

    def test_evolve_refuses_it_naming_the_step(self, tmp_path, capsys):
        doc = {"frame": "two-qubit-rotating",
               "steps": [{"op": "loop", "loop": {"delta": 1e-170, "j": 5e-171}}]}
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["evolve", "--schedule", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: steps[0]: conditional loop setting underflows for "
                       "delta = 1e-170, j = 5e-171\n")


class TestStepBudget:
    """integrate owns the budget's text; the CLI prefixes its flag. Counts
    beyond 10**12 are shown to three significant digits."""

    def test_a_loop_of_many_revolutions(self):
        with pytest.raises(ValueError) as info:
            integrate_loop(FieldParams(1.0, 0.5, -1e10), False, revolutions=1e300)
        message = str(info.value)
        assert message == ("step budget exceeded: 1e+304 steps requested, "
                           f"at most {MAX_STEPS:,} allowed")
        assert len(message) < 120

    @pytest.mark.parametrize("steps, shown", [
        (MAX_STEPS + 1, str(MAX_STEPS + 1)),
        (10**12, str(10**12)),
        (10**12 + 1, "1e+12"),
        (123_456_789_012_345, "1.23e+14"),
        (999_600_000_000_000, "1e+15"),
        (int("9" * 400), "1e+400"),
        (int("31415" * 80), "3.14e+399"),
    ])
    def test_counts_in_full_or_to_three_digits(self, steps, shown):
        with pytest.raises(ValueError) as info:
            integrate(lambda t: np.zeros((len(t), 2, 2)), 1.0, total_steps=steps)
        assert str(info.value) == (f"step budget exceeded: {shown} steps requested, "
                                   f"at most {MAX_STEPS:,} allowed")
        if steps < 2**1023:  # where %.3g itself can take the count
            assert shown == (str(steps) if steps <= 10**12 else f"{steps:.3g}")

    def test_the_cli_prefixes_its_flag(self, capsys):
        assert cli.main(["gate", "not", "--steps", "1" + "0" * 400]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --steps: step budget exceeded: 1e+400 steps requested, "
                       f"at most {MAX_STEPS:,} allowed\n")
        assert len(err) < 120


class TestStepCount:
    """integrate takes an integer step count and refuses anything else with
    one message, owned by the function that counts the steps."""

    RECORD = FieldSchedule(1.0, 0.5, -1.0)

    @pytest.mark.parametrize("steps", [math.inf, math.nan, 1.5, "7", 7.0, True, None])
    def test_a_count_that_is_no_integer(self, steps):
        message = f"^total_steps must be an integer step count, got {re.escape(repr(steps))}$"
        with pytest.raises(ValueError, match=message):
            integrate(self.RECORD, 1.0, total_steps=steps)
        with pytest.raises(ValueError, match=message):
            integrate(lambda t: np.zeros((len(t), 2, 2)), 1.0, total_steps=steps)
        with pytest.raises(ValueError, match=message):
            propagation._integrate((self.RECORD, FieldSchedule(-1.0, 0.5, -1.0)), 1.0, steps,
                                   257)

    def test_the_count_has_one_owner(self):
        owners = [owners for pattern, owners in _owned_messages().items()
                  if _text(pattern).startswith("total_steps must be")]
        assert owners == [{"propagation._step_count"}] * 2

    def test_numpy_integers_count(self):
        want = integrate(self.RECORD, 1.0, total_steps=7)
        got = integrate(self.RECORD, 1.0, total_steps=np.int64(7))
        assert got.propagators.tobytes() == want.propagators.tobytes()


class TestEmptyTrajectory:
    """A trajectory without samples builds, and its phase split is refused
    by the cyclic overlap, before the dynamical phase counts its samples."""

    EMPTY = (np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2)))

    def test_it_builds_without_a_replay(self):
        traj = Trajectory(*self.EMPTY)
        assert traj.states.shape == (0, 2)
        assert traj.propagators.shape == (0, 2, 2) and traj.propagators.dtype == complex

    def test_its_phase_split_is_refused_by_the_overlap(self):
        owned = [pattern for pattern, owners in _owned_messages().items()
                 if owners == {"phases._cyclic_overlap"}]
        assert len(owned) == 1
        with pytest.raises(ValueError, match=f"^{re.escape(_text(owned[0]))}$"):
            phase_decomposition(Trajectory(*self.EMPTY))


class TestPropagatorShape:
    """A trajectory refuses propagators whose stack is not (n, d, d) for its
    n states of dimension d, with a message of its own, before the replay
    compares them with the states."""

    TIMES, STATES = np.array([0.0, 1.0, 2.0]), np.tile([1.0, 0.0], (3, 1))

    @pytest.mark.parametrize("props", [
        np.eye(2)[None],  # one propagator for three states, which would broadcast
        np.zeros((2, 3, 3)),
        np.eye(2),
    ])
    def test_a_stack_of_another_shape(self, props):
        owned = [pattern for pattern, owners in _owned_messages().items()
                 if owners == {"propagation.Trajectory.__post_init__"}
                 and "shape" in _text(pattern)]
        assert len(owned) == 1
        with pytest.raises(ValueError) as info:
            Trajectory(self.TIMES, self.STATES, props)
        assert str(info.value) == _text(owned[0]).format(props.shape, (3, 2, 2))

    def test_the_stack_of_the_states_builds(self):
        traj = Trajectory(self.TIMES, self.STATES, np.tile(np.eye(2), (3, 1, 1)))
        assert traj.propagators.shape == (3, 2, 2)


class TestOverflowingLoopField:
    """A field loop whose half fields square past the float range, as a
    compensated loop's vertical field does past about 2.7e154, is refused
    where the loop is built, naming its fields, so that a schedule document
    names the step too; a record handed to the integrator directly is
    still refused there."""

    DOC = {"steps": [{"op": "loop", "revolutions": 1.0, "compensated": True,
                      "loop": {"omega0": 0.9, "omega1": 1.4, "gamma": 1e300,
                               "omega_z": 1e300}}]}

    def owned(self) -> str:
        owned = [(pattern, owners) for pattern, owners in _owned_messages().items()
                 if "square past the float range" in _text(pattern)]
        assert len(owned) == 1
        assert owned[0][1] == {"sequences.FieldLoop.__post_init__"}
        return _text(owned[0][0])

    @pytest.mark.parametrize("params, compensated, shown", [
        (FieldParams(0.9, 1.4, 1e300, omega_z=1e300), True, ("1e+300", "1.4")),
        (FieldParams(0.9, 1.4, -2.02e162, omega_z=-2.02e162), True, ("-2.02e+162", "1.4")),
        (FieldParams(1e200, 1.0, 1.0), False, ("1e+200", "1")),
        (FieldParams(1.0, 1e200, 1.0), False, ("1", "1e+200")),
        (FieldParams(1e308, 1.0, 1e308, omega_z=1e308), True, ("inf", "1")),
    ])
    def test_the_loop_refuses_it(self, params, compensated, shown):
        with pytest.raises(ValueError) as info:
            FieldLoop(params, compensated=compensated)
        assert str(info.value) == self.owned().format(*shown)

    @pytest.mark.parametrize("params, compensated", [
        (FieldParams(0.9, 1.4, 1e154, omega_z=1e154), True),
        (FieldParams(2e154, 1.0, 1.0), False),
    ])
    def test_a_loop_below_it_builds(self, params, compensated):
        FieldLoop(params, compensated=compensated)

    def test_evolve_refuses_it_naming_the_step(self, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(self.DOC))
        assert cli.main(["evolve", "--schedule", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: steps[0]: {self.owned().format('1e+300', '1.4')}\n"

    def test_the_integrator_refuses_such_a_record(self):
        record = FieldSchedule(0.9 + 1e300, 1.4, 1e300)
        message = "^schedule produced a non-finite Hamiltonian sample$"
        with pytest.raises(ValueError, match=message):
            integrate(record, 1e-300, total_steps=10)


def _owner(start: str) -> tuple:
    """The one refusal pattern whose text starts with start, as text, and
    its owners."""
    owned = [(_text(pattern), owners) for pattern, owners in _owned_messages().items()
             if _text(pattern).startswith(start)]
    assert len(owned) == 1, owned
    return owned[0]


class TestStartState:
    """integrate, integrate_loop and sequence_trajectory refuse a start
    state that is not finite, not a vector of the run's dimension or not
    normalized within 1e-10, naming psi0, before any step runs; a
    callable's dimension shows only in its run, so its length is refused
    after it. An accepted state is not rescaled."""

    P = FieldParams(1.0, 0.5, -1.25, omega_z=-1.25)
    LOOP = PulseSequence((RotX(0.3), FieldLoop(P)), SINGLE_QUBIT)
    SHAPE = "psi0 must be a vector of the run's dimension {}, got shape {}"
    NORM = "psi0 must be normalized within 1e-10"

    def test_the_texts_have_one_owner(self):
        assert _owner("psi0 must be a vector") == (self.SHAPE, {"propagation._start_state"})
        assert _owner("psi0 must be normalized") == (self.NORM, {"propagation._start_state"})

    @pytest.mark.parametrize("psi0, message", [
        (np.ones(3), SHAPE.format(2, (3,))),
        ([[1.0, 0.0]], SHAPE.format(2, (1, 2))),
        (1.0, SHAPE.format(2, ())),
        ([0, 0], NORM),
        ([1.0, 1.0], NORM),
        ([1.0 + 2e-10, 0.0], NORM),
        ([np.nan, 1.0], "psi0 contains NaN or Inf entries"),
        ([1.0, np.inf], "psi0 contains NaN or Inf entries"),
    ])
    @pytest.mark.parametrize("run", [
        lambda psi0: integrate_loop(TestStartState.P, True, 100, psi0=psi0),
        lambda psi0: integrate(FieldSchedule.of(TestStartState.P, True), 1.0, total_steps=100,
                               psi0=psi0),
        lambda psi0: sequence_trajectory(TestStartState.LOOP, 2, psi0, steps_per_loop=100),
    ])
    def test_no_step_runs_first(self, psi0, message, run, monkeypatch):
        calls = _counting_integrate(monkeypatch)
        with pytest.raises(ValueError) as info:
            run(psi0)
        assert str(info.value) == message
        assert calls == []

    @pytest.mark.parametrize("psi0, message", [
        ([0, 0], NORM),
        ([[1.0, 0.0]], SHAPE.format("d", (1, 2))),
        ([np.nan, 1.0], "psi0 contains NaN or Inf entries"),
    ])
    def test_a_callable_is_not_sampled_first(self, psi0, message):
        sampled = []

        def schedule(t):
            sampled.append(len(t))
            return np.zeros((len(t), 2, 2))

        with pytest.raises(ValueError) as info:
            integrate(schedule, 1.0, total_steps=100, psi0=psi0)
        assert str(info.value) == message
        assert sampled == []

    def test_a_callable_refuses_the_length_its_run_shows(self):
        with pytest.raises(ValueError) as info:
            integrate(lambda t: np.zeros((len(t), 4, 4)), 1.0, total_steps=100, psi0=[1.0, 0.0])
        assert str(info.value) == self.SHAPE.format(4, (2,))

    def test_a_sequence_of_the_other_dimension(self, monkeypatch):
        calls = _counting_integrate(monkeypatch)
        with pytest.raises(ValueError) as info:
            sequence_trajectory(PulseSequence(self.LOOP.steps, sequences.TWO_QUBIT), 4,
                                np.array([0.6, 0.8j]), steps_per_loop=100)
        assert str(info.value) == self.SHAPE.format(4, (2,))
        assert calls == []

    def test_a_state_within_the_bound_is_kept_as_given(self):
        # 1 + 5e-11 passes and is not rescaled; 1 + 2e-10 is refused above
        psi0 = np.array([1.0 + 5e-11, 0.0], dtype=complex)
        runs = [integrate_loop(self.P, True, 100, psi0=psi0),
                integrate(FieldSchedule.of(self.P, True), 1.0, total_steps=100, psi0=psi0),
                sequence_trajectory(self.LOOP, 2, psi0, steps_per_loop=100)]
        for traj in runs:
            assert traj.states[0].tobytes() == psi0.tobytes()
        with pytest.raises(ValueError, match="^psi0 must be normalized within 1e-10$"):
            integrate_loop(self.P, True, 100, psi0=np.array([1.0 + 2e-10, 0.0]))


class TestSampleCount:
    """integrate and integrate_loop take an integer sample count and refuse
    anything else, as the step count is refused, before any step runs."""

    RECORD = FieldSchedule(1.0, 0.5, -1.0)

    def test_the_count_has_one_owner(self):
        assert _owner("samples must be") == ("samples must be an integer sample count, got {}",
                                             {"propagation._recorded_samples"})

    @pytest.mark.parametrize("samples", [5.9, math.nan, math.inf, True, "7", 7.0, None])
    @pytest.mark.parametrize("run", [
        lambda samples: integrate(TestSampleCount.RECORD, 1.0, total_steps=10, samples=samples),
        lambda samples: integrate(lambda t: np.zeros((len(t), 2, 2)), 1.0, total_steps=10,
                                  samples=samples),
        lambda samples: integrate_loop(FieldParams(1.0, 0.5, -1.0), False, 10, samples=samples),
    ])
    def test_a_count_that_is_no_integer(self, samples, run, monkeypatch):
        stepped = []
        for kernel in (propagation._SU2, propagation._Dense):
            monkeypatch.setattr(kernel, "__init__", lambda *args: stepped.append(args))
        message = f"^samples must be an integer sample count, got {re.escape(repr(samples))}$"
        with pytest.raises(ValueError, match=message):
            run(samples)
        assert stepped == []  # refused before a kernel, and so a step, was made

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_keep_the_bytes(self, kind):
        for run in (lambda s: integrate(self.RECORD, 1.0, total_steps=10, samples=s),
                    lambda s: integrate_loop(FieldParams(1.0, 0.5, -1.0), False, 10, samples=s)):
            want, got = run(7), run(kind(7))
            for name in ("times", "states", "propagators"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
