"""Command-line front end: constraint-curve sweeps, schedule simulation,
gate synthesis reports, and speed-vs-accuracy comparisons.

Exit codes: 0 on success, 2 on parse/config errors, 3 when a gate fails
its fidelity gate, and 141 when the reader of stdout closes it before the
output ends (`conegate ... | head`), the code a shell reports for a writer
that SIGPIPE ends. Numeric output is deterministic: fixed 12-significant-
digit formatting and a '#'-prefixed header echoing the effective
configuration and tool version. Each option is declared once, as a row of
OPTIONS that gives its parser, default, check and help.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .gates import (
    cnot_recipe,
    conditional_recipe,
    format_matrix,
    hadamard_recipe,
    not_recipe,
    phase_gate,
    phase_gate_recipe,
    verify_gate,
)
from .linalg import bloch_vector
from .phases import CYCLIC_TOL, _cyclic_overlap, running_dynamical_phase
from .propagation import MAX_STEPS, Trajectory, _check_step_budget, _count_text, loop_infidelities
from .sequences import (
    STEPS_PER_LOOP,
    FieldLoop,
    s_operation_angles,
    schedule_from_dict,
    sequence_trajectory,
    trajectory_rows,
)

# rows of a sweep or an evolve trajectory; both are evaluated as whole arrays
MAX_SWEEP_POINTS = 1_000_000
CSV_CHUNK_ROWS = 4096  # rows formatted per % pass
GATE_FIDELITY_GATE = 1.0 - 1e-5
CONFIG_ERROR = 2
VERIFICATION_ERROR = 3


@dataclass
class RunConfig:
    command: str
    values: dict

    def header_lines(self) -> list[str]:
        lines = [f"# conegate {__version__}", f"# command = {self.command}"]
        for key in sorted(self.values):
            lines.append(f"# {key} = {self.values[key]}")
        return lines


def _parse_range(text: str, flag: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"{flag} must look like start:stop:step, got {text!r}")
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ValueError(f"{flag} must look like start:stop:step, got {text!r}") from exc
    if not np.all(np.isfinite([start, stop, step])):
        raise ValueError(f"{flag}: start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"{flag}: empty or descending range {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    _check_points(count, flag)
    return start + step * np.arange(int(count))


def _check_points(count: float, what: str) -> None:
    """Refuse a sweep or a trajectory before its arrays are allocated."""
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"{what} asks for {_count_text(count)} points, "
                          f"more than the {MAX_SWEEP_POINTS} a sweep or trajectory may hold")


def _int_option(value, flag: str) -> int:
    """value as an integer; a non-integral number or a bool is refused. A
    refused text too long to echo (int() reads at most 4,300 digits) is
    shown as its length and first characters."""
    if not (isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    shown = repr(value)
    if len(shown) > 40:
        shown = f"a text of {len(str(value)):,} characters, {shown[:16]}..."
    raise ValueError(f"{flag} must be an integer, got {shown}")


def _float_option(value, flag: str) -> float:
    """value as a finite float; a bool, anything float() cannot read, NaN
    and an infinity are refused."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"{flag} must be a finite number, got {value!r}")
    return number


def _read_json(path: str, what: str):
    """The JSON document in the file at path; what names the file in the
    refusals, and its first word names it in a parse error's."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what.split()[0]} parse error at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc


def _emit(chunks, out: str | None) -> None:
    """Write the strings of chunks, in order, to out or to stdout."""
    if not out:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _axis_texts(values: np.ndarray) -> list[str]:
    """'%.12g,' of each value: a grid axis's text up to the next column."""
    return ["%.12g," % x for x in values.tolist()]


def _csv_chunks(config: RunConfig, columns: dict, grid: dict | None = None):
    """Header, column line and one %.12g row per sample, as strings: the
    header as is, then CSV_CHUNK_ROWS rows at a time, each chunk one format
    string applied to its slice of the stacked columns, so memory stays
    bounded at any row count.

    grid, when given, maps the names of a grid's two axes (inner, then
    outer) to their values. The rows are then the axes' outer product,
    inner axis fastest: the axis columns come first, and columns holds the
    other columns in row order. Each chunk's format string carries the axis
    texts as literals, so only the other columns go through %.12g per row.
    An inner axis that fits in one chunk is formatted once for the whole
    run, and a chunk spans as many whole outer values as fit; a longer one
    is cut into chunk-sized slices, each formatted per outer value. Either
    way a chunk holds at most CSV_CHUNK_ROWS rows and no axis is repeated
    into a whole column."""
    lines = config.header_lines()
    lines.append(",".join([*(grid or {}), *columns]))
    yield "\n".join(lines) + "\n"
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    row = ",".join(["%.12g"] * len(cols)) + "\n"
    if grid is None:
        for start in range(0, len(cols[0]), CSV_CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + CSV_CHUNK_ROWS] for c in cols])
            yield (row * len(chunk)) % tuple(chunk.ravel().tolist())
        return
    inner, outer = (np.asarray(axis, dtype=float) for axis in grid.values())
    width = min(inner.size, CSV_CHUNK_ROWS)  # inner values in one chunk
    whole = _axis_texts(inner) if width == inner.size else None
    for i in range(0, outer.size, CSV_CHUNK_ROWS // width):
        tails = [text + row for text in _axis_texts(outer[i : i + CSV_CHUNK_ROWS // width])]
        for j in range(0, inner.size, width):
            heads = whole or _axis_texts(inner[j : j + width])
            start = i * inner.size + j
            chunk = np.column_stack([c[start : start + len(tails) * len(heads)] for c in cols])
            template = "".join(tail.join(heads) + tail for tail in tails)
            yield template % tuple(chunk.ravel().tolist())


def _json_chunks(config: RunConfig, columns: dict, grid: dict | None = None):
    """The text of json.dumps(doc, indent=2, sort_keys=True) and a newline
    for the run's document, one column at a time and CSV_CHUNK_ROWS values
    at a time, so memory stays bounded at any row count.

    The document is dumped with every column empty. "columns" sorts before
    the other keys, so the first len(columns) texts '": []' of the dump are
    the columns' own, in sorted order. Each is filled with json.dumps of
    its chunks' lists, laid out as indent=2 lays out a list. A grid's axes
    (see _csv_chunks) are read through views of the whole columns, inner
    axis fastest, so neither is repeated into memory."""
    cols = {name: np.asarray(c, dtype=float) for name, c in columns.items()}
    if grid:
        (inner_name, inner), (outer_name, outer) = grid.items()
        shape = (len(outer), len(inner))
        cols[inner_name] = np.broadcast_to(np.asarray(inner, dtype=float), shape)
        cols[outer_name] = np.broadcast_to(np.asarray(outer, dtype=float)[:, None], shape)
    doc = {"tool": f"conegate {__version__}", "command": config.command,
           "config": config.values, "columns": dict.fromkeys(cols, [])}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    head, *tails = text.split('": []', len(cols))
    yield head
    for name, tail in zip(sorted(cols), tails):
        col = cols[name]
        yield '": ['
        for start in range(0, col.size, CSV_CHUNK_ROWS):
            values = json.dumps(col.flat[start : start + CSV_CHUNK_ROWS].tolist())[1:-1]
            yield "\n      " if start == 0 else ",\n      "
            yield values.replace(", ", ",\n      ")
        yield ("\n    ]" if col.size else "]") + tail


def _write_output(config: RunConfig, columns: dict, out: str | None, fmt: str,
                  grid: dict | None = None) -> None:
    # _settings has checked the format
    _emit((_csv_chunks if fmt == "csv" else _json_chunks)(config, columns, grid), out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_scurve(config: RunConfig, v: dict) -> int:
    omega1_values, delta_values = v["omega1_range"], v["delta_over_j"]
    _check_points(delta_values.size * omega1_values.size, "--delta-over-j x --omega1-range")
    # delta is the outer loop of the grid, omega1 the inner one
    t_c, phi_prime, _, _ = s_operation_angles(delta_values[:, None], 1.0, omega1_values)
    grid = {"omega1_over_J": omega1_values, "delta_over_J": delta_values}
    cols = {"J_tc": t_c.ravel(), "phi_prime_rad": phi_prime.ravel()}
    _write_output(config, cols, v["out"], v["format"], grid)
    return 0


def cmd_evolve(config: RunConfig, v: dict) -> int:
    seq, psi0 = schedule_from_dict(_read_json(v["schedule"], "schedule"))
    traj = Trajectory(np.zeros(0), np.zeros((0, psi0.size)))  # an empty schedule has no rows
    if seq.steps:
        steps = v["steps"]
        _check_points(trajectory_rows(seq, steps), f"--schedule at --steps {steps}")
        traj = sequence_trajectory(seq, psi0.size, psi0, steps_per_loop=steps)

    mask = slice(None)
    if v["t_end"] is not None:
        mask = traj.times <= v["t_end"] + 1e-15

    if any(isinstance(s, FieldLoop) for s in seq.steps):
        # the first and last rows of the whole schedule, whatever precedes
        # or follows its loops
        defect = _cyclic_overlap(traj)[1]
        if defect > CYCLIC_TOL:
            print(f"warning: schedule is not cyclic: final-state overlap defect {defect:.3e}",
                  file=sys.stderr)

    _write_output(config, _trajectory_columns(traj, mask), v["out"], v["format"])
    return 0


def _trajectory_columns(traj, mask) -> dict:
    """The evolve columns of traj's rows under mask."""
    times, states = traj.times[mask], traj.states[mask]
    cols = {"t": times}
    for k in range(states.shape[1]):
        cols[f"re_amp{k}"] = states[:, k].real
        cols[f"im_amp{k}"] = states[:, k].imag
    if states.shape[1] == 2:
        cols["bloch_x"], cols["bloch_y"], cols["bloch_z"] = bloch_vector(states).T
    cols["dynamical_phase"] = running_dynamical_phase(traj, mask)
    return cols


def cmd_gate(config: RunConfig, v: dict) -> int:
    name = v["name"]
    if name == "phase":
        theta, loops = v["theta"], v["loops"]
        if abs(np.cos(theta)) < 1e-12:
            target = phase_gate(theta, loops)
            _print_gate_report(config, target, {"theta0": theta, "loops": loops,
                                                "note": "degenerate tilt: identity gate, "
                                                        "no loop is required"}, 1.0,
                               out=v["out"])
            return 0
        recipe = phase_gate_recipe(theta, loops)
    elif name == "cphase":
        try:  # the one solve of the loop setting
            recipe = conditional_recipe(v["delta_over_j"])
        except ValueError as exc:
            raise ValueError(f"--delta-over-j: {exc}") from exc
    else:
        recipe = {"hadamard": hadamard_recipe, "not": not_recipe, "cnot": cnot_recipe}[name]()

    # every recipe arrives unverified, so the program is simulated once
    fidelity_value = verify_gate(recipe, steps_per_loop=v["steps"])
    _print_gate_report(config, recipe.target, recipe.parameters, fidelity_value,
                       out=v["out"])
    if fidelity_value < GATE_FIDELITY_GATE:
        print(f"verification FAILED: fidelity {fidelity_value:.12g} below "
              f"{GATE_FIDELITY_GATE}", file=sys.stderr)
        return VERIFICATION_ERROR
    return 0


def _print_gate_report(config: RunConfig, target, parameters: dict, fid: float,
                       out: str | None = None) -> None:
    lines = config.header_lines()
    lines.append("target matrix:")
    lines.append(format_matrix(target))
    lines.append("parameters:")
    for key in sorted(parameters):
        val = parameters[key]
        lines.append(f"  {key} = {format(val, '.12g') if isinstance(val, float) else val}")
    lines.append(f"simulated fidelity = {fid:.12g}")
    _emit(["\n".join(lines) + "\n"], out)


def _loop_speeds(gammas: np.ndarray, omega0: float) -> np.ndarray:
    """The sweep's speeds gamma omega0; each flag passes its own check, but
    their product can underflow to a zero speed."""
    speeds = gammas * omega0
    if not np.all(speeds != 0.0):
        g = float(gammas[speeds == 0.0][0])
        raise ValueError(f"--gamma-range and --theta give a zero loop speed: gamma {g!r} "
                          f"times cos(theta) = {omega0!r} underflows to 0")
    return speeds


def cmd_compare_adiabatic(config: RunConfig, v: dict) -> int:
    gammas = v["gamma_range"]
    omega0, omega1 = float(np.cos(v["theta"])), float(np.sin(v["theta"]))
    uncompensated, compensated = loop_infidelities(omega0, omega1, _loop_speeds(gammas, omega0))
    cols = {"gamma_over_omega0": gammas, "infidelity_uncompensated": uncompensated,
            "infidelity_compensated": compensated}
    _write_output(config, cols, v["out"], v["format"])
    return 0


# ---------------------------------------------------------------------------
# options


def _scurve_deltas(value, flag: str) -> np.ndarray:
    """scurve's offset ratios: a start:stop:step text, or one finite number."""
    if isinstance(value, str) and ":" in value:
        return _parse_range(value, flag)
    return np.array([_float_option(value, flag)])


def _path(value, flag: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{flag} must be a file path, got {value!r}")
    return value


def _format(value, flag: str) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f"{flag} must be csv or json, got {value!r}")
    return value


def _steps_problem(steps: int) -> str | None:
    if steps < 1:
        return "--steps: steps must be positive"
    try:  # a loop of one revolution would exceed the budget
        _check_step_budget(steps)
    except ValueError as exc:
        return f"--steps: {exc}"
    return None


def _delta_over_j_problem(ratio: float) -> str | None:
    """What keeps cphase's conditional loop (delta = ratio, j = 1) from
    existing, or None. Whether its setting is finite shows where cmd_gate
    solves it, once per command."""
    if not ratio > 1.0:
        return f"--delta-over-j must exceed 1 (delta > j), got {ratio!r}"
    return None


GATE_OPTIONS = {"theta": "phase", "loops": "phase", "delta_over_j": "cphase"}  # dest: its gate


def _check_gate_options(name: str, given: dict) -> None:
    """Refuse, before its value is read, an option given by flag or by config
    to a gate that does not take it."""
    for dest, gate in GATE_OPTIONS.items():
        if dest in given and gate != name:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to gate {gate}, "
                             f"not to gate {name}")


class Option(NamedTuple):
    """One run option: its dest, the subcommands that take it, how a
    command-line text or a config value is read (parse(value, flag)), its
    value when not given (REQUIRED refuses that), a check of the read value
    that returns what is wrong with it or None, and its help text."""

    dest: str
    commands: tuple[str, ...]
    parse: Callable[[Any, str], Any]
    default: Any
    check: Callable[[Any], str | None] | None
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


REQUIRED = object()
SUBCOMMANDS = {  # each subcommand's run and help
    "scurve": (cmd_scurve, "preparation timing and tilt versus RF amplitude"),
    "evolve": (cmd_evolve, "simulate a pulse-sequence schedule file"),
    "gate": (cmd_gate, "synthesize and verify a gate"),
    "compare-adiabatic": (cmd_compare_adiabatic, "uncompensated vs compensated loop infidelity"),
}
_ALL = tuple(SUBCOMMANDS)

# every run option, in the order of their checks and of --help; format and
# steps are always given (see _settings), so their rows carry no default
OPTIONS = (
    Option("delta_over_j", ("scurve",), _scurve_deltas, REQUIRED, None,
           "offset/coupling ratio, a single value or start:stop:step"),
    Option("omega1_range", ("scurve",), _parse_range, REQUIRED,  # a range ascends
           lambda w: None if w[0] > 0 else
           f"--omega1-range: omega1 must be positive, got a start of {float(w[0])!r}",
           "start:stop:step sweep"),
    Option("schedule", ("evolve",), _path, REQUIRED, None, "sequence JSON document"),
    Option("t_end", ("evolve",), _float_option, None,
           lambda t: None if t >= 0 else f"--t-end must be nonnegative, got {t!r}",
           "truncate output at this time"),
    Option("theta", ("gate",), _float_option, np.pi / 3,
           lambda x: None if 0.0 < x < np.pi else
           f"--theta must lie strictly inside (0, pi), got {x!r}",
           "tilt angle for the phase gate"),
    Option("loops", ("gate",), _int_option, 1,  # a loop takes at least one step
           lambda n: None if 1 <= n <= MAX_STEPS else
           f"--loops must be a positive integer of at most {MAX_STEPS:,}, "
           f"got {_count_text(n)}",
           "loop count for the phase gate"),
    Option("delta_over_j", ("gate",), _float_option, 1.058, _delta_over_j_problem,
           "offset/coupling ratio for cphase"),
    Option("theta", ("compare-adiabatic",), _float_option, np.pi / 4,
           lambda x: None if 0 < x < np.pi / 2 else
           "--theta: theta must lie in (0, pi/2) so the field has a vertical part",
           "cone angle of the tracked eigenstate"),
    Option("gamma_range", ("compare-adiabatic",), _parse_range, REQUIRED,
           lambda g: None if np.all(g != 0.0) else
           "--gamma-range: gamma range must exclude zero (no loop at zero speed)",
           "start:stop:step sweep of gamma in units of omega0"),
    Option("out", _ALL, _path, None, None, "output path (default: stdout)"),
    Option("format", ("scurve", "evolve", "compare-adiabatic"), _format, None, None,
           "output format, csv or json"),
    Option("format", ("gate",), _format, None,
           lambda f: None if f == "csv" else
           f"--format {f!r} is not supported by gate, which prints a text report",
           "csv only: gate prints a text report"),
    Option("steps", _ALL, _int_option, None, _steps_problem,
           "integrator steps per loop (CONEGATE_STEPS sets the default)"),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built from OPTIONS on first use and kept:
    parse_args leaves it unchanged, so every call of main can share it.
    Option values stay text here; _settings reads them."""
    parser = argparse.ArgumentParser(
        prog="conegate",
        description="Simulate exactly controlled conical spin evolution and "
                    "the geometric gates built from it.",
    )
    parser.add_argument("--version", action="version", version=f"conegate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if command == "gate":
            sp.add_argument("name", choices=["phase", "hadamard", "not", "cphase", "cnot"])
        for option in OPTIONS:
            if command in option.commands:
                sp.add_argument(option.flag, help=option.help)
        sp.add_argument("--config", help="JSON file with default flag values")
    return parser


def _settings(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """The header's configuration and the typed values of args.command's
    options. Given values merge in the order defaults < CONEGATE_STEPS <
    --config < flags; a gate option given to another gate is refused, each
    given one is then read and checked by its row, and the others take the
    row's default. The header shows the given values: a flag's number as
    read, anything else as given."""
    rows = [o for o in OPTIONS if args.command in o.commands]
    given = {"format": "csv", "steps": STEPS_PER_LOOP}  # the defaults the header shows
    env_steps = os.environ.get("CONEGATE_STEPS")
    if env_steps is not None:
        given["steps"] = _int_option(env_steps, "CONEGATE_STEPS")
    if args.config:
        file_values = _read_json(args.config, "config file")
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_values) - {o.dest for o in rows})
        if unknown:
            raise ValueError(f"unknown config key(s) for {args.command}: "
                              + ", ".join(map(repr, unknown)))
        given.update(file_values)
    flags = {o.dest: getattr(args, o.dest) for o in rows if getattr(args, o.dest) is not None}
    given.update(flags)

    values, shown = {}, {}
    if args.command == "gate":
        _check_gate_options(args.name, given)
        values["name"] = shown["name"] = args.name  # no config file sets the positional
    for option in rows:
        if option.default is REQUIRED and given.get(option.dest) in (None, ""):
            raise ValueError(f"missing required option {option.flag}")
        if option.dest not in given:
            values[option.dest] = option.default
            continue
        raw = given[option.dest]
        values[option.dest] = value = option.parse(raw, option.flag)
        problem = option.check and option.check(value)
        if problem:
            raise ValueError(problem)
        number = option.parse in (_int_option, _float_option)
        shown[option.dest] = value if number and option.dest in flags else raw
    return RunConfig(command=args.command, values=shown), values


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the config-error code
        return int(exc.code or 0)
    try:
        config, values = _settings(args)
        return SUBCOMMANDS[args.command][0](config, values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except BrokenPipeError:
        # the rest of the output is unwanted; with stdout on devnull the
        # flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
