"""Command-line front end: constraint-curve sweeps, schedule simulation,
gate synthesis reports, and speed-vs-accuracy comparisons.

Exit codes: 0 on success, 2 on parse/config errors, 3 when a gate fails
its fidelity gate. Numeric output is deterministic: fixed 12-significant-
digit formatting and a '#'-prefixed header echoing the effective
configuration and tool version.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

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
from .hamiltonians import FieldParams
from .linalg import bloch_vector
from .phases import cone_eigenstate, running_dynamical_phase
from .propagation import MAX_STEPS, loop_infidelities
from .sequences import (
    SINGLE_QUBIT,
    FieldLoop,
    _finite,
    s_operation_angles,
    sequence_from_dict,
    sequence_trajectory,
    trajectory_rows,
)

DEFAULT_STEPS = 10_000
# rows of a sweep or an evolve trajectory; both are evaluated as whole arrays
MAX_SWEEP_POINTS = 1_000_000
CSV_CHUNK_ROWS = 4096  # rows formatted per % pass
GATE_FIDELITY_GATE = 1.0 - 1e-5
CONFIG_ERROR = 2
VERIFICATION_ERROR = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    values: dict

    def header_lines(self) -> list[str]:
        lines = [f"# conegate {__version__}", f"# command = {self.command}"]
        for key in sorted(self.values):
            lines.append(f"# {key} = {self.values[key]}")
        return lines


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_range(text: str, flag: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ConfigError(f"{flag} must look like start:stop:step, got {text!r}")
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"{flag} must look like start:stop:step, got {text!r}") from exc
    if not np.all(np.isfinite([start, stop, step])):
        raise ConfigError(f"{flag}: start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"{flag}: empty or descending range {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    _check_points(count, flag)
    return start + step * np.arange(int(count))


def _check_points(count: float, what: str) -> None:
    """Refuse a sweep or a trajectory before its arrays are allocated."""
    if count > MAX_SWEEP_POINTS:
        shown = count if isinstance(count, int) else f"{count:.0f}"  # an int may pass 1e308
        raise ConfigError(f"{what} asks for {shown} points, "
                          f"more than the {MAX_SWEEP_POINTS} a sweep or trajectory may hold")


def _int_option(value, name: str) -> int:
    """value as an integer; a non-integral number or a bool is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _float_option(value, name: str) -> float:
    """value as a finite float; a bool, anything float() cannot read, NaN
    and an infinity are refused."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _emit(chunks, out: str | None) -> None:
    """Write the strings of chunks, in order, to out or to stdout."""
    if not out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _csv_chunks(config: RunConfig, columns: dict):
    """Header, column line and one %.12g row per sample, as strings: the
    header as is, then CSV_CHUNK_ROWS rows at a time, each chunk one format
    string applied to its slice of the stacked columns, so memory stays
    bounded at any row count."""
    lines = config.header_lines()
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    row = ",".join(["%.12g"] * len(cols)) + "\n"
    for start in range(0, len(cols[0]), CSV_CHUNK_ROWS):
        chunk = np.column_stack([c[start : start + CSV_CHUNK_ROWS] for c in cols])
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def _write_output(config: RunConfig, columns: dict, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        chunks = _csv_chunks(config, columns)
    elif fmt == "json":
        doc = {
            "tool": f"conegate {__version__}",
            "command": config.command,
            "config": config.values,
            "columns": {name: [float(v) for v in vals] for name, vals in columns.items()},
        }
        chunks = [json.dumps(doc, indent=2, sort_keys=True) + "\n"]
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _emit(chunks, out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_scurve(config: RunConfig) -> int:
    v = config.values
    omega1_values = _parse_range(v["omega1_range"], "--omega1-range")
    delta_arg = v["delta_over_j"]
    if isinstance(delta_arg, str) and ":" in delta_arg:
        delta_values = _parse_range(delta_arg, "--delta-over-j")
    else:
        delta_values = np.array([_float_option(delta_arg, "--delta-over-j")])
    _check_points(delta_values.size * omega1_values.size, "--delta-over-j x --omega1-range")
    # delta is the outer loop of the grid, omega1 the inner one
    delta = np.repeat(delta_values, omega1_values.size)
    omega1 = np.tile(omega1_values, delta_values.size)
    t_c, phi_prime, _, _ = s_operation_angles(delta, 1.0, omega1)
    cols = {"omega1_over_J": omega1, "delta_over_J": delta, "J_tc": t_c,
            "phi_prime_rad": phi_prime}
    _write_output(config, cols, v.get("out"), v.get("format", "csv"))
    return 0


def _initial_state(doc: dict, seq) -> np.ndarray:
    dim = 2 if seq.frame == SINGLE_QUBIT else 4
    if "initial_state" in doc:
        pairs = doc["initial_state"]
        if not isinstance(pairs, list) or len(pairs) != dim:
            raise ConfigError(f"initial_state: expected {dim} [re, im] pairs")
        psi = np.empty(dim, dtype=complex)
        for k, pair in enumerate(pairs):
            where = f"initial_state[{k}]"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"{where}: expected a [re, im] pair")
            psi[k] = complex(_finite(pair[0], where + "[0]"), _finite(pair[1], where + "[1]"))
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ConfigError("initial_state must be a nonzero vector")
        return psi / norm
    for step in seq.steps:
        if isinstance(step, FieldLoop) and isinstance(step.params, FieldParams):
            geom = cone_eigenstate(step.params.omega0, step.params.omega1)
            psi2 = geom.psi0 * np.array([1.0, np.exp(1j * step.params.phase0)])
            if dim == 2:
                return psi2
            return np.kron(np.array([1.0, 0.0]), psi2)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def cmd_evolve(config: RunConfig) -> int:
    v = config.values
    path = v.get("schedule")
    if not path:
        raise ConfigError("evolve needs --schedule pointing to a sequence JSON file")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read schedule: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"schedule parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    seq = sequence_from_dict(doc)
    dim = 2 if seq.frame == SINGLE_QUBIT else 4
    t_end = v.get("t_end")
    if t_end is not None:
        t_end = _float_option(t_end, "--t-end")
        if t_end < 0:
            raise ConfigError(f"--t-end must be nonnegative, got {t_end!r}")

    if not seq.steps:
        _write_output(config, _trajectory_columns(None, dim), v.get("out"), v.get("format", "csv"))
        return 0

    steps = int(v["steps"])
    _check_points(trajectory_rows(seq, steps), f"--schedule at --steps {steps}")
    psi0 = _initial_state(doc, seq)
    traj = sequence_trajectory(seq, dim, psi0, steps_per_loop=steps)

    mask = slice(None)
    if t_end is not None:
        mask = traj.times <= t_end + 1e-15

    has_loop = any(isinstance(s, FieldLoop) for s in seq.steps)
    if has_loop:
        overlap = abs(complex(traj.states[0].conj() @ traj.states[-1]))
        defect = abs(1.0 - overlap)
        if defect > 1e-6:
            print(
                f"warning: declared loop is not cyclic, overlap defect {defect:.3e}",
                file=sys.stderr,
            )

    cols = _trajectory_columns(traj, dim, mask)
    _write_output(config, cols, v.get("out"), v.get("format", "csv"))
    return 0


def _trajectory_columns(traj, dim: int, mask=slice(None)) -> dict:
    cols: dict = {"t": []}
    for k in range(dim):
        cols[f"re_amp{k}"] = []
        cols[f"im_amp{k}"] = []
    if dim == 2:
        cols["bloch_x"] = []
        cols["bloch_y"] = []
        cols["bloch_z"] = []
    cols["dynamical_phase"] = []
    if traj is None:
        return cols
    times = traj.times[mask]
    states = traj.states[mask]
    cols["t"] = times
    for k in range(dim):
        cols[f"re_amp{k}"] = states[:, k].real
        cols[f"im_amp{k}"] = states[:, k].imag
    if dim == 2:
        cols["bloch_x"], cols["bloch_y"], cols["bloch_z"] = bloch_vector(states).T
    cols["dynamical_phase"] = running_dynamical_phase(traj, mask)
    return cols


def _option(v: dict, key: str, default):
    """The configured value of key, or default when it was not given; a
    given falsy value (0, 0.0) is kept and validated by the caller."""
    value = v.get(key)
    return default if value is None else value


def cmd_gate(config: RunConfig) -> int:
    v = config.values
    name = v["name"]
    steps = int(v["steps"])
    if v.get("format", "csv") != "csv":
        raise ConfigError(f"--format {v['format']!r} is not supported by gate, "
                          "which prints a text report")

    if name == "phase":
        theta = _float_option(_option(v, "theta", np.pi / 3), "--theta")
        loops = _int_option(_option(v, "loops", 1), "--loops")
        if not 0.0 < theta < np.pi:
            raise ConfigError(f"--theta must lie strictly inside (0, pi), got {theta!r}")
        if not 1 <= loops <= MAX_STEPS:  # a loop takes at least one step
            raise ConfigError(f"--loops must be a positive integer of at most {MAX_STEPS:,}, "
                              f"got {loops!r}")
        if abs(np.cos(theta)) < 1e-12:
            target = phase_gate(theta, loops)
            _print_gate_report(config, target, {"theta0": theta, "loops": loops,
                                                "note": "degenerate tilt: identity gate, "
                                                        "no loop is required"}, 1.0,
                               out=v.get("out"))
            return 0
        recipe = phase_gate_recipe(theta, loops)
    elif name == "hadamard":
        recipe = hadamard_recipe()
    elif name == "not":
        recipe = not_recipe()
    elif name == "cphase":
        delta = _float_option(_option(v, "delta_over_j", 1.058), "--delta-over-j")
        if delta <= 1.0:
            raise ConfigError(f"--delta-over-j must exceed 1 (delta > j), got {delta!r}")
        recipe = conditional_recipe(delta)
    elif name == "cnot":
        recipe = cnot_recipe()
    else:
        raise ConfigError(f"unknown gate {name!r}")

    # every recipe arrives unverified, so the program is simulated once
    fidelity_value = verify_gate(recipe, steps_per_loop=steps)
    _print_gate_report(config, recipe.target, recipe.parameters, fidelity_value,
                       out=v.get("out"))
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
        lines.append(f"  {key} = {_fmt(val) if isinstance(val, float) else val}")
    lines.append(f"simulated fidelity = {fid:.12g}")
    _emit(["\n".join(lines) + "\n"], out)


def cmd_compare_adiabatic(config: RunConfig) -> int:
    v = config.values
    theta = _float_option(_option(v, "theta", np.pi / 4), "--theta")
    if not 0 < theta < np.pi / 2:
        raise ConfigError("theta must lie in (0, pi/2) so the field has a vertical part")
    gammas = _parse_range(v["gamma_range"], "--gamma-range")
    omega0, omega1 = float(np.cos(theta)), float(np.sin(theta))
    gamma = gammas * omega0
    if np.any(gamma == 0.0):
        raise ConfigError("gamma range must exclude zero (no loop at zero speed)")
    uncompensated, compensated = loop_infidelities(omega0, omega1, gamma)
    cols = {"gamma_over_omega0": gammas, "infidelity_uncompensated": uncompensated,
            "infidelity_compensated": compensated}
    _write_output(config, cols, v.get("out"), v.get("format", "csv"))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: parse_args
    leaves it unchanged, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="conegate",
        description="Simulate exactly controlled conical spin evolution and "
                    "the geometric gates built from it.",
    )
    parser.add_argument("--version", action="version", version=f"conegate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=["csv", "json"], help="output format")
        sp.add_argument("--steps", type=int, help="integrator steps per loop")
        sp.add_argument("--seed", type=int, help="seed echoed into the header "
                                                 "(reserved for sampling commands)")
        sp.add_argument("--config", help="JSON file with default flag values")

    sp = sub.add_parser("scurve", help="preparation timing and tilt versus RF amplitude")
    sp.add_argument("--delta-over-j", dest="delta_over_j",
                    help="offset/coupling ratio, a single value or start:stop:step")
    sp.add_argument("--omega1-range", dest="omega1_range", help="start:stop:step sweep")
    common(sp)

    sp = sub.add_parser("evolve", help="simulate a pulse-sequence schedule file")
    sp.add_argument("--schedule", help="sequence JSON document")
    sp.add_argument("--t-end", dest="t_end", type=float, help="truncate output at this time")
    common(sp)

    sp = sub.add_parser("gate", help="synthesize and verify a gate")
    sp.add_argument("name", choices=["phase", "hadamard", "not", "cphase", "cnot"])
    sp.add_argument("--theta", type=float, help="tilt angle for the phase gate")
    sp.add_argument("--loops", type=int, help="loop count for the phase gate")
    sp.add_argument("--delta-over-j", dest="delta_over_j", type=float,
                    help="offset/coupling ratio for cphase")
    common(sp)

    sp = sub.add_parser("compare-adiabatic",
                        help="uncompensated vs compensated loop infidelity")
    sp.add_argument("--theta", type=float, help="cone angle of the tracked eigenstate")
    sp.add_argument("--gamma-range", dest="gamma_range",
                    help="start:stop:step sweep of gamma in units of omega0")
    common(sp)
    return parser


_REQUIRED = {
    "scurve": ["delta_over_j", "omega1_range"],
    "evolve": ["schedule"],
    "gate": [],
    "compare-adiabatic": ["gamma_range"],
}

_DEFAULTS = {"format": "csv"}
_UNCONFIGURABLE = ("command", "config")  # parser dests that are not run values
_POSITIONALS = ("name",)  # run values the command line always sets


def _effective_config(args: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    env_steps = os.environ.get("CONEGATE_STEPS")
    if env_steps is not None:
        try:
            values["steps"] = int(env_steps)
        except ValueError as exc:
            raise ConfigError(f"CONEGATE_STEPS must be an integer, got {env_steps!r}") from exc
    else:
        values["steps"] = DEFAULT_STEPS

    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        # parse_args gives every option of the chosen subcommand a value
        options = set(vars(args)) - set(_UNCONFIGURABLE) - set(_POSITIONALS)
        unknown = sorted(set(file_values) - options)
        if unknown:
            raise ConfigError(f"unknown config key(s) for {args.command}: "
                              + ", ".join(map(repr, unknown)))
        values.update(file_values)

    for key, val in vars(args).items():
        if key in _UNCONFIGURABLE:
            continue
        if val is not None:
            values[key] = val

    for key in _REQUIRED[args.command]:
        if values.get(key) in (None, ""):
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    for key in ("schedule", "out"):
        if values.get(key) is not None and not isinstance(values[key], str):
            raise ConfigError(f"--{key} must be a file path, got {values[key]!r}")
    steps = _int_option(values["steps"], "--steps")
    if steps < 1:
        raise ConfigError("steps must be positive")
    if steps > MAX_STEPS:  # a loop of one revolution would exceed the budget
        raise ConfigError(f"--steps: step budget exceeded: {steps} steps requested, "
                          f"at most {MAX_STEPS:,} allowed")
    if values.get("seed") is not None:
        _int_option(values["seed"], "--seed")
    return RunConfig(command=args.command, values=values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the config-error code
        return int(exc.code or 0)
    try:
        config = _effective_config(args)
        if args.command == "scurve":
            return cmd_scurve(config)
        if args.command == "evolve":
            return cmd_evolve(config)
        if args.command == "gate":
            return cmd_gate(config)
        return cmd_compare_adiabatic(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
