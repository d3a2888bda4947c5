"""Seeded inputs, operations and output checks of the three workloads.

A workload is a pool of batches. Every batch has the same composition: the
same operation kinds at the same sizes, for every batch and every seed. The
seed only draws the physical parameters and the order inside a batch. A fixed
composition keeps the per-batch rates and the median latency comparable
between seeds, so the spread between runs measures the program, not the draw.

Each operation is one call a user makes: an in-process ``cli.main`` call with
its stdout and stderr captured, or a short library call. Functions are looked
up on the ``conegate`` modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

GATE_FIDELITY_MIN = 1.0 - 1e-5  # the CLI's and the acceptance suite's gate
COMPENSATED_INFIDELITY_MAX = 1e-10  # acceptance criterion 09
COMPOSITE_LEAK_MAX = 1e-7  # acceptance criterion 06
GEOMETRIC_PHASE_ERR_MAX = 1e-7  # acceptance criterion 03
# the harness's own checks on printed 12-significant-digit values
PRINTED_ABS_TOL = 1e-10
STATE_NORM_TOL = 1e-9

POOL_BATCHES = 8  # distinct seeded batches generated at set-up, then cycled


@dataclass
class CliResult:
    code: int
    text: str
    err: str


@dataclass
class Op:
    """One closed-loop operation.

    call    does the work and returns its result; only this is timed
    verify  result -> (problem or None, work units done)
    steps   integrator steps implied by the inputs (steps per loop times
            loop revolutions); 0 when the operation runs no integrator
    inputs  the generated inputs in words, for failure reports
    """

    kind: str
    call: Callable[[], object]
    verify: Callable[[object], tuple]
    steps: int = 0
    inputs: str = ""


def run_cli(argv: list[str]) -> CliResult:
    from conegate import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _csv_rows(text: str) -> np.ndarray:
    """Data rows of a conegate CSV (comment lines and the column line dropped)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _cli_problem(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}: {res.err.strip()[:200]}"
    return None


def _wrapped_phase_error(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


# ---------------------------------------------------------------------------
# gate-verify

# loop revolutions in each gate's verified pulse program: the phase gate and
# the Hadamard are one tilted loop, NOT is H.P.H, cphase is one conditional
# loop and CNOT is H, the conditional loop, H
GATE_LOOPS = {"phase": 1, "hadamard": 1, "not": 3, "cphase": 1, "cnot": 3}


def gate_op(rng: random.Random, name: str, steps: int) -> Op:
    argv = ["gate", name, "--steps", str(steps)]
    if name == "phase":
        argv += ["--theta", f"{rng.uniform(0.2, 1.3):.9f}"]
    elif name == "cphase":
        argv += ["--delta-over-j", f"{rng.uniform(1.05, 3.0):.9f}"]
    work = steps * GATE_LOOPS[name]

    def verify(res: CliResult):
        problem = _cli_problem(res)
        if problem is None:
            lines = [x for x in res.text.splitlines() if x.startswith("simulated fidelity = ")]
            if len(lines) != 1:
                problem = "no fidelity line in the gate report"
            elif not float(lines[0].split("=")[1]) >= GATE_FIDELITY_MIN:
                problem = f"fidelity {lines[0].split('=')[1].strip()} below {GATE_FIDELITY_MIN}"
        return problem, work

    return Op(f"gate.{name}@{steps:.0e}", lambda: run_cli(argv), verify, work, " ".join(argv))


def gate_verify_batch(rng: random.Random, batch: int) -> list[Op]:
    ops = [gate_op(rng, name, steps) for steps in (10_000, 100_000) for name in GATE_LOOPS]
    # one long phase loop whose per-step arrays (~64 MB) dwarf the L2 cache
    ops.append(gate_op(rng, "phase", 1_000_000))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cone-sweep

SCURVE_DELTAS, SCURVE_OMEGAS = 100, 190  # 19,000 grid points per call
COMPARE_POINTS = 1000
COMPOSITES_PER_OP = 200


def _range_text(start: float, step: float, count: int) -> str:
    # the stop sits half a step past the last point, so rounding in the
    # CLI's count cannot drop or add one
    return f"{start!r}:{start + (count - 0.5) * step!r}:{step!r}"


def scurve_op(rng: random.Random) -> Op:
    d0 = round(rng.uniform(0.5, 1.5), 3)
    w0 = round(rng.uniform(0.3, 1.0), 3)
    argv = ["scurve", "--delta-over-j", _range_text(d0, 0.02, SCURVE_DELTAS),
            "--omega1-range", _range_text(w0, 0.05, SCURVE_OMEGAS)]
    expected = SCURVE_DELTAS * SCURVE_OMEGAS

    def verify(res: CliResult):
        problem = _cli_problem(res)
        if problem is not None:
            return problem, 0
        rows = _csv_rows(res.text)
        if rows.shape != (expected, 4):
            return f"scurve emitted {rows.shape}, expected ({expected}, 4)", 0
        omega1, delta, jtc, phi = rows.T
        # the preparation constraints: phi' +- J t_c = arctan((delta +- J) / omega1)
        err = max(
            float(np.max(np.abs(phi + jtc - np.arctan((delta + 1.0) / omega1)))),
            float(np.max(np.abs(phi - jtc - np.arctan((delta - 1.0) / omega1)))),
        )
        if not err < PRINTED_ABS_TOL:
            return f"scurve constraint residual {err:.2e}", expected
        return None, expected

    return Op("sweep.scurve", lambda: run_cli(argv), verify, inputs=" ".join(argv))


def compare_op(rng: random.Random) -> Op:
    theta = rng.uniform(0.3, 1.3)
    g0 = round(rng.uniform(0.01, 0.05), 4)
    argv = ["compare-adiabatic", "--theta", f"{theta:.9f}",
            "--gamma-range", _range_text(g0, 0.001, COMPARE_POINTS)]

    def verify(res: CliResult):
        problem = _cli_problem(res)
        if problem is not None:
            return problem, 0
        rows = _csv_rows(res.text)
        if rows.shape != (COMPARE_POINTS, 3):
            return f"compare-adiabatic emitted {rows.shape}", 0
        worst = float(np.max(rows[:, 2]))
        if not worst < COMPENSATED_INFIDELITY_MAX:
            return f"compensated infidelity {worst:.2e}", COMPARE_POINTS
        if not np.all(rows[:, 1] >= 0.0):
            return "negative uncompensated infidelity", COMPARE_POINTS
        return None, COMPARE_POINTS

    return Op("sweep.compare-adiabatic", lambda: run_cli(argv), verify, inputs=" ".join(argv))


def composite_op(rng: random.Random) -> Op:
    deltas = [rng.uniform(1.05, 3.0) for _ in range(COMPOSITES_PER_OP)]

    def call():
        import conegate as cg

        return [cg.apply_sequence(cg.build_conditional_loop(d, 1.0), 4) for d in deltas]

    def verify(units):
        leak = max(float(np.max(np.abs(u - np.diag(np.diag(u))))) for u in units)
        if not leak < COMPOSITE_LEAK_MAX:
            return f"composite off-diagonal leak {leak:.2e}", len(units)
        return None, len(units)

    return Op("sweep.composites", call, verify,
              inputs=f"{len(deltas)} conditional loops, delta/J from {deltas[0]!r}")


def cone_sweep_batch(rng: random.Random, batch: int) -> list[Op]:
    ops = [scurve_op(rng), scurve_op(rng), compare_op(rng), compare_op(rng),
           composite_op(rng), composite_op(rng)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# evolve-trajectory

EVOLVE_TWO_QUBIT_STEPS = 20_000
EVOLVE_TILTED_STEPS = 25_000
EVOLVE_TILTED_REVOLUTIONS = 4
LIBRARY_STEPS = 30_000
LIBRARY_SAMPLES = 4097


def _tilted_field(theta: float, phase0: float = 0.0):
    import conegate as cg

    omega0, omega1 = math.cos(theta), math.sin(theta)
    gamma = cg.compensation_gamma(omega0, omega1)
    return cg.FieldParams(omega0, omega1, gamma, omega_z=gamma, phase0=phase0)


def _verify_evolve(res: CliResult):
    problem = _cli_problem(res)
    if problem is not None:
        return problem, 0
    if "warning" in res.err:
        return f"evolve warned: {res.err.strip()[:200]}", 0
    rows = _csv_rows(res.text)
    if rows.shape[0] < 2 or not np.all(np.isfinite(rows)):
        return "evolve emitted no finite trajectory", 0
    if np.any(np.diff(rows[:, 0]) < 0):
        return "evolve times are not ascending", rows.shape[0]
    dim = 2 if rows.shape[1] == 1 + 4 + 3 + 1 else 4
    amps = rows[:, 1 : 1 + 2 * dim]
    drift = float(np.max(np.abs(np.sum(amps * amps, axis=1) - 1.0)))
    if not drift < STATE_NORM_TOL:
        return f"evolve state norm drift {drift:.2e}", rows.shape[0]
    return None, rows.shape[0]


def evolve_op(path: str, steps: int, revolutions: int, kind: str) -> Op:
    argv = ["evolve", "--schedule", path, "--steps", str(steps)]
    return Op(kind, lambda: run_cli(argv), _verify_evolve, steps * revolutions, " ".join(argv))


def library_loop_op(rng: random.Random) -> Op:
    import conegate as cg

    theta = rng.uniform(0.2, 1.3)
    p = _tilted_field(theta)
    psi0 = cg.cone_eigenstate(p.omega0, p.omega1).psi0
    expected = -math.pi * (1.0 + math.cos(theta))

    def call():
        traj = cg.integrate_loop(p, True, steps_per_loop=LIBRARY_STEPS, psi0=psi0,
                                 samples=LIBRARY_SAMPLES)
        return traj.times.size, cg.phase_decomposition(traj)

    def verify(result):
        rows, dec = result
        err = _wrapped_phase_error(dec.geometric, expected)
        if not err < GEOMETRIC_PHASE_ERR_MAX:
            return f"geometric phase error {err:.2e}", rows
        return None, rows

    return Op("evolve.library-loop", call, verify, LIBRARY_STEPS,
              f"integrate_loop theta={theta!r} steps={LIBRARY_STEPS} samples={LIBRARY_SAMPLES}")


def evolve_trajectory_batch(rng: random.Random, batch: int) -> list[Op]:
    """Schedule files go to the working directory under names that depend only
    on the batch, so the header lines the CLI echoes repeat for a seed."""
    import conegate as cg

    ops = []
    for k in range(2):
        seq = cg.build_conditional_loop(rng.uniform(1.05, 3.0), 1.0)
        path = f"conditional-{batch}-{k}.json"
        with open(path, "w") as fh:
            fh.write(cg.to_json(seq))
        ops.append(evolve_op(path, EVOLVE_TWO_QUBIT_STEPS, 1, "evolve.conditional"))
    for k in range(2):
        p = _tilted_field(rng.uniform(0.2, 1.3), rng.uniform(0.0, 2 * math.pi))
        loop = cg.FieldLoop(p, revolutions=float(EVOLVE_TILTED_REVOLUTIONS), compensated=True)
        path = f"tilted-{batch}-{k}.json"
        with open(path, "w") as fh:
            fh.write(cg.to_json(cg.PulseSequence((loop,))))
        ops.append(evolve_op(path, EVOLVE_TILTED_STEPS, EVOLVE_TILTED_REVOLUTIONS,
                             "evolve.tilted"))
    ops += [library_loop_op(rng), library_loop_op(rng)]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_batch: Callable[[random.Random, int], list]
    batch_seconds: float  # one batch's op time on a 2-vCPU x86 VM; sizes the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gate-verify", gate_verify_batch, 3.0),
        Workload("cone-sweep", cone_sweep_batch, 0.85),
        Workload("evolve-trajectory", evolve_trajectory_batch, 0.66),
    )
}


def make_pool(workload: Workload, seed: int) -> list[list[Op]]:
    """The seeded batches of one run; batch b of a run is pool[b % len(pool)]."""
    return [
        workload.make_batch(random.Random(f"{workload.name}:{seed}:{b}"), b)
        for b in range(POOL_BATCHES)
    ]
