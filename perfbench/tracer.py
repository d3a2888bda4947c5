"""Outside-in tracing of conegate: timing wrappers on every module attribute
that binds one of the package's public functions.

conegate's modules import functions by name (``sequences.integrate``,
``gates.simulate_sequence``, ``cli.verify_gate``, and ``h_compensated`` read
from the ``sequences`` globals inside ``_loop_schedule``), so one function can
be bound in several modules. Every binding is replaced by the same wrapper,
and ``uninstall`` puts the original objects back. Nothing under ``src/`` is
edited.

A span is (name, start, end, parent, op): the parent is the enclosing traced
call and op is the closed-loop operation that caused it. Spans stay in memory
and are written out once, at the end of the run. Self time is a span's
duration minus its children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types

import numpy as np

PACKAGE = "conegate"

HAMILTONIANS_D2 = ("hamiltonians.h_compensated", "hamiltonians.h_rotating")
HAMILTONIANS_D4 = ("hamiltonians.h_two_qubit_rotating",)
CLOSED_FORMS = (
    "propagation.propagator_compensated",
    "propagation.propagator_uncompensated",
    "propagation.adiabatic_error",
)
RECIPES = (
    "gates.phase_gate_recipe",
    "gates.solve_hadamard",
    "gates.solve_not",
    "gates.conditional_recipe",
    "gates.cnot_recipe",
)


def _integrate_record(args, kwargs, result):
    """(steps, dim, recorded samples) of one ``integrate`` call; the step
    count follows integrate's own rule from its arguments."""
    t_end = args[1] if len(args) > 1 else kwargs["t_end"]
    total = kwargs.get("total_steps")
    if total is None:
        per_unit = args[2] if len(args) > 2 else kwargs.get("steps_per_unit", 1000)
        total = max(1, int(round(per_unit * t_end))) if t_end > 0 else 0
    return int(total), int(result.states.shape[1]), int(result.times.size)


def _sample_count(position):
    def record(args, kwargs, result):
        t = args[position] if len(args) > position else kwargs["t"]
        return (int(np.size(t)),)

    return record


HOOKS = {
    "propagation.integrate": _integrate_record,
    "hamiltonians.h_compensated": _sample_count(1),
    "hamiltonians.h_rotating": _sample_count(1),
    "hamiltonians.h_two_qubit_rotating": _sample_count(4),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    """Span recorder. ``only`` restricts the wrapped functions by span name;
    ``memory`` records each wrapped call's peak traced allocation instead of
    being used for timing (tracemalloc runs only inside those calls)."""

    def __init__(self, only: frozenset | None = None, memory: bool = False):
        self.only = only
        self.memory = memory
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start: list[int] = []
        self.end: list[int] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.extra: dict[int, tuple] = {}
        self.peak: dict[int, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the root span of one closed-loop operation."""
        self._op = op_id
        self._open(self._name_id(f"op.{kind}"))

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def _wrap(self, fn):
        name = span_name(fn)
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        memory = self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    self.peak[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(idx)
            if hook is not None:
                self.extra[idx] = hook(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not (value.__module__ or "").startswith(PACKAGE + "."):
                    continue
                if self.only is not None and span_name(value) not in self.only:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
            "names": np.array(self.names),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reads 0
    return float(num) / den if den else 0.0


def layer_metrics(tr: Tracer, mem: Tracer | None = None) -> dict:
    """Per-layer counts, per-call times and ratios from the recorded spans.

    Times are inclusive unless the name says ``self``. The cli layer's self
    time counts every cli.* span, so it is the CLI's own parsing and
    formatting. ``mem`` is a memory-mode tracer over ``integrate``.
    """
    a = tr.arrays()
    dur = (a["end"] - a["start"]).astype(float)
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_ns = dur - child
    ids = {n: i for i, n in enumerate(tr.names)}

    def mask(*names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(a["name"], wanted)

    def calls(*names):
        return int(np.count_nonzero(mask(*names)))

    def total(*names, self_time=False):
        return float(np.sum((self_ns if self_time else dur)[mask(*names)]))

    def extras(*names):
        return [tr.extra[i] for i in np.flatnonzero(mask(*names))]

    out = {}
    for name, unit_ns, label in (
        ("linalg.mat_exp_hermitian", 1e3, "us_per_call"),
        ("linalg.bloch_vector", 1e3, "us_per_call"),
        ("phases.phase_decomposition", 1e6, "ms_per_call"),
        ("sequences.s_operation_params", 1e3, "us_per_call"),
        ("sequences.apply_sequence", 1e3, "us_per_call"),
        ("gates.verify_gate", 1e6, "ms_per_call"),
    ):
        n = calls(name)
        out[f"{name}.calls"] = n
        out[f"{name}.{label}"] = _ratio(total(name), n * unit_ns)

    samples_d2 = sum(e[0] for e in extras(*HAMILTONIANS_D2))
    samples_d4 = sum(e[0] for e in extras(*HAMILTONIANS_D4))
    out["hamiltonians.samples"] = samples_d2 + samples_d4
    out["hamiltonians.d2.ns_per_sample"] = _ratio(total(*HAMILTONIANS_D2), samples_d2)
    out["hamiltonians.d4.ns_per_sample"] = _ratio(total(*HAMILTONIANS_D4), samples_d4)

    integ = np.flatnonzero(mask("propagation.integrate"))
    rec = np.array([tr.extra[i] for i in integ], dtype=np.int64).reshape(-1, 3)
    steps = int(rec[:, 0].sum())
    out["hamiltonians.useful_sample_ratio"] = _ratio(steps, samples_d2 + samples_d4)
    out["propagation.integrate.calls"] = int(integ.size)
    out["propagation.integrate.steps"] = steps
    for d in (2, 4):
        sel = rec[:, 1] == d
        out[f"propagation.integrate.d{d}.self_ns_per_step"] = _ratio(
            float(np.sum(self_ns[integ[sel]])), int(rec[sel, 0].sum())
        )
    recorded = int(rec[:, 2].sum())
    out["propagation.integrate.recorded_samples"] = recorded
    out["propagation.integrate.self_us_per_recorded_sample"] = _ratio(
        float(np.sum(self_ns[integ])), recorded * 1e3
    )
    if mem is not None:
        out["propagation.integrate.peak_bytes_per_step"] = _ratio(
            sum(mem.peak.values()), sum(mem.extra[i][0] for i in mem.peak)
        )

    n = calls(*CLOSED_FORMS)
    out["propagation.closed_form.calls"] = n
    out["propagation.closed_form.self_us_per_call"] = _ratio(
        total(*CLOSED_FORMS, self_time=True), n * 1e3
    )
    for name in ("sequences.simulate_sequence", "sequences.sequence_trajectory"):
        n = calls(name)
        out[f"{name}.calls"] = n
        out[f"{name}.self_ms_per_call"] = _ratio(total(name, self_time=True), n * 1e6)

    # a verify is useful when no recipe solver above it re-verifies on its own
    recipe_ids = {ids[n] for n in RECIPES if n in ids}
    verifies = np.flatnonzero(mask("gates.verify_gate"))
    top = 0
    for i in verifies:
        p = a["parent"][i]
        while p >= 0 and a["name"][p] not in recipe_ids:
            p = a["parent"][p]
        top += p < 0
    out["gates.verify_gate.useful_ratio"] = _ratio(top, verifies.size)
    n = calls(*RECIPES)
    out["gates.recipe.calls"] = n
    out["gates.recipe.self_ms_per_call"] = _ratio(total(*RECIPES, self_time=True), n * 1e6)

    cli_names = [x for x in tr.names if x.startswith("cli.")]
    n = calls("cli.main")
    out["cli.main.calls"] = n
    out["cli.main.self_ms_per_call"] = _ratio(total(*cli_names, self_time=True), n * 1e6)
    out["trace.spans"] = int(dur.size)
    return out
