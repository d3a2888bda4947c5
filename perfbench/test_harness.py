"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

They import conegate from ``src/`` in this process; run.py's own runs use
fresh interpreters instead.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import conegate.cli  # noqa: E402,F401
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def bindings():
    """Every public function binding of every conegate module."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "conegate" or name.startswith("conegate.")
        for attr, value in vars(module).items()
        if not attr.startswith("_") and callable(value)
    }


def test_one_phase_gate_is_one_integrate_call():
    op = workloads.gate_op(random.Random(0), "phase", 1000)
    tracer = Tracer()
    with tracer:
        rec = worker.run_op(op, 0, 0, tracer)
    assert rec["problem"] is None
    assert rec["work"] == 1000
    layers = layer_metrics(tracer)
    assert layers["propagation.integrate.calls"] == 1
    assert layers["propagation.integrate.steps"] == 1000
    assert layers["cli.main.calls"] == 1
    assert layers["gates.verify_gate.calls"] == 1
    assert layers["gates.verify_gate.useful_ratio"] == 1.0
    # 1000 midpoints plus integrate's one-point dimension probe
    assert layers["hamiltonians.samples"] == 1001


def test_wrappers_are_removed_after_the_traced_run():
    before = bindings()
    tracer = Tracer()
    with tracer:
        wrapped = bindings()
        assert wrapped[("conegate.sequences", "integrate")] is not before[
            ("conegate.sequences", "integrate")]
        # a function bound in several modules gets one shared wrapper
        assert wrapped[("conegate.sequences", "integrate")] is wrapped[
            ("conegate.propagation", "integrate")]
        worker.run_op(workloads.gate_op(random.Random(0), "hadamard", 1000), 0, 0, tracer)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.names = ["gates.verify_gate", "sequences.simulate_sequence", "propagation.integrate"]
    tracer.start = [0, 10, 20]
    tracer.end = [100, 90, 70]
    tracer.name = [0, 1, 2]
    tracer.parent = [-1, 0, 1]
    tracer.op = [0, 0, 0]
    tracer.extra = {2: (50, 2, 2)}
    layers = layer_metrics(tracer)
    assert layers["sequences.simulate_sequence.self_ms_per_call"] == pytest.approx(30 / 1e6)
    assert layers["propagation.integrate.d2.self_ns_per_step"] == pytest.approx(1.0)
    assert layers["gates.verify_gate.ms_per_call"] == pytest.approx(100 / 1e6)


def test_import_times_keep_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |     scipy.integrate",
        "import time:        10 |        710 |   conegate.phases",
        "import time:        20 |       1000 | conegate",
    ])
    got = run.import_times(text)
    assert got["setup.import_conegate_s"] == pytest.approx(1000e-6)
    assert got["setup.import_scipy_s"] == pytest.approx(700e-6)


def test_inputs_repeat_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, workload in workloads.WORKLOADS.items():
        first = workloads.make_pool(workload, 7)
        again = workloads.make_pool(workload, 7)
        other = workloads.make_pool(workload, 8)
        inputs = [[op.inputs for op in batch] for batch in first]
        assert inputs == [[op.inputs for op in batch] for batch in again], name
        assert inputs != [[op.inputs for op in batch] for batch in other], name
        kinds = [sorted(op.kind for op in batch) for batch in first]
        assert all(k == kinds[0] for k in kinds), name  # fixed composition


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "gate-verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
