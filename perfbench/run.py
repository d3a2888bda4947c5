"""conegate benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gate-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Every workload runs in a fresh
single-threaded interpreter (worker.py) that imports conegate from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
a separate traced run reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Everything the run writes stays under ``.bench_build/perfbench``;
the full record (environment, per-op samples, digests) goes to
``.bench_build/perfbench/results``. See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gate-verify", "cone-sweep", "evolve-trajectory")
SETUP_SAMPLES = 5  # set-up-only interpreters per run, after one discarded warm-up
TIME_LIMIT_S = 170  # the whole run, children included

# the name each workload's generic end-to-end metrics carry in the printout
WORKLOAD_NAMES = {
    "gate-verify": {"best_op_p50_ms": "gate_latency_p50_ms",
                    "best_ops_per_s": "gates_per_s",
                    "best_work_per_s": "integrator_steps_per_s"},
    "cone-sweep": {"best_op_p50_ms": "sweep_call_p50_ms",
                   "best_ops_per_s": "sweep_calls_per_s",
                   "best_work_per_s": "sweep_points_per_s"},
    "evolve-trajectory": {"best_op_p50_ms": "evolve_latency_p50_ms",
                          "best_ops_per_s": "evolve_ops_per_s",
                          "best_work_per_s": "trajectory_rows_per_s",
                          "best_integrator_steps_per_s": "integrator_steps_per_s"},
}

DIRECTION = {"setup_s": "lower", "peak_rss_mb": "lower", "best_op_p50_ms": "lower",
             "best_work_per_s": "higher", "best_ops_per_s": "higher",
             "best_integrator_steps_per_s": "higher", "op_latency_p50_ms": "lower",
             "op_latency_p90_ms": "lower", "failed_frac": "lower"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, run_dir: Path, deadline: float, tag: str,
          flags: tuple = ()) -> tuple[float, Path, Path]:
    """Run worker.py to completion. Returns (set-up seconds from spawn to the
    worker's ready line, result file, stderr file)."""
    result = run_dir / f"{tag}.json"
    err_path = run_dir / f"{tag}.stderr"
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--result", str(result)]
    with open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env(), cwd=run_dir)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        sys.stderr.write(err_path.read_text()[-4000:])
        raise BenchError(f"worker ({mode}) failed with exit code {code}")
    return setup_s, result, err_path


def import_times(stderr_text: str) -> dict:
    """Cumulative seconds of ``import conegate`` and of the outermost scipy
    imports, from ``-X importtime`` output."""
    entries = []
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(2)), len(m.group(3)) // 2, m.group(4)))
    conegate_us = scipy_us = 0
    stack: list[str] = []  # names of the enclosing imports, outermost first
    for cumulative, level, name in reversed(entries):  # parents come first
        del stack[level:]
        if name == "conegate" and level == 0:
            conegate_us = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s == "scipy" or s.startswith("scipy.") for s in stack):
            scipy_us += cumulative
        stack.append(name)
    return {"setup.import_conegate_s": conegate_us / 1e6, "setup.import_scipy_s": scipy_us / 1e6}


def best_batch(ops) -> list[dict]:
    """One batch in which every operation takes the fastest time its kind
    reached in the run.

    The host's CPU speed swings by up to half for seconds to minutes at a
    time, and thread CPU time swings with it, so a median over one run moves
    with the host. The fastest repetition of each kind is the one the host disturbed
    least. Every batch has the same kinds, so this batch is a real batch.
    """
    batch = min(op["batch"] for op in ops)
    best: dict[str, float] = {}
    for op in ops:
        best[op["kind"]] = min(best.get(op["kind"], op["seconds"]), op["seconds"])
    return [dict(op, seconds=best[op["kind"]]) for op in ops if op["batch"] == batch]


def rate(ops, key: str | None) -> float:
    return sum(op[key] if key else 1 for op in ops) / sum(op["seconds"] for op in ops)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timed_run(args, run_dir: Path, deadline: float) -> dict:
    spawn(args, "setup", run_dir, deadline, "warmup")  # fills bytecode and file caches
    setups = [spawn(args, "setup", run_dir, deadline, f"setup{k}")[0]
              for k in range(SETUP_SAMPLES)]
    setup_s, result_path, _ = spawn(args, "run", run_dir, deadline, "run")
    setups.append(setup_s)
    res = json.loads(result_path.read_text())
    ops = res["ops"]
    best = best_batch(ops)
    reps = len(ops) // len(best)  # batches run: every kind repeated at least this often
    latencies = [op["seconds"] * 1e3 for op in ops]
    failed = sum(op["problem"] is not None for op in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (res["peak_rss_kb"] * 1024 / 1e6, "MB", 1),
        "best_op_p50_ms": (statistics.median(op["seconds"] * 1e3 for op in best), "ms", reps),
        "best_work_per_s": (rate(best, "work"), "1/s", reps),
    }
    extra = {
        "best_ops_per_s": (rate(best, None), "1/s", reps),
        "op_latency_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "op_latency_p90_ms": (percentile(latencies, 0.9), "ms", len(latencies)),
        "failed_frac": (failed / len(ops), "ratio", len(ops)),
    }
    if args.workload == "evolve-trajectory":
        extra["best_integrator_steps_per_s"] = (rate(best, "steps"), "1/s", reps)
    return {"res": res, "metrics": metrics, "extra": extra, "ops": ops,
            "setup_samples": setups}


def trace_run(args, run_dir: Path, deadline: float) -> dict:
    _, result_path, err_path = spawn(args, "trace", run_dir, deadline, "trace",
                                     flags=("-X", "importtime"))
    res = json.loads(result_path.read_text())
    stderr_text = err_path.read_text()
    layers = dict(res["layers"])
    layers.update(import_times(stderr_text))
    return {"res": res, "layers": layers, "ops": res["ops"]}


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "conegate" / "__init__.py").is_file():
        print(f"error: no conegate sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".bench_build" / "perfbench"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    try:
        run = (trace_run if args.trace else timed_run)(args, run_dir, deadline)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans = run["res"].get("spans_file")
        if spans:
            kept = out_dir / "results" / f"{tag}-spans.npz"
            shutil.move(spans, kept)
            run["res"]["spans_file"] = str(kept.relative_to(ROOT))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = run["ops"]
    failed = sum(op["problem"] is not None for op in ops)
    correct = failed == 0 and run["res"].get("traced_digest_matches", True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "env": run["res"]["env"],
        "digest": run["res"]["digest"], "correct": correct,
        "attempted": len(ops), "failed": failed,
        "problems": sorted({op["problem"] for op in ops if op["problem"]}),
    }
    print(f"conegate benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    if args.trace:
        layers = run["layers"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        record.update(layers=layers, trace_batches=run["res"]["trace_batches"],
                      spans_file=run["res"]["spans_file"])
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    else:
        names = WORKLOAD_NAMES[args.workload]
        rows = {**run["metrics"], **run["extra"]}
        metrics = {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        record.update(metrics=rows, setup_samples=run["setup_samples"], ops=ops)
        for name, (value, unit, n) in rows.items():
            label = names.get(name, name)
            alias = "" if label == name else f"  (json: {name})"
            print(f"  {label:<26} {value:>16.6g} {unit:<6} {DIRECTION[name]:<7} n={n}{alias}")
    print(f"  attempted={len(ops)} failed={failed} digest={record['digest']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
