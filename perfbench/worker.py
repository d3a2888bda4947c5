"""One workload in a fresh single-threaded interpreter.

Started by run.py with ``src`` on PYTHONPATH and one BLAS/OpenMP thread. It
imports conegate, generates the seeded inputs, prints ``ready`` (run.py takes
set-up time from spawn to that line), then, by ``--mode``:

  setup  exits at once;
  run    drives the closed loop, untraced, for ``--seconds``;
  trace  runs every operation of a fixed number of batches untraced and
         traced, then batch 0 with tracemalloc around ``integrate``.

It writes one JSON result file for run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time

# conegate first, so -X importtime charges numpy and scipy to its import
import conegate
import conegate.cli  # noqa: F401  (binds the cli module for the tracer)
import workloads
from tracer import Tracer, layer_metrics

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_op(op, op_id: int, batch: int, tracer: Tracer | None = None) -> dict:
    """Time one operation, then check its result outside the timed region.
    The CLI text is kept for batch 0 only, whose digest is recorded."""
    result, problem = None, None
    if tracer is not None:
        tracer.begin_op(op_id, op.kind)
    started = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # one failed operation must not end the run
        problem = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.end_op()
    work = 0
    if problem is None:
        try:
            problem, work = op.verify(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        problem = f"{op.inputs}: {problem}"
    text = getattr(result, "text", None)
    rec = {"batch": batch, "kind": op.kind, "seconds": elapsed, "problem": problem,
           "work": work, "steps": op.steps,
           "output_bytes": len(text.encode()) if text is not None else 0,
           "text": text if batch == 0 else None}
    del result
    gc.collect()  # collect the op's garbage now, not inside the next timed call
    return rec


def run_batches(pool, batches, tracer=None, first_op=0) -> list[dict]:
    records = []
    for b in batches:
        for op in pool[b % len(pool)]:
            records.append(run_op(op, first_op + len(records), b, tracer))
    return records


def closed_loop(pool, seconds: float) -> list[dict]:
    """Whole batches, one operation at a time, until ``seconds`` have passed."""
    records, b = [], 0
    started = time.perf_counter()
    while b == 0 or time.perf_counter() - started < seconds:
        records += run_batches(pool, [b], first_op=len(records))
        b += 1
    return records


def digest(records) -> str:
    """sha256 over the CLI text of batch 0, in operation order."""
    h = hashlib.sha256()
    for rec in records:
        if rec["text"] is not None:
            h.update(rec["text"].encode())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(conegate.__file__).startswith(src + os.sep):
        print(f"conegate was imported from {conegate.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload]
    pool = workloads.make_pool(workload, args.seed)
    # the import-time heap (numpy, scipy) is permanent; leave it out of every
    # collection, so collecting between operations stays cheap
    gc.freeze()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"env": environment(args.seed)}
    if args.mode == "run":
        records = closed_loop(pool, args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        n = max(1, round(args.seconds / (4 * workload.batch_seconds)))
        # each operation runs untraced and traced back to back, alternating
        # which goes first, so neither side gets the warmer process
        plain, traced, tracer = [], [], Tracer()
        for b in range(n):
            for op in pool[b % len(pool)]:
                k = len(plain)
                for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced_turn:
                        with tracer:
                            traced.append(run_op(op, 2 * k + 1, b, tracer))
                    else:
                        plain.append(run_op(op, 2 * k, b))
        mem = Tracer(only=frozenset({"propagation.integrate"}), memory=True)
        with mem:
            memory = run_batches(pool, [0], mem, first_op=2 * len(plain))
        layers = layer_metrics(tracer, mem)
        untraced_s = sum(r["seconds"] for r in plain)
        traced_s = sum(r["seconds"] for r in traced)
        layers["cli.output_bytes"] = sum(r["output_bytes"] for r in traced)
        layers["trace.untraced_s"] = untraced_s
        layers["trace.traced_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        result["layers"] = layers
        result["trace_batches"] = n
        spans_path = os.path.splitext(args.result)[0] + "-spans.npz"
        tracer.save(spans_path)
        result["spans_file"] = spans_path
        # tracing must not change what the program prints
        result["traced_digest_matches"] = digest(traced) == digest(plain)
        records = plain + traced + memory
    result["digest"] = digest(records[: len(pool[0])])
    for rec in records:
        del rec["text"]
    result["ops"] = records
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
