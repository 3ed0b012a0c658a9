#!/usr/bin/env python3
"""Time-to-solution benchmark for hambucket, one workload per run.

    python3 perfbench/run.py --workload solve-d64-uniform --seed 1 --seconds 36 --trace 0

Run from the repository root.  The package is imported from ./src, in this
process, with every BLAS and pool thread count set to 1.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
Lines before it record the machine and the run's reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "CP_THREADS",
)


def single_thread() -> dict[str, str]:
    """Set every thread-count variable to 1; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    # The package runs single-threaded numpy and makes no BLAS calls; only the
    # oracle's dot-product scan does.  One thread keeps idle BLAS workers from
    # spinning on the other CPU while operations are timed.
    threads = single_thread()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from speed import SpeedScale

    speed = SpeedScale()
    t0 = time.perf_counter()
    try:
        import numpy

        import hambucket
        from hambucket import analysis, bitvec, generator, solver  # noqa: F401 - timed as set-up
    except ImportError as exc:
        print(f"error: cannot import hambucket from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = (time.perf_counter() - t0) * speed.factor()
    if src not in Path(hambucket.__file__).resolve().parents:
        print(f"error: hambucket imported from {hambucket.__file__}, not {src}", file=sys.stderr)
        return 2

    import oracle
    from spans import Tracer
    from workloads import WORKLOADS, Run

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    broken = oracle.self_check()
    if broken:
        print(f"error: oracle self-check failed: {'; '.join(broken)}", file=sys.stderr)
        return 3

    machine = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
    }
    print(json.dumps({"machine": machine}))

    tracer = Tracer() if args.trace else None
    work_dir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    try:
        run = Run(workload, args.seed, work_dir, tracer, None if tracer else speed)
        run.setup()
        measured = run.run(args.seconds)
        if tracer is not None:
            tracer.write(spans_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in run.errors:
        print(f"failed {line}", file=sys.stderr)
    summary = {"workload": workload.name, "seed": args.seed, "measured_s": measured, **run.summary()}
    if tracer is not None:
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"summary": summary}))
    try:
        metrics = run.end_to_end(import_s) if tracer is None else run.per_layer()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
