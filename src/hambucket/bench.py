"""Timing harness: bucketing solver vs. the full quadratic scan.

One record per (gamma, trial).  The solver is timed in its time-to-solution
mode (stop at the first verified match) unless told otherwise; the baseline
always scans everything, since that is the cost it genuinely has.  Records
are deterministic given the base seed, timings of course are not.

Trials run in parallel across processes when CP_THREADS allows; each trial
is self-contained (generate, scan, solve), so ordering and seeds do not
depend on the worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .analysis import DistributionModel, choose_params
from .bitvec import derive_seed, make_rng
from .generator import gen_instance
from .solver import Strategy, naive_count, round_nearest, solve

CSV_HEADER = "d,n,gamma,strategy,depth,branching,threshold,trial,seed,solver_ns,naive_ns,found,pairs"


@dataclass(frozen=True)
class BenchRecord:
    d: int
    n: int
    gamma: float
    strategy: str
    depth: int
    branching: int
    threshold: int
    trial: int
    seed: int
    solver_ns: int
    naive_ns: int
    found: bool
    pairs: int


def emit_csv(records) -> str:
    """Render records as CSV with the fixed header, one line per record."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.d},{r.n},{r.gamma:g},{r.strategy},{r.depth},{r.branching},{r.threshold},"
            f"{r.trial},{r.seed},{r.solver_ns},{r.naive_ns},"
            f"{str(r.found).lower()},{r.pairs}"
        )
    return "\n".join(lines) + "\n"


def _run_trial(task) -> BenchRecord:
    (d, n, gamma, gamma_idx, trial, base_seed, model_token, params) = task
    inst_seed = derive_seed(base_seed, gamma_idx, trial, 0)
    solve_seed = derive_seed(base_seed, gamma_idx, trial, 1)
    model = DistributionModel.from_token(model_token)
    gamma_count = round_nearest(gamma * d)
    inst = gen_instance(d, n, gamma_count, model, inst_seed)

    t0 = time.perf_counter_ns()
    naive_count(inst)
    naive_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    report = solve(inst, params, make_rng(solve_seed))
    solver_ns = time.perf_counter_ns() - t0

    return BenchRecord(
        d=d,
        n=n,
        gamma=gamma,
        strategy=params.strategy.token(),
        depth=params.depth,
        branching=params.branching,
        threshold=params.naive_threshold,
        trial=trial,
        seed=inst_seed,
        solver_ns=solver_ns,
        naive_ns=naive_ns,
        found=bool(report.planted_found),
        pairs=len(report.matches),
    )


def worker_count() -> int:
    """Parallelism from CP_THREADS, defaulting to the CPU count."""
    env = os.environ.get("CP_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"CP_THREADS must be a positive integer, got {env!r}")
    return int(env)


def run_bench(
    d: int,
    n: int,
    gammas,
    model: DistributionModel,
    trials: int,
    strategy: Strategy,
    base_seed: int,
    *,
    stop_on_first: bool = True,
    workers: int | None = None,
    **overrides,
) -> list[BenchRecord]:
    """One record per (gamma, trial), ordered by gamma then trial.

    The parameters are chosen once per gamma, before any trial runs, so a
    bad tuning flag is refused before instances are generated and scanned.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    params = [
        choose_params(d, math.log2(n) / d, float(g), strategy=strategy,
                      stop_on_first=stop_on_first, **overrides)
        for g in gammas
    ]
    tasks = [
        (d, n, float(g), gi, t, base_seed, model.token(), params[gi])
        for gi, g in enumerate(gammas)
        for t in range(trials)
    ]
    count = worker_count() if workers is None else workers
    if count <= 1 or len(tasks) <= 1:
        return [_run_trial(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(count, len(tasks))) as pool:
        return list(pool.map(_run_trial, tasks))
