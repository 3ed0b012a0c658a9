"""Timing harness: bucketing solver vs. the full quadratic scan.

One record per (gamma, trial).  The solver is timed in its time-to-solution
mode (stop at the first verified match) unless told otherwise; the baseline
always scans everything, since that is the cost it genuinely has.  Records
are deterministic given the base seed, timings of course are not.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields

from .analysis import choose_params, list_exponent
from .bitvec import derive_seed, make_rng, round_nearest
from .generator import DistributionModel, check_size, gen_instance
from .solver import SolverParams, Strategy, naive_count, solve


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row: the field names are the header, in this order."""

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


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:g}" if isinstance(value, float) else str(value)


def emit_csv(records) -> str:
    """Render records as CSV with the fixed header, one line per record."""
    lines = [CSV_HEADER] + [",".join(map(_csv_cell, astuple(r))) for r in records]
    return "\n".join(lines) + "\n"


def _run_trial(d: int, n: int, base_seed: int, model: DistributionModel,
               gamma: float, gamma_idx: int, trial: int, params: SolverParams) -> BenchRecord:
    inst_seed = derive_seed(base_seed, gamma_idx, trial, 0)
    solve_seed = derive_seed(base_seed, gamma_idx, trial, 1)
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
    **overrides,
) -> list[BenchRecord]:
    """One record per (gamma, trial), ordered by gamma then trial, run one at a time.

    The parameters are chosen once per gamma, before any trial runs, so a
    bad tuning flag is refused before instances are generated and scanned.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    check_size(d, n, 0)  # as each trial's gen_instance would; choose_params checks the relative gammas
    lam = list_exponent(d, n)
    params = [choose_params(d, lam, float(g), strategy=strategy, stop_on_first=stop_on_first, **overrides)
              for g in gammas]
    return [_run_trial(d, n, base_seed, model, float(g), gi, t, p)
            for gi, (g, p) in enumerate(zip(gammas, params)) for t in range(trials)]
