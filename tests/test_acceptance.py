"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS/FAIL line (run with -s to stream them) and
asserts the same condition, so the suite fails loudly if any guarantee slips.
The heavy solver checks keep to fixed seeds; total runtime is a few minutes.
"""

import itertools
import math
import statistics
import time

import numpy as np

from hambucket.analysis import (
    DistributionModel,
    binary_entropy,
    choose_params,
    delta_gamma_star,
    inverse_entropy,
    theta_distribution,
    theta_uniform,
    verify_survival_counts,
)
from hambucket.bitvec import derive_seed, make_rng
from hambucket.generator import gen_instance
from hambucket.solver import (
    AT_MOST,
    EXACT,
    SolverParams,
    deviation,
    naive_count,
    naive_search,
    solve,
)
from oracle import strategy_survival_count, survival_rate_probe

UNIFORM = DistributionModel.uniform()


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_counts_match_enumeration():
    t0 = time.perf_counter()
    cases, mismatches = verify_survival_counts(14)
    elapsed = time.perf_counter() - t0
    # every k in [2, 14], every delta_count in [0, k], every even
    # gamma_count in [0, k]: sum of (k+1) * (k//2 + 1) = 649 triples,
    # each comparing the survival table's p and q against enumeration
    # for exact, dev:1 and atmost
    ok = not mismatches and cases == 649 and elapsed < 60
    _report(1, "count oracle", ok,
            f"{cases} cases, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_2_exponent_identities():
    worst_zero = max(abs(theta_uniform(l, 0.0).theta - l)
                     for l in np.linspace(0.02, 1.0, 50))
    worst_half = max(abs(theta_uniform(l, 0.5).theta - 2 * l)
                     for l in np.linspace(0.02, 1.0, 50))
    worst_seam = 0.0
    for l in np.linspace(0.05, 0.95, 25):
        ds, gs = delta_gamma_star(l)
        below = (1 - gs) * (1 - binary_entropy((ds - gs / 2) / (1 - gs)))
        above = 2 * l + binary_entropy(gs) - 1
        worst_seam = max(worst_seam, abs(below - above))
    worst_slope = max(
        abs(theta_uniform(1e-4, g).theta / 1e-4 - 1 / (1 - g)) / (1 / (1 - g))
        for g in (0.1, 0.25, 0.4)
    )
    ok = worst_zero < 1e-12 and worst_half < 1e-12 and worst_seam < 1e-9 and worst_slope < 0.01
    _report(2, "exponent identities", ok,
            f"gamma=0 err {worst_zero:.1e}, gamma=1/2 err {worst_half:.1e}, "
            f"seam err {worst_seam:.1e}, small-lambda slope err {worst_slope:.2%}")


def test_criterion_3_maximal_gamma_anchors():
    anchors = ((0.25, 0.429), (0.5, 0.22), (1 / 1.2, 0.049))
    worst = max(abs(2 * inverse_entropy(1 - lam) - want) for lam, want in anchors)
    _report(3, "maximal gamma anchors", worst < 2e-3, f"worst err {worst:.2e}")


def test_criterion_4_distribution_consistency():
    worst_u = 0.0
    for lam in np.linspace(0.05, 0.95, 20):
        for gam in np.linspace(0.0, 0.5, 20):
            diff = abs(theta_distribution(float(lam), float(gam), UNIFORM).theta
                       - theta_uniform(float(lam), float(gam)).theta)
            worst_u = max(worst_u, diff)

    fw_half = DistributionModel("fixed", 0.5)
    worst_h = max(
        abs(theta_distribution(l, g, fw_half).theta - theta_uniform(l, g).theta)
        for l in (0.1, 0.3, 0.5, 0.7, 0.9)
        for g in (0.0, 0.15, 0.3, 0.45, 0.5)
    )

    lam = 0.1
    fw3 = DistributionModel("fixed", 0.3)
    gammas = [i / 64 for i in range(33)]
    reach_u = next(g for g in gammas
                   if theta_uniform(lam, g).theta >= 2 * lam - 1e-9)
    reach_f = next(g for g in gammas
                   if theta_distribution(lam, g, fw3).theta >= 2 * lam - 1e-9)

    sparse = theta_distribution(0.1, 0.0, DistributionModel("fixed", 0.1)).theta

    ok = worst_u < 1e-9 and worst_h < 1e-9 and reach_f < reach_u and sparse > 0.1
    _report(4, "distribution analysis", ok,
            f"uniform grid err {worst_u:.2e}, fixed(0.5) err {worst_h:.2e}, "
            f"2-lambda reach {reach_f:.3f} < {reach_u:.3f}, "
            f"fixed(0.1) theta(0) {sparse:.4f} > 0.1")


def test_criterion_5_planted_recovery():
    d, n, trials = 64, 1024, 200
    lam = math.log2(n) / d
    t0 = time.perf_counter()
    rates, verified = [], True
    for gi, gc in enumerate((4, 8, 16)):
        params = choose_params(d, lam, gc / d, strategy=deviation(1))
        hits = 0
        for t in range(trials):
            inst = gen_instance(d, n, gc, UNIFORM, seed=derive_seed(5, gi, t, 0))
            rep = solve(inst, params, make_rng(derive_seed(5, gi, t, 1)))
            hits += bool(rep.planted_found)
            verified &= all(m.dist == gc for m in rep.matches)
        rates.append(hits / trials)
    elapsed = time.perf_counter() - t0
    ok = all(r >= 0.95 for r in rates) and verified and elapsed < 300
    _report(5, "planted recovery", ok,
            f"rates {[f'{r:.3f}' for r in rates]} over {trials} trials each, "
            f"all distances verified {verified}, {elapsed:.0f}s")


def test_criterion_6_survival_probe():
    rng = make_rng(606)
    checked = 0
    worst_sigmas = 0.0
    trials = 10_000
    while checked < 10:
        k = int(rng.integers(10, 21))
        g = 2 * int(rng.integers(1, k // 4 + 1))
        dc = int(rng.integers(g // 2, k - g // 2 + 1))
        q = strategy_survival_count(k, g, dc, EXACT) / 2.0**k
        if not 0.001 <= q <= 0.5:
            continue
        inst = gen_instance(k, 2, g, UNIFORM, seed=derive_seed(6, checked, 0))
        params = SolverParams(depth=1, branching=1, permutations=1, delta=dc / k,
                              strategy=EXACT, naive_threshold=0, stop_on_first=False)
        rate = survival_rate_probe(inst, params, make_rng(derive_seed(6, checked, 1)), trials)
        sigma = math.sqrt(q * (1 - q) / trials)
        worst_sigmas = max(worst_sigmas, abs(rate - q) / sigma)
        checked += 1
    _report(6, "survival probe", worst_sigmas <= 3.0,
            f"{checked} configs, worst deviation {worst_sigmas:.2f} sigma")


def test_criterion_7_faster_than_naive():
    d, n, gc, trials = 64, 1 << 15, 8, 20
    lam = math.log2(n) / d
    insts = [gen_instance(d, n, gc, UNIFORM, seed=derive_seed(7, t)) for t in range(trials)]
    naive_times = []
    for inst in insts:
        t0 = time.perf_counter()
        naive_count(inst)
        naive_times.append(time.perf_counter() - t0)
    medians = {}
    for strat in (EXACT, deviation(1), AT_MOST):
        params = choose_params(d, lam, gc / d, strategy=strat, stop_on_first=True)
        times = []
        for t, inst in enumerate(insts):
            t0 = time.perf_counter()
            solve(inst, params, make_rng(derive_seed(7, t, 1)))
            times.append(time.perf_counter() - t0)
        medians[strat.token()] = statistics.median(times)
    med_naive = statistics.median(naive_times)
    best = min(medians, key=medians.get)
    ratio = medians[best] / med_naive
    _report(7, "performance ordering", ratio <= 0.5,
            f"best strategy {best} median {medians[best]:.2f}s vs naive "
            f"{med_naive:.2f}s, ratio {ratio:.3f}")


def test_criterion_8_determinism_and_soundness():
    d, n, gc = 32, 256, 6
    # naive_threshold=128 keeps the tree this was checked on: at the default
    # threshold of max(32, branching) the 256-row root is one scan
    params = choose_params(d, math.log2(n) / d, gc / d, strategy=deviation(1), naive_threshold=128)
    deterministic = sound = True
    for t in range(100):
        inst = gen_instance(d, n, gc, UNIFORM, seed=derive_seed(8, t, 0))
        rng_seed = derive_seed(8, t, 1)
        a = solve(inst, params, make_rng(rng_seed))
        b = solve(inst, params, make_rng(rng_seed))
        deterministic &= a.matches == b.matches
        naive = {(m.i, m.j) for m in naive_search(inst)}
        sound &= {(m.i, m.j) for m in a.matches} <= naive
    _report(8, "determinism and soundness", deterministic and sound,
            f"100 instances, identical reruns {deterministic}, subset of naive {sound}")


def test_criterion_9_fewer_operations_than_naive():
    """Row pairs scanned plus block weights computed, per success, stay below n^2 / 4.

    Each instance is solved with solve seeds 0, 1, ... until the planted
    pair is found, so the totals are one success's operations, failed calls
    included.  The counts are deterministic on these fixed seeds.
    """
    d, gc = 128, 8
    t0 = time.perf_counter()
    ratios = {}
    for log_n in (15, 16, 17):
        n = 1 << log_n
        params = choose_params(d, log_n / d, gc / d, strategy=deviation(1), stop_on_first=True)
        for seed in range(3):
            inst = gen_instance(d, n, gc, UNIFORM, seed=seed)
            ops = 0
            for t in itertools.count():
                rep = solve(inst, params, make_rng(t))
                ops += rep.naive_comparisons + rep.weighed
                if rep.planted_found:
                    break
            ratios.setdefault(log_n, []).append(ops / n**2)
    elapsed = time.perf_counter() - t0
    _report(9, "operations per success", all(r < 0.25 for rs in ratios.values() for r in rs),
            "; ".join(f"n=2^{k}: {', '.join(f'{r:.3f}' for r in rs)} n^2" for k, rs in ratios.items())
            + f" (bound 0.25 n^2), {elapsed:.0f}s")
