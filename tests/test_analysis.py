import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambucket import analysis, solver
from hambucket.analysis import (
    DistributionModel,
    _lpw_arr,
    _stray_exponent,
    _survival_by_split,
    binary_entropy,
    block_survival,
    choose_params,
    delta_gamma_star,
    expected_pairs_exponent,
    inverse_entropy,
    lower_bound_exponent,
    predicted_cost,
    predicted_work,
    theta_distribution,
    theta_uniform,
    verify_survival_counts,
)
from hambucket.bitvec import block_bounds, n_words
from hambucket.generator import gen_instance
from hambucket.solver import AT_MOST, EXACT, deviation, round_nearest, solve
from oracle import bucket_accept, enumerate_survival, strategy_survival_count

UNIFORM = DistributionModel.uniform()


def pair_weight_exponent(model: DistributionModel, eta: float) -> float:
    """_lpw_arr at one relative pair distance."""
    return float(_lpw_arr(model, np.array([eta]))[0])


def test_entropy_anchor_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.11) - 0.499915958164528) < 1e-12
    assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-12


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_inverse_entropy_anchors():
    assert inverse_entropy(0.0) == 0.0
    assert inverse_entropy(1.0) == 0.5
    assert abs(inverse_entropy(0.75) - 0.2145017448598287) < 1e-9


@given(st.floats(min_value=0.0, max_value=0.5))
def test_inverse_entropy_roundtrip(x):
    assert abs(inverse_entropy(binary_entropy(x)) - x) < 1e-9


def test_rounding_helpers():
    assert round_nearest(2.5) == 3
    assert round_nearest(2.49) == 2


# --- survival tables against enumeration ----------------------------------------

RULES = (EXACT, deviation(1), AT_MOST)


def test_oracle_example_counts():
    assert enumerate_survival(8, 2, 4, EXACT) == (70, 40)
    assert strategy_survival_count(8, 2, 4, EXACT) == 40
    table = _survival_by_split(8, *EXACT.window(4), 2)
    assert table[0] * 2**8 == pytest.approx(70, rel=1e-12)
    assert table[2] * 2**8 == pytest.approx(40, rel=1e-12)


def test_odd_distance_never_survives():
    for k in (5, 9, 12):
        for dc in range(k + 1):
            assert strategy_survival_count(k, 3, dc, EXACT) == 0
            assert _survival_by_split(k, *EXACT.window(dc), 3)[3] == 0.0


@given(st.integers(2, 12), st.data())
@settings(max_examples=60)
def test_counts_match_enumeration(k, data):
    g = data.draw(st.integers(0, k // 2)) * 2
    dc = data.draw(st.integers(0, k))
    strategy = data.draw(st.sampled_from(RULES))
    p_count, q_count = enumerate_survival(k, g, dc, strategy)
    assert q_count == strategy_survival_count(k, g, dc, strategy)
    table = _survival_by_split(k, *strategy.window(dc), g)
    assert table[0] * 2**k == pytest.approx(p_count, rel=1e-9)
    assert table[g] * 2**k == pytest.approx(q_count, rel=1e-9)


def test_log_prob_examples():
    # k=64: p = C(64,16)/2^64, q = C(16,8)*C(48,8)/2^64
    assert math.log2(_survival_by_split(64, *EXACT.window(16), 0)[0]) == pytest.approx(-15.20456855785882, abs=1e-9)
    assert math.log2(block_survival(64, 16, 64, *EXACT.window(16))) == pytest.approx(-21.856951379757497, abs=1e-9)


def test_infeasible_q_is_minus_inf():
    # a pair 12 apart has weights t + m and 12 - t + m, which cannot both be 2
    assert _survival_by_split(32, *EXACT.window(2), 12)[12] == 0.0
    with np.errstate(divide="ignore"):
        assert np.log2(block_survival(32, 12, 32, *EXACT.window(2))) == -math.inf


@given(st.integers(4, 64), st.data())
def test_survival_never_beats_bucket(k, data):
    """q <= p: a pair that survives a z has its first row taken by that z's bucket."""
    g = data.draw(st.integers(0, k))
    dc = data.draw(st.integers(0, k))
    table = _survival_by_split(k, *data.draw(st.sampled_from(RULES)).window(dc), g)
    assert table[g] <= table[0] * (1 + 1e-12)


def test_strategy_survival_exact_matches_closed_form():
    """Under exact both weights are dc: g/2 of the differences flip each way, dc - g/2 of the rest."""
    for k in (6, 11, 16):
        for g in range(0, k + 1, 2):
            for dc in range(k + 1):
                a = dc - g // 2
                closed = math.comb(g, g // 2) * math.comb(k - g, a) if 0 <= a <= k - g else 0
                assert strategy_survival_count(k, g, dc, EXACT) == closed


@pytest.mark.parametrize("entry", ["p", "q"])
def test_verify_reports_a_perturbed_table_entry(monkeypatch, entry):
    """verify_survival_counts is not vacuous: a relative 1e-6 in one table entry is a mismatch."""
    k, g, m, strategy = 9, 4, 3, deviation(1)
    index = 0 if entry == "p" else g
    real = analysis._survival_by_split

    def perturbed(width, lo, hi, gmax):
        table = real(width, lo, hi, gmax)
        if (width, lo, hi) == (k, *strategy.window(m)):
            table = table.copy()
            table[index] *= 1 + 1e-6
        return table

    assert verify_survival_counts(10) == (268, [])
    monkeypatch.setattr(analysis, "_survival_by_split", perturbed)
    cases, mismatches = verify_survival_counts(10)
    assert cases == 268
    assert f"{entry} mismatch at k={k} g={g} m={m} dev:1: " in "\n".join(mismatches)
    # every mismatch names the perturbed block and rule; p is also q at g = 0
    want = {f"k={k} g={h} m={m} dev:1" for h in (range(0, k + 1, 2) if entry == "p" else [g])}
    assert {line.split(" at ")[1].split(": table")[0] for line in mismatches} == want


def test_strategy_survival_widening():
    """Wider acceptance rules can only keep more z vectors."""
    k, g, dc = 16, 4, 5
    exact = strategy_survival_count(k, g, dc, EXACT)
    dev = strategy_survival_count(k, g, dc, deviation(1))
    assert exact <= dev
    assert strategy_survival_count(k, g, k, AT_MOST) == 2**k


def test_strategy_survival_odd_distance():
    # an exact rule cannot hold both weights of an odd-distance pair,
    # but a window of width >= 1 can
    assert strategy_survival_count(12, 3, 4, EXACT) == 0
    assert strategy_survival_count(12, 3, 4, deviation(1)) > 0


def _enumerated_block_survival(d, gamma_count, start, stop, delta_count, strategy):
    """Share of (error pattern, z) pairs that keep x = 0 and y = e in the block [start, stop), by enumeration."""
    width = stop - start
    kept = total = 0
    for support in itertools.combinations(range(d), gamma_count):
        e = sum(1 << (c - start) for c in support if start <= c < stop)
        for z in range(1 << width):
            total += 1
            kept += (bucket_accept(bin(z).count("1"), delta_count, strategy)
                     and bucket_accept(bin(z ^ e).count("1"), delta_count, strategy))
    return kept / total


@pytest.mark.parametrize("d, r", [(8, 2), (9, 2), (10, 3)])
def test_block_survival_matches_enumeration(d, r):
    """Exact per-block survival against every error pattern and every z.

    (8, 2) has blocks of 4; (9, 2) and (10, 3) have a last block wider than
    the others.  The planted difference splits over the blocks, so no
    single per-block distance reproduces it.
    """
    blocks = block_bounds(d, r)
    for i in (0, r - 1):
        start, stop = blocks[i]
        width = stop - start
        for gamma_count in (1, 2, 3):
            for strategy in (EXACT, deviation(1), AT_MOST):
                for dc in range(width + 1):
                    want = _enumerated_block_survival(d, gamma_count, start, stop, dc, strategy)
                    got = block_survival(d, gamma_count, width, *strategy.window(dc))
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (d, r, i, gamma_count, strategy, dc)


def test_block_survival_of_the_whole_vector_matches_count():
    """A block holding every coordinate holds all gamma_count differences: no split to average."""
    for k in (5, 12, 16):
        for g in range(k + 1):
            for strategy in (EXACT, deviation(1), deviation(2), AT_MOST):
                for dc in range(k + 1):
                    want = strategy_survival_count(k, g, dc, strategy) / 2**k
                    assert block_survival(k, g, k, *strategy.window(dc)) == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_block_survival_odd_split_under_exact():
    # one block holding every coordinate sees all 3 differences: an odd split
    for dc in range(9):
        assert block_survival(8, 3, 8, *EXACT.window(dc)) == 0.0
    assert block_survival(8, 3, 8, *deviation(1).window(2)) > 0.0
    # with two blocks some splits are even, and those pass
    assert block_survival(8, 3, 4, *EXACT.window(1)) > 0.0


# --- exponents ----------------------------------------------------------------


def test_delta_gamma_star_half():
    ds, gs = delta_gamma_star(0.5)
    assert ds == pytest.approx(0.11002786443835955, abs=1e-9)
    assert gs == pytest.approx(0.19584346697098703, abs=1e-9)


def test_theta_uniform_anchor_points():
    assert theta_uniform(0.25, 0.0).theta == pytest.approx(0.25, abs=1e-12)
    assert theta_uniform(0.3, 0.5).theta == pytest.approx(0.6, abs=1e-12)
    ds, gs = delta_gamma_star(0.25)
    r = theta_uniform(0.25, 0.25)
    assert r.theta == pytest.approx(0.3544138347780994, abs=1e-9)
    assert 0.25 <= gs and r.delta == ds  # below gamma_star the radius is delta_star
    r = theta_uniform(0.25, 0.4)
    assert r.theta == pytest.approx(0.4709505944546686, abs=1e-9)
    assert 0.4 > gs


@given(st.floats(0.01, 1.0))
@settings(max_examples=30)
def test_theta_uniform_monotone_in_gamma(lam):
    grid = [i / 400 for i in range(201)]
    vals = [theta_uniform(lam, g).theta for g in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    assert all(v <= 2 * lam + 1e-12 for v in vals)


def test_expected_pairs_exponent():
    assert expected_pairs_exponent(0.25, 0.25) == pytest.approx(0.31127812445913294, abs=1e-9)
    assert expected_pairs_exponent(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert expected_pairs_exponent(0.2, 0.0) == 0.0


def test_lower_bound_exponent():
    assert lower_bound_exponent(0.25, 0.4) == pytest.approx(0.4709505944546686, abs=1e-9)
    # list-traversal term dominates when pairs are scarce
    assert lower_bound_exponent(0.1, 0.2) == pytest.approx(0.125, abs=1e-12)


# --- weight-distribution models -----------------------------------------------


def test_model_tokens_roundtrip():
    for m in (
        DistributionModel.uniform(),
        DistributionModel("fixed", 0.3),
        DistributionModel("bernoulli", 0.2),
        DistributionModel("poisson", 0.25),
    ):
        assert DistributionModel.from_token(m.token()) == m


def test_model_validation():
    with pytest.raises(ValueError):
        DistributionModel("fixed", 1.5)
    with pytest.raises(ValueError):
        DistributionModel("nonsense")
    with pytest.raises(ValueError):
        DistributionModel.from_token("fixed")  # missing parameter


def test_pair_weight_prob_uniform():
    assert pair_weight_exponent(UNIFORM, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert pair_weight_exponent(UNIFORM, 0.25) == pytest.approx(
        binary_entropy(0.25) - 1.0, abs=1e-12
    )


@given(st.floats(0.0, 1.0))
def test_bernoulli_half_equals_uniform(eta):
    b = pair_weight_exponent(DistributionModel("bernoulli", 0.5), eta)
    u = pair_weight_exponent(UNIFORM, eta)
    assert b == pytest.approx(u, abs=1e-12)


def test_fixed_weight_mode_and_support():
    m = DistributionModel("fixed", 0.3)
    # most likely distance between two weight-0.3 vectors: eta = 2f(1-f) = 0.42
    assert pair_weight_exponent(m, 0.42) == pytest.approx(0.0, abs=1e-12)
    assert pair_weight_exponent(m, 0.2) < 0.0
    assert pair_weight_exponent(m, 0.7) == -math.inf  # beyond 2*min(f, 1-f)


def test_fixed_weight_matches_finite_combinatorics():
    """The rate formula is the d -> inf limit of a hypergeometric count."""
    d, f, eta = 2000, 0.3, 0.2
    w = round(f * d)
    overlap = w - round(eta * d) // 2
    exact = (
        math.log2(math.comb(w, overlap))
        + math.log2(math.comb(d - w, w - overlap))
        - math.log2(math.comb(d, w))
    ) / d
    got = pair_weight_exponent(DistributionModel("fixed", f), eta)
    assert got == pytest.approx(exact, abs=0.01)


def test_poisson_delegates_to_mean_weight():
    p = DistributionModel("poisson", 0.3)
    f = DistributionModel("fixed", 0.3)
    for eta in (0.1, 0.3, 0.42):
        assert pair_weight_exponent(p, eta) == pair_weight_exponent(f, eta)


def test_epsilon_uniform_closed_form():
    # min over eta sits at 2 delta (1 - delta), giving 2 lam - 2 (1 - H(delta))
    for lam in (0.1, 0.25, 0.6):
        for delta in (0.1, 0.3, 0.45, 0.5):
            want = 2 * lam - 2 * (1 - binary_entropy(delta))
            assert _stray_exponent(lam, np.array([delta]), UNIFORM)[0] == pytest.approx(want, abs=1e-7)


def test_theta_distribution_uniform_consistency_spot():
    for lam, gamma in ((0.2, 0.1), (0.5, 0.3), (0.8, 0.45), (0.25, 0.5), (0.01, 0.499)):
        a = theta_distribution(lam, gamma, UNIFORM).theta
        b = theta_uniform(lam, gamma).theta
        assert a == pytest.approx(b, abs=1e-9)


def test_theta_distribution_sparse_model_penalty():
    # lists concentrated on low-weight vectors leave no room to hide:
    # even at gamma = 0 the exponent exceeds the list rate
    r = theta_distribution(0.1, 0.0, DistributionModel("fixed", 0.1))
    assert r.theta > 0.1 + 0.01


@pytest.mark.parametrize("token, lam, gamma, want", [
    ("fixed:0.1", 0.1, 0.0, 0.16130031296),
    ("fixed:0.1", 0.5, 0.1, 0.90959349265),
    ("fixed:0.1", 0.1, 0.3, 0.2),
    ("fixed:0.3", 0.1, 0.25, 0.15584172976),
    ("fixed:0.3", 0.5, 0.2, 0.80836879599),
    ("fixed:0.3", 0.5, 0.4, 0.99838294200),
    ("bernoulli:0.1", 0.1, 0.05, 0.17282126672),
    ("bernoulli:0.1", 0.5, 0.0, 0.79713490023),
    ("bernoulli:0.4", 0.1, 0.4, 0.18217631063),
    ("bernoulli:0.4", 0.5, 0.3, 0.90323126237),
    ("poisson:0.2", 0.1, 0.2, 0.16965847131),
    ("poisson:0.2", 0.5, 0.25, 0.96916869080),
    ("poisson:0.2", 0.5, 0.5, 1.0),
])
def test_theta_distribution_weighted_values(token, lam, gamma, want):
    """Weighted-model values as computed by the earlier search (a 1000-point
    delta grid refined by golden section); theta stays in [0, 2 lambda]."""
    r = theta_distribution(lam, gamma, DistributionModel.from_token(token))
    assert r.theta == pytest.approx(want, abs=1e-6)
    assert 0.0 <= r.theta <= 2 * lam + 1e-12
    assert gamma / 2 <= r.delta <= 0.5


# --- parameter selection ------------------------------------------------------


def model_cost(d, lam, gamma, params):
    """predicted_cost at the integer sizes choose_params prices (lam, gamma) with."""
    return predicted_cost(d, round(2.0 ** (lam * d)), round_nearest(gamma * d), params)


def test_choose_params_delta_by_regime():
    p = choose_params(64, 10 / 64, 0.0)
    ds, _ = delta_gamma_star(10 / 64)
    assert p.delta == pytest.approx(ds, abs=1e-12)
    p = choose_params(64, 0.25, 0.4)
    assert p.delta == pytest.approx(0.5 * (1 - math.sqrt(1 - 0.8)), abs=1e-9)


def test_choose_params_depth_clamps():
    """The automatic depth is the argmin of predicted_cost over exactly [1, min(8, d // 4)]."""
    for d, lam, gamma, kw in [
        (64, 0.2, 0.1, {}),
        (8, 0.5, 0.1, {}),
        (1024, 0.02, 0.1, {}),
        (64, 12 / 64, 8 / 64, {"strategy": deviation(1), "stop_on_first": True}),
        (96, 0.1, 0.125, {"strategy": AT_MOST, "stop_on_first": True}),
        (128, 10 / 128, 16 / 128, {"strategy": deviation(1), "permutations": 8}),
    ]:

        def cost(r):
            try:
                params = choose_params(d, lam, gamma, depth=r, **kw)
            except ValueError:  # the radius cannot keep the pair through r blocks
                return math.inf
            return model_cost(d, lam, gamma, params)

        costs = {r: cost(r) for r in range(1, min(8, d // 4) + 1)}
        assert choose_params(d, lam, gamma, **kw).depth == min(costs, key=costs.get)


@pytest.mark.parametrize("d, lam, gamma, kw", [
    (8, 0.5, 1 / 8, {}),
    (8, 0.5, 1 / 8, {"strategy": deviation(1), "stop_on_first": True}),
    (64, 0.0, 8 / 64, {"strategy": deviation(1), "stop_on_first": True}),
    (64, 5 / 64, 8 / 64, {}),
    (64, 8 / 64, 8 / 64, {"naive_threshold": 256, "stop_on_first": True}),
])
def test_root_leaf_costs_the_same_at_every_depth(d, lam, gamma, kw):
    """A root of at most naive_threshold rows is scanned once whatever the depth, so every depth ties."""
    costs = [model_cost(d, lam, gamma, choose_params(d, lam, gamma, depth=r, **kw))
             for r in range(1, min(8, d // 4) + 1)]
    assert math.isfinite(costs[0])
    assert costs == [costs[0]] * len(costs)
    assert choose_params(d, lam, gamma, **kw).depth == 1


def test_choose_params_depth_range_bounds(monkeypatch):
    """Whatever the costs, the candidates are depths 1 to min(8, d // 4), and 1 when d < 4."""
    seen = []

    def deepest_is_cheapest(d, n, gamma_count, params):
        seen.append(params.depth)
        return -params.depth

    monkeypatch.setattr(analysis, "predicted_cost", deepest_is_cheapest)
    for d, top in [(1, 1), (3, 1), (7, 1), (8, 2), (31, 7), (32, 8), (1024, 8)]:
        seen.clear()
        assert choose_params(d, 0.3, 0.0).depth == top
        assert sorted(seen) == list(range(1, top + 1))


# Median milliseconds per repeat-until-found search by depth (dev:1,
# stop_on_first, uniform rows), measured with the d / log2(d)^2 depth rule's
# solver on a 2-vCPU VM: (d, log2 n, gamma d) -> {depth: ms}.  Row (64, 9, 8)
# was measured again with the max(32, branching) threshold over 32 instances
# x 2 searches per depth: depth 1 is the 512-row root scanned, and depths 2
# and 3 walk trees at a threshold of 256, since at 512 they scan it too.
MEASURED_DEPTH_GRID = {
    (64, 9, 8): {1: 0.87, 2: 1.68, 3: 2.28},
    (64, 10, 8): {2: 2.19, 3: 3.73},
    (64, 12, 8): {2: 11.8, 3: 7.3, 4: 9.1},
    (64, 13, 8): {2: 40.4, 3: 16.7, 4: 491},
    (96, 11, 12): {2: 5.84, 3: 8.18, 4: 7.05},
    (128, 10, 16): {2: 3.11, 3: 2.78},
    (128, 12, 16): {2: 17.2, 3: 15.2, 4: 14.0},
}


@pytest.mark.parametrize("config", sorted(MEASURED_DEPTH_GRID))
def test_choose_params_depth_against_measured_grid(config):
    """The model's depth is within 1.3x of the fastest measured depth."""
    d, log_n, gamma_count = config
    ms = MEASURED_DEPTH_GRID[config]
    acceptable = {r for r, t in ms.items() if t <= 1.3 * min(ms.values())}
    params = choose_params(d, log_n / d, gamma_count / d, strategy=deviation(1), stop_on_first=True)
    assert params.depth in acceptable


@pytest.mark.parametrize("d, log_n, gamma_count, depth, delta", [
    (64, 12, 8, 3, 0.2507723646431871),  # solve-d64-uniform
    (128, 10, 16, 3, 0.3369549996940838),  # solve-d128-fixed
    (64, 9, 8, 1, 0.28290206059286704),  # exponent-sweep: the root is one leaf
])
def test_benchmark_walks_are_pinned(d, log_n, gamma_count, depth, delta):
    """The parameters perfbench's searches run with, so a cost-model edit cannot move them unseen."""
    params = choose_params(d, log_n / d, gamma_count / d, strategy=deviation(1), stop_on_first=True)
    assert params == dataclasses.replace(params, depth=depth, branching=512, permutations=4,
                                         strategy=deviation(1), naive_threshold=512, stop_on_first=True)
    assert params.delta == pytest.approx(delta, rel=1e-12)


@pytest.mark.parametrize("d", [32, 64, 128])
@pytest.mark.parametrize("n", [64, 100, 512, 1024, 4096, 2**15])
def test_default_threshold_rule(d, n):
    """A bucket of at most max(32, branching) rows is scanned at every level, the root included."""
    for kw in ({}, {"strategy": deviation(1), "stop_on_first": True}):
        p = choose_params(d, math.log2(n) / d, 1 / 8, **kw)
        assert p.naive_threshold == max(32, p.branching)
        if n > 1024:  # past the branching cap of 512, and slow to solve: the root is filtered
            assert p.naive_threshold < n
            continue
        rep = solve(gen_instance(d, n, d // 8, UNIFORM, seed=n), p, np.random.default_rng(d))
        root_scanned = (rep.nodes_visited, rep.naive_comparisons) == (1, n * n)
        assert root_scanned == (n <= p.naive_threshold)


def test_leaf_root_is_priced_as_one_round():
    """Without stop_on_first a leaf root costs one scan however many rounds: solve scans it in round 0 alone."""
    d, n, gamma_count = 64, 256, 8
    one = choose_params(d, math.log2(n) / d, gamma_count / d, permutations=1)
    assert n <= one.naive_threshold and not one.stop_on_first
    four = dataclasses.replace(one, permutations=4)
    assert predicted_cost(d, n, gamma_count, four) == predicted_cost(d, n, gamma_count, one)
    # a filtered root walks every round
    filtered = dataclasses.replace(one, naive_threshold=n // 2)
    assert predicted_cost(d, n, gamma_count, filtered) != predicted_cost(
        d, n, gamma_count, dataclasses.replace(filtered, permutations=4))


@pytest.mark.parametrize("d, depth", [(70, 3), (96, 5), (128, 3), (200, 3)])
def test_model_prices_the_windows_the_walk_filters_with(monkeypatch, d, depth):
    """Level by level, solve and predicted_cost use the same block: its bit range and its window.

    Every layout has a wider last block (at d = 128 with its own window) and
    a block that crosses a 64-bit word, so a walk or a model that reads its
    blocks one level off fails.
    """
    n, gamma_count = 2**10, 16
    params = choose_params(d, math.log2(n) / d, gamma_count / d, strategy=deviation(1), depth=depth,
                           branching=8, permutations=1, naive_threshold=0)
    blocks = block_bounds(d, depth)
    assert len({stop - start for start, stop in blocks}) > 1
    want = [params.window(stop - start) for start, stop in blocks]

    walked, gathered = {}, {}  # filter level -> windows, bit ranges; level i filters block i
    accept_mask, local_rows = solver._accept_mask, solver.block_local_rows

    def record_walk(weights, lo, hi):
        walked.setdefault(sys._getframe(1).f_locals["level"], set()).add((lo, hi))
        return accept_mask(weights, lo, hi)

    def record_gather(mat, cols):
        # round 0 keeps the identity column order, so cols is the block's range
        gathered[sys._getframe(1).f_locals["level"]] = (int(cols[0]), int(cols[-1]) + 1)
        return local_rows(mat, cols)

    monkeypatch.setattr(solver, "_accept_mask", record_walk)
    monkeypatch.setattr(solver, "block_local_rows", record_gather)
    solve(gen_instance(d, n, gamma_count, UNIFORM, seed=3), params, np.random.default_rng(0))
    assert [walked[level] for level in range(params.depth)] == [{w} for w in want]
    assert [gathered[level] for level in range(params.depth)] == blocks

    priced, rests = [], []
    survival, split_probs = analysis._survival_by_split, analysis._split_probs

    def record_model(width, lo, hi, gmax):
        priced.append((lo, hi))
        return survival(width, lo, hi, gmax)

    def record_split(rest, width, gmax):
        rests.append((rest, width))
        return split_probs(rest, width, gmax)

    monkeypatch.setattr(analysis, "_survival_by_split", record_model)
    monkeypatch.setattr(analysis, "_split_probs", record_split)
    assert math.isfinite(predicted_cost.__wrapped__(d, n, gamma_count, params))
    assert priced == want
    # the model prices its levels bottom-up; a level's rest is the bits from its block on
    assert rests[::-1] == [(d - start, stop - start) for start, stop in blocks]


@pytest.mark.parametrize("d, log_n, gamma_count, kw", [
    (64, 12, 8, {"strategy": deviation(1), "stop_on_first": True}),  # solve-d64-uniform
    (128, 10, 16, {"strategy": deviation(1), "stop_on_first": True}),  # solve-d128-fixed: two-word rows
    (128, 10, 16, {"strategy": deviation(1)}),
    (96, 12, 12, {"strategy": AT_MOST, "depth": 4, "naive_threshold": 32}),
    (64, 8, 8, {"naive_threshold": 256}),  # a leaf root
])
def test_predicted_cost_is_the_work_priced(monkeypatch, d, log_n, gamma_count, kw):
    """predicted_cost is predicted_work dotted with _PRICES and nothing else.

    With the price table one unit vector, the cost is that entry of the
    work, the pair entries scaled by _WIDE_ROW for rows of several words.
    """
    n = 2**log_n
    params = choose_params(d, log_n / d, gamma_count / d, **kw)
    work = predicted_work(d, n, gamma_count, params)
    wide = 1.0 if n_words(d) == 1 else analysis._WIDE_ROW
    assert work.shape == analysis._PRICES.shape and np.isfinite(work).all()
    assert type(predicted_cost(d, n, gamma_count, params)) is float
    for k, unit in enumerate(np.eye(work.size)):
        monkeypatch.setattr(analysis, "_PRICES", unit)
        assert predicted_cost.__wrapped__(d, n, gamma_count, params) == work[k] * (wide if k in (4, 5) else 1.0)


# (d, log2 n, gamma d, depth, strategy, naive_threshold, branching), from
# the benchmark's sizes down to a leaf root; every block is at most 64 bits
# wide, so the model's weights (rows x z x block-local words) are weighed.
COUNTED_WALKS = [
    (64, 11, 8, 3, deviation(1), 32, 128),
    (128, 11, 16, 3, deviation(1), 32, 128),
    (96, 12, 12, 4, AT_MOST, 32, 64),
    (64, 12, 8, 3, EXACT, 64, 256),
    (64, 8, 8, 3, deviation(1), 256, 256),  # a leaf root: one scan of n^2 pairs
]


@pytest.mark.parametrize("d, log_n, gamma_count, depth, strategy, threshold, branching", COUNTED_WALKS)
def test_predicted_work_counts_what_the_walk_reports(d, log_n, gamma_count, depth, strategy, threshold, branching):
    """One call's predicted work against the mean of 8 reports: weighed within 2%, leaf pairs within 3%.

    With one full round (permutations=1, no stop_on_first) work[0], the
    solve calls per success, is 1 / Pr[a call finds the pair], so
    work / work[0] is one call's work; with four rounds a call walks four
    of them.  The reports' weighed is the rows x z the filter weighed, and
    naive_comparisons the leaf pairs scanned, ragged passes and own passes
    alike.  nodes_visited is not compared: it counts leaf buckets too, and
    the model counts only the inner nodes it prices.
    """
    n = 2**log_n
    params = choose_params(d, log_n / d, gamma_count / d, depth=depth, strategy=strategy, naive_threshold=threshold,
                           branching=branching, permutations=1)
    work = predicted_work(d, n, gamma_count, params)
    call = work / work[0]
    four = predicted_work(d, n, gamma_count, dataclasses.replace(params, permutations=4))
    rounds = 4 if n > threshold else 1  # a leaf root is scanned once
    assert four[0] == pytest.approx(1 / (1 - (1 - 1 / work[0]) ** 4), rel=1e-9)
    np.testing.assert_allclose(four / four[0], [1, *rounds * call[1:]], rtol=1e-12)
    reports = [solve(gen_instance(d, n, gamma_count, UNIFORM, seed=s), params, np.random.default_rng(s))
               for s in range(8)]
    assert np.mean([r.weighed for r in reports]) == pytest.approx(call[3], rel=0.02)
    assert np.mean([r.naive_comparisons for r in reports]) == pytest.approx(call[4] + call[5], rel=0.03)


def test_costs_tied_within_float_noise_go_to_the_lowest_depth():
    """d=16, n=2^10, gamma 0, exact: depths 2 and 3 walk the same tree and cost the same, up to rounding.

    Each filters the root alone: blocks of 8 and of 5 bits whose windows,
    weight 1 and weight 0, both keep 1/32 of the rows, so every bucket is a
    leaf of about 32 rows.  The least cost is theirs, and the pick is 2.
    """
    d, lam = 16, 10 / 16
    costs = {r: model_cost(d, lam, 0.0, choose_params(d, lam, 0.0, depth=r)) for r in range(1, d // 4 + 1)}
    assert costs[2] == pytest.approx(costs[3], rel=1e-9, abs=0)
    assert min(costs.values()) == pytest.approx(costs[2], rel=1e-9, abs=0)
    assert choose_params(d, lam, 0.0).depth == 2


def test_choose_params_refuses_a_parity_blocked_pair():
    """d=12, n=4096, one differing coordinate: an exact block never keeps an odd split, at any depth.

    4096 rows exceed every threshold, so the root is filtered and no walk can find the pair.
    """
    with pytest.raises(ValueError, match=r"no depth has a finite predicted cost at gamma=0\.0833333 "):
        choose_params(12, 1.0, 1 / 12)


@pytest.mark.parametrize("d", [8, 16, 32])
@pytest.mark.parametrize("strategy", [EXACT, deviation(1)], ids=["exact", "dev1"])
def test_chosen_params_have_finite_cost(d, strategy):
    """choose_params returns a walk that can find the pair, or raises: never one of infinite cost."""
    for log_n, gamma_count, stop in itertools.product((3, 5, 8), {1, 3, d // 2 - 1}, (False, True)):
        lam, gamma = log_n / d, gamma_count / d
        try:
            params = choose_params(d, lam, gamma, strategy=strategy, stop_on_first=stop)
        except ValueError as exc:
            assert str(exc).startswith(f"no depth has a finite predicted cost at gamma={gamma:g} ")
            continue
        assert math.isfinite(model_cost(d, lam, gamma, params))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stop", [False, True], ids=["all", "first"])
@pytest.mark.parametrize("strategy", [EXACT, deviation(1), AT_MOST], ids=["exact", "dev1", "atmost"])
def test_choose_params_prices_its_pick_or_refuses(strategy, stop):
    """choose_params returns params of finite, positive predicted cost or raises ValueError: no other error, no warning.

    Explicit depths reach d, branching 2^20 and lambda d 1023.  Named cases:
    d=256, lambda d=12, gamma d=32 at depth 146, whose dev:1 counts overflow
    a float; lambda d=600, whose rows squared overflow at every depth;
    lambda d=1023, whose rows doubled overflow too; and d=16, n=1189,
    gamma d=8 at depth 15, whose split shares round past 1.
    The rest are drawn from a fixed seed.
    """
    rng = np.random.default_rng(20)
    cases = [(256, 12, 32, 146, None), (600, 600, 60, None, None), (1023, 1023, 3, None, None),
             (16, math.log2(1189), 8, 15, None), (1000, 1000, 10, 1000, 1 << 20), (64, 64, 32, 64, 1 << 20)]
    for _ in range(60):
        d = int(rng.choice([4, 16, 33, 64, 128, 256]))
        depth = [None, 1, int(rng.integers(1, d + 1)), d][rng.integers(4)]
        branching = [None, 1, int(rng.integers(1, 1 << 20)), 1 << 20][rng.integers(4)]
        cases.append((d, rng.uniform(0, d), int(rng.integers(0, d // 2 + 1)), depth, branching))
    for d, lam_d, gamma_count, depth, branching in cases:
        lam, gamma = lam_d / d, gamma_count / d
        try:
            params = choose_params(d, lam, gamma, depth=depth, branching=branching, strategy=strategy, stop_on_first=stop)
        except ValueError:
            continue
        assert 0 < model_cost(d, lam, gamma, params) < math.inf, (d, lam_d, gamma_count, depth, branching)


def test_choose_params_overrides_pass_through():
    p = choose_params(64, 0.2, 0.1, depth=3, branching=17, permutations=2,
                      naive_threshold=5, stop_on_first=True, strategy=AT_MOST)
    assert (p.depth, p.branching, p.permutations) == (3, 17, 2)
    assert p.naive_threshold == 5 and p.stop_on_first and p.strategy == AT_MOST


def test_choose_params_infeasible_delta_raises():
    with pytest.raises(ValueError):
        choose_params(64, 0.25, 0.4, delta=0.05)


def test_choose_params_validates_inputs():
    with pytest.raises(ValueError):
        choose_params(0, 0.2, 0.1)
    # 2^(lambda d) rows past the float range are refused by name, not by OverflowError
    with pytest.raises(ValueError, match=r"d=1100, lambda=1\.0"):
        choose_params(1100, 1.0, 0.1)
    # lambda = 0 is a list of one vector and is valid; outside [0, 1] is not
    for lam in (-0.01, 1.01):
        with pytest.raises(ValueError):
            choose_params(64, lam, 0.1)
    with pytest.raises(ValueError):
        choose_params(64, 0.2, 0.6)


def test_single_vector_lists_are_in_the_domain():
    """lambda = 0 (n = 1) is accepted everywhere lambda is."""
    assert delta_gamma_star(0.0) == (0.5, 0.5)
    params = choose_params(64, 0.0, 0.0)
    assert params.naive_threshold >= 1  # one row per list goes straight to the leaf scan
    assert expected_pairs_exponent(0.0, 0.1) == 0.0
    assert lower_bound_exponent(0.0, 0.1) == 0.0
    assert theta_uniform(0.0, 0.1).theta >= 0.0
    assert theta_distribution(0.0, 0.1, DistributionModel("fixed", 0.3)).theta >= 0.0
    for fn in (delta_gamma_star, lambda lam: expected_pairs_exponent(lam, 0.1),
               lambda lam: theta_distribution(lam, 0.1, DistributionModel("fixed", 0.3))):
        with pytest.raises(ValueError):
            fn(-0.01)
