import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambucket.analysis import DistributionModel, choose_params
from hambucket import bitvec, solver
from hambucket.bitvec import (
    block_bounds,
    block_weights_batch,
    draw_block_zs,
    make_rng,
    mask_pad,
    n_words,
    pack_rows,
)
from hambucket.generator import Instance, gen_instance, read_instance, write_instance
from hambucket.solver import (
    AT_MOST,
    EXACT,
    MatchPair,
    _accept_mask,
    _bucket_hits,
    _pair_hits,
    _scan_pairs,
    SolverParams,
    Strategy,
    deviation,
    naive_count,
    naive_search,
    round_nearest,
    solve,
)
from oracle import (
    block_weight,
    bucket_accept,
    distance,
    from_bits,
    pack_bit_matrix,
    partition_in_place,
    random_vector,
    reference_solve,
    strategy_survival_count,
    survival_rate_probe,
    unpack_row,
    unpruned_scan_pairs,
    zeros,
)

UNIFORM = DistributionModel.uniform()


def tiny_instance(gamma_count=1):
    """Two lists of two rows; the pair (0, 0) is at distance 1, (0, 1) at 3 and none at 2."""
    l1 = pack_rows([from_bits([0, 0, 0]), from_bits([0, 1, 1])])
    l2 = pack_rows([from_bits([0, 0, 1]), from_bits([1, 1, 1])])
    return Instance(3, 2, gamma_count, l1, l2, (0, 0) if gamma_count == 1 else None, UNIFORM, 0)


def test_naive_search_lists_all_pairs_in_order():
    got = naive_search(tiny_instance())
    assert got == [MatchPair(0, 0, 1), MatchPair(1, 0, 1), MatchPair(1, 1, 1)]
    assert naive_count(tiny_instance()) == 3


def test_naive_search_distance_override():
    """The scan's target is the instance's gamma_count: the same rows built at 3 and at 2."""
    assert naive_search(tiny_instance(3)) == [MatchPair(0, 1, 3)]
    assert naive_search(tiny_instance(2)) == [] and naive_count(tiny_instance(2)) == 0


def test_naive_identical_lists_have_diagonal():
    rng = make_rng(5)
    vs = pack_rows([random_vector(rng, 16) for _ in range(20)])
    inst = Instance(16, 20, 0, vs, vs, None, UNIFORM, 0)
    got = naive_search(inst)
    assert {(m.i, m.j) for m in got} >= {(i, i) for i in range(20)}


def test_naive_scan_counts_distances_past_255():
    """At d=600 the word-wise accumulation must not wrap distances modulo 256."""
    inst = gen_instance(600, 24, 300, UNIFORM, seed=12)
    rows1 = [unpack_row(600, r) for r in inst.mat1]
    rows2 = [unpack_row(600, r) for r in inst.mat2]
    dist = {(i, j): distance(u, v) for i, u in enumerate(rows1) for j, v in enumerate(rows2)}
    assert max(dist.values()) > 255
    for g in (300, 300 - 256, 290, 290 - 256):
        want = sorted(p for p, x in dist.items() if x == g)
        at_g = dataclasses.replace(inst, gamma_count=g, planted=None)
        assert [(m.i, m.j) for m in naive_search(at_g)] == want
        assert naive_count(at_g) == len(want)
    assert tuple(inst.planted) in {(m.i, m.j) for m in naive_search(inst)}


@pytest.mark.parametrize("d", [1, 33, 64, 65, 96, 128, 200, 256, 320, 600])
def test_pruned_scan_matches_unpruned_reference(d):
    """Counts and ordered hits of the word-0 pruned scan equal the unpruned scan's.

    One-word rows (d <= 64) go through the same scan, with nothing to prune.
    The second list holds rows at distance g and 256 + g from rows of the
    first for every tested g, and the complement of a row (distance d), so
    a sum that wrapped at 256 would report false hits; gammas of 64 and up
    leave word 0 nothing to prune.
    """
    rng = make_rng(d)
    gammas = sorted(g for g in {0, 1, 16, 64, 65, 192, 255, 256, d} if g <= d)
    mat_a = mask_pad(rng.integers(0, 1 << 64, size=(250, n_words(d)), dtype=np.uint64), d)
    near = []
    for k, dist in enumerate(sorted({g + s for g in gammas for s in (0, 256) if g + s <= d})):
        flip = np.zeros(d, dtype=np.uint8)
        flip[rng.permutation(d)[:dist]] = 1
        near.append(mat_a[(37 * k) % 250] ^ pack_bit_matrix(flip[None, :])[0])
    ones = mask_pad(np.full((1, n_words(d)), (1 << 64) - 1, dtype=np.uint64), d)
    mat_b = np.vstack([rng.integers(0, 1 << 64, size=(280, n_words(d)), dtype=np.uint64), near, mat_a[:1] ^ ones])
    mask_pad(mat_b, d)
    mat_b = mat_b[rng.permutation(mat_b.shape[0])]
    for g in gammas:
        want_count, want_rows, want_cols = unpruned_scan_pairs(mat_a, mat_b, g, True)
        got_rows, got_cols = _scan_pairs(mat_a, mat_b, g, True)
        assert want_count >= 1
        assert got_rows.tolist() == want_rows.tolist()
        assert got_cols.tolist() == want_cols.tolist()
        assert _scan_pairs(mat_a, mat_b, g, False) == want_count


def weight_parities(mat):
    return np.bitwise_count(mat).sum(axis=1) & 1


def with_parity(mat, mode):
    """mat with bit 0 of a row flipped where its weight parity disagrees with mode ("even", "odd" or "mixed")."""
    if mode != "mixed":
        mat[weight_parities(mat) != (mode == "odd"), 0] ^= np.uint64(1)
    return mat


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_naive_scan_matches_unpruned_reference(data):
    """naive_count and naive_search over the parity classes give the unpruned scan's count and lexicographic pairs.

    The lists mix weight parities, or hold one class only on one side or on
    both; half of list 2 are near copies of list-1 rows, so small distances
    of both parities occur.  gamma is 0, the distance of a drawn pair, or any
    value in [0, d].
    """
    d = data.draw(st.sampled_from([1, 63, 64, 65, 96, 128, 200]), label="d")
    n = data.draw(st.integers(1, 40), label="n")
    modes = data.draw(st.tuples(*[st.sampled_from(["mixed", "even", "odd"])] * 2), label="parities")
    rng = make_rng(data.draw(st.integers(0, 2**32), label="seed"))
    mat_a = mask_pad(rng.integers(0, 1 << 64, size=(n, n_words(d)), dtype=np.uint64), d)
    mat_b = mask_pad(rng.integers(0, 1 << 64, size=(n, n_words(d)), dtype=np.uint64), d)
    for j in range(0, n, 2):
        flip = np.zeros(d, dtype=np.uint8)
        flip[rng.permutation(d)[: rng.integers(0, min(d, 4) + 1)]] = 1
        mat_b[j] = mat_a[rng.integers(n)] ^ pack_bit_matrix(flip[None, :])[0]
    mat_a, mat_b = with_parity(mat_a, modes[0]), with_parity(mat_b, modes[1])
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="pair")
    pair_dist = int(np.bitwise_count(mat_a[i] ^ mat_b[j]).sum())
    g = data.draw(st.one_of(st.just(0), st.just(pair_dist), st.integers(0, d)), label="gamma")
    inst = Instance(d, n, g, mat_a, mat_b, None, UNIFORM, 0)
    count, rows, cols = unpruned_scan_pairs(inst.mat1, inst.mat2, g, True)
    assert naive_count(inst) == count
    assert naive_search(inst) == [MatchPair(a, b, g) for a, b in zip(rows.tolist(), cols.tolist())]


def test_naive_scan_computes_only_the_pairs_of_matching_parity(monkeypatch):
    """The kernel gets the class pairs whose parities sum to gamma's, about n²/2 pairs on uniform rows.

    A scanned root reports what it did before: n² comparisons and no round.
    Lists of one parity are one class pair at an even gamma, scanned whole
    in one kernel call; at an odd gamma they meet no pair, and no kernel runs.
    """
    n = 512
    inst = gen_instance(64, n, 8, UNIFORM, seed=30)
    scanned = []

    def spy(mat_a, mat_b, gamma_count, collect):
        scanned.append(len(mat_a) * len(mat_b))
        return _scan_pairs(mat_a, mat_b, gamma_count, collect)

    monkeypatch.setattr(solver, "_scan_pairs", spy)
    odd_a, odd_b = (int(weight_parities(m).sum()) for m in (inst.mat1, inst.mat2))
    matching = (n - odd_a) * (n - odd_b) + odd_a * odd_b  # gamma is even
    count, rows, cols = unpruned_scan_pairs(inst.mat1, inst.mat2, 8, True)
    assert naive_count(inst) == count >= 1
    assert sum(scanned) == matching and len(scanned) == 2
    assert 0.45 * n * n < matching < 0.55 * n * n
    scanned.clear()
    params = SolverParams(depth=1, branching=8, permutations=2, delta=0.25, strategy=deviation(1),
                          naive_threshold=n, stop_on_first=False)
    rep = solve(inst, params, make_rng(0))
    assert sum(scanned) == matching
    assert list(rep.matches) == [MatchPair(a, b, 8) for a, b in zip(rows.tolist(), cols.tolist())]
    assert (rep.nodes_visited, rep.levels, rep.rounds, rep.weighed, rep.naive_comparisons) == (1, 0, 0, 0, n * n)
    scanned.clear()
    fixed = gen_instance(64, n, 8, DistributionModel.from_token("fixed:0.3"), seed=30)
    assert len(set(weight_parities(fixed.mat1)) | set(weight_parities(fixed.mat2))) == 1
    count, rows, cols = unpruned_scan_pairs(fixed.mat1, fixed.mat2, 8, True)
    assert naive_count(fixed) == count >= 1 and scanned == [n * n]
    assert naive_search(fixed) == [MatchPair(a, b, 8) for a, b in zip(rows.tolist(), cols.tolist())]
    assert scanned == [n * n, n * n]
    scanned.clear()
    odd_gamma = dataclasses.replace(fixed, gamma_count=7, planted=None)
    assert unpruned_scan_pairs(odd_gamma.mat1, odd_gamma.mat2, 7, False)[0] == 0
    assert naive_count(odd_gamma) == 0 and naive_search(odd_gamma) == []
    assert scanned == []


def hit_list(hits):
    """A leaf pass's hit arrays as a list of tuples, one per pair; None has no pair."""
    return [] if hits is None else list(zip(*(x.tolist() for x in hits)))


@pytest.mark.parametrize("d", [64, 128, 200, 600])
def test_batched_leaf_pass_matches_per_bucket_scans(d):
    """The pairs a batched leaf pass reports, bucket by bucket, are the unpruned scan's.

    Row i of the second list is row i of the first at a distance drawn from
    the tested gammas (or 256 more), so each gamma has hits; gammas from 64
    up keep several words dense before the pass follows the few pairs left.
    The lists are stacked as the solver stacks them, list 2 from row n on,
    and each bucket is also scanned alone, by a ragged pass and by the
    cross scan a pass over a single bucket runs.
    """
    rng = make_rng(d + 1)
    n = 120
    gammas = [g for g in (0, 1, 16, 40, 64, 65, 75, 100, 192, 255, 256, 300, d) if g <= d]
    dists = [g + s for g in gammas for s in (0, 256) if g + s <= d]
    mat_a = mask_pad(rng.integers(0, 1 << 64, size=(n, n_words(d)), dtype=np.uint64), d)
    flips = np.zeros((n, d), dtype=np.uint8)
    for i in range(n):
        flips[i, rng.permutation(d)[: dists[i % len(dists)]]] = 1
    mat_b = mat_a ^ pack_bit_matrix(flips)
    mat = np.vstack((mat_a, mat_b))
    segs_a, segs_b = [], []
    for k in range(48):
        # bucket k holds row k on both sides, so every distance occurs; every
        # sixth bucket has an empty side
        extra = rng.permutation(n)[: int(rng.integers(0, 8))]
        rows = np.concatenate(([k], extra[extra != k]))
        segs_a.append(rng.permutation(rows))
        side_b = np.concatenate(([k], rng.permutation(rows[1:])[: int(rng.integers(0, rows.size))]))
        segs_b.append(rng.permutation(side_b)[: 0 if k % 6 == 5 else None])
    na = np.array([s.size for s in segs_a])
    nb = np.array([s.size for s in segs_b])
    buckets = [np.concatenate((sa, sb + n)) for sa, sb in zip(segs_a, segs_b)]
    for g in gammas:
        got = _bucket_hits(mat, np.concatenate(buckets), na, nb, n, g)
        want = []
        for k, (sa, sb) in enumerate(zip(segs_a, segs_b)):
            if sa.size and sb.size:
                _, r, c = unpruned_scan_pairs(mat_a[sa], mat_b[sb], g, True)
                alone = [(int(sa[i]), int(sb[j]) + n, 0) for i, j in zip(r, c)]
                got_alone = _bucket_hits(mat, buckets[k], na[k : k + 1], nb[k : k + 1], n, g)
                assert hit_list(got_alone) == alone
                assert hit_list(_scan_pairs(mat[sa], mat[sb + n], g, True)) == list(zip(r.tolist(), c.tolist()))
                want += [(i, j, k) for i, j, _ in alone]
        assert want
        assert hit_list(got) == want
        assert (got[0] < n).all() and (got[1] >= n).all()


@pytest.mark.parametrize("dtype, width", [(np.uint8, 255), (np.uint8, 40), (np.int32, 300)])
@pytest.mark.parametrize("strategy", [EXACT, deviation(0), deviation(1), deviation(3),
                                      deviation(300), AT_MOST])
def test_accept_mask_matches_bucket_accept(dtype, width, strategy):
    """Every weight 0..width, with windows cut off below 0 and above the width."""
    weights = np.arange(width + 1).astype(dtype)
    for dc in sorted({0, 1, 2, strategy.eps, width // 2, width - strategy.eps, width - 1, width}):
        if not 0 <= dc <= width:
            continue
        want = [bucket_accept(w, dc, strategy) for w in range(width + 1)]
        lo, hi = strategy.window(dc)
        assert _accept_mask(weights, lo, hi).tolist() == want
        # z-major slabs are 2-D; a strided view must give the same answer
        strided = np.vstack([weights, weights])[:, ::-1]
        assert _accept_mask(strided, lo, hi).tolist() == [want[::-1]] * 2


def test_strategy_tokens():
    assert Strategy.from_token("exact") == EXACT
    assert Strategy.from_token("dev:2") == deviation(2)
    assert Strategy.from_token("atmost") == AT_MOST
    with pytest.raises(ValueError):
        Strategy.from_token("dev:-1")
    with pytest.raises(ValueError):
        Strategy.from_token("widest")
    with pytest.raises(ValueError, match="malformed strategy token"):
        Strategy.from_token("dev:\u0661")  # an Arabic-Indic one


def test_bucket_accept_rules():
    assert EXACT.window(4) == (4, 4)
    assert deviation(1).window(4) == (3, 5)
    assert deviation(5).window(4) == (0, 9)
    assert AT_MOST.window(4) == (0, 4)
    assert bucket_accept(4, 4, EXACT) and not bucket_accept(5, 4, EXACT)
    assert bucket_accept(5, 4, deviation(1)) and bucket_accept(3, 4, deviation(1))
    assert not bucket_accept(6, 4, deviation(1))
    assert bucket_accept(0, 4, AT_MOST) and bucket_accept(4, 4, AT_MOST)
    assert not bucket_accept(5, 4, AT_MOST)


def test_solver_params_validation():
    good = dict(depth=1, branching=1, permutations=1, delta=0.3,
                strategy=EXACT, naive_threshold=0, stop_on_first=False)
    SolverParams(**good)
    for field, bad, message in (("depth", 0, "depth must be at least 1: 0"),
                                ("branching", 0, "branching must be at least 1: 0"),
                                ("permutations", 0, "permutations must be at least 1: 0"),
                                ("delta", 1.5, r"delta outside \[0, 1\]: 1.5"),
                                ("naive_threshold", -1, "naive_threshold must be nonnegative: -1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SolverParams(**{**good, field: bad})


def test_strategy_refuses_a_deviation_width_beyond_max_dim():
    """A width at or beyond a block's width accepts every weight, as MAX_DIM does; larger ones are refused."""
    assert Strategy.from_token(f"dev:{bitvec.MAX_DIM}") == deviation(bitvec.MAX_DIM)
    for eps in (-1, bitvec.MAX_DIM + 1, 10**21):
        with pytest.raises(ValueError, match=rf"^deviation width outside \[0, {bitvec.MAX_DIM}\]: {eps}$"):
            Strategy.from_token(f"dev:{eps}")
        with pytest.raises(ValueError, match="deviation width outside"):
            deviation(eps)


# --- partition ----------------------------------------------------------------


@given(st.data())
@settings(max_examples=50)
def test_partition_prefix_matches_accept_rule(data):
    d = data.draw(st.integers(4, 100))
    r = data.draw(st.integers(1, min(4, d // 2)))
    start, stop = block_bounds(d, r)[data.draw(st.integers(1, r)) - 1]
    rng = make_rng(data.draw(st.integers(0, 2**32)))
    vs = [random_vector(rng, d) for _ in range(data.draw(st.integers(1, 30)))]
    n = len(vs)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n))
    z = random_vector(rng, stop - start)
    dc = data.draw(st.integers(0, stop - start))
    strat = data.draw(st.sampled_from([EXACT, deviation(1), AT_MOST]))

    order = np.arange(n, dtype=np.int64)
    before = order.copy()
    mid = partition_in_place(pack_rows(vs), order, lo, hi, z, start, stop, dc, strat)

    assert sorted(order[lo:hi]) == sorted(before[lo:hi])
    assert np.array_equal(order[:lo], before[:lo])
    assert np.array_equal(order[hi:], before[hi:])
    for idx in order[lo:mid]:
        assert bucket_accept(block_weight(vs[idx], z, start, stop), dc, strat)
    for idx in order[mid:hi]:
        assert not bucket_accept(block_weight(vs[idx], z, start, stop), dc, strat)


def test_partition_is_stable():
    rng = make_rng(8)
    d = 16
    vs = [random_vector(rng, d) for _ in range(40)]
    start, stop = block_bounds(d, 2)[0]
    z = random_vector(rng, 8)
    order = np.arange(40, dtype=np.int64)
    mid = partition_in_place(pack_rows(vs), order, 0, 40, z, start, stop, 4, AT_MOST)
    accepted = [i for i in range(40)
                if bucket_accept(block_weight(vs[i], z, start, stop), 4, AT_MOST)]
    assert order[:mid].tolist() == accepted
    assert order[mid:].tolist() == [i for i in range(40) if i not in accepted]


def test_partition_rejects_wrong_z_width():
    vs = [zeros(8)]
    with pytest.raises(ValueError):
        partition_in_place(pack_rows(vs), np.arange(1), 0, 1,
                           zeros(3), *block_bounds(8, 2)[0], 2, EXACT)


# --- solve --------------------------------------------------------------------


def all_params(**over):
    base = dict(depth=1, branching=1, permutations=1, delta=1.0,
                strategy=AT_MOST, naive_threshold=0, stop_on_first=False)
    base.update(over)
    return SolverParams(**base)


def test_degenerate_atmost_equals_naive():
    """delta = block width accepts everything, so the walk is exhaustive."""
    inst = gen_instance(32, 64, 8, UNIFORM, seed=4)
    rep = solve(inst, all_params(), make_rng(0))
    assert [(m.i, m.j) for m in rep.matches] == [(m.i, m.j) for m in naive_search(inst)]
    assert rep.planted_found is True


@given(st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_solve_is_subset_of_naive(seed):
    inst = gen_instance(32, 96, 6, UNIFORM, seed=seed)
    # a threshold of n / 2 keeps the root filtered, so a tree is walked
    params = choose_params(32, math.log2(96) / 32, 6 / 32,
                           strategy=deviation(1), branching=128, naive_threshold=48)
    rep = solve(inst, params, make_rng(seed ^ 0xA5A5))
    naive = {(m.i, m.j) for m in naive_search(inst)}
    assert {(m.i, m.j) for m in rep.matches} <= naive
    for m in rep.matches:
        assert m.dist == inst.gamma_count


def test_solve_is_deterministic():
    inst = gen_instance(32, 128, 8, UNIFORM, seed=21)
    params = choose_params(32, 7 / 32, 0.25, strategy=deviation(1), naive_threshold=64)  # n / 2: a tree
    a = solve(inst, params, make_rng(77))
    b = solve(inst, params, make_rng(77))
    assert a.matches == b.matches
    assert a.nodes_visited == b.nodes_visited


def test_stop_on_first_returns_verified_subset():
    inst = gen_instance(32, 128, 2, UNIFORM, seed=6)
    base = choose_params(32, 7 / 32, 2 / 32, strategy=deviation(1), naive_threshold=64)  # n / 2: a tree
    full = solve(inst, base, make_rng(13))
    early = solve(inst, all_params(strategy=AT_MOST, delta=1.0, stop_on_first=True),
                  make_rng(13))
    assert len(early.matches) >= 1
    assert {(m.i, m.j) for m in early.matches} <= {(m.i, m.j) for m in naive_search(inst)}
    assert len(full.matches) >= len(early.matches) or full.matches == early.matches


def test_planted_recovery_easy_regime():
    for seed in range(5):
        inst = gen_instance(64, 256, 8, UNIFORM, seed=seed)
        params = choose_params(64, 0.125, 0.125, strategy=deviation(1), naive_threshold=128)  # n / 2: a tree
        rep = solve(inst, params, make_rng(1000 + seed))
        assert rep.planted_found is True


def test_report_counters():
    inst = gen_instance(32, 64, 4, UNIFORM, seed=3)
    rep = solve(inst, all_params(), make_rng(2))
    assert rep.nodes_visited >= 1
    assert rep.naive_comparisons == 64 * 64
    assert rep.wall_time > 0.0


def test_leaf_root_is_scanned_once():
    """A root of at most naive_threshold rows a side is scanned once, whatever the rounds.

    Permuting columns keeps every distance, so later rounds would repeat the scan.
    """
    n = 64
    inst = gen_instance(32, n, 4, UNIFORM, seed=3)
    params = SolverParams(depth=2, branching=8, permutations=4, delta=0.25, strategy=deviation(1),
                          naive_threshold=n, stop_on_first=False)
    rep = solve(inst, params, make_rng(0))
    assert (rep.nodes_visited, rep.levels, rep.naive_comparisons) == (1, 0, n * n)
    assert rep.planted_found is True


@pytest.mark.parametrize("d", [1, 64, 65, 200])
@pytest.mark.parametrize("stop_on_first", [False, True])
@pytest.mark.parametrize("permutations", [1, 4])
def test_leaf_root_is_the_naive_scan(d, stop_on_first, permutations):
    """A root of at most naive_threshold rows a side is naive_search's scan, once: no round, no weight, no draw."""
    n = 48
    inst = gen_instance(d, n, min(d, 4), UNIFORM, seed=d)
    params = SolverParams(depth=1, branching=8, permutations=permutations, delta=0.25,
                          strategy=deviation(1), naive_threshold=n, stop_on_first=stop_on_first)
    rng = make_rng(7)
    state = repr(rng.bit_generator.state)  # its counter and key arrays print in full
    rep = solve(inst, params, rng)
    assert list(rep.matches) == naive_search(inst)
    assert (rep.nodes_visited, rep.levels, rep.rounds, rep.weighed, rep.naive_comparisons) == (1, 0, 0, 0, n * n)
    assert rep.planted_found is True
    assert repr(rng.bit_generator.state) == state


def test_planted_flag_absent_without_plant():
    rng = make_rng(14)
    vs1 = pack_rows([random_vector(rng, 16) for _ in range(8)])
    vs2 = pack_rows([random_vector(rng, 16) for _ in range(8)])
    inst = Instance(16, 8, 4, vs1, vs2, None, UNIFORM, 0)
    rep = solve(inst, all_params(), make_rng(0))
    assert rep.planted_found is None


# --- parity with the per-leaf solver -------------------------------------------


def report_key(rep):
    return rep.matches, rep.nodes_visited, rep.levels, rep.rounds, rep.weighed, rep.naive_comparisons, rep.planted_found


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_per_leaf_reference(data):
    """Batched leaf scans give the per-leaf solver's matches, counters and draws."""
    d = data.draw(st.sampled_from([1, 63, 64, 65, 96, 128, 200]))
    n = data.draw(st.integers(1, 80))
    model = data.draw(st.sampled_from([UNIFORM, DistributionModel("fixed", 0.3)]))
    inst = gen_instance(d, n, data.draw(st.integers(0, min(d, 24))), model,
                        seed=data.draw(st.integers(0, 2**32)))
    params = SolverParams(
        depth=data.draw(st.integers(1, min(3, d))),
        branching=data.draw(st.integers(1, 8)),
        permutations=data.draw(st.integers(1, 3)),
        delta=data.draw(st.sampled_from([0.0, 0.25, 0.35, 0.5])),
        strategy=data.draw(st.sampled_from([EXACT, deviation(1), deviation(3), AT_MOST])),
        naive_threshold=data.draw(st.integers(0, n + 1)),  # from n on the root is a leaf
        stop_on_first=data.draw(st.booleans()),
    )
    seed = data.draw(st.integers(0, 2**32))
    got = solve(inst, params, make_rng(seed))
    assert report_key(got) == report_key(reference_solve(inst, params, make_rng(seed)))


@pytest.mark.parametrize("stop_on_first", [False, True])
def test_parity_with_leaf_and_inner_siblings(stop_on_first):
    """A threshold inside the spread of the root's bucket sizes mixes leaves and inner nodes."""
    inst = gen_instance(96, 200, 12, UNIFORM, seed=31)
    base = SolverParams(depth=3, branching=8, permutations=2, delta=0.4, strategy=deviation(2),
                        naive_threshold=0, stop_on_first=stop_on_first)
    # the root draws its z batch first, so the same seed reproduces its buckets
    start, stop = block_bounds(96, 3)[0]
    target = round_nearest(base.delta * (stop - start))
    zs = draw_block_zs(make_rng(5), base.branching, stop - start)
    sizes = []
    for z in zs:
        zv = unpack_row(stop - start, z)
        na, nb = (sum(bucket_accept(block_weight(unpack_row(96, row), zv, start, stop), target, base.strategy)
                      for row in mat) for mat in (inst.mat1, inst.mat2))
        if na and nb:
            sizes.append(min(na, nb))
    threshold = sorted(sizes)[len(sizes) // 2]
    assert min(sizes) <= threshold < max(sizes)
    params = SolverParams(**{**base.__dict__, "naive_threshold": threshold})
    got = solve(inst, params, make_rng(5))
    assert report_key(got) == report_key(reference_solve(inst, params, make_rng(5)))
    assert got.levels >= 2


@pytest.mark.parametrize("d, depth", [(64, 2), (65, 2), (96, 3)])
@pytest.mark.parametrize("stop_on_first", [False, True])
def test_parity_at_the_uint32_block_boundary(monkeypatch, d, depth, stop_on_first):
    """Blocks of 32 bits are filtered as uint32, a 33-bit block as uint64; reports and draws stay the reference's."""
    inst = gen_instance(d, 160, 8, UNIFORM, seed=d)
    params = SolverParams(depth=depth, branching=8, permutations=3, delta=0.45, strategy=deviation(1),
                          naive_threshold=0, stop_on_first=stop_on_first)
    want_rng = make_rng(11)
    want = reference_solve(inst, params, want_rng)
    dtypes = set()

    def weights(zs, rows):
        dtypes.add((zs.dtype, rows.dtype))
        return block_weights_batch(zs, rows)

    monkeypatch.setattr(solver, "block_weights_batch", weights)
    rng = make_rng(11)
    got = solve(inst, params, rng)
    assert report_key(got) == report_key(want)
    assert got.levels == depth
    assert repr(rng.bit_generator.state) == repr(want_rng.bit_generator.state)
    u32, u64 = np.dtype(np.uint32), np.dtype(np.uint64)
    assert dtypes == ({(u32, u32), (u64, u64)} if d == 65 else {(u32, u32)})


@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("stop_on_first", [False, True])
def test_leaf_buckets_within_the_pair_budget_skip_the_chunked_scan(monkeypatch, d, stop_on_first):
    """A leaf bucket within _PAIR_BUDGET is one _pair_hits call, in a pass of its own or in a ragged one.

    The root's exact window takes about a seventh (d=64) or a tenth (d=128)
    of each list into a bucket.  At d=64 every pass holds one bucket of
    17k-24k pairs; at d=128 ragged passes over several buckets come next to
    a one-bucket pass.  Each pass makes one kernel call, so no pass is split
    into row chunks.
    """
    n = 1024
    inst = gen_instance(d, n, 8, UNIFORM, seed=d)
    params = SolverParams(depth=2, branching=16, permutations=2, delta=0.5, strategy=EXACT,
                          naive_threshold=n - 1, stop_on_first=stop_on_first)
    want = reference_solve(inst, params, make_rng(3))
    kernel_calls, one_bucket, ragged = [], [], []

    def kernel_spy(*args):
        kernel_calls.append(1)
        return _pair_hits(*args)

    def scan_spy(mat_a, mat_b, gamma_count, collect):
        one_bucket.append(len(mat_a) * len(mat_b))
        return _scan_pairs(mat_a, mat_b, gamma_count, collect)

    def ragged_spy(*args):
        ragged.append(1)
        return _bucket_hits(*args)

    monkeypatch.setattr(solver, "_pair_hits", kernel_spy)
    monkeypatch.setattr(solver, "_scan_pairs", scan_spy)
    monkeypatch.setattr(solver, "_bucket_hits", ragged_spy)
    got = solve(inst, params, make_rng(3))
    assert report_key(got) == report_key(want)
    assert got.levels == 1
    assert one_bucket and max(one_bucket) <= solver._PAIR_BUDGET
    assert len(kernel_calls) == len(one_bucket) + len(ragged)


@pytest.mark.parametrize("d", [64, 200])
def test_one_bucket_above_the_pair_budget_is_scanned_in_chunks(monkeypatch, d):
    """A 200 x 200 bucket exceeds _PAIR_BUDGET: _scan_pairs scans it in row chunks, as the unpruned scan."""
    rng = make_rng(d + 2)
    n = 200
    per_chunk = solver._PAIR_BUDGET // n
    assert n * n > solver._PAIR_BUDGET and n < 2 * per_chunk
    mat_a = mask_pad(rng.integers(0, 1 << 64, size=(n, n_words(d)), dtype=np.uint64), d)
    flips = np.zeros((n, d), dtype=np.uint8)
    for i in range(0, n, 7):
        flips[i, rng.permutation(d)[:12]] = 1
    mat_b = (mat_a ^ pack_bit_matrix(flips))[rng.permutation(n)]
    chunks = []

    def spy(*args):
        chunks.append(args[2].shape[1])
        return _pair_hits(*args)

    monkeypatch.setattr(solver, "_pair_hits", spy)
    _, r, c = unpruned_scan_pairs(mat_a, mat_b, 12, True)
    assert r.size >= n // 7
    assert hit_list(_scan_pairs(mat_a, mat_b, 12, True)) == list(zip(r.tolist(), c.tolist()))
    assert chunks == [per_chunk, n - per_chunk]


@pytest.mark.parametrize("d, n_a, n_b", [(64, 5, solver._PAIR_BUDGET + 5), (128, 400, 150), (600, 90, 1000)])
def test_scan_pairs_places_hits_of_later_chunks(monkeypatch, d, n_a, n_b):
    """Hits only in row chunks after the first: _scan_pairs gives the unpruned scan's pairs and count.

    A chunk is _PAIR_BUDGET // n_b rows of mat_a, or one row when a row alone
    has more pairs (the first case); in the other two the last chunk is
    short.  Every third row of mat_a from the second chunk on has a partner
    in mat_b at distance 4, and no other pair is, so hits read at their
    offset within their chunk would land on rows of the first chunk.
    """
    rng = make_rng(d + n_a)
    per_chunk = max(1, solver._PAIR_BUDGET // n_b)
    mat_a = mask_pad(rng.integers(0, 1 << 64, size=(n_a, n_words(d)), dtype=np.uint64), d)
    mat_b = mask_pad(rng.integers(0, 1 << 64, size=(n_b, n_words(d)), dtype=np.uint64), d)
    planted = range(per_chunk, n_a, 3)
    for k, i in enumerate(planted):
        flip = np.zeros(d, dtype=np.uint8)
        flip[rng.permutation(d)[:4]] = 1
        mat_b[(97 * k) % n_b] = mat_a[i] ^ pack_bit_matrix(flip[None, :])[0]
    chunks = []

    def spy(*args):
        chunks.append(args[2].shape[1])
        return _pair_hits(*args)

    monkeypatch.setattr(solver, "_pair_hits", spy)
    count, r, c = unpruned_scan_pairs(mat_a, mat_b, 4, True)
    assert r.tolist() == list(planted)
    assert hit_list(_scan_pairs(mat_a, mat_b, 4, True)) == list(zip(r.tolist(), c.tolist()))
    assert _scan_pairs(mat_a, mat_b, 4, False) == count
    want_chunks = [min(per_chunk, n_a - lo) for lo in range(0, n_a, per_chunk)]
    assert len(want_chunks) >= 2 and chunks == 2 * want_chunks


def test_kernels_run_in_one_scope_that_restores_numpy_state(monkeypatch):
    """solve, naive_count and naive_search run their kernels with the small ufunc buffer and leave numpy's state as they found it.

    That holds when a call raises too, from a kernel in the middle of a walk.
    """
    inst = gen_instance(64, 256, 8, UNIFORM, seed=2)
    params = SolverParams(depth=2, branching=16, permutations=2, delta=0.5, strategy=deviation(1),
                          naive_threshold=16, stop_on_first=False)
    buffers = []

    def spy(*args):
        buffers.append(np.getbufsize())
        return _pair_hits(*args)

    monkeypatch.setattr(solver, "_pair_hits", spy)
    with np.errstate(over="raise", under="warn"):
        np.setbufsize(4096)
        state = np.getbufsize(), np.geterr()
        assert solve(inst, params, make_rng(1)).levels == 2
        assert naive_count(inst) == len(naive_search(inst)) >= 1
        assert (np.getbufsize(), np.geterr()) == state
        calls = []

        def failing(zs, rows):
            calls.append(np.getbufsize())
            if len(calls) == 3:
                raise RuntimeError("kernel failed")
            return block_weights_batch(zs, rows)

        monkeypatch.setattr(solver, "block_weights_batch", failing)
        with pytest.raises(RuntimeError, match="kernel failed"):
            solve(inst, params, make_rng(1))
        assert (np.getbufsize(), np.geterr()) == state
    assert buffers and set(buffers + calls) == {solver._UFUNC_BUFFER}


def greedy_passes(pairs: list[int]) -> list[list[int]]:
    """Children's pair counts packed in order: a pass takes children while their pairs fit _PAIR_BUDGET, at least one."""
    passes, total = [], 0
    for p in filter(None, pairs):
        if passes and total + p <= solver._PAIR_BUDGET:
            passes[-1].append(p)
            total += p
        else:
            passes.append([p])
            total = p
    return passes


def test_leaf_passes_are_the_greedy_packing_under_the_pair_budget(monkeypatch):
    """On the d=128 fixed-weight config, each root slab's leaf children are packed greedily into passes.

    The root is the only node filtered there, so a slab's children are one
    run of leaves.  Their pair counts come from the slab's accept mask: row
    k is bucket k, with list 1's rows in the first n columns.  With
    stop_on_first the last slab's passes end at the one with the hit.
    """
    n = 1024
    inst = gen_instance(128, n, 16, DistributionModel("fixed", 0.3), seed=4)
    params = choose_params(128, math.log2(n) / 128, 16 / 128, strategy=deviation(1), stop_on_first=True)
    slabs = []  # per slab: the children's pair counts, and the passes made over them

    def mask_spy(weights, lo, hi):
        acc = _accept_mask(weights, lo, hi)
        slabs.append(((acc[:, :n].sum(1) * acc[:, n:].sum(1)).tolist(), []))
        return acc

    def one_spy(mat_a, mat_b, gamma_count, collect):
        slabs[-1][1].append([len(mat_a) * len(mat_b)])
        return _scan_pairs(mat_a, mat_b, gamma_count, collect)

    def ragged_spy(mat, rows, na, nb, split, gamma_count):
        slabs[-1][1].append([p for p in (na * nb).tolist() if p])
        return _bucket_hits(mat, rows, na, nb, split, gamma_count)

    monkeypatch.setattr(solver, "_accept_mask", mask_spy)
    monkeypatch.setattr(solver, "_scan_pairs", one_spy)
    monkeypatch.setattr(solver, "_bucket_hits", ragged_spy)
    rep = solve(inst, params, make_rng(6))
    assert rep.levels == 1 and rep.planted_found
    packed = 0
    for k, (pairs, passes) in enumerate(slabs):
        want = greedy_passes(pairs)
        if k == len(slabs) - 1:
            want = want[: len(passes)]
        assert passes == want
        packed += sum(len(p) > 1 for p in passes)
    assert packed


@pytest.mark.parametrize("shape", [(k,) for k in range(18)] + [(8193,), (3, 1021), (32, 8191), (7, 13)])
@pytest.mark.parametrize("density", [0.0, 1e-4, 0.038, 0.083, 0.2, 1.0])
def test_sparse_flatnonzero_is_flatnonzero(shape, density):
    """The filter's 8-byte hit extraction equals np.flatnonzero, values and dtype, past its fallback density too."""
    mask = np.random.default_rng(shape[-1]).random(shape) < density
    got, want = solver._sparse_flatnonzero(mask), np.flatnonzero(mask)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# the benchmark's two solve configs at their chosen parameters, and the d=128
# walk at naive_threshold=128, which filters below the root and stops there
FIRST_HIT_WALKS = {
    "d64-uniform": (64, 4096, 8, UNIFORM, {}),
    "d128-fixed": (128, 1024, 16, DistributionModel("fixed", 0.3), {}),
    "d128-recursive": (128, 1024, 16, DistributionModel("fixed", 0.3), {"naive_threshold": 128}),
}


def weighed_solve(monkeypatch, inst, params, seed: int, full_slabs: bool):
    """Run solve(); returns its report, its rng, and [calls, rows of the last call] of block_weights_batch.

    full_slabs sizes stop-on-first slabs at _ELEM_BUDGET, as full rounds are.
    """
    count = [0, 0]

    def counting(zs, rows):
        count[0] += 1
        count[1] = rows.shape[0]
        return block_weights_batch(zs, rows)

    with monkeypatch.context() as m:
        m.setattr(solver, "block_weights_batch", counting)
        if full_slabs:
            m.setattr(solver, "_FIRST_HIT_ELEM_BUDGET", solver._ELEM_BUDGET)
        rng = make_rng(seed)
        rep = solve(inst, params, rng)
    return rep, rng, count


def first_hit_walk(name):
    d, n, gamma_count, model, threshold = FIRST_HIT_WALKS[name]
    inst = gen_instance(d, n, gamma_count, model, seed=7)
    params = choose_params(d, math.log2(n) / d, gamma_count / d, strategy=deviation(1), stop_on_first=True,
                           **threshold)
    return inst, params


@pytest.mark.parametrize("name", sorted(FIRST_HIT_WALKS))
def test_first_hit_walks_weigh_quarter_slabs(monkeypatch, name):
    """With stop_on_first the filter weighs no more past the hit than full slabs do, and the walk is the reference's.

    The z batch is drawn whole and the children are visited in z order,
    so only the rows x z weighed after the child with the hit can change.
    """
    inst, params = first_hit_walk(name)
    fewer = []  # per seed that weighs fewer: the rows of the node it stopped in
    for seed in range(4):
        rep, rng, (_, last_rows) = weighed_solve(monkeypatch, inst, params, seed, False)
        want_rng = make_rng(seed)
        assert report_key(rep) == report_key(reference_solve(inst, params, want_rng))
        assert repr(rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        full = weighed_solve(monkeypatch, inst, params, seed, True)[0].weighed
        assert rep.weighed <= full
        if rep.weighed < full:
            fewer.append(last_rows)
    assert fewer
    if name == "d128-recursive":
        assert min(fewer) < 2 * inst.n  # a walk that stopped inside a batch below the root


@pytest.mark.parametrize("name", sorted(FIRST_HIT_WALKS))
def test_full_rounds_weigh_full_slabs(monkeypatch, name):
    """Without stop_on_first the slabs stay at _ELEM_BUDGET: the same weight calls and rows x z as full slabs."""
    inst, params = first_hit_walk(name)
    params = dataclasses.replace(params, stop_on_first=False, permutations=1)
    got, _, (got_calls, _) = weighed_solve(monkeypatch, inst, params, 3, False)
    want, _, (want_calls, _) = weighed_solve(monkeypatch, inst, params, 3, True)
    assert report_key(got) == report_key(want)
    assert got_calls == want_calls


# --- survival probe -----------------------------------------------------------


def test_probe_matches_closed_form():
    k, g, dc = 16, 4, 5
    inst = gen_instance(k, 2, g, UNIFORM, seed=5)
    params = all_params(delta=dc / k, strategy=EXACT)
    trials = 10_000
    rate = survival_rate_probe(inst, params, make_rng(17), trials)
    q = strategy_survival_count(k, g, dc, EXACT) / 2.0**k
    sigma = math.sqrt(q * (1 - q) / trials)
    assert abs(rate - q) <= 3 * sigma


def test_probe_infeasible_split_is_zero():
    # odd planted distance cannot give equal weights on both sides
    inst = gen_instance(16, 2, 3, UNIFORM, seed=1)
    assert survival_rate_probe(inst, all_params(delta=0.25, strategy=EXACT),
                               make_rng(3), 2000) == 0.0


def test_probe_requires_planted_pair():
    v = pack_rows([zeros(8)])
    inst = Instance(8, 1, 0, v, v, None, UNIFORM, 0)
    with pytest.raises(ValueError):
        survival_rate_probe(inst, all_params(), make_rng(0), 10)


def test_pipeline_builds_no_bitvector(tmp_path, monkeypatch):
    """gen, write, read, solve and the naive count all stay on the packed matrices."""

    def refuse(*args, **kwargs):
        raise AssertionError("BitVector constructed")

    monkeypatch.setattr(bitvec.BitVector, "__init__", refuse)
    inst = gen_instance(96, 300, 10, DistributionModel("fixed", 0.3), seed=5)
    path = tmp_path / "inst.cpinst"
    write_instance(inst, path)
    back = read_instance(path)
    assert back == inst
    params = choose_params(96, math.log2(300) / 96, 10 / 96, strategy=deviation(1),
                           naive_threshold=150)  # n / 2: a tree
    rep = solve(back, params, make_rng(1))
    assert {(m.i, m.j) for m in rep.matches} <= {(m.i, m.j) for m in naive_search(back)}
    assert naive_count(back) >= 1
    # the refusal is live: the hook trips on a BitVector built directly
    with pytest.raises(AssertionError, match="BitVector constructed"):
        bitvec.BitVector(8, (0,))


def test_walk_builds_no_permuted_matrix(monkeypatch):
    """Later rounds gather their blocks from the instance's rows: no permuted copy, no unpacked bits."""
    inst = gen_instance(128, 128, 16, UNIFORM, seed=9)
    params = SolverParams(depth=3, branching=8, permutations=3, delta=0.4, strategy=deviation(2),
                          naive_threshold=0, stop_on_first=False)
    want = reference_solve(inst, params, make_rng(4))

    def refuse(*args, **kwargs):
        raise AssertionError("permuted matrix built")

    # tests/test_layout.py keeps permute_columns out of every src/ function
    monkeypatch.setattr(np, "unpackbits", refuse)
    got = solve(inst, params, make_rng(4))
    assert report_key(got) == report_key(want)
    assert got.levels == 3
