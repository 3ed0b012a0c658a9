import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambucket.analysis import DistributionModel, choose_params
from hambucket import bitvec, solver
from hambucket.bitvec import (
    BlockSpec,
    draw_block_zs,
    make_rng,
    mask_pad,
    n_words,
    pack_bit_matrix,
    pack_rows,
)
from hambucket.generator import Instance, gen_instance, read_instance, write_instance
from hambucket.solver import (
    AT_MOST,
    EXACT,
    MatchPair,
    _accept_mask,
    _bucket_hits,
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


def tiny_instance():
    l1 = pack_rows([from_bits([0, 0, 0]), from_bits([0, 1, 1])])
    l2 = pack_rows([from_bits([0, 0, 1]), from_bits([1, 1, 1])])
    return Instance(3, 2, 1, l1, l2, (0, 0), UNIFORM, 0)


def test_naive_search_lists_all_pairs_in_order():
    got = naive_search(tiny_instance())
    assert got == [MatchPair(0, 0, 1), MatchPair(1, 0, 1), MatchPair(1, 1, 1)]
    assert naive_count(tiny_instance()) == 3


def test_naive_search_distance_override():
    assert naive_search(tiny_instance(), gamma_count=3) == [MatchPair(0, 1, 3)]
    assert naive_search(tiny_instance(), gamma_count=2) == []


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
        assert [(m.i, m.j) for m in naive_search(inst, g)] == want
        assert naive_count(inst, g) == len(want)
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
        got_count, got_rows, got_cols = _scan_pairs(mat_a, mat_b, g, True)
        assert want_count >= 1
        assert got_count == want_count
        assert got_rows.tolist() == want_rows.tolist()
        assert got_cols.tolist() == want_cols.tolist()
        assert _scan_pairs(mat_a, mat_b, g, False)[0] == want_count


@pytest.mark.parametrize("d", [64, 128, 200, 600])
def test_batched_leaf_pass_matches_per_bucket_scans(d):
    """The pairs a batched leaf pass reports, bucket by bucket, are the unpruned scan's.

    Row i of the second list is row i of the first at a distance drawn from
    the tested gammas (or 256 more), so each gamma has hits; gammas from 64
    up keep several words dense before the pass follows the few pairs left.
    The lists are stacked as the solver stacks them, list 2 from row n on,
    and each bucket is also scanned alone, the pass for a single bucket.
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
                assert list(zip(*(x.tolist() for x in got_alone))) == alone
                want += [(i, j, k) for i, j, _ in alone]
        assert want
        assert list(zip(*(x.tolist() for x in got))) == want
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
    for field, bad in (("depth", 0), ("branching", 0), ("permutations", 0),
                       ("delta", 1.5), ("naive_threshold", -1)):
        with pytest.raises(ValueError):
            SolverParams(**{**good, field: bad})


# --- partition ----------------------------------------------------------------


@given(st.data())
@settings(max_examples=50)
def test_partition_prefix_matches_accept_rule(data):
    d = data.draw(st.integers(4, 100))
    r = data.draw(st.integers(1, min(4, d // 2)))
    spec = BlockSpec(d, r)
    blk = data.draw(st.integers(1, r))
    rng = make_rng(data.draw(st.integers(0, 2**32)))
    vs = [random_vector(rng, d) for _ in range(data.draw(st.integers(1, 30)))]
    n = len(vs)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n))
    z = random_vector(rng, spec.width(blk))
    dc = data.draw(st.integers(0, spec.width(blk)))
    strat = data.draw(st.sampled_from([EXACT, deviation(1), AT_MOST]))

    order = np.arange(n, dtype=np.int64)
    before = order.copy()
    mid = partition_in_place(pack_rows(vs), order, lo, hi, z, spec, blk, dc, strat)

    assert sorted(order[lo:hi]) == sorted(before[lo:hi])
    assert np.array_equal(order[:lo], before[:lo])
    assert np.array_equal(order[hi:], before[hi:])
    for idx in order[lo:mid]:
        assert bucket_accept(block_weight(vs[idx], z, spec, blk), dc, strat)
    for idx in order[mid:hi]:
        assert not bucket_accept(block_weight(vs[idx], z, spec, blk), dc, strat)


def test_partition_is_stable():
    rng = make_rng(8)
    d = 16
    vs = [random_vector(rng, d) for _ in range(40)]
    spec = BlockSpec(d, 2)
    z = random_vector(rng, 8)
    order = np.arange(40, dtype=np.int64)
    mid = partition_in_place(pack_rows(vs), order, 0, 40, z, spec, 1, 4, AT_MOST)
    accepted = [i for i in range(40)
                if bucket_accept(block_weight(vs[i], z, spec, 1), 4, AT_MOST)]
    assert order[:mid].tolist() == accepted
    assert order[mid:].tolist() == [i for i in range(40) if i not in accepted]


def test_partition_rejects_wrong_z_width():
    vs = [zeros(8)]
    with pytest.raises(ValueError):
        partition_in_place(pack_rows(vs), np.arange(1), 0, 1,
                           zeros(3), BlockSpec(8, 2), 1, 2, EXACT)


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
    """A root of at most naive_threshold rows a side is scanned in round 0 alone.

    Permuting columns keeps every distance, so later rounds would repeat the scan.
    """
    n = 64
    inst = gen_instance(32, n, 4, UNIFORM, seed=3)
    params = SolverParams(depth=2, branching=8, permutations=4, delta=0.25, strategy=deviation(1),
                          naive_threshold=n, stop_on_first=False)
    rep = solve(inst, params, make_rng(0))
    assert (rep.nodes_visited, rep.levels, rep.naive_comparisons) == (1, 0, n * n)
    assert rep.planted_found is True


def test_planted_flag_absent_without_plant():
    rng = make_rng(14)
    vs1 = pack_rows([random_vector(rng, 16) for _ in range(8)])
    vs2 = pack_rows([random_vector(rng, 16) for _ in range(8)])
    inst = Instance(16, 8, 4, vs1, vs2, None, UNIFORM, 0)
    rep = solve(inst, all_params(), make_rng(0))
    assert rep.planted_found is None


# --- parity with the per-leaf solver -------------------------------------------


def report_key(rep):
    return rep.matches, rep.nodes_visited, rep.levels, rep.naive_comparisons, rep.planted_found


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
    spec = BlockSpec(96, 3)
    target = round_nearest(base.delta * spec.width(1))
    zs = draw_block_zs(make_rng(5), base.branching, spec.width(1))
    sizes = []
    for z in zs:
        zv = unpack_row(spec.width(1), z)
        na, nb = (sum(bucket_accept(block_weight(unpack_row(96, row), zv, spec, 1), target, base.strategy)
                      for row in mat) for mat in (inst.mat1, inst.mat2))
        if na and nb:
            sizes.append(min(na, nb))
    threshold = sorted(sizes)[len(sizes) // 2]
    assert min(sizes) <= threshold < max(sizes)
    params = SolverParams(**{**base.__dict__, "naive_threshold": threshold})
    got = solve(inst, params, make_rng(5))
    assert report_key(got) == report_key(reference_solve(inst, params, make_rng(5)))
    assert got.levels >= 2


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
    with pytest.raises(AssertionError, match="BitVector constructed"):
        back.list1


def test_walk_builds_no_permuted_matrix(monkeypatch):
    """Later rounds gather their blocks from the instance's rows: no permuted copy, no unpacked bits."""
    inst = gen_instance(128, 128, 16, UNIFORM, seed=9)
    params = SolverParams(depth=3, branching=8, permutations=3, delta=0.4, strategy=deviation(2),
                          naive_threshold=0, stop_on_first=False)
    want = reference_solve(inst, params, make_rng(4))

    def refuse(*args, **kwargs):
        raise AssertionError("permuted matrix built")

    monkeypatch.setattr(solver, "permute_columns", refuse)
    monkeypatch.setattr(bitvec, "unpack_bit_matrix", refuse)
    got = solve(inst, params, make_rng(4))
    assert report_key(got) == report_key(want)
    assert got.levels == 3
