"""The bucketing solver and the exhaustive baseline it is measured against.

solve() runs P permutation rounds.  Each round walks a depth-r tree: at a
node on level i it draws N random block-local vectors z, keeps exactly the
elements of both current sublists whose i-th block lands within the chosen
radius of z, and recurses; sufficiently small sublists are finished by the
quadratic scan.  Matches are verified by a final distance check, so the
output never contains a false positive.

Both lists are walked as one stacked matrix, list 2 below list 1, since
every node filters both with the same z draws: a node is one index array
into the stack, its list-1 rows first.  Candidate filtering is vectorized:
each node evaluates the bucket criterion for a whole batch of z draws in a
few numpy passes over its rows (uint8 block weights, one flatnonzero over
the z-major accept matrix), then splits the hits into per-child index
ranges, each with the offset where its list-2 rows begin.  The filter
works on block-local words: the first time a permutation round reaches
level i, it gathers block i + 1 of the round's column order straight from
the stack to bit 0 of every row (bitvec.block_local_rows), the layout in
which draw_block_zs draws z.  So a node compares its rows' block with the
z's as drawn, and a round gathers only the blocks its walk filters.
Distances do not depend on the column order, so leaf scans read the stack.

Leaf buckets are scanned in batches.  A child is a leaf on the last level
or when its smaller side has at most naive_threshold rows.  A run of
consecutive leaf children is scanned in one gather, XOR and popcount pass
over all of their row pairs, and the results are committed in child order:
each child counts as a node, adds its pairs to the comparisons and its hits
to the matches.  A run of one child is sliced at its list-2 offset; a longer
run is split into its sides by row id.  With stop_on_first the commit ends
at the first child with a hit, so the counters are those of scanning leaf
by leaf and stopping there; pairs the pass scanned beyond that child are
not counted.  Leaves draw no random numbers, so inner children still draw
their z batches in the same order.

The leaf scans and the naive baseline share one kernel, _pair_hits.  It
compares word 0 for every pair and adds the other words one at a time.  A
pair whose distance over its first words already exceeds gamma cannot hit,
so once at most an eighth of the pairs are left in the running only those
are followed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bitvec import (
    WORD_BITS,
    BlockSpec,
    # align_block_zs, pack_rows and permute_columns go unused: perfbench/spans.py looks them up here by name
    align_block_zs,
    block_local_rows,
    block_weights_batch,
    draw_block_zs,
    pack_rows,
    permute_columns,
    random_permutation,
    round_nearest,
)

# Work per numpy pass: uint64 elements per filter slab, and row pairs per
# scan pass (a scan's bulk temporaries hold one word per pair, see
# _pair_hits).  They do not keep a scan's temporaries warm: timed alone on
# 1-word rows (2-vCPU VM), the batched leaf pass cost about 2.5x more per
# pair above about 19k pairs, where its temporaries pass about 150 KiB and
# seem to be faulted in afresh each pass, and _PAIR_BUDGET lies above that.
_ELEM_BUDGET = 1 << 18
_PAIR_BUDGET = _ELEM_BUDGET >> 3


@dataclass(frozen=True)
class Strategy:
    """Bucket acceptance rule around the target weight delta_count."""

    kind: str  # "exact" | "deviation" | "atmost"
    eps: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "deviation", "atmost"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.eps < 0:
            raise ValueError("deviation width must be nonnegative")
        if self.kind != "deviation" and self.eps != 0:
            raise ValueError(f"{self.kind} strategy takes no deviation width")

    def token(self) -> str:
        return f"dev:{self.eps}" if self.kind == "deviation" else self.kind

    def window(self, delta_count: int) -> tuple[int, int]:
        """The block weights [lo, hi] this rule accepts around the target delta_count."""
        if self.kind == "atmost":
            return 0, delta_count
        # exact is the window of width 0
        return max(delta_count - self.eps, 0), delta_count + self.eps

    @classmethod
    def from_token(cls, token: str) -> "Strategy":
        if token in ("exact", "atmost"):
            return cls(token)
        kind, sep, arg = token.partition(":")
        if sep and kind == "dev":
            try:
                return cls("deviation", int(arg))
            except ValueError:
                pass
        raise ValueError(f"malformed strategy token {token!r} (want exact, dev:<eps>, or atmost)")


EXACT = Strategy("exact")
AT_MOST = Strategy("atmost")


def deviation(eps: int = 1) -> Strategy:
    return Strategy("deviation", eps)


def _accept_mask(weights: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Which block weights lie in the window [lo, hi] (Strategy.window)."""
    if lo == hi:
        return weights == lo
    if lo == 0:
        return weights <= hi
    # lo <= w <= hi as one unsigned compare: below the window, w - lo wraps
    # around to a value above hi - lo, once hi is cut to the largest weight
    unsigned = weights.view(f"u{weights.itemsize}")
    return unsigned - lo <= min(hi, (1 << 8 * unsigned.itemsize) - 1) - lo


@dataclass(frozen=True)
class SolverParams:
    """Tuning knobs of one solve run.

    delta is the relative bucket radius; values above 1/2 are only useful
    for degenerate always-accept configurations (e.g. atmost with
    delta = 1), which turn the solver into the exhaustive scan.
    """

    depth: int
    branching: int
    permutations: int
    delta: float
    strategy: Strategy
    naive_threshold: int
    stop_on_first: bool

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.branching < 1:
            raise ValueError("branching must be at least 1")
        if self.permutations < 1:
            raise ValueError("permutations must be at least 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta outside [0, 1]: {self.delta}")
        if self.naive_threshold < 0:
            raise ValueError("naive_threshold must be nonnegative")

    def window(self, width: int) -> tuple[int, int]:
        """The block weights [lo, hi] a block of width accepts: the strategy's window around delta width."""
        return self.strategy.window(round_nearest(self.delta * width))


class MatchPair(NamedTuple):
    i: int
    j: int
    dist: int


@dataclass(frozen=True)
class SolveReport:
    """Matches plus the counters needed to reason about a run."""

    matches: tuple[MatchPair, ...]
    nodes_visited: int
    levels: int  # the deepest level filtered, 0 when the root is scanned
    naive_comparisons: int
    wall_time: float
    planted_found: Optional[bool]


def _scan_pairs(mat_a: np.ndarray, mat_b: np.ndarray, gamma_count: int, collect: bool):
    """Full cross scan in row chunks; returns (hit_count, hit_rows, hit_cols).

    With collect the hits come as row-major index arrays, otherwise as None.
    Each chunk goes through _pair_hits, pruned word by word.
    """
    n_b = mat_b.shape[0]
    chunk = max(1, _PAIR_BUDGET // max(1, n_b))
    cols_b = np.ascontiguousarray(mat_b.T)
    total = 0
    rows, cols = [], []
    for lo in range(0, mat_a.shape[0], chunk):
        cols_a = mat_a[lo : lo + chunk].T
        found = _pair_hits(
            lambda t: np.bitwise_count(cols_a[t][:, None] ^ cols_b[t][None, :]).ravel(),
            lambda pos: np.divmod(pos, n_b),
            cols_a, cols_b, gamma_count, collect,
        )
        if not collect:
            total += found
            continue
        r, c = np.divmod(found, n_b)
        total += r.size
        rows.append(r + lo)
        cols.append(c)
    if not collect:
        return total, None, None
    return total, np.concatenate(rows), np.concatenate(cols)


def _pair_hits(dense_word, pair_rows, cols_a, cols_b, gamma_count: int, collect: bool = True):
    """Flat indices, ascending, of the pairs at distance gamma_count; their number without collect.

    cols_a[t] and cols_b[t] hold word t of the two sides' rows.  dense_word(t)
    gives the popcount of word t of a ^ b for every pair in flat order, and
    pair_rows(pos) the row indices (ia, ib) of the pairs at flat positions pos.
    A pair whose distance over the first words already exceeds gamma_count
    cannot hit.  So words are added for every pair only while more than an
    eighth of the pairs could still hit; after that only those pairs are
    followed, and a pair drops out as soon as it passes gamma_count.  The sum
    is int32 once the rows hold more than 255 bits, so it cannot wrap.
    """
    words = len(cols_a)
    part = dense_word(0)
    if words * WORD_BITS > 255:
        part = part.astype(np.int32)
    t = 1
    while t < words:
        # while the first t words hold at most gamma_count bits, every pair is live
        if t * WORD_BITS > gamma_count:
            live = part <= gamma_count
            if 8 * np.count_nonzero(live) <= live.size:
                break
        part += dense_word(t)
        t += 1
    if t == words:
        hit = part == gamma_count
        return np.flatnonzero(hit) if collect else int(np.count_nonzero(hit))
    pos = np.flatnonzero(live)
    part = part[pos]
    ia, ib = pair_rows(pos)
    for t in range(t, words):
        part += np.bitwise_count(cols_a[t].take(ia) ^ cols_b[t].take(ib))
        live = np.flatnonzero(part <= gamma_count)
        pos, part, ia, ib = pos[live], part[live], ia[live], ib[live]
    hit = pos[part == gamma_count]
    return hit if collect else hit.size


def _bucket_hits(mat, rows, na, nb, split: int, gamma_count: int):
    """Scan a run of buckets in one pass: each bucket's full cross product.

    mat holds list 1 in rows below split and list 2 from split on.  Bucket k
    is the k-th segment of rows: na[k] list-1 rows, then nb[k] list-2 rows.
    Returns (i, j, k) arrays for the pairs at gamma_count, ordered by bucket:
    the pair's list-1 and list-2 row ids in mat, and the bucket holding it.
    """
    if na.size == 1:
        sub = mat.take(rows, 0)
        _, hit_i, hit_j = _scan_pairs(sub[: na[0]], sub[na[0] :], gamma_count, True)
        return rows[hit_i], rows[na[0] + hit_j], np.zeros(hit_i.size, dtype=np.intp)
    side_a = rows < split
    rows_a, rows_b = rows[side_a], rows[~side_a]
    # flatten the pairs a-row by a-row: each a-row meets the nb[k] b-rows of
    # its own bucket k; int32 keeps this index arithmetic cheap
    na, nb = na.astype(np.int32), nb.astype(np.int32)
    per_row = np.repeat(nb, na)
    end_pair = np.cumsum(per_row, dtype=np.int32)
    first_b = np.repeat(np.cumsum(nb, dtype=np.int32) - nb, na)
    pb = np.repeat(first_b - end_pair + per_row, per_row)
    pb += np.arange(pb.size, dtype=np.int32)
    cols_a, cols_b = mat.take(rows_a, 0).T, mat.take(rows_b, 0).T
    hit = _pair_hits(
        lambda t: np.bitwise_count(np.repeat(cols_a[t], per_row) ^ cols_b[t].take(pb)),
        # pairs still in the running can be many: one repeat beats a search each
        lambda pos: (np.repeat(np.arange(per_row.size, dtype=np.int32), per_row)[pos], pb[pos]),
        cols_a, cols_b, gamma_count,
    )
    # the a-row of a pair is the one whose run of per_row pairs holds it
    pa = np.searchsorted(end_pair, hit, side="right")
    bucket = np.searchsorted(np.cumsum(na * nb), hit, side="right")
    return rows_a[pa], rows_b[pb[hit]], bucket


def naive_search(inst, gamma_count: int | None = None) -> list[MatchPair]:
    """Every cross pair at the target distance, in lexicographic order."""
    g = inst.gamma_count if gamma_count is None else gamma_count
    if not 0 <= g <= inst.d:
        raise ValueError(f"gamma_count outside [0, {inst.d}]: {g}")
    _, rows, cols = _scan_pairs(inst.mat1, inst.mat2, g, True)
    return [MatchPair(i, j, g) for i, j in zip(rows.tolist(), cols.tolist())]


def naive_count(inst, gamma_count: int | None = None) -> int:
    """Number of cross pairs at the target distance, without materializing them."""
    g = inst.gamma_count if gamma_count is None else gamma_count
    if not 0 <= g <= inst.d:
        raise ValueError(f"gamma_count outside [0, {inst.d}]: {g}")
    total, _, _ = _scan_pairs(inst.mat1, inst.mat2, g, False)
    return total


def solve(inst, params: SolverParams, rng: np.random.Generator) -> SolveReport:
    """Run the bucketing search on a planted instance.

    Both lists are walked as one stacked matrix, list 2 from row split on.
    A node is one index array into it, its list-1 rows first; a slab's
    children are given by start (where each child begins) and mid (where its
    list-2 rows begin).  The first permutation round is the identity, later
    rounds draw a fresh uniform coordinate permutation, whose blocks are
    gathered from the stack as the walk first reaches their level.  A root
    of at most naive_threshold rows a side is a leaf, scanned in round 0
    alone.  With stop_on_first the walk unwinds at the first verified match;
    otherwise matches from all rounds are unioned and deduplicated.
    """
    t_start = time.perf_counter()
    d, gamma = inst.d, inst.gamma_count
    split = inst.mat1.shape[0]
    base = np.vstack((inst.mat1, inst.mat2))
    spec = BlockSpec(d, params.depth)
    level_window = [params.window(spec.width(i)) for i in range(1, params.depth + 1)]

    found: set[tuple[int, int]] = set()
    nodes = 0
    levels = 0
    comparisons = 0

    def scan_leaves(sel, start, mid, lo: int, hi: int) -> bool:
        """Scan children lo..hi-1 of a node, none of them inner, and commit them in order.

        Child j holds rows sel[start[j]:start[j + 1]], its list-2 rows from
        mid[j] on; a child with an empty side is no node.  One pass scans up
        to _PAIR_BUDGET pairs.  Returns True when stop_on_first ends the walk
        at a child with a hit; later children stay uncounted.
        """
        nonlocal nodes, comparisons
        na = mid[lo:hi] - start[lo:hi]
        nb = start[lo + 1 : hi + 1] - mid[lo:hi]
        pairs = na * nb
        cum = np.concatenate(([0], np.cumsum(pairs)))
        k0 = 0
        while k0 < hi - lo:
            k1 = int(np.searchsorted(cum, cum[k0] + _PAIR_BUDGET, side="right")) - 1
            k1 = min(max(k1, k0 + 1), hi - lo)
            if cum[k1] > cum[k0]:
                rows = sel[start[lo + k0] : start[lo + k1]]
                hit_i, hit_j, hit_k = _bucket_hits(base, rows, na[k0:k1], nb[k0:k1], split, gamma)
                if hit_k.size and params.stop_on_first:
                    k1 = k0 + int(hit_k[0]) + 1
                    first = hit_k == hit_k[0]
                    hit_i, hit_j = hit_i[first], hit_j[first]
                nodes += int(np.count_nonzero(pairs[k0:k1]))
                comparisons += int(cum[k1] - cum[k0])
                found.update(zip(hit_i.tolist(), (hit_j - split).tolist()))
                if params.stop_on_first and found:
                    return True
            k0 = k1
        return False

    def descend(idx, na: int, level: int) -> bool:
        """Filter an inner node's rows, list-1 rows idx[:na] first, into the buckets of its z batch."""
        nonlocal nodes, levels
        nodes += 1
        if local[level] is None:
            local[level] = block_local_rows(base, cols[slice(*spec.bounds(level + 1))])
            levels = max(levels, level + 1)
        zs = draw_block_zs(rng, params.branching, spec.width(level + 1))
        lo, hi = level_window[level]
        sub = local[level].take(idx, 0)
        # zs has the block-local words of the rows' block
        slab = max(1, _ELEM_BUDGET // max(1, idx.size * zs.shape[1]))
        for s0 in range(0, params.branching, slab):
            za = zs[s0 : s0 + slab]
            # a z-major accept matrix (the weight helper is symmetric in its
            # arguments), so each bucket's members sit contiguously, list-1
            # rows first, after one flatnonzero pass
            flat = np.flatnonzero(_accept_mask(block_weights_batch(za, sub), lo, hi))
            edges = np.arange(za.shape[0] + 1) * idx.size
            start = np.searchsorted(flat, edges)
            mid = np.searchsorted(flat, edges[:-1] + na)
            if visit(idx[flat % idx.size], start, mid, level + 1):
                return True
        return False

    def visit(sel, start, mid, level: int) -> bool:
        """Visit children on one level in order: scan runs of leaves, descend into the rest."""
        count = mid.size
        inner = []
        if level < params.depth:
            sizes = np.minimum(mid - start[:-1], start[1:] - mid)
            inner = np.flatnonzero(sizes > params.naive_threshold).tolist()
        j = 0
        for c in inner + [count]:
            if c > j and scan_leaves(sel, start, mid, j, c):
                return True
            if c < count and descend(sel[start[c] : start[c + 1]], mid[c] - start[c], level):
                return True
            j = c + 1
        return False

    # the root is the single child of a level above it
    root = np.arange(base.shape[0])
    root_start, root_mid = np.array([0, root.size]), np.array([split])
    for rnd in range(params.permutations):
        # column j of the round's layout is column cols[j] of the stack; the filter
        # at level i compares block i + 1 of the layout, which descend gathers
        cols = np.arange(d) if rnd == 0 else np.argsort(random_permutation(rng, d))
        local = [None] * params.depth
        # a leaf root was scanned in full, and permuting columns keeps every distance
        if visit(root, root_start, root_mid, 0) or min(split, root.size - split) <= params.naive_threshold:
            break

    matches = []
    for i, j in sorted(found):
        dist = int(np.bitwise_count(inst.mat1[i] ^ inst.mat2[j]).sum())
        if dist == gamma:
            matches.append(MatchPair(i, j, dist))
    planted_found: Optional[bool] = None
    if inst.planted is not None:
        planted_found = tuple(inst.planted) in {(m.i, m.j) for m in matches}
    return SolveReport(
        matches=tuple(matches),
        nodes_visited=nodes,
        levels=levels,
        naive_comparisons=comparisons,
        wall_time=time.perf_counter() - t_start,
        planted_found=planted_found,
    )
