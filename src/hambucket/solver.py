"""The bucketing solver and the exhaustive baseline it is measured against.

solve() runs P permutation rounds, walked by one _Walk, which holds the
stack, the round's block gathers and the report's counters.  Each round
walks a depth-r tree: at a node on level i it draws N random block-local
vectors z, keeps exactly the elements of both current sublists whose block
i lands within the chosen radius of z, and recurses; sufficiently small
sublists are finished by the quadratic scan.  A root that small is the
naive scan, once: no round is walked, nothing is drawn and no _Walk is
built, since permuting columns keeps every distance.  Matches are verified
by a final distance check, so the output never contains a false positive.

Both lists are walked as one stacked matrix, list 2 below list 1, since
every node filters both with the same z draws: a node is one index array
into the stack, its list-1 rows first.  Candidate filtering is vectorized:
each node draws its whole z batch, then weighs its rows against a slab of
z's at a time in a few numpy passes (uint8 block weights from XOR and
popcount of block-local words, then the z-major accept matrix's hits, read
eight bytes at a time by _sparse_flatnonzero), splits the slab's hits into
per-child index ranges, each with the offset where its list-2 rows begin,
and visits those children before it weighs the next slab.  A slab holds
_ELEM_BUDGET block-local words in a full round and a quarter of that when
the walk stops at its first hit, so less of the batch past the hit is
weighed; the draws and the order of the children do not depend on it.
The filter works on block-local words: the first time
a permutation round reaches level i, it gathers block i of the round's
column order (levels and blocks count from 0, bitvec.block_bounds)
straight from the stack to bit 0 of every row (bitvec.block_local_rows),
the layout in which draw_block_zs draws z.  So a node compares its rows'
block with the z's as drawn, and a round gathers only the blocks its walk
filters.  A block of at most 32 bits is held as uint32, rows and z's alike,
which halves the bytes the filter reads; the z's are drawn as uint64, so
the random stream does not depend on the width.
Distances do not depend on the column order, so leaf scans read the stack.

Leaf buckets are scanned in batches.  A child is a leaf on the last level
or when its smaller side has at most naive_threshold rows.  A run of
consecutive leaf children is packed into passes of at most _PAIR_BUDGET row
pairs, or one child above it, and the results are committed in child order:
each child counts as a node, adds its pairs to the comparisons and its hits
to the matches.  A pass over one child is the cross scan the naive baseline
runs, _scan_pairs: one broadcast XOR and popcount of its two sides' words,
or row chunks of at most _PAIR_BUDGET pairs for a child above the budget,
so memory stays bounded.  A pass over several children is one ragged
gather over all of their row pairs (_bucket_hits).  With stop_on_first the
commit ends at the first child with a hit, so the counters are those of
scanning leaf by leaf and stopping there; pairs the pass scanned beyond
that child are not counted.  Leaves draw no random numbers, so inner
children still draw their z batches in the same order.

_scan_pairs and the ragged pass share one kernel, _pair_hits.  It compares
word 0 for every pair and adds the other words one at a time.  A pair whose
distance over its first words already exceeds gamma cannot hit, so once at
most an eighth of the pairs are left in the running only those are
followed.

The naive baseline scans by weight parity.  dist(a, b) = wt(a) + wt(b) -
2|a & b|, so a pair at gamma has weights whose parities sum to gamma's:
naive_search and naive_count split each list's row indices by weight
parity and give _scan_pairs only the class pairs that can hit.
On uniform rows that is about half of the pairs: naive_count took 0.49x
its whole-scan time at d=64, n=2^12, and 0.63x at n=2^9; rows of one
parity (fixed weight) pay about 1.00-1.05x for the fold and the row
gather.  The walk's leaves stay whole.  Two _scan_pairs calls cost more
than one at its bucket sizes (15.6 against 11.7 us at 80 rows a side;
about 5 us of a call is fixed), and parity sub-buckets in the ragged pass
left d=128, n=2^10 solves at 1.0-1.1 ms against 0.9-1.0 ms (2-vCPU VM).

The walk and the naive scan run their kernels with a small ufunc buffer
(_small_ufunc_buffer).  numpy copies a broadcast operand through that
buffer whenever the broadcast's inner axis is short, which at the default
8192 elements made a 64 x 512 XOR cost about two and a half times what it
costs with a 64-element buffer.  The kernels compute only integers, so the
buffer size cannot change a result.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bitvec import (
    MAX_DIM,
    WORD_BITS,
    # align_block_zs, pack_rows and permute_columns go unused: perfbench/spans.py looks them up here by name
    align_block_zs,
    block_bounds,
    block_local_rows,
    block_weights_batch,
    draw_block_zs,
    pack_rows,
    permute_columns,
    random_permutation,
    round_nearest,
)

# Work per numpy pass: block-local words per filter slab in a full round, and
# row pairs per scan pass (a scan's bulk temporaries hold one word per pair, see
# _pair_hits).  Timed alone on 1-word rows, a batched leaf pass costs about
# 2.5x more per pair above about 19k pairs, but inside solve its temporaries
# are not faulted in afresh (48 d=64 solves: 0-140 minor faults in all), and
# with equal reports the median time-to-solution was lowest at this
# _PAIR_BUDGET: against half and a quarter of it at d=128, and twice it at
# d=64 (2-vCPU VM; ROADMAP item 9).  Both were tuned while broadcasts still
# went through numpy's default ufunc buffer, and were kept: they feed
# analysis.predicted_work, so moving them moves choose_params.
_ELEM_BUDGET = 1 << 18
_PAIR_BUDGET = _ELEM_BUDGET >> 3
# Block-local words per filter slab when the walk stops at its first hit.
# The filter weighs at most one slab past the child with the hit: at the
# d=128, n=2^10 root a full slab is 128 z's, and the planted pair turns up
# after about 77 children.  With equal reports, 2^15 was slower than 2^16 and
# 2^17 within noise of it (median per-search ratio to 2^16: 1.01-1.05 for
# 2^17, over 288 searches at each of d=64, n=2^12 and d=128, n=2^10; 2-vCPU
# VM).  Full rounds keep _ELEM_BUDGET: scan_leaves packs passes within one
# slab, and quarter slabs made those searches 1.18-1.23x slower.
# analysis.predicted_work counts every slab at _ELEM_BUDGET (ROADMAP item 12).
_FIRST_HIT_ELEM_BUDGET = _ELEM_BUDGET >> 2
# Elements in numpy's ufunc buffer while the kernels run (_small_ufunc_buffer).
# On the one-word leaf kernel 16 to 256 cost the same per pair, and from 512
# on a 157 x 157 broadcast is copied again; 64 and 128 filtered 70-row nodes
# fastest, and 64 gave the lowest time-to-solution at d=64 (2-vCPU VM).
_UFUNC_BUFFER = 64


@dataclass(frozen=True)
class Strategy:
    """Bucket acceptance rule around the target weight delta_count."""

    kind: str  # "exact" | "deviation" | "atmost"
    eps: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "deviation", "atmost"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0 <= self.eps <= MAX_DIM:
            raise ValueError(f"deviation width outside [0, {MAX_DIM}]: {self.eps}")
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
        # ASCII digits only, as --seed takes: isdecimal alone admits every script's digits
        if sep and kind == "dev" and arg.isascii() and arg.removeprefix("-").isdecimal():
            return cls("deviation", int(arg))
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
        for name in ("depth", "branching", "permutations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1: {getattr(self, name)}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta outside [0, 1]: {self.delta}")
        if self.naive_threshold < 0:
            raise ValueError(f"naive_threshold must be nonnegative: {self.naive_threshold}")

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
    rounds: int  # permutation rounds walked, 0 when the root is scanned
    weighed: int  # rows x z block weights the filter computed
    naive_comparisons: int  # row pairs of the buckets scanned, na * nb each, not the pairs the kernel computed
    wall_time: float
    planted_found: Optional[bool]


@contextmanager
def _small_ufunc_buffer():
    """Run the block with a ufunc buffer of _UFUNC_BUFFER elements.

    errstate restores the caller's buffer size and error handling on exit,
    an exception included.  Only integer kernels may run inside: a float
    reduction can depend on the buffer size.
    """
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER)
        yield


def _sparse_flatnonzero(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero of a bool array, read eight bytes at a time.

    The prefix of whole 8-byte groups is viewed as uint64: one bool pass
    finds the groups that hold a hit, and only their bytes are searched; the
    tail goes through np.flatnonzero.  Once more than half of the groups hold
    a hit (above about 8% density) the two passes cost more than one, and the
    mask goes through np.flatnonzero whole.
    """
    flat = mask.ravel()
    head = flat.size & ~7
    words = flat[:head].view(np.uint64)
    groups = np.flatnonzero(words != 0)
    if 2 * groups.size > words.size:
        return np.flatnonzero(flat)
    pos = np.flatnonzero(words[groups].view(np.bool_))
    hits = (groups[pos >> 3] << 3) | (pos & 7)
    if head == flat.size:
        return hits
    return np.concatenate((hits, np.flatnonzero(flat[head:]) + head))


def _scan_pairs(mat_a: np.ndarray, mat_b: np.ndarray, gamma_count: int, collect: bool):
    """Cross scan of every row of mat_a with every row of mat_b, which holds at least one row.

    With collect returns (i, j), the row indices of the pairs at gamma_count
    in row-major order, or None when no pair hits; otherwise their number.
    The rows of mat_a go in chunks of at most _PAIR_BUDGET pairs (one row
    when a row of mat_a alone has more), each one broadcast pass through
    _pair_hits, so a scan within the budget is one pass.
    """
    n_b = len(mat_b)
    chunk = _PAIR_BUDGET // n_b or 1
    # each word column contiguous: strided ones made naive_count 1.3x slower at d=128, n=2^10
    cols_b = np.ascontiguousarray(mat_b.T)
    found = []
    for lo in range(0, len(mat_a), chunk):
        cols_a = mat_a[lo : lo + chunk].T
        hit = _pair_hits(
            lambda t: np.bitwise_count(cols_a[t, :, None] ^ cols_b[t]).ravel(),
            lambda pos: np.divmod(pos, n_b),
            cols_a, cols_b, gamma_count, collect,
        )
        # pair (i, j) of the whole scan has flat index i * n_b + j
        found.append(hit + lo * n_b if lo and collect else hit)
    if not collect:
        return sum(found)
    hit = found[0] if len(found) == 1 else np.concatenate(found)
    return np.divmod(hit, n_b) if hit.size else None


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
    """Scan a run of buckets in one ragged pass: each bucket's full cross product.

    mat holds list 1 in rows below split and list 2 from split on.  Bucket k
    is the k-th segment of rows: na[k] list-1 rows, then nb[k] list-2 rows.
    Returns (i, j, k) arrays for the pairs at gamma_count, ordered by bucket:
    the pair's list-1 and list-2 row ids in mat, and the bucket holding it;
    None when no pair hits.
    """
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
    if not hit.size:
        return None
    # the a-row of a pair is the one whose run of per_row pairs holds it
    pa = np.searchsorted(end_pair, hit, side="right")
    bucket = np.searchsorted(np.cumsum(na * nb), hit, side="right")
    return rows_a[pa], rows_b[pb[hit]], bucket


def _naive_scan(inst, collect: bool):
    """The naive scan of naive_search (collect) and naive_count.

    A pair at distance gamma_count has weights whose parities sum to
    gamma_count's, so each list's row indices are split into its even- and
    odd-weight rows, both ascending, and only the class pairs that can hit
    are scanned.  With collect returns the (i, j) arrays of the hits in
    lexicographic order, or None.
    """
    gamma, classes = inst.gamma_count, []
    for mat in (inst.mat1, inst.mat2):
        # a row's weight parity is the parity of the XOR of its words
        fold = mat[:, 0].copy()
        for t in range(1, mat.shape[1]):
            fold ^= mat[:, t]
        odd = np.bitwise_count(fold) & 1
        # nonzero, not flatnonzero: half the call's cost on 2^9 rows
        classes.append(((odd == 0).nonzero()[0], odd.nonzero()[0]))
    count, keys = 0, []
    for parity, rows_a in enumerate(classes[0]):
        rows_b = classes[1][(gamma + parity) & 1]
        if not rows_a.size or not rows_b.size:
            continue
        hits = _scan_pairs(inst.mat1.take(rows_a, 0), inst.mat2.take(rows_b, 0), gamma, collect)
        if not collect:
            count += hits
        elif hits is not None:
            # pair (i, j) of the lists has key i * n + j
            keys.append(rows_a[hits[0]] * inst.n + rows_b[hits[1]])
    if not collect:
        return count
    return np.divmod(np.sort(np.concatenate(keys)), inst.n) if keys else None


def naive_search(inst) -> list[MatchPair]:
    """Every cross pair at the instance's distance, in lexicographic order."""
    with _small_ufunc_buffer():
        hits = _naive_scan(inst, True)
    return [] if hits is None else [MatchPair(i, j, inst.gamma_count) for i, j in zip(*(h.tolist() for h in hits))]


def naive_count(inst) -> int:
    """Number of cross pairs at the instance's distance, without materializing them."""
    with _small_ufunc_buffer():
        return _naive_scan(inst, False)


def solve(inst, params: SolverParams, rng: np.random.Generator) -> SolveReport:
    """Run the bucketing search on a planted instance.

    A root of at most naive_threshold rows a side is a leaf: the naive scan
    of the instance's own matrices, once, drawing nothing from rng.  Any
    other root is walked by a _Walk, whose counters the report gives.
    """
    t_start = time.perf_counter()
    if inst.n <= params.naive_threshold:
        # nodes_visited, levels, rounds, weighed, naive_comparisons
        matches, counts = naive_search(inst), (1, 0, 0, 0, inst.n * inst.n)
    else:
        with _small_ufunc_buffer():
            walk = _Walk(inst, params, rng)
            matches = walk.run()
        counts = walk.nodes, walk.levels, walk.rounds, walk.weighed, walk.comparisons
    return SolveReport(
        tuple(matches),
        *counts,
        wall_time=time.perf_counter() - t_start,
        planted_found=None if inst.planted is None else tuple(inst.planted) in {(m.i, m.j) for m in matches},
    )


class _Walk:
    """solve's walk of a root it filters, and its counters.

    Both lists are walked as one stacked matrix, list 2 from row split on.
    A node is one index array into it, its list-1 rows first; a slab's
    children are given by start (where each child begins) and mid (where its
    list-2 rows begin).  The first permutation round is the identity, later
    rounds draw a fresh uniform coordinate permutation, whose blocks are
    gathered from the stack as the walk first reaches their level.  With
    stop_on_first the walk unwinds at the first verified match; otherwise
    matches from all rounds are unioned and deduplicated.  The counters
    nodes, levels, rounds, weighed and comparisons are the report's
    nodes_visited, levels, rounds, weighed and naive_comparisons.
    """

    def __init__(self, inst, params: SolverParams, rng: np.random.Generator):
        self.inst, self.params, self.rng = inst, params, rng
        self.split = inst.mat1.shape[0]
        self.base = np.vstack((inst.mat1, inst.mat2))
        self.blocks = block_bounds(inst.d, params.depth)
        self.windows = [params.window(stop - start) for start, stop in self.blocks]
        # a block of at most 32 bits is filtered as uint32: half the bytes per xor and popcount
        self.dtypes = [np.uint32 if stop - start <= 32 else np.uint64 for start, stop in self.blocks]
        self.elem_budget = _FIRST_HIT_ELEM_BUDGET if params.stop_on_first else _ELEM_BUDGET
        self.found: set[tuple[int, int]] = set()
        self.nodes = self.levels = self.comparisons = self.rounds = self.weighed = 0

    def run(self) -> list[MatchPair]:
        """Walk the permutation rounds; returns the verified matches in order."""
        d, root = self.inst.d, np.arange(self.base.shape[0])
        for rnd in range(self.params.permutations):
            # column j of the round's layout is column cols[j] of the stack; the filter
            # at level i compares block i of the layout, which descend gathers
            self.cols = np.arange(d) if rnd == 0 else np.argsort(random_permutation(self.rng, d))
            self.local = [None] * self.params.depth
            self.rounds += 1
            if self.descend(root, self.split, 0):
                break
        matches = []
        for i, j in sorted(self.found):
            dist = int(np.bitwise_count(self.inst.mat1[i] ^ self.inst.mat2[j]).sum())
            if dist == self.inst.gamma_count:
                matches.append(MatchPair(i, j, dist))
        return matches

    def descend(self, idx, na: int, level: int) -> bool:
        """Filter an inner node's rows, list-1 rows idx[:na] first, into the buckets of its z batch.

        Each slab's children are visited in order before the next slab is
        weighed: runs of leaves are scanned, the others descended into.
        Returns True when stop_on_first ends the walk.
        """
        params = self.params
        self.nodes += 1
        b0, b1 = self.blocks[level]
        if self.local[level] is None:
            self.local[level] = block_local_rows(self.base, self.cols[b0:b1]).astype(self.dtypes[level], copy=False)
            self.levels = max(self.levels, level + 1)
        zs = draw_block_zs(self.rng, params.branching, b1 - b0).astype(self.dtypes[level], copy=False)
        lo, hi = self.windows[level]
        sub = self.local[level].take(idx, 0)
        # zs has the block-local words of the rows' block
        slab = max(1, self.elem_budget // max(1, idx.size * zs.shape[1]))
        for s0 in range(0, params.branching, slab):
            za = zs[s0 : s0 + slab]
            # a z-major accept matrix (the weight helper is symmetric in its
            # arguments), so each bucket's members sit contiguously, list-1
            # rows first, in its flat hit positions
            flat = _sparse_flatnonzero(_accept_mask(block_weights_batch(za, sub), lo, hi))
            self.weighed += za.shape[0] * idx.size
            edges = np.arange(za.shape[0] + 1) * idx.size
            start = np.searchsorted(flat, edges)
            mid = np.searchsorted(flat, edges[:-1] + na)
            sel, count, inner = idx[flat % idx.size], mid.size, []
            if level + 1 < params.depth:
                sizes = np.minimum(mid - start[:-1], start[1:] - mid)
                inner = np.flatnonzero(sizes > params.naive_threshold).tolist()
            j = 0
            for c in inner + [count]:
                if c > j and self.scan_leaves(sel, start, mid, j, c):
                    return True
                if c < count and self.descend(sel[start[c] : start[c + 1]], mid[c] - start[c], level + 1):
                    return True
                j = c + 1
        return False

    def scan_leaves(self, sel, start, mid, lo: int, hi: int) -> bool:
        """Scan children lo..hi-1 of a node, none of them inner, and commit them in order.

        Child j holds rows sel[start[j]:start[j + 1]], its list-2 rows from
        mid[j] on; a child with an empty side is no node.  One pass scans up
        to _PAIR_BUDGET pairs, or one child above it; the passes are packed in
        Python ints.  Returns True when stop_on_first ends the walk at a child
        with a hit; later children stay uncounted.
        """
        base, split, gamma, stop_on_first = self.base, self.split, self.inst.gamma_count, self.params.stop_on_first
        na, nb = mid[lo:hi] - start[lo:hi], start[lo + 1 : hi + 1] - mid[lo:hi]
        pairs = (na * nb).tolist()
        offs, mids = start[lo : hi + 1].tolist(), mid[lo:hi].tolist()
        k = 0
        while k < hi - lo:
            if not pairs[k]:
                k += 1
                continue
            # a pass takes children from k0 on while their pairs fit _PAIR_BUDGET;
            # end - 1 is the last of them with pairs
            k0, total, live = k, pairs[k], 1
            end = k = k0 + 1
            while k < hi - lo and total + pairs[k] <= _PAIR_BUDGET:
                if pairs[k]:
                    total, live, end = total + pairs[k], live + 1, k + 1
                k += 1
            if live == 1:
                rows_a, rows_b = sel[offs[k0] : mids[k0]], sel[mids[k0] : offs[end]]
                hits = _scan_pairs(base.take(rows_a, 0), base.take(rows_b, 0), gamma, True)
                if hits is not None:
                    hits = rows_a[hits[0]], rows_b[hits[1]]
            else:
                hits = _bucket_hits(base, sel[offs[k0] : offs[end]], na[k0:end], nb[k0:end], split, gamma)
                if hits is not None and stop_on_first:
                    # commit up to the first child with a hit, and only its hits
                    hit_i, hit_j, hit_k = hits
                    first = hit_k == hit_k[0]
                    hits = hit_i[first], hit_j[first]
                    done = pairs[k0 : k0 + int(hit_k[0]) + 1]
                    live, total = len(done) - done.count(0), sum(done)
            self.nodes += live
            self.comparisons += total
            if hits is not None:
                self.found.update(zip(hits[0].tolist(), (hits[1] - split).tolist()))
                if stop_on_first:
                    return True
        return False
