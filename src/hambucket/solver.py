"""The bucketing solver and the exhaustive baseline it is measured against.

solve() runs P permutation rounds.  Each round walks a depth-r tree: at a
node on level i it draws N random block-local vectors z, keeps exactly the
elements of both current sublists whose i-th block lands within the chosen
radius of z, and recurses; sufficiently small sublists are finished by the
quadratic scan.  Matches are verified by a final distance check, so the
output never contains a false positive.

Candidate filtering is vectorized: each node evaluates the bucket criterion
for a whole batch of z draws in a few numpy passes over the current
sublists, then materializes per-child index subsets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bitvec import (
    BlockSpec,
    align_block_zs,
    block_weights_batch,
    draw_block_zs,
    pack_rows,  # unused; perfbench/spans.py looks it up on this module by name
    permute_columns,
    random_permutation,
)

_ELEM_BUDGET = 1 << 22  # uint64 elements per vectorized slab


def round_nearest(x: float) -> int:
    """Round to the nearest integer, halves upward (floor(x + 1/2)).

    The one rounding rule for delta * k: the solver's level targets and the
    analysis' survival counts must agree on it.
    """
    return int(math.floor(x + 0.5))


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


def bucket_accept(wt: int, delta_count: int, strategy: Strategy) -> bool:
    """Whether a block weight wt passes the bucket criterion."""
    if strategy.kind == "exact":
        return wt == delta_count
    if strategy.kind == "deviation":
        return abs(wt - delta_count) <= strategy.eps
    return wt <= delta_count


def _accept_mask(weights: np.ndarray, delta_count: int, strategy: Strategy) -> np.ndarray:
    if strategy.kind == "exact":
        return weights == delta_count
    if strategy.kind == "deviation":
        return np.abs(weights - delta_count) <= strategy.eps
    return weights <= delta_count


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


class MatchPair(NamedTuple):
    i: int
    j: int
    dist: int


@dataclass(frozen=True)
class SolveReport:
    """Matches plus the counters needed to reason about a run."""

    matches: tuple[MatchPair, ...]
    nodes_visited: int
    naive_comparisons: int
    wall_time: float
    planted_found: Optional[bool]


def _scan_pairs(mat_a: np.ndarray, mat_b: np.ndarray, gamma_count: int, collect: bool):
    """Full cross scan in row chunks; returns (hit_count, [(i, j), ...])."""
    n_b, w = mat_b.shape
    chunk = max(1, _ELEM_BUDGET // max(1, n_b * w))
    total = 0
    pairs: list[tuple[int, int]] = []
    for lo in range(0, mat_a.shape[0], chunk):
        sub = mat_a[lo : lo + chunk]
        dist = np.bitwise_count(sub[:, None, :] ^ mat_b[None, :, :]).sum(axis=2, dtype=np.int32)
        hit = dist == gamma_count
        total += int(hit.sum())
        if collect:
            for r, c in np.argwhere(hit):
                pairs.append((lo + int(r), int(c)))
    return total, pairs


def naive_search(inst, gamma_count: int | None = None) -> list[MatchPair]:
    """Every cross pair at the target distance, in lexicographic order."""
    g = inst.gamma_count if gamma_count is None else gamma_count
    if not 0 <= g <= inst.d:
        raise ValueError(f"gamma_count outside [0, {inst.d}]: {g}")
    _, pairs = _scan_pairs(inst.mat1, inst.mat2, g, True)
    return [MatchPair(i, j, g) for i, j in pairs]


def naive_count(inst, gamma_count: int | None = None) -> int:
    """Number of cross pairs at the target distance, without materializing them."""
    g = inst.gamma_count if gamma_count is None else gamma_count
    if not 0 <= g <= inst.d:
        raise ValueError(f"gamma_count outside [0, {inst.d}]: {g}")
    total, _ = _scan_pairs(inst.mat1, inst.mat2, g, False)
    return total


def solve(inst, params: SolverParams, rng: np.random.Generator) -> SolveReport:
    """Run the bucketing search on a planted instance.

    The first permutation round is the identity, later rounds redraw a fresh
    uniform coordinate permutation for both lists.  With stop_on_first the
    walk unwinds at the first verified match; otherwise matches from all
    rounds are unioned and deduplicated.
    """
    t_start = time.perf_counter()
    d, gamma = inst.d, inst.gamma_count
    base_a, base_b = inst.mat1, inst.mat2
    spec = BlockSpec(d, params.depth)
    level_target = [
        round_nearest(params.delta * spec.width(i)) for i in range(1, params.depth + 1)
    ]

    found: set[tuple[int, int]] = set()
    nodes = 0
    comparisons = 0

    def leaf(a_mat, b_mat, ia, ib) -> None:
        nonlocal comparisons
        comparisons += ia.size * ib.size
        _, pairs = _scan_pairs(a_mat[ia], b_mat[ib], gamma, True)
        for r, c in pairs:
            found.add((int(ia[r]), int(ib[c])))

    def descend(a_mat, b_mat, ia, ib, level: int) -> bool:
        nonlocal nodes
        nodes += 1
        if level == params.depth or min(ia.size, ib.size) <= params.naive_threshold:
            leaf(a_mat, b_mat, ia, ib)
            return params.stop_on_first and bool(found)
        blk = level + 1
        width = spec.width(blk)
        target = level_target[level]
        zs = draw_block_zs(rng, params.branching, width)
        aligned, w0, w1, mask = align_block_zs(zs, spec, blk)
        sub_a = a_mat[ia, w0:w1] & mask
        sub_b = b_mat[ib, w0:w1] & mask
        slab = max(1, _ELEM_BUDGET // max(1, (ia.size + ib.size) * (w1 - w0)))
        for s0 in range(0, params.branching, slab):
            za = aligned[s0 : s0 + slab]
            # z-major accept matrices (the weight helper is symmetric in its
            # arguments), so each bucket's members sit contiguously after one
            # nonzero pass instead of a boolean gather per bucket
            acc_a = _accept_mask(block_weights_batch(za, sub_a), target, params.strategy)
            acc_b = _accept_mask(block_weights_batch(za, sub_b), target, params.strategy)
            zrow_a, hit_a = np.nonzero(acc_a)
            zrow_b, hit_b = np.nonzero(acc_b)
            if zrow_a.size == 0 or zrow_b.size == 0:
                continue
            edges = np.arange(za.shape[0] + 1)
            start_a = np.searchsorted(zrow_a, edges)
            start_b = np.searchsorted(zrow_b, edges)
            sel_a = ia[hit_a]
            sel_b = ib[hit_b]
            for j in range(za.shape[0]):
                a0, a1 = start_a[j], start_a[j + 1]
                if a0 == a1:
                    continue
                b0, b1 = start_b[j], start_b[j + 1]
                if b0 == b1:
                    continue
                if descend(a_mat, b_mat, sel_a[a0:a1], sel_b[b0:b1], level + 1):
                    return True
        return False

    all_a = np.arange(base_a.shape[0], dtype=np.int64)
    all_b = np.arange(base_b.shape[0], dtype=np.int64)
    for rnd in range(params.permutations):
        if rnd == 0:
            a_mat, b_mat = base_a, base_b
        else:
            perm = random_permutation(rng, d)
            a_mat = permute_columns(base_a, perm)
            b_mat = permute_columns(base_b, perm)
        if descend(a_mat, b_mat, all_a, all_b, 0):
            break

    matches = []
    for i, j in sorted(found):
        dist = int(np.bitwise_count(base_a[i] ^ base_b[j]).sum())
        if dist == gamma:
            matches.append(MatchPair(i, j, dist))
    planted_found: Optional[bool] = None
    if inst.planted is not None:
        planted_found = tuple(inst.planted) in {(m.i, m.j) for m in matches}
    return SolveReport(
        matches=tuple(matches),
        nodes_visited=nodes,
        naive_comparisons=comparisons,
        wall_time=time.perf_counter() - t_start,
        planted_found=planted_found,
    )

