"""Scalar reference implementations the tests check the packed kernels against.

The library keeps whole lists as (n, words) uint64 matrices.  These helpers
work one BitVector at a time through Python big ints (exact, no overflow
anywhere), so they make independent oracles for the batched code paths.
They begin with the scalar constructors and accessors of BitVector, which
the library keeps only as a validated word tuple.  The permute through
unpacked bits is the reference for bitvec.permute_columns, and the one the
per-leaf solver permutes with, so that solver shares no gather code with
solve().
The per-leaf solver at the end is the reference for solve()'s batched leaf
scans: same matches, counters and random draws; the unpruned cross scan
before it is the reference for the solver's pruned scans.  hex_row and
row_fault are the scalar forms of the instance file's row encoding and of
the reader's row checks.  The weighted row samplers are the references for
the generator's slab samplers: same random stream, same rows;
reference_gen_instance, which packs the planted error from a row of bits,
is the reference for gen_instance's XOR of it into the packed row.
pack_bit_matrix and its inverse unpack_bit_matrix turn 0/1 rows into packed
test matrices and back.  The survival count and the z enumeration last of
all are the exact integer references for the analysis' survival tables, and
bucket_accept is the scalar form of the bucket rule they share.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional, Sequence

import numpy as np

from hambucket.bitvec import (
    WORD_BITS,
    BitVector,
    block_bounds,
    check_dim,
    align_block_zs,
    block_weights_batch,
    draw_block_zs,
    make_rng,
    mask_pad,
    n_words,
    random_permutation,
)
from hambucket.generator import Instance, _draw_rows
from hambucket.solver import (
    _ELEM_BUDGET as _WALK_ELEM_BUDGET,
    _FIRST_HIT_ELEM_BUDGET,
    _PAIR_BUDGET,
    MatchPair,
    SolveReport,
    SolverParams,
    Strategy,
    _accept_mask,
    round_nearest,
)

_ELEM_BUDGET = 1 << 22  # uint64 elements per probe batch
_ROW_ELEM_BUDGET = 1 << 24  # floats per sampling slab


def _dim_mask(dim: int) -> int:
    return (1 << dim) - 1


def zeros(dim: int) -> BitVector:
    return BitVector(dim, (0,) * n_words(dim))


def from_int(dim: int, value: int) -> BitVector:
    check_dim(dim)
    if not 0 <= value <= _dim_mask(dim):
        raise ValueError("value does not fit in the dimension")
    words = tuple((value >> (WORD_BITS * t)) & ((1 << WORD_BITS) - 1) for t in range(n_words(dim)))
    return BitVector(dim, words)


def from_coords(dim: int, coords: Iterable[int]) -> BitVector:
    """Vector with ones exactly at the given 1-indexed coordinates."""
    value = 0
    for j in coords:
        if not 1 <= j <= dim:
            raise ValueError(f"coordinate {j} outside [1, {dim}]")
        value |= 1 << (j - 1)
    return from_int(dim, value)


def from_bits(bits: str | Sequence[int]) -> BitVector:
    """Build from a coordinate-order bit string such as "1100"."""
    seq = [int(b) for b in bits]
    if any(b not in (0, 1) for b in seq):
        raise ValueError("bits must be 0 or 1")
    return from_coords(len(seq), (j + 1 for j, b in enumerate(seq) if b))


def to_int(v: BitVector) -> int:
    value = 0
    for t, word in enumerate(v.words):
        value |= word << (WORD_BITS * t)
    return value


def coord(v: BitVector, j: int) -> int:
    """The 1-indexed coordinate j, as 0 or 1."""
    if not 1 <= j <= v.dim:
        raise ValueError(f"coordinate {j} outside [1, {v.dim}]")
    return (v.words[(j - 1) // WORD_BITS] >> ((j - 1) % WORD_BITS)) & 1


def support(v: BitVector) -> tuple[int, ...]:
    """Ascending 1-indexed coordinates that are set."""
    out, value, base = [], to_int(v), 0
    while value:
        low = value & -value
        out.append(base + low.bit_length())
        # strip everything through the lowest set bit
        base += low.bit_length()
        value >>= low.bit_length()
    return tuple(out)


def bit_string(v: BitVector) -> str:
    """Coordinates 1..dim as a left-to-right 0/1 string."""
    return "".join(str(coord(v, j)) for j in range(1, v.dim + 1))


def weight(v: BitVector) -> int:
    """Hamming weight of v."""
    return sum(w.bit_count() for w in v.words)


def xor(v: BitVector, w: BitVector) -> BitVector:
    if v.dim != w.dim:
        raise ValueError("dimension mismatch")
    return BitVector(v.dim, tuple(a ^ b for a, b in zip(v.words, w.words)))


def distance(v: BitVector, w: BitVector) -> int:
    """Hamming distance wt(v + w)."""
    if v.dim != w.dim:
        raise ValueError("dimension mismatch")
    return sum((a ^ b).bit_count() for a, b in zip(v.words, w.words))


def complement(v: BitVector) -> BitVector:
    return from_int(v.dim, to_int(v) ^ _dim_mask(v.dim))


def block_project(v: BitVector, start: int, stop: int) -> BitVector:
    """The 0-based bits [start, stop) of v as a block-local vector of width stop - start."""
    if not 0 <= start < stop <= v.dim:
        raise ValueError(f"block [{start}, {stop}) outside [0, {v.dim})")
    return from_int(stop - start, (to_int(v) >> start) & _dim_mask(stop - start))


def block_weight(v: BitVector, z: BitVector, start: int, stop: int) -> int:
    """wt(v[start:stop] + z) for a block-local z of matching width."""
    blk = block_project(v, start, stop)
    if z.dim != blk.dim:
        raise ValueError(f"z must have the block width {blk.dim}, got {z.dim}")
    return distance(blk, z)


def bucket_accept(wt: int, delta_count: int, strategy: Strategy) -> bool:
    """Whether a block weight wt passes the bucket rule: the reference for Strategy.window."""
    if strategy.kind == "exact":
        return wt == delta_count
    if strategy.kind == "deviation":
        return abs(wt - delta_count) <= strategy.eps
    return wt <= delta_count


def apply_permutation(v: BitVector, perm: np.ndarray) -> BitVector:
    """Vector whose coordinate perm[j-1] + 1 equals coordinate j of v (perm is 0-based)."""
    if v.dim != len(perm):
        raise ValueError("dimension mismatch")
    value = 0
    for j in support(v):
        value |= 1 << int(perm[j - 1])
    return from_int(v.dim, value)


def random_vector(rng: np.random.Generator, dim: int) -> BitVector:
    """Uniform element of F_2^dim."""
    words = rng.integers(0, 1 << WORD_BITS, size=n_words(dim), dtype=np.uint64)
    return BitVector(dim, tuple(int(w) for w in mask_pad(words.reshape(1, -1), dim)[0]))


def random_weight_vector(rng: np.random.Generator, dim: int, w: int) -> BitVector:
    """Uniform vector on the weight-w sphere (truncated Fisher-Yates support)."""
    if not 0 <= w <= dim:
        raise ValueError(f"weight must be in [0, {dim}], got {w}")
    ones = rng.permutation(dim)[:w]
    return from_coords(dim, (int(j) + 1 for j in ones))


def unpack_row(dim: int, row: np.ndarray) -> BitVector:
    return BitVector(dim, tuple(int(w) for w in row))


def hex_row(v: BitVector) -> str:
    """A row as the instance file writes it: digit t holds coordinates 4t+1..4t+4, lowest in bit 0."""
    value = to_int(v)
    return "".join("0123456789abcdef"[(value >> (4 * t)) & 0xF] for t in range((v.dim + 3) // 4))


def row_fault(row: str, dim: int) -> Optional[str]:
    """The fault read_instance names for one row of a list, after its "line k: " prefix; None if the row is valid.

    The checks run in the reader's order, so the first one that fails is the
    fault: a non-ASCII character, the digit count, a digit outside
    0-9a-f, then a set bit beyond the dimension.
    """
    for ch in row:
        if not ch.isascii():
            return f"non-ASCII character {ord(ch):#04x}"
    digits = (dim + 3) // 4
    if len(row) != digits:
        return f"expected {digits} hex digits, got {len(row)}"
    if any(ch not in "0123456789abcdef" for ch in row):
        return f"non-hex payload {row!r}"
    if int(row[::-1], 16) >> dim:  # digit t at weight 16**t, as hex_row writes it
        return f"nonzero padding bits beyond dimension {dim}"
    return None


def reference_fixed_rows(rng: np.random.Generator, n: int, d: int, w: int) -> np.ndarray:
    out = np.zeros((n, d), dtype=np.uint8)
    if w > 0:
        chunk = max(1, _ROW_ELEM_BUDGET // d)
        for lo in range(0, n, chunk):
            m = min(chunk, n - lo)
            keys = rng.random((m, d))
            if w < d:
                support = np.argpartition(keys, w - 1, axis=1)[:, :w]
            else:
                support = np.broadcast_to(np.arange(d), (m, d))
            rows = np.repeat(np.arange(lo, lo + m), w)
            out[rows, support.ravel()] = 1
    return pack_bit_matrix(out)


def reference_poisson_rows(rng: np.random.Generator, n: int, d: int, mean_fraction: float) -> np.ndarray:
    weights = np.minimum(rng.poisson(mean_fraction * d, size=n), d)
    out = np.zeros((n, d), dtype=np.uint8)
    order = np.argsort(rng.random((n, d)), axis=1)
    for row in range(n):
        out[row, order[row, : weights[row]]] = 1
    return pack_bit_matrix(out)


def reference_gen_instance(d: int, n: int, gamma_count: int, model, seed: int) -> Instance:
    """gen_instance with the planted error built as a (1, d) row of bits and packed: the same stream, the same bytes."""
    rng = make_rng(seed)
    mat1 = _draw_rows(rng, n, d, model)
    mat2 = _draw_rows(rng, n, d, model)
    i = int(rng.integers(n))
    j = int(rng.integers(n))
    err_bits = np.zeros((1, d), dtype=np.uint8)
    err_bits[0, rng.permutation(d)[:gamma_count]] = 1
    mat2[j] = mat1[i] ^ pack_bit_matrix(err_bits)[0]
    return Instance(d, n, gamma_count, mat1, mat2, (i, j), model, seed)


def partition_in_place(
    data: np.ndarray,
    order: np.ndarray,
    lo: int,
    hi: int,
    z,
    start: int,
    stop: int,
    delta_count: int,
    strategy: Strategy,
) -> int:
    """Stably rearrange order[lo:hi] so accepted rows form a prefix.

    The single-z form of a solver node, using the solver's vectorised
    acceptance rule.  data is a packed (n, words) matrix; order holds row
    indices into it.  The block is the 0-based bit range [start, stop); z is
    its block-local bucket center (a BitVector of the block's width, or its
    word array).  Returns mid with order[lo:mid] accepted; the multiset of
    order[lo:hi] is unchanged.
    """
    if isinstance(z, BitVector):
        if z.dim != stop - start:
            raise ValueError(f"z width {z.dim} != block width {stop - start}")
        z = np.array(z.words, dtype=np.uint64)
    seg = order[lo:hi]
    if seg.size == 0:
        return lo
    aligned, w0, w1, mask = align_block_zs(z.reshape(1, -1), start, stop)
    weights = block_weights_batch(data[seg, w0:w1] & mask, aligned)[:, 0]
    acc = _accept_mask(weights, *strategy.window(delta_count))
    order[lo:hi] = np.concatenate([seg[acc], seg[~acc]])
    return lo + int(acc.sum())


def survival_rate_probe(inst, params: SolverParams, rng: np.random.Generator, trials: int) -> float:
    """Empirical probability that the planted pair survives one exact z draw.

    Uses block 0 of the parameter's block layout and the exact acceptance
    rule, the setting the closed-form survival probability describes.
    """
    if inst.planted is None:
        raise ValueError("survival probe needs an instance with a planted pair")
    if trials < 1:
        raise ValueError("trials must be positive")
    start, stop = block_bounds(inst.d, params.depth)[0]
    width = stop - start
    target = round_nearest(params.delta * width)
    i, j = inst.planted
    rows = np.stack([inst.mat1[i], inst.mat2[j]])

    hits = 0
    remaining = trials
    batch = max(1, _ELEM_BUDGET // max(1, 2 * inst.d // 64 + 2))
    while remaining:
        count = min(remaining, batch)
        zs = draw_block_zs(rng, count, width)
        aligned, w0, w1, mask = align_block_zs(zs, start, stop)
        weights = block_weights_batch(rows[:, w0:w1] & mask, aligned)
        hits += int(((weights[0] == target) & (weights[1] == target)).sum())
        remaining -= count
    return hits / trials


def row_weights(mat: np.ndarray) -> np.ndarray:
    """Hamming weight of every row."""
    return np.bitwise_count(mat).sum(axis=1, dtype=np.int64)


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, d) 0/1 bool or integer matrix into (n, words) uint64, coordinate order."""
    n, d = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="little")
    full = np.zeros((n, n_words(d) * 8), dtype=np.uint8)
    full[:, : packed.shape[1]] = packed
    return full.view(np.uint64)


def unpack_bit_matrix(mat: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of pack_bit_matrix; returns an (n, dim) uint8 matrix."""
    bits = np.unpackbits(mat.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :dim]


def reference_permute_columns(mat: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """permute_columns through unpacked bits: column j of every row moves to column perm[j]."""
    bits = unpack_bit_matrix(mat, perm.size)
    out = np.empty_like(bits)
    out[:, perm] = bits
    return pack_bit_matrix(out)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    inv = [0] * len(perm)
    for j, image in enumerate(perm):
        inv[int(image)] = j
    return np.array(inv)


# --- the unpruned cross scan -------------------------------------------------
#
# The solver's cross scan before rows of several words were pruned word by word:
# every word of every pair is XORed and counted, with numpy alone rather than
# the package's kernels.  The per-leaf solver below scans its leaves with it.


def unpruned_scan_pairs(mat_a: np.ndarray, mat_b: np.ndarray, gamma_count: int, collect: bool):
    """Full cross scan in row chunks; returns (hit_count, hit_rows, hit_cols).

    With collect the hits come as row-major index arrays, otherwise as None.
    """
    chunk = max(1, _PAIR_BUDGET // max(1, mat_b.shape[0]))
    total = 0
    rows, cols = [], []
    for lo in range(0, mat_a.shape[0], chunk):
        dist = np.bitwise_count(mat_a[lo : lo + chunk, None, :] ^ mat_b[None, :, :]).sum(axis=-1)
        hit = dist == gamma_count
        if collect:
            r, c = np.nonzero(hit)
            rows.append(r + lo)
            cols.append(c)
            total += r.size
        else:
            total += int(np.count_nonzero(hit))
    if not collect:
        return total, None, None
    return total, np.concatenate(rows), np.concatenate(cols)


# --- the per-leaf solver ------------------------------------------------------
#
# The solver as it was before leaf buckets were scanned in batches and the
# scans moved to the word-wise kernel: one numpy scan per leaf, int32 block
# weights, a signed acceptance window and a 2-D nonzero per slab.  The batched
# solver must reproduce its matches, counters and random draws exactly.


def _reference_weights(sub: np.ndarray, aligned: np.ndarray) -> np.ndarray:
    if sub.shape[1] == 1:
        return np.bitwise_count(sub[:, 0, None] ^ aligned[None, :, 0]).astype(np.int32)
    x = sub[:, None, :] ^ aligned[None, :, :]
    return np.bitwise_count(x).sum(axis=2, dtype=np.int32)


def _reference_accept(weights: np.ndarray, delta_count: int, strategy: Strategy) -> np.ndarray:
    if strategy.kind == "exact":
        return weights == delta_count
    if strategy.kind == "deviation":
        return np.abs(weights - delta_count) <= strategy.eps
    return weights <= delta_count


def reference_solve(inst, params: SolverParams, rng: np.random.Generator) -> SolveReport:
    """Run the bucketing search on a planted instance, one leaf scan at a time."""
    t_start = time.perf_counter()
    d, gamma = inst.d, inst.gamma_count
    base_a, base_b = inst.mat1, inst.mat2
    blocks = block_bounds(d, params.depth)
    level_target = [round_nearest(params.delta * (stop - start)) for start, stop in blocks]

    found: set[tuple[int, int]] = set()
    nodes = 0
    levels = 0
    comparisons = 0
    weighed = 0
    # the walk's slabs, so that weighed counts what it weighs before a stop
    elem_budget = _FIRST_HIT_ELEM_BUDGET if params.stop_on_first else _WALK_ELEM_BUDGET

    def leaf(a_mat, b_mat, ia, ib) -> None:
        nonlocal comparisons
        comparisons += ia.size * ib.size
        _, rows, cols = unpruned_scan_pairs(a_mat[ia], b_mat[ib], gamma, True)
        found.update(zip(ia[rows].tolist(), ib[cols].tolist()))

    def descend(a_mat, b_mat, ia, ib, level: int) -> bool:
        nonlocal nodes, levels, weighed
        nodes += 1
        if level == params.depth or min(ia.size, ib.size) <= params.naive_threshold:
            leaf(a_mat, b_mat, ia, ib)
            return params.stop_on_first and bool(found)
        levels = max(levels, level + 1)
        start, stop = blocks[level]
        target = level_target[level]
        zs = draw_block_zs(rng, params.branching, stop - start)
        aligned, w0, w1, mask = align_block_zs(zs, start, stop)
        sub_a = a_mat[ia, w0:w1] & mask
        sub_b = b_mat[ib, w0:w1] & mask
        slab = max(1, elem_budget // max(1, (ia.size + ib.size) * n_words(stop - start)))
        for s0 in range(0, params.branching, slab):
            za = aligned[s0 : s0 + slab]
            weighed += za.shape[0] * (ia.size + ib.size)
            acc_a = _reference_accept(_reference_weights(za, sub_a), target, params.strategy)
            acc_b = _reference_accept(_reference_weights(za, sub_b), target, params.strategy)
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
    leaf_root = min(all_a.size, all_b.size) <= params.naive_threshold
    for rnd in range(params.permutations):
        if rnd == 0:
            a_mat, b_mat = base_a, base_b
        else:
            perm = random_permutation(rng, d)
            a_mat = reference_permute_columns(base_a, perm)
            b_mat = reference_permute_columns(base_b, perm)
        # a leaf root is scanned once, in no round: permuting columns keeps every distance
        if descend(a_mat, b_mat, all_a, all_b, 0) or leaf_root:
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
        levels=levels,
        rounds=0 if leaf_root else rnd + 1,
        weighed=weighed,
        naive_comparisons=comparisons,
        wall_time=time.perf_counter() - t_start,
        planted_found=planted_found,
    )


def strategy_survival_count(k: int, gamma_count: int, delta_count: int, strategy: Strategy) -> int:
    """#{z : both block weights pass the bucket rule} for x, y at distance gamma_count.

    The rule need not pin both weights to the same value, so the split over
    the differing coordinates may be uneven.  With wt(x + z) = t + m and
    wt(y + z) = (gamma_count - t) + m, sum over the t coordinates where z
    sides with y and the m agreeing coordinates it flips.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= gamma_count <= k or not 0 <= delta_count <= k:
        return 0
    total = 0
    for t in range(gamma_count + 1):
        ct = math.comb(gamma_count, t)
        for m in range(k - gamma_count + 1):
            if bucket_accept(t + m, delta_count, strategy) and bucket_accept(
                gamma_count - t + m, delta_count, strategy
            ):
                total += ct * math.comb(k - gamma_count, m)
    return total


def enumerate_survival(k: int, gamma_count: int, delta_count: int, strategy: Strategy) -> tuple[int, int]:
    """Brute-force (p_count, q_count) over all 2^k values of z.

    x = 0 and y = the first gamma_count coordinates; p_count counts the z
    whose weight wt(x + z) passes the bucket rule, q_count those where
    wt(y + z) passes as well.  By symmetry neither depends on that choice.
    """
    y = (1 << gamma_count) - 1
    p_count = q_count = 0
    for z in range(1 << k):
        if bucket_accept(z.bit_count(), delta_count, strategy):
            p_count += 1
            q_count += bucket_accept((z ^ y).bit_count(), delta_count, strategy)
    return p_count, q_count
