"""Scalar reference implementations the tests check the packed kernels against.

The library keeps whole lists as (n, words) uint64 matrices.  These helpers
work one BitVector at a time through Python big ints (exact, no overflow
anywhere), so they make independent oracles for the batched code paths.
"""

from __future__ import annotations

import numpy as np

from hambucket.bitvec import (
    WORD_BITS,
    BitVector,
    BlockSpec,
    Permutation,
    align_block_zs,
    block_weights_batch,
    draw_block_zs,
    mask_pad,
    n_words,
)
from hambucket.solver import SolverParams, Strategy, _accept_mask, round_nearest

_ELEM_BUDGET = 1 << 22  # uint64 elements per probe batch


def _dim_mask(dim: int) -> int:
    return (1 << dim) - 1


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
    return BitVector.from_int(v.dim, v.to_int() ^ _dim_mask(v.dim))


def block_project(v: BitVector, spec: BlockSpec, i: int) -> BitVector:
    """Block i of v as a block-local vector of the block's width."""
    if v.dim != spec.dim:
        raise ValueError("dimension mismatch")
    start, stop = spec.bounds(i)
    return BitVector.from_int(stop - start, (v.to_int() >> start) & _dim_mask(stop - start))


def block_weight(v: BitVector, z: BitVector, spec: BlockSpec, i: int) -> int:
    """wt(block_i(v) + z) for a block-local z of matching width."""
    blk = block_project(v, spec, i)
    if z.dim != blk.dim:
        raise ValueError(f"z must have the block width {blk.dim}, got {z.dim}")
    return distance(blk, z)


def apply_permutation(v: BitVector, perm: Permutation) -> BitVector:
    """Vector whose coordinate perm.map[j-1] equals coordinate j of v."""
    if v.dim != perm.dim:
        raise ValueError("dimension mismatch")
    value = 0
    for j in v.support():
        value |= 1 << (perm.map[j - 1] - 1)
    return BitVector.from_int(v.dim, value)


def random_vector(rng: np.random.Generator, dim: int) -> BitVector:
    """Uniform element of F_2^dim."""
    words = rng.integers(0, 1 << WORD_BITS, size=n_words(dim), dtype=np.uint64)
    return BitVector(dim, tuple(int(w) for w in mask_pad(words.reshape(1, -1), dim)[0]))


def random_weight_vector(rng: np.random.Generator, dim: int, w: int) -> BitVector:
    """Uniform vector on the weight-w sphere (truncated Fisher-Yates support)."""
    if not 0 <= w <= dim:
        raise ValueError(f"weight must be in [0, {dim}], got {w}")
    support = rng.permutation(dim)[:w]
    return BitVector.from_coords(dim, (int(j) + 1 for j in support))


def unpack_row(dim: int, row: np.ndarray) -> BitVector:
    return BitVector(dim, tuple(int(w) for w in row))


def hex_row(v: BitVector) -> str:
    """A row as the instance file writes it: digit t holds coordinates 4t+1..4t+4, lowest in bit 0."""
    value = v.to_int()
    return "".join("0123456789abcdef"[(value >> (4 * t)) & 0xF] for t in range((v.dim + 3) // 4))


def partition_in_place(
    data: np.ndarray,
    order: np.ndarray,
    lo: int,
    hi: int,
    z,
    spec: BlockSpec,
    block_index: int,
    delta_count: int,
    strategy: Strategy,
) -> int:
    """Stably rearrange order[lo:hi] so accepted rows form a prefix.

    The single-z form of a solver node, using the solver's vectorised
    acceptance rule.  data is a packed (n, words) matrix; order holds row
    indices into it.  z is the block-local bucket center (a BitVector of the
    block's width, or its word array).  Returns mid with order[lo:mid]
    accepted; the multiset of order[lo:hi] is unchanged.
    """
    if isinstance(z, BitVector):
        if z.dim != spec.width(block_index):
            raise ValueError(f"z width {z.dim} != block width {spec.width(block_index)}")
        z = np.array(z.words, dtype=np.uint64)
    seg = order[lo:hi]
    if seg.size == 0:
        return lo
    aligned, w0, w1, mask = align_block_zs(z.reshape(1, -1), spec, block_index)
    weights = block_weights_batch(data[seg, w0:w1] & mask, aligned)[:, 0]
    acc = _accept_mask(weights, delta_count, strategy)
    order[lo:hi] = np.concatenate([seg[acc], seg[~acc]])
    return lo + int(acc.sum())


def survival_rate_probe(inst, params: SolverParams, rng: np.random.Generator, trials: int) -> float:
    """Empirical probability that the planted pair survives one exact z draw.

    Uses the first block of the parameter's block layout and the exact
    acceptance rule, the setting the closed-form survival probability
    describes.
    """
    if inst.planted is None:
        raise ValueError("survival probe needs an instance with a planted pair")
    if trials < 1:
        raise ValueError("trials must be positive")
    spec = BlockSpec(inst.d, params.depth)
    width = spec.width(1)
    target = round_nearest(params.delta * width)
    i, j = inst.planted
    rows = np.stack([inst.mat1[i], inst.mat2[j]])

    hits = 0
    remaining = trials
    batch = max(1, _ELEM_BUDGET // max(1, 2 * spec.dim // 64 + 2))
    while remaining:
        count = min(remaining, batch)
        zs = draw_block_zs(rng, count, width)
        aligned, w0, w1, mask = align_block_zs(zs, spec, 1)
        weights = block_weights_batch(rows[:, w0:w1] & mask, aligned)
        hits += int(((weights[0] == target) & (weights[1] == target)).sum())
        remaining -= count
    return hits / trials
