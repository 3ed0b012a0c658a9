"""Packed binary vectors and the block/permutation machinery on top of them.

Coordinates are 1-indexed throughout: coordinate j lives in bit (j-1) % 64
of word (j-1) // 64, i.e. LSB-first inside little-endian uint64 words.
Unused bits of the last word are always zero, so word tuples compare and
hash canonically.

Lists live as (n, words) uint64 matrices; BitVector is the validated row
view that Instance.list1/list2 hand out, one word tuple per row.  Scalar
constructors and accessors for it are test oracles (tests/oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WORD_BITS = 64
MAX_DIM = 1 << 20


def n_words(dim: int) -> int:
    """Number of 64-bit words needed for a dim-bit vector."""
    return (dim + WORD_BITS - 1) // WORD_BITS


def check_dim(d: int) -> None:
    """Refuse a dimension outside [1, MAX_DIM]: the one range check of d."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"d outside [1, {MAX_DIM}]: {d}")


def round_nearest(x: float) -> int:
    """Round to the nearest integer, halves upward (floor(x + 1/2)).

    The one rounding rule for delta * k and eta * d: the generator, the
    solver and the analysis' survival counts must agree on it.
    """
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class BitVector:
    """An element of F_2^dim, packed into 64-bit words; immutable, checked on construction."""

    dim: int
    words: tuple[int, ...]

    def __post_init__(self):
        check_dim(self.dim)
        w = tuple(int(x) for x in self.words)
        if len(w) != n_words(self.dim):
            raise ValueError(f"expected {n_words(self.dim)} words, got {len(w)}")
        object.__setattr__(self, "words", w)
        pad = self.dim % WORD_BITS
        for word in w:
            if not 0 <= word < (1 << WORD_BITS):
                raise ValueError("word out of uint64 range")
        if pad and w[-1] >> pad:
            raise ValueError("padding bits beyond the dimension must be zero")


@dataclass(frozen=True)
class BlockSpec:
    """Partition of [1, dim] into r contiguous blocks.

    Blocks 1..r-1 have width k = dim // r; the last block absorbs the
    remainder and has width k + dim mod r.
    """

    dim: int
    r: int

    def __post_init__(self):
        check_dim(self.dim)
        if not 1 <= self.r <= self.dim:
            raise ValueError(f"block count must be in [1, {self.dim}], got {self.r}")

    @property
    def k(self) -> int:
        return self.dim // self.r

    def width(self, i: int) -> int:
        self._check_index(i)
        return self.k + (self.dim % self.r if i == self.r else 0)

    def bounds(self, i: int) -> tuple[int, int]:
        """Half-open 0-based bit range [start, stop) of block i."""
        self._check_index(i)
        start = (i - 1) * self.k
        return start, start + self.width(i)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.r:
            raise ValueError(f"block index {i} outside [1, {self.r}]")


# --- seeded randomness -----------------------------------------------------
#
# Philox is counter-based, so independent streams are cheap and every draw
# is reproducible from an explicit integer seed.  Everything random in the
# package takes one of these generators as a parameter.


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for the given seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def random_permutation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform coordinate permutation as a 0-based index array: perm[j] is the image of j."""
    return rng.permutation(dim)


# --- packed matrix layer ---------------------------------------------------
#
# The generator and solver keep whole lists as (n, n_words(d)) uint64
# matrices, row index = list index, same word layout as BitVector.words.


def mask_pad(mat: np.ndarray, dim: int) -> np.ndarray:
    """Zero the padding bits of the last word column, in place."""
    pad = dim % WORD_BITS
    if pad:
        mat[..., -1] &= np.uint64((1 << pad) - 1)
    return mat


def pack_rows(vectors: Sequence[BitVector]) -> np.ndarray:
    """Stack BitVectors into an (n, words) uint64 matrix."""
    if not vectors:
        raise ValueError("empty vector list")
    dim = vectors[0].dim
    if any(v.dim != dim for v in vectors):
        raise ValueError("mixed dimensions")
    return np.array([v.words for v in vectors], dtype=np.uint64)


def rows_to_vectors(dim: int, mat: np.ndarray) -> tuple[BitVector, ...]:
    return tuple(BitVector(dim, tuple(r)) for r in mat.tolist())


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


def permute_columns(mat: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply a coordinate permutation (random_permutation's index array) to every row."""
    bits = unpack_bit_matrix(mat, perm.size)
    out = np.empty_like(bits)
    out[:, perm] = bits
    return pack_bit_matrix(out)


def draw_block_zs(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    """count uniform block-local vectors, one per row, width bits each."""
    zw = n_words(width)
    zs = rng.integers(0, 1 << WORD_BITS, size=(count, zw), dtype=np.uint64)
    return mask_pad(zs, width)


def block_local_rows(mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns cols of every row, block-local: the layout draw_block_zs gives z.

    Bit j of a returned row is 0-based column cols[j] of mat, from bit 0 of
    its first word on, padding zero.  Block i of permute_columns(mat, perm)
    is block_local_rows(mat, argsort(perm)[start:stop]) of its bounds.  A run
    of consecutive columns inside one word of mat and one word of the result
    moves as one mask-and-shift piece, so a contiguous block costs about two
    pieces per word and a permuted one about one per column.
    """
    width = cols.size
    out = np.empty((mat.shape[0], n_words(width)), dtype=np.uint64)
    # a piece starts where the columns jump or either side enters a new word,
    # so the first piece of each word of the result lands at its bit 0
    starts = np.ones(width, dtype=bool)
    starts[1:] = (np.diff(cols) != 1) | (cols[1:] % WORD_BITS == 0) | (np.arange(1, width) % WORD_BITS == 0)
    first = np.flatnonzero(starts).tolist()
    piece_buf = np.empty(mat.shape[0], dtype=np.uint64)
    for a, b, col in zip(first, first[1:] + [width], cols[first].tolist()):
        (src_w, src_b), (dst_w, dst_b) = divmod(col, WORD_BITS), divmod(a, WORD_BITS)
        mask = np.uint64(((1 << (b - a)) - 1) << src_b)
        piece = np.bitwise_and(mat[:, src_w], mask, out=piece_buf if dst_b else out[:, dst_w])
        if src_b > dst_b:
            piece >>= np.uint64(src_b - dst_b)
        elif src_b < dst_b:
            piece <<= np.uint64(dst_b - src_b)
        if dst_b:
            out[:, dst_w] |= piece
    return out


def align_block_zs(zs: np.ndarray, spec: BlockSpec, i: int) -> tuple[np.ndarray, int, int, np.ndarray]:
    """Shift block-local z rows into block i's position inside the full layout.

    Returns (aligned, w0, w1, mask) where aligned has shape (count, w1 - w0)
    covering words [w0, w1) of the packed layout, and mask selects exactly
    the block's bits within that word span.  XOR-ing a masked row slice with
    an aligned z keeps everything outside the block at zero, so a popcount
    of the result is the block weight.
    """
    start, stop = spec.bounds(i)
    w0, w1 = start // WORD_BITS, (stop + WORD_BITS - 1) // WORD_BITS
    span = w1 - w0
    off = start - w0 * WORD_BITS

    count = zs.shape[0]
    aligned = np.zeros((count, span), dtype=np.uint64)
    aligned[:, : zs.shape[1]] = zs
    if off:
        sh = np.uint64(off)
        inv = np.uint64(WORD_BITS - off)
        carry = aligned >> inv
        aligned <<= sh
        aligned[:, 1:] |= carry[:, :-1]

    mask_bits = np.zeros(span * WORD_BITS, dtype=np.uint8)
    mask_bits[off : off + (stop - start)] = 1
    mask = np.packbits(mask_bits, bitorder="little").view(np.uint64)
    return aligned, w0, w1, mask


def block_weights_batch(sub: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Pairwise block weights between rows and z draws of one block layout.

    sub is (m, w) and zs is (s, w), both block-local: the rows from
    block_local_rows and the z's from draw_block_zs.  The result is the
    (m, s) weight matrix, uint8 while the w words hold at most 255 bits and
    int32 beyond.  The kernel is symmetric in its arguments: (zs, sub)
    gives the (s, m) transpose, the z-major matrix the solver filters with.
    Each word adds its uint8 counts into the result, so no (m, s, w)
    popcount temporary is built and summed.
    """
    a, b = sub[:, None, :], zs[None, :, :]
    words = a.shape[-1]
    x = np.bitwise_xor(a[..., 0], b[..., 0])
    out = np.bitwise_count(x)
    if words * WORD_BITS > 255:
        out = out.astype(np.int32)
    if words > 1:
        count = np.empty(x.shape, dtype=np.uint8)
    for t in range(1, words):
        np.bitwise_xor(a[..., t], b[..., t], out=x)
        out += np.bitwise_count(x, out=count)
    return out
