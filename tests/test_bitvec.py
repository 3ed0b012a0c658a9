import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hambucket.bitvec import (
    MAX_DIM,
    BitVector,
    align_block_zs,
    block_bounds,
    block_local_rows,
    block_weights_batch,
    derive_seed,
    draw_block_zs,
    make_rng,
    mask_pad,
    n_words,
    pack_rows,
    permute_columns,
    random_permutation,
    rows_to_vectors,
)
from oracle import (
    apply_permutation,
    bit_string,
    block_project,
    block_weight,
    complement,
    coord,
    distance,
    from_bits,
    from_coords,
    from_int,
    inverse_permutation,
    pack_bit_matrix,
    random_vector,
    random_weight_vector,
    reference_permute_columns,
    row_weights,
    support,
    to_int,
    unpack_bit_matrix,
    unpack_row,
    weight,
    xor,
    zeros,
)

dims = st.integers(min_value=1, max_value=200)


@st.composite
def vectors(draw, dim=None):
    d = dim if dim is not None else draw(dims)
    val = draw(st.integers(min_value=0, max_value=2**d - 1))
    return from_int(d, val)


def test_weight_xor_distance_basics():
    v = from_coords(8, [1, 2, 5])
    w = from_coords(8, [2, 5, 8])
    assert weight(v) == 3
    assert xor(v, w) == from_coords(8, [1, 8])
    assert distance(v, w) == 2
    assert distance(v, v) == 0


def test_coordinate_one_is_lsb():
    v = from_coords(8, [1])
    assert to_int(v) == 1
    assert coord(v, 1) == 1 and coord(v, 8) == 0
    # bit_string lists coordinates 1..d left to right
    assert bit_string(from_int(8, 0xF0)) == "00001111"


def test_from_bits_roundtrip():
    bits = [1, 0, 1, 1, 0]
    v = from_bits(bits)
    assert v.dim == 5
    assert [coord(v, j) for j in range(1, 6)] == bits
    assert support(v) == (1, 3, 4)


def test_padding_is_canonical():
    with pytest.raises(ValueError):
        BitVector(5, (0xFF,))
    with pytest.raises(ValueError):
        BitVector(5, (1, 2))
    assert zeros(70).words == (0, 0)


def test_complement_respects_padding():
    v = zeros(5)
    c = complement(v)
    assert weight(c) == 5
    assert complement(c) == v


@given(vectors())
def test_xor_self_is_zero(v):
    assert xor(v, v) == zeros(v.dim)


@given(st.data())
def test_distance_symmetry_and_triangle(data):
    d = data.draw(dims)
    u = data.draw(vectors(dim=d))
    v = data.draw(vectors(dim=d))
    w = data.draw(vectors(dim=d))
    assert distance(u, v) == distance(v, u) == weight(xor(u, v))
    assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_block_bounds_widths():
    # remainder lands on the last block
    assert block_bounds(70, 3) == [(0, 23), (23, 46), (46, 70)]


@given(st.data())
def test_block_bounds_partition(data):
    """r contiguous ranges from 0 to d: r - 1 of width d // r, the last one d // r + d % r wide."""
    d = data.draw(st.integers(1, 1100))
    r = data.draw(st.integers(1, d))
    blocks = block_bounds(d, r)
    assert len(blocks) == r
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == d
    assert [stop - start for start, stop in blocks] == [d // r] * (r - 1) + [d // r + d % r]
    with pytest.raises(ValueError, match=rf"^block count must be in \[1, {d}\], got 0$"):
        block_bounds(d, 0)
    with pytest.raises(ValueError, match=rf"^block count must be in \[1, {d}\], got {d + 1}$"):
        block_bounds(d, d + 1)


@pytest.mark.parametrize("d", [0, -1, MAX_DIM + 1])
def test_block_bounds_refuses_d_outside_the_range(d):
    with pytest.raises(ValueError, match=rf"^d outside \[1, {MAX_DIM}\]: {d}$"):
        block_bounds(d, 1)


def test_block_weight_example():
    v = from_coords(8, [1, 2, 5])
    z = from_coords(4, [1])
    # block 0 of v is 1100 -> xor with 1000 leaves weight 1
    assert block_weight(v, z, *block_bounds(8, 2)[0]) == 1
    z2 = zeros(4)
    assert block_weight(v, z2, *block_bounds(8, 2)[1]) == 1


@given(st.data())
def test_block_weights_sum_to_distance(data):
    d = data.draw(st.integers(min_value=2, max_value=150))
    r = data.draw(st.integers(min_value=1, max_value=min(6, d)))
    u = data.draw(vectors(dim=d))
    v = data.draw(vectors(dim=d))
    diff = xor(u, v)
    total = sum(block_weight(diff, zeros(stop - start), start, stop) for start, stop in block_bounds(d, r))
    assert total == distance(u, v)


@given(st.data())
def test_permutation_preserves_weight(data):
    d = data.draw(dims)
    v = data.draw(vectors(dim=d))
    perm = random_permutation(make_rng(data.draw(st.integers(0, 2**32))), d)
    pv = apply_permutation(v, perm)
    assert weight(pv) == weight(v)
    assert apply_permutation(pv, inverse_permutation(perm)) == v


def test_identity_permutation():
    v = from_coords(6, [2, 3])
    assert apply_permutation(v, np.arange(6)) == v


def test_apply_permutation_moves_coords():
    # coordinate j of the input lands at perm[j-1] + 1: perm is 0-based
    perm = np.array([1, 2, 3, 0])
    v = from_coords(4, [1, 4])
    assert apply_permutation(v, perm) == from_coords(4, [2, 1])


# --- packed matrix layer ------------------------------------------------------


@given(st.data())
@settings(max_examples=50)
def test_pack_unpack_roundtrip(data):
    d = data.draw(st.integers(min_value=1, max_value=130))
    vs = [data.draw(vectors(dim=d)) for _ in range(data.draw(st.integers(1, 8)))]
    mat = pack_rows(vs)
    assert mat.shape == (len(vs), n_words(d))
    assert rows_to_vectors(d, mat) == tuple(vs)
    assert unpack_row(d, mat[0]) == vs[0]


@given(st.data())
def test_bit_matrix_roundtrip(data):
    d = data.draw(st.integers(min_value=1, max_value=130))
    rows = data.draw(st.integers(1, 6))
    bits = np.array(
        [[data.draw(st.integers(0, 1)) for _ in range(d)] for _ in range(rows)], dtype=np.uint8
    )
    packed = pack_bit_matrix(bits)
    assert np.array_equal(unpack_bit_matrix(packed, d), bits)


def test_row_weights_matches_weight():
    rng = make_rng(3)
    vs = [random_vector(rng, 90) for _ in range(20)]
    mat = pack_rows(vs)
    assert row_weights(mat).tolist() == [weight(v) for v in vs]


def test_mask_pad_clears_stray_bits():
    mat = np.full((2, 1), np.uint64(0xFFFFFFFFFFFFFFFF))
    mask_pad(mat, 5)
    assert mat.tolist() == [[31], [31]]


def test_permute_columns_matches_scalar():
    rng = make_rng(11)
    d = 77
    vs = [random_vector(rng, d) for _ in range(10)]
    perm = random_permutation(rng, d)
    assert sorted(perm.tolist()) == list(range(d))
    want = tuple(apply_permutation(v, perm) for v in vs)
    assert rows_to_vectors(d, permute_columns(pack_rows(vs), perm)) == want
    assert rows_to_vectors(d, reference_permute_columns(pack_rows(vs), perm)) == want


@given(st.data())
@settings(max_examples=40)
def test_batched_block_weights_match_scalar(data):
    """The aligned z batch must agree with block_weight vector by vector."""
    d = data.draw(st.integers(min_value=4, max_value=150))
    r = data.draw(st.integers(1, min(4, d // 2)))
    start, stop = block_bounds(d, r)[data.draw(st.integers(1, r)) - 1]
    rng = make_rng(data.draw(st.integers(0, 2**32)))
    vs = [random_vector(rng, d) for _ in range(5)]
    zs = draw_block_zs(rng, 3, stop - start)
    aligned, w0, w1, mask = align_block_zs(zs, start, stop)
    mat = pack_rows(vs)
    got = block_weights_batch(mat[:, w0:w1] & mask, aligned)
    zvecs = rows_to_vectors(stop - start, zs)
    for a, v in enumerate(vs):
        for b, z in enumerate(zvecs):
            assert got[a, b] == block_weight(v, z, start, stop)


@pytest.mark.parametrize("d, r", [(1024, 2), (600, 2), (600, 3), (600, 4)])
def test_block_weights_batch_wide_and_word_crossing_blocks(d, r):
    """Counts past 255 must not wrap; spans of at most three words stay uint8."""
    rng = make_rng(d + r)
    ones = complement(zeros(d))
    vs = [zeros(d), ones] + [random_vector(rng, d) for _ in range(4)]
    mat = pack_rows(vs)
    for start, stop in block_bounds(d, r):
        width = stop - start
        zs = np.vstack([np.zeros((1, n_words(width)), dtype=np.uint64), draw_block_zs(rng, 3, width)])
        aligned, w0, w1, mask = align_block_zs(zs, start, stop)
        got = block_weights_batch(mat[:, w0:w1] & mask, aligned)
        assert got.dtype == (np.uint8 if (w1 - w0) * 64 <= 255 else np.int32)
        want = [[block_weight(v, z, start, stop) for z in rows_to_vectors(width, zs)] for v in vs]
        assert got.tolist() == want
        assert got[1, 0] == width  # all-ones row against the zero z


def check_block_local_rows(d: int, start: int, stop: int, rng) -> None:
    """block_local_rows against block_project and block_weight, row by row and z by z.

    The block [start, stop) of d-bit rows is gathered from its own columns,
    and from the source columns of the same block of a permuted layout,
    argsort(perm)[start:stop].
    """
    width = stop - start
    vs = [zeros(d), complement(zeros(d))] + [random_vector(rng, d) for _ in range(3)]
    mat = pack_rows(vs)
    local = block_local_rows(mat, np.arange(start, stop))
    assert [unpack_row(width, row) for row in local] == [block_project(v, start, stop) for v in vs]
    zs = np.vstack([np.zeros((1, n_words(width)), dtype=np.uint64), draw_block_zs(rng, 3, width)])
    got = block_weights_batch(local, zs)
    assert got.dtype == (np.uint8 if n_words(width) * 64 <= 255 else np.int32)
    want = [[block_weight(v, z, start, stop) for z in rows_to_vectors(width, zs)] for v in vs]
    assert got.tolist() == want
    assert got[1, 0] == width  # all-ones row against the zero z
    perm = random_permutation(rng, d)
    gathered = block_local_rows(mat, np.argsort(perm)[start:stop])
    assert np.array_equal(gathered, block_local_rows(reference_permute_columns(mat, perm), np.arange(start, stop)))
    assert [unpack_row(width, row) for row in gathered] == [block_project(apply_permutation(v, perm), start, stop)
                                                            for v in vs]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_local_rows_match_scalar(data):
    """Every block of every layout, at any offset into its first word."""
    d = data.draw(st.integers(1, 1100))
    r = data.draw(st.one_of(st.integers(1, min(d, 6)), st.integers(1, d)))
    start, stop = block_bounds(d, r)[data.draw(st.integers(1, r)) - 1]
    check_block_local_rows(d, start, stop, make_rng(data.draw(st.integers(0, 2**32))))


@pytest.mark.parametrize("width", [1, 63, 64, 65, 255, 256, 300])
def test_block_local_rows_widths_across_words(width):
    """Blocks at word offsets 0, width and 2 * width; for width > 1 also a last
    block of this width that starts one bit before a multiple of width."""
    layouts = [(3 * width, 3, i) for i in (0, 1, 2)]
    if width > 1:
        layouts.append((2 * width - 1, 2, 1))
    crossing = []
    for d, r, i in layouts:
        start, stop = block_bounds(d, r)[i]
        assert stop - start == width
        check_block_local_rows(d, start, stop, make_rng(width + i + 1))
        if start // 64 != (stop - 1) // 64:
            crossing.append((start, stop))
    # every width above 1 gets at least one block that crosses a word boundary
    assert crossing or width == 1


# --- randomness ---------------------------------------------------------------


def test_make_rng_is_deterministic():
    a = make_rng(1234).integers(0, 2**63, size=4)
    b = make_rng(1234).integers(0, 2**63, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(1235).integers(0, 2**63, size=4))


def test_derive_seed_separates_streams():
    seeds = {derive_seed(7, i, j) for i in range(4) for j in range(4)}
    assert len(seeds) == 16


@given(st.integers(0, 2**32), st.integers(1, 128))
def test_random_weight_vector_exact_weight(seed, d):
    w = seed % (d + 1)
    v = random_weight_vector(make_rng(seed), d, w)
    assert v.dim == d and weight(v) == w


def test_random_vector_mean_weight():
    """Coordinates should be unbiased; the mean over 10^5 draws pins it down."""
    rng = make_rng(99)
    total = sum(weight(random_vector(rng, 64)) for _ in range(100_000))
    frac = total / (64 * 100_000)
    assert abs(frac - 0.5) < 1e-3
