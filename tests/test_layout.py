import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from winosim.layout import (
    ZMortonMatrix,
    _block_extent,
    _morton_decode_array,
    _filter_stack,
    _grid_codes,
    _grid_coords,
    _input_stack,
    _morton_order,
    _output_extent,
    _tile_counts,
    assemble_output,
    extract_tiles,
    from_zmorton,
    gather_filters,
    morton_decode,
    morton_encode,
    scatter_to_matrices,
    to_zmorton,
    transform_tiles,
    zmorton_zeros,
)
from winosim.engine import _operand_keys, matmul_streams, matmul_trace
from winosim.plans import make_plan


@pytest.fixture(scope="module")
def plan():
    return make_plan(2, 3)


def test_morton_known_values():
    assert morton_encode(0, 0) == 0
    assert morton_encode(0, 1) == 1
    assert morton_encode(1, 0) == 2
    assert morton_encode(2, 1) == 9
    assert morton_decode(0) == (0, 0)
    assert morton_decode(6) == (1, 2)
    assert morton_decode(15) == (3, 3)


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_morton_bijection(r, c):
    assert morton_decode(morton_encode(r, c)) == (r, c)


def test_morton_rejects_overflow():
    with pytest.raises(ValueError):
        morton_encode(2**16, 0)
    with pytest.raises(ValueError):
        morton_encode(-1, 0)
    with pytest.raises(ValueError):
        morton_decode(1 << 32)
    with pytest.raises(ValueError):
        morton_decode((1 << 32) + 6)


def test_morton_array_paths_refuse_to_alias():
    # 270000 columns at l = 1 need 2**19 block columns, past the 16-bit axis
    with pytest.raises(ValueError):
        to_zmorton(np.zeros((4, 270000)), 1)
    with pytest.raises(ValueError):
        zmorton_zeros(1, 1 << 17, 1)
    with pytest.raises(ValueError):
        matmul_streams(1, 1, 1 << 17)
    with pytest.raises(ValueError):
        matmul_trace(1, 1, 1 << 17)
    with pytest.raises(ValueError):
        _operand_keys(1 << 17, 1, 1)


def test_zmorton_rejects_block_side_below_one():
    with pytest.raises(ValueError, match="block side must be >= 1"):
        zmorton_zeros(4, 4, 0)
    with pytest.raises(ValueError, match="block side must be >= 1"):
        to_zmorton(np.ones((4, 4)), 0)


def test_zmorton_single_block(plan):
    m = np.arange(16.0).reshape(4, 4)
    zm = to_zmorton(m, 4)
    assert len(zm.block_codes) == 1
    assert np.array_equal(zm.blocks[0], m)
    assert np.array_equal(from_zmorton(zm), m)


def test_zmorton_8x8_block_order():
    m = np.arange(64.0).reshape(8, 8)
    zm = to_zmorton(m, 4)
    assert zm.block_codes.tolist() == [0, 1, 2, 3]
    # morton order: (0,0), (0,1), (1,0), (1,1)
    assert np.array_equal(zm.blocks[0], m[0:4, 0:4])
    assert np.array_equal(zm.blocks[1], m[0:4, 4:8])
    assert np.array_equal(zm.blocks[2], m[4:8, 0:4])
    assert np.array_equal(zm.blocks[3], m[4:8, 4:8])


def test_zmorton_padding_rule():
    m = np.ones((5, 6))
    zm = to_zmorton(m, 4)
    assert (zm.padded_rows, zm.padded_cols) == (8, 8)
    assert len(zm.block_codes) == 4
    padded_total = float(sum(b.sum() for b in zm.blocks))
    assert padded_total == 30.0  # zeros outside the logical region
    assert np.array_equal(from_zmorton(zm), m)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    seed=st.integers(0, 1000),
)
def test_zmorton_round_trip(rows, cols, seed):
    m = np.random.default_rng(seed).uniform(-1, 1, (rows, cols))
    assert np.array_equal(from_zmorton(to_zmorton(m, 4)), m)


def test_extract_tiles_counts_and_overlap(plan):
    fm = np.random.default_rng(0).uniform(-1, 1, (1, 4, 4))
    tiles = extract_tiles(fm, plan, pad=1)
    assert tiles.shape == (4, 4, 1, 2, 2)
    # adjacent tiles share r - 1 = 2 columns
    assert np.array_equal(tiles[:, 2:, 0, 0, 0], tiles[:, :2, 0, 0, 1])
    assert np.array_equal(tiles[2:, :, 0, 0, 0], tiles[:2, :, 0, 1, 0])


def test_extract_tiles_single_tile_is_padded_input(plan):
    fm = np.random.default_rng(1).uniform(-1, 1, (3, 2, 2))
    tiles = extract_tiles(fm, plan, pad=1)
    assert tiles.shape == (4, 4, 3, 1, 1)
    padded = np.zeros((3, 4, 4))
    padded[:, 1:3, 1:3] = fm
    assert np.array_equal(tiles[:, :, :, 0, 0], padded.transpose(1, 2, 0))


def test_extract_tiles_vgg_count(plan):
    fm = np.zeros((1, 224, 224))
    tiles = extract_tiles(fm, plan, pad=1)
    assert tiles.shape[3:] == (112, 112)


def test_extract_tiles_reconstructs_covered_region(plan):
    rng = np.random.default_rng(2)
    fm = rng.uniform(-1, 1, (2, 6, 6))
    pad = 1
    tiles = extract_tiles(fm, plan, pad)
    l, _, C, th, tw = tiles.shape
    m = plan.m
    rebuilt = np.zeros((C, th * m, tw * m))
    for x in range(th):
        for y in range(tw):
            rebuilt[:, x * m : (x + 1) * m, y * m : (y + 1) * m] = tiles[:m, :m, :, x, y].transpose(2, 0, 1)
    padded = np.zeros((C, th * m + 2, tw * m + 2))
    padded[:, pad : pad + 6, pad : pad + 6] = fm
    assert np.array_equal(rebuilt, padded[:, : th * m, : tw * m])


def _reference_to_zmorton_blocks(dense, l):
    """The padded-grid packing, verbatim; to_zmorton's gather must reproduce it."""
    nbr, nbc = _block_extent(dense.shape[0], l), _block_extent(dense.shape[1], l)
    padded = np.zeros((nbr * l, nbc * l))
    padded[: dense.shape[0], : dense.shape[1]] = dense
    grid = padded.reshape(nbr, l, nbc, l).transpose(0, 2, 1, 3)
    return grid[_morton_decode_array(_grid_codes(nbr, nbc))]


@settings(max_examples=100, deadline=None)
@given(
    block_rows=st.integers(1, 9),
    block_cols=st.integers(1, 9),
    l=st.integers(1, 6),
    trim=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    seed=st.integers(0, 1000),
)
def test_zmorton_packing_matches_padded_grid_reference(block_rows, block_cols, l, trim, seed):
    # whole blocks, often an unpadded power-of-two grid, or trimmed into padding
    rows, cols = max(1, block_rows * l - trim[0]), max(1, block_cols * l - trim[1])
    m = np.random.default_rng(seed).uniform(-1, 1, (rows, cols))
    zm = to_zmorton(m, l)
    assert zm.blocks.tobytes() == _reference_to_zmorton_blocks(m, l).tobytes()
    back = from_zmorton(zm)
    assert back.tobytes() == m.tobytes()
    # both directions copy: neither result shares memory with its source
    assert not np.shares_memory(zm.blocks, m) and not np.shares_memory(back, zm.blocks)


def _two_index_to_zmorton_blocks(dense, l):
    """Packing by a (block row, block col) fancy index over the padded 4-D grid view."""
    nbr, nbc = _block_extent(dense.shape[0], l), _block_extent(dense.shape[1], l)
    padded = np.zeros((nbr * l, nbc * l))
    padded[: dense.shape[0], : dense.shape[1]] = dense
    brow, bcol = _grid_coords(nbr, nbc)
    return padded.reshape(nbr, l, nbc, l)[brow, :, bcol, :]


def _two_index_from_zmorton(zm):
    """Scattering by the same two-index fancy index, padding dropped."""
    l, nbr, nbc = zm.l, zm.block_rows, zm.block_cols
    brow, bcol = _grid_coords(nbr, nbc)
    grid = np.empty((nbr, l, nbc, l))
    grid[brow, :, bcol, :] = zm.blocks
    return grid.reshape(nbr * l, nbc * l)[: zm.rows, : zm.cols]


@st.composite
def _axis_extent(draw, l):
    """1-70 entries, or (about half the time) a power-of-two count of whole blocks, so no padding."""
    if draw(st.booleans()):
        return draw(st.integers(1, 70))
    return l * draw(st.sampled_from([p for p in (1, 2, 4, 8, 16, 32, 64) if p * l <= 70]))


def _signed_zero_matrix(rng, shape):
    m = rng.uniform(-1, 1, shape)
    m[rng.random(shape) < 0.3] = 0.0
    m[rng.random(shape) < 0.3] = -0.0
    return m


@settings(max_examples=150, deadline=None)
@given(data=st.data(), l=st.integers(1, 7), seed=st.integers(0, 1000))
def test_morton_order_packing_matches_two_index_reference(data, l, seed):
    rows, cols = data.draw(_axis_extent(l)), data.draw(_axis_extent(l))
    rng = np.random.default_rng(seed)
    m = _signed_zero_matrix(rng, (rows, cols))
    zm = to_zmorton(m, l)
    assert zm.blocks.tobytes() == _two_index_to_zmorton_blocks(m, l).tobytes()
    assert from_zmorton(zm).tobytes() == _two_index_from_zmorton(zm).tobytes() == m.tobytes()
    # blocks that also fill the padding: both scatters drop it alike
    stray = ZMortonMatrix(rows=rows, cols=cols, l=l, blocks=_signed_zero_matrix(rng, zm.blocks.shape))
    assert from_zmorton(stray).tobytes() == _two_index_from_zmorton(stray).tobytes()


def test_morton_order_shared_read_only():
    order = _morton_order(2, 4, 3)
    assert order is _morton_order(2, 4, 3)
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 7
    assert sorted(order.tolist()) == list(range(2 * 4 * 3 * 3))


def test_block_extent_rounds_block_count_up_to_power_of_two():
    got = [_block_extent(n, 4) for n in (0, 1, 4, 5, 12, 13, 16, 17)]
    assert got == [1, 1, 1, 2, 4, 4, 4, 8]


def test_grid_codes_shared_read_only():
    codes = _grid_codes(2, 4)
    assert codes is _grid_codes(2, 4)
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0] = 7
    # a matrix built on the shared codes reads them, never writes
    zm = to_zmorton(np.ones((8, 16)), 4)
    assert zm.block_codes.tolist() == codes.tolist() == sorted(codes.tolist())


def test_filter_stack_rejects_empty_bank(plan):
    for shape in ((0, 2, 3, 3), (2, 0, 3, 3)):
        with pytest.raises(ValueError, match="K, C >= 1"):
            gather_filters(np.zeros(shape), plan)


def test_scatter_entry_placement(plan):
    tiles = np.random.default_rng(4).uniform(-1, 1, (4, 4, 2, 2, 2))
    batch = scatter_to_matrices(tiles)
    v00 = from_zmorton(batch.at(0, 0))
    # column b of V^(0,0) is tile b's (0, 0) entry, b = x*tw + y
    for c in range(2):
        for x in range(2):
            for y in range(2):
                assert v00[c, x * 2 + y] == tiles[0, 0, c, x, y]


def test_gather_filters_shapes_and_values(plan):
    rng = np.random.default_rng(5)
    filters = rng.uniform(-1, 1, (1, 1, 3, 3))
    batch = gather_filters(filters, plan)
    u = plan.G @ filters[0, 0] @ plan.G.T
    for i in range(4):
        for j in range(4):
            assert from_zmorton(batch.at(i, j))[0, 0] == u[i, j]


def test_gather_filters_weight_counts(plan):
    # transformed-weight volume K*C*l^2 for the first and last VGG stages
    batch = gather_filters(np.zeros((64, 64, 3, 3)), plan)
    assert sum(m.rows * m.cols for m in batch) == 65_536
    batch = gather_filters(np.zeros((512, 512, 3, 3)), plan)
    assert sum(m.rows * m.cols for m in batch) == 4_194_304


def test_assemble_output_zero(plan):
    out = assemble_output(np.zeros((4, 4, 1, 1)), plan, 1, 2, 2)
    assert np.array_equal(out, np.zeros((1, 2, 2)))


def test_assemble_output_counts_inverse_transforms(plan):
    from winosim.plans import OpCounters

    counters = OpCounters()
    assemble_output(np.zeros((4, 4, 3, 6)), plan, 3, 4, 6, counters=counters)
    assert counters.inverse_transforms == 3 * 6  # K*P, not K*P*C


def test_transform_tiles_matches_single(plan):
    rng = np.random.default_rng(6)
    tiles = rng.uniform(-1, 1, (4, 4, 3, 1, 2))
    batch = transform_tiles(plan, tiles)
    for c, x, y in np.ndindex(3, 1, 2):
        want = plan.Bt @ tiles[:, :, c, x, y] @ plan.Bt.T
        assert np.allclose(batch[:, :, c, x, y], want, rtol=0, atol=1e-15)


def test_tile_stacks_are_contiguous_and_position_major(plan):
    fm = np.random.default_rng(7).uniform(-1, 1, (3, 5, 7))
    tiles = extract_tiles(fm, plan, pad=1)
    transformed = transform_tiles(plan, tiles)
    for stack in (tiles, transformed):
        assert stack.shape == (4, 4, 3, 3, 4) and stack.flags.c_contiguous
    # the (l*l, C, P) GEMM operand is the same memory, regrouped
    V = _input_stack(transformed)
    assert V.shape == (16, 3, 12) and np.shares_memory(V, transformed)


def test_zmorton_zeros_refuses_oversized_grid():
    with pytest.raises(ValueError, match=r"1x1 grid of 16385x16385 blocks"):
        zmorton_zeros(1, 1, 16385)
    with pytest.raises(ValueError, match=r"32768x32768 grid of 1x1 blocks"):
        zmorton_zeros(20000, 32768, 1)


# References for the three transform stages, over tile-major stacks: each
# tile's (l, l) or (r, r) axes innermost in memory.  The _ref_ forms sum in
# the nested order of _sandwich, every term multiplied, and each stage must
# reproduce them byte for byte; the _einsum_ forms sum in einsum's order and
# are tolerance references.


def _nested(M, X):
    """M . X . M.T over X's two leading axes as two 1-D passes, with plain loops and every term multiplied."""
    na, nb = M.shape
    out = np.zeros((na, na) + X.shape[2:])
    for a in range(na):
        for d in range(nb):
            y = np.zeros(X.shape[2:])
            for b in range(nb):
                y = y + M[a, b] * X[b, d]
            for e in range(na):
                out[a, e] = out[a, e] + M[e, d] * y
    return out


def _assert_near(got, want, M, X):
    """got within two summation orders' rounding of want: 64 eps of max(|M| |X| |M|.T), plus 64 subnormal steps."""
    scale = np.abs(M).sum(axis=1).max() ** 2 * np.abs(X).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=64 * np.finfo(float).eps * scale + 64 * 2.0**-1074)


def _ref_extract_tiles(fm, plan, pad):
    C, H, W = fm.shape
    m, l = plan.m, plan.l
    th, tw = _tile_counts(*_output_extent(H, W, plan.r, pad), m)
    padded = np.zeros((C, (th - 1) * m + l, (tw - 1) * m + l))
    padded[:, pad : pad + H, pad : pad + W] = fm
    win = np.lib.stride_tricks.sliding_window_view(padded, (l, l), axis=(1, 2))
    return np.ascontiguousarray(win[:, ::m, ::m][:, :th, :tw])


def _ref_transform_tiles(plan, tiles):
    got = _nested(plan.Bt, np.moveaxis(tiles, (-2, -1), (0, 1)))
    return np.ascontiguousarray(np.moveaxis(got, (0, 1), (-2, -1)))


def _einsum_transform_tiles(plan, tiles):
    return np.einsum("ab,...bd,ed->...ae", plan.Bt, tiles, plan.Bt)


def _ref_filter_stack(filters, plan):
    K, C = filters.shape[:2]
    return _nested(plan.G, filters.transpose(2, 3, 0, 1)).reshape(plan.l**2, K, C)


def _einsum_filter_stack(filters, plan):
    K, C = filters.shape[:2]
    return np.einsum("ab,kcbd,ed->aekc", plan.G, filters, plan.G).reshape(plan.l**2, K, C)


def _output_from_tiles(tiles, plan, K, out_h, out_w):
    """Inverse-transformed (K, P, m, m) tiles laid out as the (K, out_h, out_w) map."""
    m = plan.m
    th, tw = _tile_counts(out_h, out_w, m)
    tiles = tiles.reshape(K, th, tw, m, m).transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(tiles.reshape(K, th * m, tw * m)[:, :out_h, :out_w])


def _ref_assemble_output(mats, plan, K, out_h, out_w):
    return _output_from_tiles(_nested(plan.At, mats).transpose(2, 3, 0, 1), plan, K, out_h, out_w)


def _einsum_assemble_output(mats, plan, K, out_h, out_w):
    return _output_from_tiles(np.einsum("ab,bdkp,ed->kpae", plan.At, mats, plan.At), plan, K, out_h, out_w)


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def _tile_major(tiles):
    """An (l, l, C, th, tw) stack viewed as the references' (C, th, tw, l, l)."""
    return tiles.transpose(2, 3, 4, 0, 1)


def _position_major(tiles):
    """A (C, th, tw, l, l) reference stack viewed as (l, l, C, th, tw)."""
    return tiles.transpose(3, 4, 0, 1, 2)


def _position_major_view(a):
    """The same values as `a` (..., n, n), over contiguous (n, n, ...) memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1))), (0, 1), (-2, -1))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 6),
    C=st.integers(1, 12),
    K=st.integers(1, 12),
    H=st.integers(1, 20),
    W=st.integers(1, 20),
    pad=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_byte_identical_to_tile_major_references(m, C, K, H, W, pad, seed):
    plan = make_plan(m, 3)
    l = plan.l
    try:
        out_h, out_w = _output_extent(H, W, 3, pad)
    except ValueError:
        return
    rng = np.random.default_rng(seed)
    fm = rng.uniform(-1, 1, (C, H, W))
    filters = rng.uniform(-1, 1, (K, C, 3, 3))

    tiles = extract_tiles(fm, plan, pad)
    ref_tiles = _ref_extract_tiles(fm, plan, pad)
    assert _tile_major(tiles).shape == ref_tiles.shape and _bytes(_tile_major(tiles)) == ref_tiles.tobytes()
    assert tiles.flags.c_contiguous

    # Every memory order of the same tiles gives the bytes of the C-contiguous reference.
    want = _ref_transform_tiles(plan, ref_tiles)
    _assert_near(want, _einsum_transform_tiles(plan, ref_tiles), plan.Bt, ref_tiles)
    for source in (tiles, _position_major(ref_tiles), np.asfortranarray(_position_major(ref_tiles))):
        got = transform_tiles(plan, source)
        assert _tile_major(got).shape == want.shape and _bytes(_tile_major(got)) == _bytes(want)
        assert got.flags.c_contiguous

    want = _ref_filter_stack(filters, plan)
    _assert_near(want, _einsum_filter_stack(filters, plan), plan.G, filters)
    for source in (filters, _position_major_view(filters), np.asfortranarray(filters)):
        assert _bytes(_filter_stack(source, plan)) == want.tobytes()

    th, tw = ref_tiles.shape[1:3]
    mats = rng.uniform(-1, 1, (l, l, K, th * tw))
    tile_major = np.ascontiguousarray(np.moveaxis(mats, (0, 1), (-2, -1)))
    _assert_near(_ref_assemble_output(mats, plan, K, out_h, out_w),
                 _einsum_assemble_output(mats, plan, K, out_h, out_w), plan.At, mats)
    for source in (mats, np.moveaxis(tile_major, (-2, -1), (0, 1))):
        want = _ref_assemble_output(source, plan, K, out_h, out_w)
        assert assemble_output(source, plan, K, out_h, out_w).tobytes() == want.tobytes()


def _signed_zeros(rng, shape):
    """Uniform values with about a third +0.0 and a third -0.0; channel 0 all +0.0, channel 1 all -0.0."""
    a = rng.uniform(-1, 1, shape)
    pick = rng.integers(0, 3, shape)
    a[pick == 1] = 0.0
    a[pick == 2] = -0.0
    a[0], a[1] = 0.0, -0.0
    return a


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_zero_skipping_transforms_keep_the_sign_of_zero(m):
    # skipped terms are +-0.0; the references multiply every one of them
    plan = make_plan(m, 3)
    l = plan.l
    rng = np.random.default_rng(m)
    tiles = _signed_zeros(rng, (3, 2, 3, l, l))
    got = transform_tiles(plan, np.ascontiguousarray(_position_major(tiles)))
    assert _bytes(_tile_major(got)) == _ref_transform_tiles(plan, tiles).tobytes()
    _assert_near(_tile_major(got), _einsum_transform_tiles(plan, tiles), plan.Bt, tiles)
    filters = np.moveaxis(_signed_zeros(rng, (3, 4, 3, 3)), 0, 1)  # all-zero input channels
    got = _filter_stack(filters, plan)
    assert got.tobytes() == _ref_filter_stack(filters, plan).tobytes()
    _assert_near(got, _einsum_filter_stack(filters, plan), plan.G, filters)
    mats = np.moveaxis(_signed_zeros(rng, (3, l, l, 6)), 0, 2)  # all-zero output channels
    got = assemble_output(mats, plan, 3, 2 * m, 3 * m)
    assert got.tobytes() == _ref_assemble_output(mats, plan, 3, 2 * m, 3 * m).tobytes()
    _assert_near(got, _einsum_assemble_output(mats, plan, 3, 2 * m, 3 * m), plan.At, mats)
    assert np.signbit(got[:2]).sum() == 0  # a sum that starts at +0.0 never ends at -0.0


def _edge_operand(rng, shape, scale):
    """Uniform values times `scale`; along the last axis of each row, one run of +0.0 and one of -0.0."""
    a = rng.uniform(-1, 1, shape) * scale
    for row in a.reshape(-1, shape[-1]):
        for zero in (0.0, -0.0):
            start, stop = sorted(rng.integers(0, shape[-1] + 1, 2))
            row[start:stop] = zero
    return a


@pytest.mark.parametrize("scale", [1.0, 2.0**-1060, 1e290], ids=["unit", "subnormal", "near-overflow"])
@pytest.mark.parametrize("m, r", [(2, 2), (4, 2), (6, 2), (2, 3), (3, 3), (4, 3), (6, 3), (2, 5), (4, 5)])
def test_transforms_byte_identical_at_the_edges_of_the_range(m, r, scale):
    # The kernel forms |c| * x, adds or subtracts it, and writes each sum's first
    # term as 0.0 + t.  That is exact only with sign-symmetric rounding and the
    # +0.0 start: subnormal operands round at every step (folded coefficients
    # or a changed order show there), and runs of +-0.0 make first terms of -0.0.
    plan = make_plan(m, r)
    l = plan.l
    rng = np.random.default_rng(m * 10 + r)
    tiles = _edge_operand(rng, (3, 2, 3, l, l), scale)
    got = transform_tiles(plan, np.ascontiguousarray(_position_major(tiles)))
    assert _bytes(_tile_major(got)) == _ref_transform_tiles(plan, tiles).tobytes()
    _assert_near(_tile_major(got), _einsum_transform_tiles(plan, tiles), plan.Bt, tiles)
    filters = _edge_operand(rng, (4, 3, r, r), scale)
    got = _filter_stack(filters, plan)
    assert got.tobytes() == _ref_filter_stack(filters, plan).tobytes()
    _assert_near(got, _einsum_filter_stack(filters, plan), plan.G, filters)
    mats = np.moveaxis(_edge_operand(rng, (3, 6, l, l), scale), (2, 3), (0, 1))
    got = assemble_output(mats, plan, 3, 2 * m - 1, 3 * m)
    assert got.tobytes() == _ref_assemble_output(mats, plan, 3, 2 * m - 1, 3 * m).tobytes()
    _assert_near(got, _einsum_assemble_output(mats, plan, 3, 2 * m - 1, 3 * m), plan.At, mats)


def test_transform_outputs_no_term_reaches_are_plus_zero():
    # A zero row of M leaves its outputs without a first term; they must still read +0.0.
    from winosim.layout import _sandwich

    M = np.array([[0.5, -1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    X = _signed_zeros(np.random.default_rng(9), (3, 3, 4, 5))
    got = _sandwich(M, X)
    assert got.tobytes() == _nested(M, X).tobytes()
    _assert_near(got, np.einsum("ab,bd...,ed->ae...", M, X, M), M, X)
    assert not np.signbit(got[1]).any() and not np.signbit(got[:, 1]).any()


@pytest.mark.parametrize("stale", [np.nan, -0.0], ids=["nan", "minus-zero"])
def test_transforms_do_not_read_fresh_memory(monkeypatch, stale):
    # The row buffers come from np.empty; whatever it holds must not reach a result.
    from winosim.layout import _sandwich

    rng = np.random.default_rng(11)
    M = np.array([[0.5, -1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])  # row 1 feeds no term
    X = _signed_zeros(rng, (3, 3, 4, 5))
    cases = [(_sandwich, (M, X), _nested(M, X))]
    for m in (2, 4):
        plan = make_plan(m, 3)
        l = plan.l
        tiles = _signed_zeros(rng, (3, 2, 3, l, l))
        filters = np.moveaxis(_signed_zeros(rng, (3, 4, 3, 3)), 0, 1)
        mats = np.moveaxis(_signed_zeros(rng, (3, l, l, 6)), 0, 2)
        cases += [
            (transform_tiles, (plan, np.ascontiguousarray(_position_major(tiles))),
             _position_major(_ref_transform_tiles(plan, tiles))),
            (_filter_stack, (filters, plan), _ref_filter_stack(filters, plan)),
            (assemble_output, (mats, plan, 3, 2 * m, 3 * m), _ref_assemble_output(mats, plan, 3, 2 * m, 3 * m)),
        ]

    empty = np.empty

    def stale_empty(*args, **kwargs):
        a = empty(*args, **kwargs)
        a.fill(stale)
        return a

    monkeypatch.setattr(np, "empty", stale_empty)
    for transform, args, want in cases:
        assert _bytes(transform(*args)) == _bytes(want)
