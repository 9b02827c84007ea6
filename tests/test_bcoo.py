import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from winosim.bcoo import (
    BcooFormatError,
    BcooMatrix,
    _decode_dense,
    _prune_dense,
    bcoo_decode,
    bcoo_encode,
    bcoo_from_bytes,
    bcoo_to_bytes,
    load_bcoo,
    prune,
    save_bcoo,
)
from winosim.layout import TransformedBatch, _grid_codes, from_zmorton, to_zmorton


def _random_sparse(rng, rows, cols, sparsity):
    m = rng.uniform(-1, 1, (rows, cols))
    m[rng.uniform(0, 1, m.shape) < sparsity] = 0.0
    return m


def test_encode_empty():
    enc = bcoo_encode(to_zmorton(np.zeros((8, 8)), 4))
    assert enc.bn.tolist() == []
    assert enc.bi.tolist() == [0]
    assert enc.nnz == 0
    assert np.array_equal(from_zmorton(bcoo_decode(enc)), np.zeros((8, 8)))


def test_encode_block5_example():
    # block at morton index 5 = block (row 0, col 3) with nonzeros at
    # (0,0), (1,2), (3,1): row-major listing order
    m = np.zeros((4, 16))
    m[0, 12 + 0] = 1.5
    m[1, 12 + 2] = -2.5
    m[3, 12 + 1] = 3.5
    enc = bcoo_encode(to_zmorton(m, 4))
    assert enc.bn.tolist() == [5]
    assert enc.ai.tolist() == [0, 1, 3]
    assert enc.aj.tolist() == [0, 2, 1]
    assert enc.an.tolist() == [1.5, -2.5, 3.5]


def test_encode_dense_8x8():
    m = np.random.default_rng(0).uniform(0.5, 1.0, (8, 8))
    enc = bcoo_encode(to_zmorton(m, 4))
    assert enc.bn.tolist() == [0, 1, 2, 3]
    assert enc.nnz == 64
    assert np.array_equal(from_zmorton(bcoo_decode(enc)), m)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 20),
    cols=st.integers(1, 20),
    sparsity=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_round_trip_property(rows, cols, sparsity, seed):
    m = _random_sparse(np.random.default_rng(seed), rows, cols, sparsity)
    enc = bcoo_encode(to_zmorton(m, 4))
    assert np.array_equal(from_zmorton(bcoo_decode(enc)), m)


def test_decode_rejects_out_of_range_ai():
    enc = bcoo_encode(to_zmorton(np.eye(4), 4))
    bad = BcooMatrix(
        rows=enc.rows, cols=enc.cols, l=enc.l,
        bn=enc.bn, bi=enc.bi,
        ai=enc.ai.copy(), aj=enc.aj, an=enc.an,
    )
    bad.ai[0] = 4
    with pytest.raises(BcooFormatError):
        bcoo_decode(bad)


def test_decode_rejects_bad_bi():
    enc = bcoo_encode(to_zmorton(np.eye(4), 4))
    bad = BcooMatrix(
        rows=enc.rows, cols=enc.cols, l=enc.l,
        bn=enc.bn, bi=np.array([1, 4]), ai=enc.ai, aj=enc.aj, an=enc.an,
    )
    with pytest.raises(BcooFormatError):
        bcoo_decode(bad)


def test_decode_rejects_duplicate_position():
    bad = BcooMatrix(
        rows=4, cols=4, l=4,
        bn=np.array([0]), bi=np.array([0, 2]),
        ai=np.array([1, 1]), aj=np.array([2, 2]), an=np.array([1.0, 2.0]),
    )
    with pytest.raises(BcooFormatError):
        bcoo_decode(bad)


def _batch_of(mat):
    zm = to_zmorton(mat, 4)
    return TransformedBatch(l=1, mats=[zm])


def test_prune_identity_and_total():
    m = np.random.default_rng(1).uniform(-1, 1, (6, 6))
    batch = _batch_of(m)
    assert np.array_equal(from_zmorton(prune(batch, 0.0).mats[0]), m)
    assert np.array_equal(from_zmorton(prune(batch, 1.0).mats[0]), np.zeros((6, 6)))


def test_prune_smallest_magnitude():
    m = np.array([[3.0, 1.0], [-4.0, 2.0]])
    got = from_zmorton(prune(_batch_of(m), 0.5).mats[0])
    assert np.array_equal(got, [[3.0, 0.0], [-4.0, 0.0]])


def test_prune_keeps_surviving_values_and_meets_target():
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, (9, 7))
    for target in (0.25, 0.5, 0.8):
        got = from_zmorton(prune(_batch_of(m), target).mats[0])
        sparsity = np.count_nonzero(got == 0.0) / got.size
        assert sparsity >= target
        surviving = got != 0.0
        assert np.array_equal(got[surviving], m[surviving])


def test_prune_counts_existing_zeros():
    m = np.zeros((4, 4))
    m[0, 0] = 5.0
    got = from_zmorton(prune(_batch_of(m), 0.9).mats[0])
    assert np.count_nonzero(got == 0.0) == 15  # ceil(0.9*16) = 15, one survivor
    assert got[0, 0] == 5.0


def test_prune_breaks_magnitude_ties_by_row_then_col():
    m = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 0.0], [1.0, 2.0, -1.0]])
    batch = _batch_of(m)
    got = from_zmorton(prune(batch, 0.5).mats[0])
    # ceil(0.5 * 9) = 5 zeros: the existing one, then the first four unit
    # magnitudes in row-major order
    want = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, -1.0]])
    assert np.array_equal(got, want)
    assert np.array_equal(from_zmorton(batch.mats[0]), m)  # input left unmodified


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    m = _random_sparse(rng, 12, 9, 0.6)
    enc = bcoo_encode(to_zmorton(m, 4))
    blob = bcoo_to_bytes(enc)
    # header: rows, cols, l, n_blocks, nnz as little-endian int64
    head = np.frombuffer(blob[:40], dtype="<i8")
    assert head.tolist() == [12, 9, 4, len(enc.bn), enc.nnz]
    dec, consumed = bcoo_from_bytes(blob)
    assert consumed == len(blob)
    assert np.array_equal(from_zmorton(bcoo_decode(dec)), m)

    path = tmp_path / "w.bcoo"
    save_bcoo(path, enc)
    assert np.array_equal(from_zmorton(bcoo_decode(load_bcoo(path))), m)


def test_deserialization_rejects_truncation():
    enc = bcoo_encode(to_zmorton(np.eye(4), 4))
    blob = bcoo_to_bytes(enc)
    with pytest.raises(BcooFormatError):
        bcoo_from_bytes(blob[:-4])


def _record(rows, cols, l, bn=(), bi=(0,), ai=(), aj=(), an=()):
    return BcooMatrix(
        rows=rows, cols=cols, l=l, bn=np.array(bn, dtype=np.int64),
        bi=np.array(bi, dtype=np.int64), ai=np.array(ai, dtype=np.int64),
        aj=np.array(aj, dtype=np.int64), an=np.array(an, dtype=float),
    )


def test_validate_does_not_build_the_block_grid():
    blob = bcoo_to_bytes(_record(2048, 2048, 1))
    assert len(blob) == 48
    tracemalloc.start()
    try:
        bcoo_from_bytes(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_validate_requires_row_major_order_within_a_block():
    # one block listing (1, 0) before (0, 0), and one listing (0, 3) before (0, 1)
    for ai, aj in (([1, 0], [0, 0]), ([0, 0], [3, 1])):
        rec = _record(4, 4, 4, bn=[0], bi=[0, 2], ai=ai, aj=aj, an=[1.0, 2.0])
        with pytest.raises(BcooFormatError, match="out-of-order"):
            bcoo_from_bytes(bcoo_to_bytes(rec))
    # the order starts afresh in each block
    _record(8, 8, 4, bn=[0, 1], bi=[0, 1, 2], ai=[3, 0], aj=[3, 0], an=[1.0, 2.0]).validate()


def test_validate_rejects_grid_past_morton_axis():
    with pytest.raises(BcooFormatError):
        bcoo_from_bytes(bcoo_to_bytes(_record(1 << 17, 4, 1)))


@pytest.mark.parametrize("code", [1 << 40, 4, -1])
def test_validate_rejects_block_number_outside_grid(code):
    # an 8x4 matrix at l = 4 has a 2x1 block grid: codes 0 and 2 only
    with pytest.raises(BcooFormatError):
        _record(8, 4, 4, bn=[code], bi=[0, 1], ai=[0], aj=[0], an=[1.0]).validate()


def test_validate_rejects_nonzero_in_layout_padding():
    _record(6, 3, 4, bn=[2], bi=[0, 1], ai=[1], aj=[2], an=[1.0]).validate()
    for ai, aj in ((2, 0), (0, 3)):
        with pytest.raises(BcooFormatError):
            _record(6, 3, 4, bn=[2], bi=[0, 1], ai=[ai], aj=[aj], an=[1.0]).validate()


@st.composite
def _bcoo_like_records(draw):
    """Records of small matrices with consistent counts, one word possibly replaced."""
    l = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 3), max_size=3))
    nnz = sum(counts)
    bn = sorted(draw(st.sets(st.integers(0, 15), min_size=len(counts), max_size=len(counts))))
    bi = np.concatenate(([0], np.cumsum(counts, dtype=np.int64))).tolist()
    in_block = st.lists(st.integers(0, l - 1), min_size=nnz, max_size=nnz)
    words = [draw(st.integers(1, 12)), draw(st.integers(1, 12)), l, len(counts), nnz,
             *bn, *bi, *draw(in_block), *draw(in_block)]
    if draw(st.booleans()):
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from([-1, 0, 2, 1 << 40]))
    an = draw(st.lists(st.sampled_from([1.0, -2.5, 0.0]), min_size=nnz, max_size=nnz))
    return struct.pack(f"<{len(words)}q{nnz}d", *words, *an)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=160), _bcoo_like_records()))
def test_bcoo_from_bytes_parses_exactly_or_raises_value_error(buf):
    try:
        mat, end = bcoo_from_bytes(buf)
    except ValueError:
        return
    assert bcoo_to_bytes(mat) == buf[:end]


def _reference_prune(batch: TransformedBatch, target_sparsity: float) -> TransformedBatch:
    """The stable-argsort pruning rule, verbatim; `_prune_dense` must reproduce it."""
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValueError("target_sparsity must lie in [0, 1]")
    pruned = []
    for mat in batch:
        dense = from_zmorton(mat)  # a fresh array, never a view of `mat`
        needed = int(np.ceil(target_sparsity * dense.size))
        # Existing zeros sort first; the stable sort of the row-major
        # flattening breaks magnitude ties by (row, col).
        dense.flat[np.argsort(np.abs(dense), axis=None, kind="stable")[:needed]] = 0.0
        pruned.append(to_zmorton(dense, mat.l))
    return TransformedBatch(l=batch.l, mats=pruned)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    levels=st.integers(1, 8),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    sparsity=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 10_000),
)
def test_prune_dense_matches_stable_argsort_rule(rows, cols, levels, zero_fraction, sparsity, seed):
    # Few magnitude levels force ties; zeros of both signs sit among them.
    rng = np.random.default_rng(seed)
    m = np.round(rng.uniform(-1, 1, (rows, cols)) * levels) / levels
    zeros = rng.uniform(0, 1, m.shape) < zero_fraction
    m[zeros] = np.where(rng.uniform(0, 1, m.shape) < 0.5, 0.0, -0.0)[zeros]
    want = from_zmorton(_reference_prune(_batch_of(m), sparsity).mats[0])
    got = m.copy()
    _prune_dense(got, sparsity)
    assert got.tobytes() == want.tobytes()
    assert from_zmorton(prune(_batch_of(m), sparsity).mats[0]).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prune_rejects_non_finite_entries(bad):
    m = np.random.default_rng(4).uniform(-1, 1, (5, 5))
    m[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        prune(_batch_of(m), 0.5)


def test_duplicate_test_survives_a_key_past_int64():
    # (owner * l + ai) * l + aj overflows int64 here: AI = 2**24 times
    # l = 2**40 wraps to 0, so a naive key would equate (2**24, 5) and (0, 5).
    big = 1 << 40
    distinct = _record(big, big, big, bn=[0], bi=[0, 2], ai=[0, 1 << 24], aj=[5, 5], an=[1.0, 2.0])
    distinct.validate()
    assert bcoo_from_bytes(bcoo_to_bytes(distinct))[0].nnz == 2
    repeated = _record(big, big, big, bn=[0], bi=[0, 2], ai=[1 << 24] * 2, aj=[5, 5], an=[1.0, 2.0])
    with pytest.raises(BcooFormatError, match="duplicate"):
        bcoo_from_bytes(bcoo_to_bytes(repeated))


@settings(max_examples=200, deadline=None)
@given(
    code=st.one_of(st.integers(-8, 300), st.sampled_from([-(1 << 63), 1 << 32, 1 << 40, (1 << 63) - 1])),
    row_bits=st.integers(0, 4),
    col_bits=st.integers(0, 4),
)
def test_validate_grid_check_matches_grid_membership(code, row_bits, col_bits):
    nbr, nbc = 1 << row_bits, 1 << col_bits
    # l = 1 and a full-size matrix: the block is the nonzero, always inside
    rec = _record(nbr, nbc, 1, bn=[code], bi=[0, 1], ai=[0], aj=[0], an=[1.0])
    try:
        rec.validate()
        accepted = True
    except BcooFormatError:
        accepted = False
    assert accepted == (code in set(_grid_codes(nbr, nbc).tolist()))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_bcoo_like_records(), st.tuples(
    st.integers(1, 20), st.integers(1, 20), st.integers(1, 5),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.integers(0, 10_000),
)))
def test_decode_dense_equals_zmorton_decode(source):
    if isinstance(source, bytes):
        try:
            mat, _ = bcoo_from_bytes(source)
        except ValueError:
            return
        if mat.l > 64:  # the Z-Morton decode would allocate l-by-l padding blocks
            return
    else:
        rows, cols, l, sparsity, seed = source
        mat = bcoo_encode(to_zmorton(_random_sparse(np.random.default_rng(seed), rows, cols, sparsity), l))
    dense = np.zeros((mat.rows, mat.cols))
    _decode_dense(mat, dense)
    assert dense.tobytes() == from_zmorton(bcoo_decode(mat)).tobytes()
