import dataclasses
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from winosim.bcoo import (
    BcooFormatError,
    BcooMatrix,
    _decode_stack,
    _nonzero_entries,
    _prune_dense,
    bcoo_decode,
    bcoo_encode,
    bcoo_from_bytes,
    bcoo_to_bytes,
    prune,
)
from winosim.layout import (
    _AXIS_BITS,
    _AXIS_LIMIT,
    TransformedBatch,
    ZMortonMatrix,
    _block_extent,
    _grid_codes,
    _morton_decode_array,
    from_zmorton,
    morton_encode,
    to_zmorton,
)


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


@pytest.mark.parametrize("row, col", [(0, 3), (3, 0), (3, 3)])
def test_encode_refuses_a_nonzero_in_the_padding(row, col):
    # a 3x3 matrix in one 4x4 block: row 3 and column 3 are padding
    zm = to_zmorton(np.ones((3, 3)), 4)
    zm.blocks[0, row, col] = 1.0
    with pytest.raises(BcooFormatError, match="nonzero outside the logical matrix"):
        bcoo_encode(zm)


def test_encode_refuses_blocks_that_do_not_fill_the_grid():
    zm = ZMortonMatrix(rows=8, cols=8, l=4, blocks=np.ones((3, 4, 4)))
    with pytest.raises(ValueError, match=r"\(3, 4, 4\) block stack does not fill a 2x2 grid"):
        bcoo_encode(zm)


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
    l=st.integers(1, 6),
    sparsity=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_round_trip_property(rows, cols, l, sparsity, seed):
    m = _random_sparse(np.random.default_rng(seed), rows, cols, sparsity)
    enc = bcoo_encode(to_zmorton(m, l))
    assert np.array_equal(from_zmorton(bcoo_decode(enc)), m)
    # bcoo_encode builds its records unchecked; the check accepts each as it is
    checked = BcooMatrix(enc.rows, enc.cols, enc.l, enc.bn, enc.bi, enc.ai, enc.aj, enc.an)
    for name in ("bn", "bi", "ai", "aj", "an"):
        got, want = getattr(checked, name), getattr(enc, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not want.flags.writeable


def test_record_owns_read_only_copies():
    caller = {"bn": np.array([0, 3], dtype=np.int32), "bi": np.array([0, 1, 2]), "ai": np.array([0, 1]),
              "aj": np.array([1, 0]), "an": np.array([1.5, -2.0], dtype=np.float32)}
    u = BcooMatrix(8, 8, 4, **caller)
    zm = to_zmorton(from_zmorton(bcoo_decode(u)), 4)
    blob = bytearray(bcoo_to_bytes(u))
    parsed, _ = bcoo_from_bytes(blob)
    for rec, source in ((u, caller.values()), (bcoo_encode(zm), [zm.blocks]),
                        (parsed, [np.frombuffer(blob, np.uint8)])):
        for name in ("bn", "bi", "ai", "aj", "an"):
            vec = getattr(rec, name)
            assert vec.dtype == (np.float64 if name == "an" else np.int64)
            assert not vec.flags.writeable
            assert not any(np.shares_memory(vec, src) for src in source)
            with pytest.raises(ValueError, match="read-only"):
                vec[:1] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, vec.copy())
    # what the caller goes on to do with its arrays and buffer changes no record
    caller["ai"][0] = 3
    blob[40] = 7  # BN[0]
    assert u.ai.tolist() == [0, 1]
    assert bcoo_to_bytes(parsed) == bcoo_to_bytes(u) != bytes(blob)


def test_decode_rejects_out_of_range_ai():
    enc = bcoo_encode(to_zmorton(np.eye(4), 4))
    ai = enc.ai.copy()
    ai[0] = 4
    with pytest.raises(BcooFormatError, match=r"AI entry outside \[0, l\)"):
        dataclasses.replace(enc, ai=ai)


def test_decode_rejects_bad_bi():
    enc = bcoo_encode(to_zmorton(np.eye(4), 4))
    with pytest.raises(BcooFormatError, match=r"BI\[0\] must be 0"):
        dataclasses.replace(enc, bi=np.array([1, 4]))


def test_decode_rejects_duplicate_position():
    with pytest.raises(BcooFormatError, match="duplicate"):
        BcooMatrix(
            rows=4, cols=4, l=4,
            bn=np.array([0]), bi=np.array([0, 2]),
            ai=np.array([1, 1]), aj=np.array([2, 2]), an=np.array([1.0, 2.0]),
        )


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


def test_serialization_round_trip():
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


def test_deserialization_rejects_truncation():
    enc = bcoo_encode(to_zmorton(np.eye(4), 4))
    blob = bcoo_to_bytes(enc)
    with pytest.raises(BcooFormatError):
        bcoo_from_bytes(blob[:-4])
    # every cut into any of the five vectors gets the one payload message
    for cut in range(40, len(blob)):
        with pytest.raises(BcooFormatError, match="truncated BCOO payload"):
            bcoo_from_bytes(blob[:cut])
    # trailing bytes belong to the next record
    rec, end = bcoo_from_bytes(blob + b"\0" * 8)
    assert end == len(blob) and bcoo_to_bytes(rec) == blob


def _record(rows, cols, l, bn=(), bi=(0,), ai=(), aj=(), an=()):
    return BcooMatrix(
        rows=rows, cols=cols, l=l, bn=np.array(bn, dtype=np.int64),
        bi=np.array(bi, dtype=np.int64), ai=np.array(ai, dtype=np.int64),
        aj=np.array(aj, dtype=np.int64), an=np.array(an, dtype=float),
    )


def _blob(rows, cols, l, bn=(), bi=(0,), ai=(), aj=(), an=()):
    """The container bytes of a record, well-formed or not."""
    words = [rows, cols, l, len(bn), len(an), *bn, *bi, *ai, *aj]
    return struct.pack(f"<{len(words)}q{len(an)}d", *words, *an)


@pytest.mark.parametrize("rows, cols, l", [(4, 4, 0), (0, 4, 4), (4, 0, 4), (4, 4, -1), (-3, 4, 2)])
def test_every_construction_path_applies_the_header_rule(rows, cols, l):
    zm = ZMortonMatrix(rows=rows, cols=cols, l=l, blocks=np.zeros((1, 1, 1)))
    for build in (lambda: _record(rows, cols, l), lambda: bcoo_encode(zm), lambda: bcoo_from_bytes(_blob(rows, cols, l))):
        with pytest.raises(BcooFormatError, match="malformed BCOO header"):
            build()
    with pytest.raises(BcooFormatError, match="malformed BCOO header"):
        bcoo_encode(to_zmorton(np.zeros((0, 4)), 4))


@st.composite
def _record_builds(draw):
    """A call that builds a record, through the constructor or bcoo_encode; shapes may break the header rule."""
    rows, cols, l = draw(st.integers(-1, 9)), draw(st.integers(-1, 9)), draw(st.integers(-1, 4))
    if draw(st.booleans()):
        if min(rows, cols) < 0 or l < 1:
            zm = ZMortonMatrix(rows=rows, cols=cols, l=l, blocks=np.zeros((1, 1, 1)))
        else:
            zm = to_zmorton(_random_sparse(np.random.default_rng(draw(st.integers(0, 99))), rows, cols, 0.5), l)
        return lambda: bcoo_encode(zm)
    bn = sorted(draw(st.sets(st.integers(0, 15), max_size=3)))
    # each block's in-block positions p = 4 * AI + AJ, ascending
    cells = [sorted(draw(st.sets(st.integers(0, 15), min_size=1, max_size=3))) for _ in bn]
    flat = [p for block in cells for p in block]
    bi = np.cumsum([0] + [len(block) for block in cells])
    an = draw(st.lists(st.sampled_from([1.0, -2.5, 0.5]), min_size=len(flat), max_size=len(flat)))
    return lambda: _record(rows, cols, l, bn, bi, [p // 4 for p in flat], [p % 4 for p in flat], an)


@settings(max_examples=300, deadline=None)
@given(_record_builds())
def test_every_record_that_constructs_round_trips_through_its_bytes(build):
    try:
        rec = build()
    except BcooFormatError:
        return
    blob = bcoo_to_bytes(rec)
    back, end = bcoo_from_bytes(blob)
    assert end == len(blob) and bcoo_to_bytes(back) == blob


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
        with pytest.raises(BcooFormatError, match="out-of-order"):
            bcoo_from_bytes(_blob(4, 4, 4, bn=[0], bi=[0, 2], ai=ai, aj=aj, an=[1.0, 2.0]))
    # the order starts afresh in each block
    _record(8, 8, 4, bn=[0, 1], bi=[0, 1, 2], ai=[3, 0], aj=[3, 0], an=[1.0, 2.0])


def test_validate_rejects_grid_past_morton_axis():
    with pytest.raises(BcooFormatError):
        bcoo_from_bytes(_blob(1 << 17, 4, 1))


@pytest.mark.parametrize("code", [1 << 40, 4, -1])
def test_validate_rejects_block_number_outside_grid(code):
    # an 8x4 matrix at l = 4 has a 2x1 block grid: codes 0 and 2 only
    with pytest.raises(BcooFormatError):
        _record(8, 4, 4, bn=[code], bi=[0, 1], ai=[0], aj=[0], an=[1.0])


def test_validate_rejects_nonzero_in_layout_padding():
    _record(6, 3, 4, bn=[2], bi=[0, 1], ai=[1], aj=[2], an=[1.0])
    for ai, aj in ((2, 0), (0, 3)):
        with pytest.raises(BcooFormatError):
            _record(6, 3, 4, bn=[2], bi=[0, 1], ai=[ai], aj=[aj], an=[1.0])


@pytest.mark.parametrize("fields, message", [
    ({"bn": [4]}, "BN contains a block number outside the grid"),
    ({"bn": [-1]}, "BN contains a block number outside the grid"),
    ({"ai": [4]}, r"AI entry outside \[0, l\)"),
    ({"ai": [-1]}, r"AI entry outside \[0, l\)"),
    ({"aj": [4]}, r"AJ entry outside \[0, l\)"),
    ({"aj": [-1]}, r"AJ entry outside \[0, l\)"),
], ids=["bn-past-grid", "bn-negative", "ai-at-l", "ai-negative", "aj-at-l", "aj-negative"])
def test_unpadded_record_refuses_entries_off_its_grid(fields, message):
    # an 8x8 matrix at l = 4 fills its 2x2 block grid, so no outside-matrix test runs
    words = {"bn": [3], "bi": [0, 1], "ai": [3], "aj": [3], "an": [1.0]}
    _record(8, 8, 4, **words)
    bad = {**words, **fields}
    for build in (lambda: _record(8, 8, 4, **bad), lambda: bcoo_from_bytes(_blob(8, 8, 4, **bad))):
        with pytest.raises(BcooFormatError, match=message):
            build()
    # the padded 7x7 matrix on the same grid still refuses the last row and column
    for ai, aj in ((3, 0), (0, 3)):
        with pytest.raises(BcooFormatError, match="nonzero outside the logical matrix"):
            _record(7, 7, 4, **{**words, "ai": [ai], "aj": [aj]})


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_records_refuse_non_finite_values(bad):
    # NaN or inf would reach the products unannounced; no construction path stores one
    blob = _blob(4, 4, 4, bn=[0], bi=[0, 2], ai=[0, 1], aj=[2, 0], an=[1.0, bad])
    with pytest.raises(BcooFormatError, match="AN holds a non-finite value"):
        bcoo_from_bytes(blob)
    with pytest.raises(BcooFormatError, match="AN holds a non-finite value"):
        _record(4, 4, 4, bn=[0], bi=[0, 1], ai=[3], aj=[3], an=[bad])
    m = _random_sparse(np.random.default_rng(6), 9, 7, 0.5)
    m[8, 6] = bad
    with pytest.raises(BcooFormatError, match="AN holds a non-finite value"):
        bcoo_encode(to_zmorton(m, 4))


def test_duplicate_test_survives_a_key_past_int64():
    # (owner * l + ai) * l + aj overflows int64 here: AI = 2**24 times
    # l = 2**40 wraps to 0, so a naive key would equate (2**24, 5) and (0, 5).
    big = 1 << 40
    distinct = _record(big, big, big, bn=[0], bi=[0, 2], ai=[0, 1 << 24], aj=[5, 5], an=[1.0, 2.0])
    assert bcoo_from_bytes(bcoo_to_bytes(distinct))[0].nnz == 2
    with pytest.raises(BcooFormatError, match="duplicate"):
        bcoo_from_bytes(_blob(big, big, big, bn=[0], bi=[0, 2], ai=[1 << 24] * 2, aj=[5, 5], an=[1.0, 2.0]))


def test_decode_refuses_a_grid_too_large_to_allocate():
    # the header admits any l >= 1; the decode names the grid it cannot build
    mat, _ = bcoo_from_bytes(bcoo_to_bytes(_record(1, 1, 1 << 56)))
    with pytest.raises(ValueError, match=r"1x1 grid of \d+x\d+ blocks"):
        bcoo_decode(mat)


def test_decode_refuses_an_oversized_grid_before_allocating():
    # 2**28 logical entries, but l = 3 pads them to an 8192x8192 grid of 3x3 blocks
    mat, _ = bcoo_from_bytes(bcoo_to_bytes(_record(1 << 14, 1 << 14, 3)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"8192x8192 grid of 3x3 blocks"):
            bcoo_decode(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=200, deadline=None)
@given(
    code=st.one_of(st.integers(-8, 300), st.sampled_from([-(1 << 63), 1 << 32, 1 << 40, (1 << 63) - 1])),
    row_bits=st.integers(0, 4),
    col_bits=st.integers(0, 4),
)
def test_validate_grid_check_matches_grid_membership(code, row_bits, col_bits):
    nbr, nbc = 1 << row_bits, 1 << col_bits
    # l = 1 and a full-size matrix: the block is the nonzero, always inside
    try:
        _record(nbr, nbc, 1, bn=[code], bi=[0, 1], ai=[0], aj=[0], an=[1.0])
        accepted = True
    except BcooFormatError:
        accepted = False
    assert accepted == (code in set(_grid_codes(nbr, nbc).tolist()))


def _reference_nonzero_blocks(self) -> tuple[np.ndarray, np.ndarray]:
    """The one-record validation body, verbatim; _check_record and _nonzero_entries must reproduce it."""
    l = int(self.l)
    nbr = _block_extent(self.rows, l)
    nbc = _block_extent(self.cols, l)
    if max(nbr, nbc) > _AXIS_LIMIT:
        raise BcooFormatError(f"{nbr}x{nbc} block grid exceeds the {_AXIS_BITS}-bit Morton axis")
    if len(self.bi) != len(self.bn) + 1:
        raise BcooFormatError("BI must have exactly len(BN) + 1 entries")
    if len(self.bn) and self.bi[0] != 0:
        raise BcooFormatError("BI[0] must be 0")
    if len(self.bn) == 0 and list(self.bi) != [0]:
        raise BcooFormatError("empty matrix must have BI == [0]")
    counts = np.diff(self.bi)
    if np.any(counts < 0):
        raise BcooFormatError("BI must be non-decreasing")
    if np.any(counts == 0):
        raise BcooFormatError("BN lists a block with no nonzeros")
    if self.bi[-1] != len(self.an) or len(self.ai) != len(self.an) or len(self.aj) != len(self.an):
        raise BcooFormatError("AI/AJ/AN lengths disagree with BI")
    if len(self.bn) and np.any(np.diff(self.bn) <= 0):
        raise BcooFormatError("BN must be strictly ascending")
    # Both grid extents are powers of two, so a code names a grid block
    # exactly when it sets no bit outside the code of the last block.
    if np.any(self.bn & ~morton_encode(nbr - 1, nbc - 1)):
        raise BcooFormatError("BN contains a block number outside the grid")
    if np.any((self.ai < 0) | (self.ai >= l)):
        raise BcooFormatError("AI entry outside [0, l)")
    if np.any((self.aj < 0) | (self.aj >= l)):
        raise BcooFormatError("AJ entry outside [0, l)")
    if np.any(self.an == 0.0):
        raise BcooFormatError("AN stores an explicit zero")
    owner = np.repeat(np.arange(len(self.bn)), counts)
    brow, bcol = (coord[owner] for coord in _morton_decode_array(self.bn))
    # brow * l + ai < rows, rearranged so that it cannot overflow int64
    outside_rows = brow > (self.rows - 1 - self.ai) // l
    outside_cols = bcol > (self.cols - 1 - self.aj) // l
    if np.any(outside_rows | outside_cols):
        raise BcooFormatError("nonzero outside the logical matrix")
    # Each nonzero lies strictly after its predecessor in the block, in
    # (AI, AJ) order, which also rules out duplicates.
    d_ai, d_aj = np.diff(self.ai), np.diff(self.aj)
    later = (d_ai > 0) | ((d_ai == 0) & (d_aj > 0))
    if np.any(~later & (owner[1:] == owner[:-1])):
        raise BcooFormatError("duplicate or out-of-order (AI, AJ) pair within a block")
    return brow, bcol


def _reference_entries(records):
    """(record, row, col) of every nonzero by the reference body, record by record; else the first message."""
    found = []
    for r, u in enumerate(records):
        try:
            brow, bcol = _reference_nonzero_blocks(u)
        except BcooFormatError as exc:
            return str(exc)
        found.append((np.full(len(brow), r), brow * u.l + u.ai, bcol * u.l + u.aj))
    return tuple(np.concatenate(parts).tolist() for parts in zip(*found))


def _checked_entries(records):
    """_nonzero_entries of the records, each built through the checking constructor; else the first message."""
    try:
        checked = [BcooMatrix(u.rows, u.cols, u.l, u.bn, u.bi, u.ai, u.aj, u.an) for u in records]
    except BcooFormatError as exc:
        return str(exc)
    return tuple(part.tolist() for part in _nonzero_entries(checked))


def _reference_dense(u) -> np.ndarray:
    """The logical matrix of a well-formed record, through the reference body."""
    brow, bcol = _reference_nonzero_blocks(u)
    dense = np.zeros((u.rows, u.cols))
    dense[brow * u.l + u.ai, bcol * u.l + u.aj] = u.an
    return dense


def _unchecked_record(buf):
    """The vectors bcoo_from_bytes would check, or None if its header or length fails first."""
    rows, cols, l, n_blocks, nnz = struct.unpack_from("<5q", buf)
    if min(rows, cols, l) < 1 or n_blocks < 0 or nnz < 0 or len(buf) < 40 + 8 * (2 * n_blocks + 1 + 3 * nnz):
        return None
    words = np.frombuffer(buf, "<i8", offset=40, count=2 * n_blocks + 1 + 2 * nnz)
    bn, bi, ai, aj = np.split(words.copy(), np.cumsum([n_blocks, n_blocks + 1, nnz]))
    an = np.frombuffer(buf, "<f8", offset=40 + 8 * len(words), count=nnz).copy()
    return SimpleNamespace(rows=rows, cols=cols, l=l, bn=bn, bi=bi, ai=ai, aj=aj, an=an)


@settings(max_examples=300, deadline=None)
@given(_bcoo_like_records())
def test_nonzero_entries_matches_reference_on_one_record(buf):
    rec = _unchecked_record(buf)
    if rec is None:
        return
    assert _checked_entries([rec]) == _reference_entries([rec])


@st.composite
def _record_lists(draw):
    """The l*l records of one shape, from random sparse matrices, one of them possibly mutated."""
    l = draw(st.integers(2, 4))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 10_000))
    sparsities = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0]), min_size=l * l, max_size=l * l))
    rng = np.random.default_rng(seed)
    records = [bcoo_encode(to_zmorton(_random_sparse(rng, rows, cols, s), l)) for s in sparsities]
    p = draw(st.integers(0, l * l - 1))
    u = records[p]
    fields = {"bn": u.bn.copy(), "bi": u.bi.copy(), "ai": u.ai.copy(), "aj": u.aj.copy(), "an": u.an.copy()}
    name = draw(st.sampled_from(["none", *fields]))
    if name != "none":
        vec = fields[name]
        if len(vec) and draw(st.booleans()):
            i = draw(st.sampled_from([0, 1 % len(vec), len(vec) - 1]) | st.integers(0, len(vec) - 1))
            if name == "an":
                vec[i] = 0.0
            else:
                vec[i] = draw(st.sampled_from([-1, 0, 1, 2, l - 1, l, 1 << 40, int(vec[i - 1])]))
        else:
            fields[name] = vec[:-1] if len(vec) and draw(st.booleans()) else np.append(vec, vec[-1:] if len(vec) else [1])
        records[p] = SimpleNamespace(rows=u.rows, cols=u.cols, l=u.l, **fields)
    return records


@settings(max_examples=300, deadline=None)
@given(_record_lists())
def test_nonzero_entries_matches_reference_on_record_lists(records):
    assert _checked_entries(records) == _reference_entries(records)


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
        records = [mat]
    else:
        rows, cols, l, sparsity, seed = source
        rng = np.random.default_rng(seed)
        # a stack of l*l records, among them one with no stored blocks
        records = [
            bcoo_encode(to_zmorton(_random_sparse(rng, rows, cols, 1.0 if p == seed % (l * l) else sparsity), l))
            for p in range(l * l)
        ]
        assert records[seed % (l * l)].nnz == 0
    stack = _decode_stack(records)
    assert stack.shape == (len(records), records[0].rows, records[0].cols)
    for dense, mat in zip(stack, records):
        want = _reference_dense(mat)
        assert dense.tobytes() == want.tobytes()
        zm = bcoo_decode(mat)
        assert from_zmorton(zm).tobytes() == want.tobytes()
        assert np.count_nonzero(zm.blocks) == mat.nnz  # nothing in the padding


@pytest.mark.parametrize("field, value", [
    ("bn", np.array([0.0])),
    ("bi", np.array([0.0, 1.0])),
    ("ai", np.array([0.5])),
    ("aj", np.array([True])),
    ("an", np.array([1])),
    ("an", np.array([1.0 + 0j])),
    ("ai", np.array([[0]])),
    ("bn", [0]),
    ("bi", np.array([0, 1], dtype=np.uint64)),
])
def test_validate_rejects_vectors_of_the_wrong_kind(field, value):
    fields = {"bn": np.array([0]), "bi": np.array([0, 1]), "ai": np.array([0]), "aj": np.array([0]),
              "an": np.array([1.0])}
    BcooMatrix(4, 4, 4, **fields)
    fields[field] = value
    with pytest.raises(BcooFormatError, match=f"{field.upper()} must be a 1-D"):
        BcooMatrix(4, 4, 4, **fields)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint32])
def test_validate_reads_integer_vectors_of_any_width(dtype):
    m = _random_sparse(np.random.default_rng(5), 9, 7, 0.5)
    u = bcoo_encode(to_zmorton(m, 4))
    vectors = [v.astype(dtype) for v in (u.bn, u.bi, u.ai, u.aj)]
    narrow = BcooMatrix(u.rows, u.cols, u.l, *vectors, u.an)
    assert all(getattr(narrow, name).dtype == np.int64 for name in ("bn", "bi", "ai", "aj"))
    assert np.array_equal(from_zmorton(bcoo_decode(narrow)), m)
    assert _decode_stack([narrow, u]).tobytes() == np.stack([m, m]).tobytes()
    # a narrow entry that is negative reads as negative, not as a wrapped large index
    if np.dtype(dtype).kind == "i":
        vectors[2][0] = -1
        with pytest.raises(BcooFormatError, match="AI entry outside"):
            BcooMatrix(u.rows, u.cols, u.l, *vectors, u.an)
