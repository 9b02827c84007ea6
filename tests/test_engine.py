import dataclasses
import re
import struct
import tracemalloc
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from winosim import bcoo, layout
from winosim.bcoo import BcooFormatError, BcooMatrix, bcoo_decode, bcoo_encode, bcoo_from_bytes, bcoo_to_bytes
from winosim.engine import (
    LayerSpec,
    _operand_keys,
    block_matmul_sparse,
    compress_filters,
    direct_conv,
    load_tensor,
    matmul_streams,
    matmul_trace,
    recursive_matmul,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    winograd_conv_blocks,
    winograd_conv_dense,
    winograd_conv_sparse,
)
from winosim.layout import _morton_decode_array, _morton_encode_array, from_zmorton, to_zmorton
from winosim.plans import OpCounters, make_plan


@pytest.fixture(scope="module")
def plan():
    return make_plan(2, 3)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


# ---------------------------------------------------------------------------
# direct convolution oracle


def test_direct_conv_ones_window():
    out = direct_conv(np.ones((1, 4, 4)), np.ones((1, 1, 3, 3)))
    assert np.array_equal(out, np.full((1, 2, 2), 9.0))


def test_direct_conv_impulse_response():
    fm = np.zeros((1, 5, 5))
    fm[0, 2, 2] = 1.0
    flt = np.arange(9.0).reshape(1, 1, 3, 3)
    out = direct_conv(fm, flt)
    # correlation: the filter reappears reversed across the window positions
    assert np.array_equal(out[0], flt[0, 0, ::-1, ::-1])


def test_direct_conv_against_scalar_reimplementation():
    rng = np.random.default_rng(0)
    fm = rng.uniform(-1, 1, (2, 8, 8))
    flt = rng.uniform(-1, 1, (3, 2, 3, 3))
    pad = 1
    got = direct_conv(fm, flt, pad=pad)

    padded = np.zeros((2, 10, 10))
    padded[:, 1:9, 1:9] = fm
    want = np.zeros((3, 8, 8))
    for k in range(3):
        for i in range(8):
            for j in range(8):
                acc = 0.0
                for t in range(2):
                    for p in range(3):
                        for q in range(3):
                            acc += flt[k, t, p, q] * padded[t, i + p, j + q]
                want[k, i, j] = acc
    assert _rel_err(got, want) <= 1e-12


def test_direct_conv_stride():
    rng = np.random.default_rng(1)
    fm = rng.uniform(-1, 1, (1, 7, 7))
    flt = rng.uniform(-1, 1, (1, 1, 3, 3))
    got = direct_conv(fm, flt, stride=2)
    full = direct_conv(fm, flt, stride=1)
    assert np.array_equal(got, full[:, ::2, ::2])


def test_direct_conv_rejects_empty_output():
    with pytest.raises(ValueError):
        direct_conv(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)), pad=0)


# ---------------------------------------------------------------------------
# recursive matmul and its schedule


def test_base_case_identity(plan):
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, (4, 4))
    got = recursive_matmul(to_zmorton(np.eye(4), 4), to_zmorton(m, 4))
    assert np.allclose(from_zmorton(got), m, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 40),
    inner=st.integers(1, 40),
    cols=st.integers(1, 40),
    seed=st.integers(0, 999),
)
def test_recursive_matmul_matches_dense(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (rows, inner))
    B = rng.uniform(-1, 1, (inner, cols))
    got = from_zmorton(recursive_matmul(to_zmorton(A, 4), to_zmorton(B, 4)))
    assert _rel_err(got, A @ B) <= 1e-10


def test_recursive_matmul_desk_scale():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (64, 64))
    B = rng.uniform(-1, 1, (64, 64))
    got = from_zmorton(recursive_matmul(to_zmorton(A, 4), to_zmorton(B, 4)))
    assert _rel_err(got, A @ B) <= 1e-10


def test_recursive_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        recursive_matmul(to_zmorton(np.eye(4), 4), to_zmorton(np.ones((8, 4)), 4))


def test_trace_16x16_reference_schedule():
    # four-array lockstep over the top-level output quadrants
    cc, aa, bb = matmul_trace(4, 4, 4)
    head = list(zip(cc[:8].tolist(), aa[:8].tolist(), bb[:8].tolist()))
    assert head == [
        (0, 0, 0), (0, 1, 2),
        (4, 0, 4), (4, 1, 6),
        (8, 8, 0), (8, 9, 2),
        (12, 8, 4), (12, 9, 6),
    ]
    # later statements revisit C_0 with the second half of the inner dimension
    trail = list(zip(cc.tolist(), aa.tolist(), bb.tolist()))
    assert (0, 4, 8) in trail and (0, 5, 10) in trail


def test_trace_8x8_first_statement():
    cc, aa, bb = matmul_trace(2, 2, 2)
    assert (cc[0], aa[0], bb[0]) == (0, 0, 0)
    assert (cc[1], aa[1], bb[1]) == (0, 1, 2)


def test_trace_first_visit_order_of_left_operand():
    cc, aa, bb = matmul_trace(4, 4, 4)
    assert aa[:8].tolist() == [0, 1, 0, 1, 8, 9, 8, 9]
    assert bb[:8].tolist() == [0, 2, 4, 6, 0, 2, 4, 6]


def test_trace_via_recursive_matmul_argument():
    rng = np.random.default_rng(4)
    A = to_zmorton(rng.uniform(-1, 1, (8, 8)), 4)
    B = to_zmorton(rng.uniform(-1, 1, (8, 8)), 4)
    trace = []
    recursive_matmul(A, B, trace=trace)
    assert trace[:2] == [(0, 0, 0), (0, 1, 2)]
    assert len(trace) == 8


def test_streams_lockstep_operand_sharing():
    streams = matmul_streams(4, 4, 4)
    assert len(streams) == 4
    for p in range(len(streams[0].a)):
        a_set = {int(s.a[p]) for s in streams}
        b_set = {int(s.b[p]) for s in streams}
        assert len(a_set) == 2 and len(b_set) == 2  # pairwise sharing each step


def _emit(r0, rn, k0, kn, c0, cn, out_r, out_k, out_c):
    """The recursive depth-first block multiply, one call per block operation."""
    if rn == 1 and kn == 1 and cn == 1:
        out_r.append(r0)
        out_k.append(k0)
        out_c.append(c0)
        return
    r_parts = [(r0, rn)] if rn == 1 else [(r0, rn // 2), (r0 + rn // 2, rn // 2)]
    k_parts = [(k0, kn)] if kn == 1 else [(k0, kn // 2), (k0 + kn // 2, kn // 2)]
    c_parts = [(c0, cn)] if cn == 1 else [(c0, cn // 2), (c0 + cn // 2, cn // 2)]
    for ra, rb in r_parts:
        for ca, cb in c_parts:
            for ka, kb in k_parts:
                _emit(ra, rb, ka, kb, ca, cb, out_r, out_k, out_c)


def _reference_schedule(mb, nb, pb):
    """(streams as (col_half, ops) pairs, trace ops) from the recursion."""
    rr, kk, cc = [], [], []
    _emit(0, mb, 0, nb, 0, pb, rr, kk, cc)
    ops = list(
        zip(
            _morton_encode_array(rr, cc).tolist(),
            _morton_encode_array(rr, kk).tolist(),
            _morton_encode_array(kk, cc).tolist(),
        )
    )
    n_streams = (2 if mb > 1 else 1) * (2 if pb > 1 else 1)
    chunk = len(ops) // n_streams
    starts = range(0, len(ops), chunk)
    streams = [(cc[s] * 2 // pb, ops[s : s + chunk]) for s in starts]
    # statements (runs into one output block) rotate round-robin over the streams
    stmts = [[list(run) for _, run in groupby(s, key=lambda op: op[0])] for _, s in streams]
    trace = [op for turn in zip(*stmts) for stmt in turn for op in stmt]
    return streams, trace


# One dimension alone fills more than one 8-bit chunk of the counter.
_SKINNY_GRIDS = [(1, 1, 512), (512, 1, 1), (1, 512, 1), (2, 256, 4), (256, 4, 2), (4, 2, 1024)]


def test_schedule_matches_recursive_reference():
    extents = [1, 2, 4, 8, 16, 32]
    for mb, nb, pb in list(product(extents, repeat=3)) + _SKINNY_GRIDS:
        ref_streams, ref_trace = _reference_schedule(mb, nb, pb)
        streams = matmul_streams(mb, nb, pb)
        got = [(s.col_half, list(zip(s.c.tolist(), s.a.tolist(), s.b.tolist()))) for s in streams]
        assert got == ref_streams, (mb, nb, pb)
        cc, aa, bb = matmul_trace(mb, nb, pb)
        assert list(zip(cc.tolist(), aa.tolist(), bb.tolist())) == ref_trace, (mb, nb, pb)


@pytest.mark.parametrize("grid", list(product([1, 2, 8], repeat=3)) + _SKINNY_GRIDS)
def test_operand_keys_are_the_streams_keys(grid):
    # the replay's keys: weight codes of column half 0, feature-map ranks of row half 0, column half 0
    pb = grid[2]
    streams = matmul_streams(*grid)
    n_col_halves = 2 if pb > 1 else 1
    a, b = _operand_keys(*grid)
    assert a.T.tolist() == [s.a.tolist() for s in streams[::n_col_halves]]
    inner, col = _morton_decode_array(np.stack([s.b for s in streams[:n_col_halves]]))
    assert b.tolist() == (inner * pb + col)[0].tolist()


def test_memoized_schedules_are_read_only():
    # the memos hand every caller the same arrays, so a write would change later simulations
    arrays = [*matmul_trace(4, 4, 4), *_operand_keys(4, 4, 4)]
    arrays += [arr for s in matmul_streams(4, 4, 4) for arr in (s.c, s.a, s.b)]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 63
    assert matmul_streams(4, 4, 4)[0].a[0] == 0


def test_schedule_rejects_non_power_of_two_extents():
    with pytest.raises(ValueError, match="power of two"):
        matmul_trace(3, 4, 4)
    with pytest.raises(ValueError, match="power of two"):
        matmul_streams(4, 4, 6)


def test_accumulation_ascending_inner(plan):
    # contributions to each output block arrive in ascending inner order
    cc, aa, bb = matmul_trace(4, 4, 4)
    per_c = {}
    for c, a in zip(cc.tolist(), aa.tolist()):
        per_c.setdefault(c, []).append(a)
    for c, a_seq in per_c.items():
        assert a_seq == sorted(a_seq)


# ---------------------------------------------------------------------------
# sparse block matmul


def test_sparse_zero_and_dense_extremes():
    rng = np.random.default_rng(5)
    B = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    zero_u = bcoo_encode(to_zmorton(np.zeros((16, 16)), 4))
    assert np.array_equal(from_zmorton(block_matmul_sparse(zero_u, B)), np.zeros((16, 16)))

    A = rng.uniform(-1, 1, (16, 16))
    dense_u = bcoo_encode(to_zmorton(A, 4))
    got = from_zmorton(block_matmul_sparse(dense_u, B))
    want = from_zmorton(recursive_matmul(to_zmorton(A, 4), B))
    assert np.array_equal(got, want)


def test_sparse_matches_decoded_dense():
    rng = np.random.default_rng(6)
    A = rng.uniform(-1, 1, (20, 12))
    A[np.abs(A) < 0.6] = 0.0
    B = rng.uniform(-1, 1, (12, 28))
    enc = bcoo_encode(to_zmorton(A, 4))
    got = from_zmorton(block_matmul_sparse(enc, to_zmorton(B, 4)))
    want = from_zmorton(recursive_matmul(bcoo_decode(enc), to_zmorton(B, 4)))
    assert _rel_err(got, want) <= 1e-10


def test_sparse_executes_only_present_blocks():
    # left operand holding only blocks 2 and 5 drives exactly the products
    # that consume those blocks
    A = np.zeros((16, 16))
    A[4:8, 0:4] = 1.0  # block (1, 0) -> morton 2
    A[0:4, 12:16] = 2.0  # block (0, 3) -> morton 5
    enc = bcoo_encode(to_zmorton(A, 4))
    assert enc.bn.tolist() == [2, 5]
    trace = []
    B = to_zmorton(np.random.default_rng(7).uniform(-1, 1, (16, 16)), 4)
    block_matmul_sparse(enc, B, trace=trace)
    cc_all, aa_all, bb_all = matmul_trace(4, 4, 4)
    want = [
        (c, a, b)
        for c, a, b in zip(cc_all.tolist(), aa_all.tolist(), bb_all.tolist())
        if a in (2, 5)
    ]
    assert trace == want
    assert len(trace) == 8  # each left block feeds 4 output blocks


def test_sparse_matmul_builds_only_the_stored_blocks(monkeypatch):
    # U's padded 64x64 grid is over the lowered grid limit; V and the product are not
    A = np.zeros((64, 64))
    A[5, 60] = 2.0
    B = np.random.default_rng(8).uniform(-1, 1, (64, 4))
    U, V = bcoo_encode(to_zmorton(A, 4)), to_zmorton(B, 4)
    monkeypatch.setattr(layout, "_GRID_LIMIT", 1 << 10)
    with pytest.raises(ValueError, match="over the limit"):
        bcoo_decode(U)
    assert np.array_equal(from_zmorton(block_matmul_sparse(U, V)), A @ B)


def _malformed_records():
    """A valid BCOO record of a dense 8x8 matrix, and per case the vectors that
    would make it malformed, with the message BcooMatrix refuses them with."""
    u = bcoo_encode(to_zmorton(np.random.default_rng(23).uniform(-1, 1, (8, 8)), 4))
    duplicate_ai, duplicate_aj = u.ai.copy(), u.aj.copy()
    duplicate_ai[1], duplicate_aj[1] = duplicate_ai[0], duplicate_aj[0]
    return u, {
        "repeated BN": ({"bn": np.array([0, 0, 1, 2])}, "BN must be strictly ascending"),
        "BN outside the grid": ({"bn": np.array([0, 1, 2, 5])}, "BN contains a block number outside the grid"),
        "duplicate (AI, AJ)": ({"ai": duplicate_ai, "aj": duplicate_aj},
                               "duplicate or out-of-order (AI, AJ) pair within a block"),
    }


@pytest.mark.parametrize("case", sorted(_malformed_records()[1]))
def test_sparse_matmul_rejects_malformed_operand(case):
    # block_matmul_sparse checks nothing: a malformed operand can be neither built nor made
    u, cases = _malformed_records()
    changes, message = cases[case]
    with pytest.raises(BcooFormatError, match=re.escape(message)):
        dataclasses.replace(u, **changes)
    for name, vec in changes.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(u, name)[:] = vec
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(u, name, vec)
    V = to_zmorton(np.random.default_rng(24).uniform(-1, 1, (8, 8)), 4)
    want = from_zmorton(bcoo_decode(u)) @ from_zmorton(V)
    assert _rel_err(from_zmorton(block_matmul_sparse(u, V)), want) <= 1e-12


def test_sparse_matmul_checks_block_sides_before_building_blocks():
    # a valid record with l = 2**30 holds one nonzero; its block stack would not fit
    U = BcooMatrix(1, 1, 1 << 30, np.array([0]), np.array([0, 1]), np.array([0]), np.array([0]),
                   np.array([1.0]))
    with pytest.raises(ValueError, match="block sides differ"):
        block_matmul_sparse(U, to_zmorton(np.ones((1, 1)), 4))


# ---------------------------------------------------------------------------
# winograd convolution paths


def test_winograd_single_tile_case(plan):
    rng = np.random.default_rng(8)
    fm = rng.uniform(-1, 1, (1, 2, 2))
    flt = rng.uniform(-1, 1, (1, 1, 3, 3))
    got = winograd_conv_dense(fm, flt, plan, pad=1)
    want = direct_conv(fm, flt, pad=1)
    assert _rel_err(got, want) <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_winograd_matches_direct_random(m):
    rng = np.random.default_rng(9)
    fm = rng.uniform(-1, 1, (8, 16, 16))
    flt = rng.uniform(-1, 1, (4, 8, 3, 3))
    got = winograd_conv_dense(fm, flt, make_plan(m, 3), pad=1)
    want = direct_conv(fm, flt, pad=1)
    assert _rel_err(got, want) <= 1e-10


def test_winograd_multiply_counter(plan):
    # element-wise multiply count = tiles * C * K * l^2
    rng = np.random.default_rng(10)
    fm = rng.uniform(-1, 1, (3, 8, 8))
    flt = rng.uniform(-1, 1, (5, 3, 3, 3))
    counters = OpCounters()
    winograd_conv_dense(fm, flt, plan, pad=1, counters=counters)
    assert counters.multiplies == 16 * 3 * 5 * 16
    assert counters.matmul_additions == 16 * (3 - 1) * 5 * 16
    assert counters.inverse_transforms == 5 * 16


def test_winograd_2d_per_tile_multiplies(plan):
    fast, slow = OpCounters(), OpCounters()
    rng = np.random.default_rng(11)
    fm = rng.uniform(-1, 1, (1, 4, 4))
    flt = rng.uniform(-1, 1, (1, 1, 3, 3))
    winograd_conv_dense(fm, flt, plan, pad=0, counters=fast)
    direct_conv(fm, flt, pad=0, counters=slow)
    assert fast.multiplies == 16
    assert slow.multiplies == 36


def test_sparse_conv_extremes(plan):
    rng = np.random.default_rng(12)
    fm = rng.uniform(-1, 1, (4, 8, 8))
    flt = rng.uniform(-1, 1, (3, 4, 3, 3))
    _, enc0, _ = compress_filters(flt, plan, 0.0)
    got = winograd_conv_sparse(fm, enc0, plan, pad=1)
    want = winograd_conv_dense(fm, flt, plan, pad=1)
    assert np.array_equal(got, want)

    _, enc1, _ = compress_filters(flt, plan, 1.0)
    assert np.array_equal(winograd_conv_sparse(fm, enc1, plan, pad=1), np.zeros((3, 8, 8)))


def test_sparse_conv_matches_decoded_dense(plan):
    rng = np.random.default_rng(13)
    fm = rng.uniform(-1, 1, (6, 10, 10))
    flt = rng.uniform(-1, 1, (5, 6, 3, 3))
    pruned, enc, achieved = compress_filters(flt, plan, 0.7)
    assert achieved >= 0.7
    got = winograd_conv_sparse(fm, enc, plan, pad=1)

    l = plan.l
    from winosim.layout import assemble_output, extract_tiles, scatter_to_matrices, transform_tiles

    vb = scatter_to_matrices(transform_tiles(plan, extract_tiles(fm, plan, 1)))
    P = vb.at(0, 0).cols
    mats = np.empty((l, l, 5, P))
    for i in range(l):
        for j in range(l):
            mats[i, j] = from_zmorton(recursive_matmul(bcoo_decode(enc[i * l + j]), vb.at(i, j)))
    want = assemble_output(mats, plan, 5, 10, 10)
    assert _rel_err(got, want) <= 1e-10


@pytest.mark.parametrize("m, C, H, W, K, pad", [(2, 3, 9, 7, 5, 0), (4, 6, 12, 12, 9, 1)])
def test_sparse_conv_matches_block_engine_and_its_counters(m, C, H, W, K, pad):
    plan = make_plan(m, 3)
    rng = np.random.default_rng(20)
    fm = rng.uniform(-1, 1, (C, H, W))
    _, enc, _ = compress_filters(rng.uniform(-1, 1, (K, C, 3, 3)), plan, 0.6)
    got_counters, want_counters = OpCounters(), OpCounters()
    got = winograd_conv_sparse(fm, enc, plan, pad=pad, counters=got_counters)
    assert _rel_err(got, winograd_conv_blocks(fm, enc, plan, pad=pad)) <= 1e-10
    # the counters charge what the block engine charges: nnz * P multiplies
    P = -(-(H + 2 * pad - 2) // m) * -(-(W + 2 * pad - 2) // m)
    for u in enc:
        block_matmul_sparse(u, to_zmorton(np.zeros((C, P)), plan.l), counters=want_counters)
    assert got_counters.multiplies == want_counters.multiplies
    assert got_counters.matmul_additions == want_counters.matmul_additions


def test_sparse_conv_rejects_weights_built_for_another_plan():
    rng = np.random.default_rng(21)
    fm = rng.uniform(-1, 1, (3, 8, 8))
    flt = rng.uniform(-1, 1, (4, 3, 3, 3))
    _, enc4, _ = compress_filters(flt, make_plan(4, 3), 0.5)
    with pytest.raises(ValueError, match="position 0 has block side 6"):
        winograd_conv_sparse(fm, enc4[:16], make_plan(2, 3), pad=1)
    # one position compressed from a bank with more filters
    _, enc2, _ = compress_filters(flt, make_plan(2, 3), 0.5)
    _, wide, _ = compress_filters(rng.uniform(-1, 1, (5, 3, 3, 3)), make_plan(2, 3), 0.5)
    with pytest.raises(ValueError, match="position 7 is 5x3, position 0 is 4x3"):
        winograd_conv_sparse(fm, enc2[:7] + wide[7:8] + enc2[8:], make_plan(2, 3), pad=1)


def test_sparse_conv_validates_each_record(plan, monkeypatch):
    # compress, serialize, parse, convolve: each of the l*l records is checked once, when parsed
    calls = []
    check = bcoo._check_record
    monkeypatch.setattr(bcoo, "_check_record", lambda u: calls.append(u) or check(u))
    rng = np.random.default_rng(29)
    fm, flt = rng.uniform(-1, 1, (4, 6, 6)), rng.uniform(-1, 1, (8, 4, 3, 3))
    _, enc, _ = compress_filters(flt, plan, 0.5)
    assert calls == []
    parsed = [bcoo_from_bytes(bcoo_to_bytes(u))[0] for u in enc]
    got = winograd_conv_sparse(fm, parsed, plan, pad=1)
    assert len(calls) == len(parsed) and all(u is p for u, p in zip(calls, parsed))
    assert len(calls) == plan.l * plan.l
    assert got.tobytes() == winograd_conv_sparse(fm, enc, plan, pad=1).tobytes()


def test_sparse_conv_refuses_an_oversized_weight_stack(plan):
    # l*l well-formed, empty records whose dense (l*l, K, C) stack would take terabytes
    huge = [BcooMatrix(1 << 18, 1 << 18, 4, *(np.zeros(n, dtype=np.int64) for n in (0, 1, 0, 0)),
                       np.zeros(0))] * 16
    wide = [BcooMatrix(1 << 18, 1 << 10, 4, *(np.zeros(n, dtype=np.int64) for n in (0, 1, 0, 0)),
                       np.zeros(0))] * 16
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="weights expect 262144 channels, input has 3"):
            winograd_conv_sparse(np.ones((3, 8, 8)), huge, plan, pad=1)
        with pytest.raises(ValueError, match=r"16 262144x1024 weight matrices .* over the limit of 2\*\*28"):
            winograd_conv_sparse(np.ones((1 << 10, 1, 1)), wide, plan, pad=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_block_reference_checks_records_like_the_sparse_path(plan):
    rng = np.random.default_rng(25)
    fm = rng.uniform(-1, 1, (3, 8, 8))
    _, enc, _ = compress_filters(rng.uniform(-1, 1, (4, 3, 3, 3)), plan, 0.5)
    _, enc4, _ = compress_filters(rng.uniform(-1, 1, (4, 3, 3, 3)), make_plan(4, 3), 0.5)
    _, wide, _ = compress_filters(rng.uniform(-1, 1, (5, 3, 3, 3)), plan, 0.5)
    for records, message in [
        (enc + enc[:1], "expected 16 sparse weight matrices, got 17"),
        (enc4[:16], "position 0 has block side 6"),
        (enc[:7] + wide[7:8] + enc[8:], "position 7 is 5x3, position 0 is 4x3"),
    ]:
        for conv in (winograd_conv_sparse, winograd_conv_blocks):
            with pytest.raises(ValueError, match=message):
                conv(fm, records, plan, pad=1)


@pytest.mark.parametrize("m, K, C, sparsity", [(2, 5, 6, 0.7), (3, 3, 9, 0.0), (4, 7, 2, 0.95), (2, 2, 3, 1.0)])
def test_compress_filters_returns_the_stack_it_encodes(m, K, C, sparsity):
    plan = make_plan(m, 3)
    flt = np.random.default_rng(m + K).uniform(-1, 1, (K, C, 3, 3))
    pruned, enc, achieved = compress_filters(flt, plan, sparsity)
    assert pruned.shape == (plan.l**2, K, C)
    assert pruned.tobytes() == bcoo._decode_stack(enc).tobytes()
    assert achieved == 1.0 - np.count_nonzero(pruned) / pruned.size >= sparsity


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compress_filters_rejects_non_finite_weights(plan, bad):
    flt = np.random.default_rng(22).uniform(-1, 1, (3, 2, 3, 3))
    flt[1, 0, 2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        compress_filters(flt, plan, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_winograd_convs_reject_non_finite_operands(plan, bad):
    rng = np.random.default_rng(26)
    fm, flt = rng.uniform(-1, 1, (3, 6, 6)), rng.uniform(-1, 1, (4, 3, 3, 3))
    _, enc, _ = compress_filters(flt, plan, 0.5)
    bad_fm, bad_flt = fm.copy(), flt.copy()
    bad_fm[1, 4, 2] = bad
    bad_flt[2, 0, 1, 1] = bad
    for conv, args in [
        (winograd_conv_dense, (bad_fm, flt)),
        (winograd_conv_dense, (fm, bad_flt)),
        (winograd_conv_sparse, (bad_fm, enc)),
    ]:
        with pytest.raises(ValueError, match="non-finite"):
            conv(*args, plan, pad=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_direct_conv_rejects_non_finite_operands(bad):
    rng = np.random.default_rng(28)
    fm, flt = rng.uniform(-1, 1, (3, 6, 6)), rng.uniform(-1, 1, (4, 3, 3, 3))
    bad_fm, bad_flt = fm.copy(), flt.copy()
    bad_fm[1, 4, 2] = bad
    bad_flt[2, 0, 1, 1] = bad
    for args in [(bad_fm, flt), (fm, bad_flt)]:
        with pytest.raises(ValueError, match="non-finite values"):
            direct_conv(*args, pad=1)


def test_dense_conv_rejects_overflow(plan):
    # finite operands whose transform, or whose matrix product, overflows
    with pytest.raises(ValueError, match="overflowed"):
        winograd_conv_dense(np.full((2, 6, 6), 1e308), np.ones((3, 2, 3, 3)), plan, pad=1)
    with pytest.raises(ValueError, match="non-finite"):
        winograd_conv_dense(np.full((2, 6, 6), 1e200), np.full((3, 2, 3, 3), 1e200), plan, pad=1)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
def test_sparse_conv_rejects_non_finite_products(plan, value):
    # an AN value of NaN or inf is refused when its record is built; a finite one whose products overflow,
    # by the convolution
    rng = np.random.default_rng(27)
    fm = rng.uniform(-1, 1, (3, 8, 8)) * 1e300
    _, enc, _ = compress_filters(rng.uniform(-1, 1, (4, 3, 3, 3)), plan, 0.5)
    u = enc[5]
    an = u.an.copy()
    an[0] = value
    with pytest.raises(ValueError, match="non-finite"):
        records = enc[:5] + [BcooMatrix(u.rows, u.cols, u.l, u.bn, u.bi, u.ai, u.aj, an)] + enc[6:]
        winograd_conv_sparse(fm, records, plan, pad=1)


# ---------------------------------------------------------------------------
# layer spec validation and tensor container


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec("bad", H=4, W=4, C=1, K=1, r=4)
    with pytest.raises(ValueError):
        LayerSpec("bad", H=0, W=4, C=1, K=1)


def test_layer_spec_rejects_unpriceable_geometry():
    with pytest.raises(ValueError, match="pad must be >= 0"):
        LayerSpec("neg", H=8, W=8, C=2, K=2, r=3, pad=-1)
    with pytest.raises(ValueError, match="non-positive output extent"):
        LayerSpec("empty", H=1, W=1, C=2, K=2, r=3, pad=0)  # output extent -1


def test_direct_conv_rejects_negative_pad():
    with pytest.raises(ValueError, match="pad must be >= 0"):
        direct_conv(np.ones((1, 6, 6)), np.ones((1, 1, 3, 3)), pad=-1)


def test_layer_spec_has_no_stride():
    # the Winograd path is stride 1 only; direct_conv keeps its stride for the oracle
    with pytest.raises(TypeError):
        LayerSpec("conv", 8, 8, 1, 1, stride=2)


def test_direct_conv_rejects_zero_stride():
    with pytest.raises(ValueError, match="stride must be >= 1"):
        direct_conv(np.ones((1, 6, 6)), np.ones((1, 1, 3, 3)), stride=0)


def test_tensor_container_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    arr = rng.uniform(-1, 1, (3, 5, 7))
    path = tmp_path / "t.tensor"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert np.array_equal(back, arr)
    # header: ndim then dims, little-endian int64
    raw = path.read_bytes()
    assert np.frombuffer(raw[:32], dtype="<i8").tolist() == [3, 3, 5, 7]


def test_tensor_from_bytes_rejects_negative_dimension():
    buf = struct.pack("<2q", 1, -1) + np.arange(3.0).tobytes()
    with pytest.raises(ValueError):
        tensor_from_bytes(buf)


def test_load_tensor_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.tensor"
    path.write_bytes(tensor_to_bytes(np.ones((2, 3))) + b"junk")
    with pytest.raises(ValueError):
        load_tensor(path)


_word = st.integers(-3, 6).map(lambda v: struct.pack("<q", v))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=96),
        st.tuples(st.lists(_word, max_size=4), st.binary(max_size=64)).map(
            lambda t: struct.pack("<q", len(t[0])) + b"".join(t[0]) + t[1]
        ),
    )
)
def test_tensor_from_bytes_parses_exactly_or_raises_value_error(buf):
    try:
        arr = tensor_from_bytes(buf)
    except ValueError:
        return
    assert tensor_to_bytes(arr) == buf
