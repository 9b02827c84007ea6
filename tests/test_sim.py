import dataclasses
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from test_engine import _malformed_records
from winosim.bcoo import BcooFormatError, BcooMatrix, bcoo_encode
from winosim.engine import LayerSpec, matmul_streams
from winosim.layout import _grid_codes, to_zmorton
from winosim.plans import make_plan
from winosim.sim import (
    ArchConfig,
    SimReport,
    simulate_cluster_dense,
    simulate_cluster_sparse,
    simulate_layer,
    simulate_transform,
    sim_csv_header,
    sim_csv_row,
)
from winosim.sim import (
    _fifo_misses,
    _run_cluster_schedules,
    _simulate_geometry,
    _survivor_order,
)


@pytest.fixture(scope="module")
def plan():
    return make_plan(2, 3)


@pytest.fixture()
def cfg():
    return ArchConfig()


def test_arch_config_defaults(cfg):
    assert cfg.cycles_per_block_matmul_issue == 4
    assert cfg.pipeline_fill == 6
    assert cfg.transform_pass_cycles == 10


# ---------------------------------------------------------------------------
# operand FIFO


def _reference_fifo_misses(keys, capacity):
    """A literal circular FIFO: only misses insert, the oldest entry leaves."""
    queue, members, misses = deque(), set(), []
    for key in keys:
        hit = key in members
        misses.append(not hit)
        if not hit and capacity > 0:
            if len(queue) == capacity:
                members.discard(queue.popleft())
            queue.append(key)
            members.add(key)
    return misses


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.integers(0, 12), max_size=80),
    capacity=st.integers(0, 5),
    cost=st.lists(st.integers(0, 1000), min_size=13, max_size=13),
)
def test_fifo_misses_matches_reference_fifo(keys, capacity, cost):
    # a random cost per key: a wrong miss set with the right miss count still fails
    missed = [key for key, miss in zip(keys, _reference_fifo_misses(keys, capacity)) if miss]
    assert _fifo_misses(keys, capacity, cost) == (len(missed), sum(cost[key] for key in missed))


@given(keys=st.lists(st.integers(0, 12), max_size=80))
def test_fifo_misses_without_capacity_misses_every_access(keys):
    # the half-depth feature-map FIFOs at fifo_depth 1 hold nothing
    cost = list(range(1, 14))
    assert _fifo_misses(keys, 0, cost) == (len(keys), sum(cost[key] for key in keys))


# ---------------------------------------------------------------------------
# access sequences: the sort-based construction, kept as the reference


def _accesses(codes: np.ndarray, active: np.ndarray):
    """One buffer's access sequence from (streams, steps) codes and activity.

    Returns the distinct (step, code) pairs' codes, step-major with codes
    ascending, and the number of distinct codes at each step.
    """
    grid = np.sort(np.where(active, codes, -1), axis=0)
    keep = grid >= 0
    keep[1:] &= grid[1:] != grid[:-1]
    return grid.T[keep.T], keep.sum(axis=0)


def _reference_run_cluster_schedule(
    streams, cfg: ArchConfig, weights=None, collect_steps: bool = False
) -> SimReport:
    """Replay the lockstep streams through the cluster's operand FIFOs.

    `weights` is None for the dense datapath, or (ascending present weight
    codes, their nonzero counts) for the sparse one: only operations on a
    present weight run, weight misses pass the decompressor and the
    feature-map FIFO splits into one half-depth FIFO per column group.
    """
    issue = cfg.cycles_per_block_matmul_issue
    a = np.stack([s.a for s in streams])
    b = np.stack([s.b for s in streams])
    if weights is None:
        active = np.ones(a.shape, dtype=bool)
        fm_fifos = [(slice(None), cfg.fifo_depth)]
    else:
        present, nnz = weights
        active = np.isin(a, present)
        halves = [s.col_half for s in streams]
        fm_fifos = [
            ([q for q, g in enumerate(halves) if g == h], cfg.fifo_depth // 2) for h in set(halves)
        ]

    seq, distinct = _accesses(a, active)
    a_missed = seq[np.array(_reference_fifo_misses(seq.tolist(), cfg.fifo_depth), dtype=bool)]
    ext = len(a_missed)
    for rows, depth in fm_fifos:
        seq, per_step = _accesses(b[rows], active[rows])
        ext += sum(_reference_fifo_misses(seq.tolist(), depth))
        distinct = distinct + per_step

    n_active = active.sum(axis=0)
    ran = n_active > 0
    steps = int(ran.sum())
    macs = int(n_active.sum())
    slots = 2 * macs
    busy = [0] * 4
    busy[: len(streams)] = (issue * active.sum(axis=1)).tolist()

    compute = steps * issue
    stall = 0
    if weights is not None:
        decomp = int(nnz[np.searchsorted(present, a_missed)].sum())
        decomp *= cfg.decompress_cycles_per_nnz
        stall = max(0, decomp - compute) if cfg.fifo_depth >= 2 else decomp
    total = cfg.pipeline_fill + compute + stall if macs else 0

    return SimReport(
        total_cycles=total,
        external_block_fetches=ext,
        block_matmuls_executed=macs,
        busy_cycles=busy,
        operand_slots=slots,
        steps_executed=steps,
        decompress_stall_cycles=stall,
        matmul_cycles=total,
        step_slots=(2 * n_active[ran]).tolist() if collect_steps else None,
        step_distinct=distinct[ran].tolist() if collect_steps else None,
    )


_POW2 = st.sampled_from([1, 2, 4, 8, 16])


def _draw_weights(data, extents):
    """One sparse weight set on the (row, inner) block grid: empty, full or random, random nnz."""
    grid = _grid_codes(*extents[:2])
    n = len(grid)
    keep = data.draw(
        st.one_of(
            st.just([False] * n),
            st.just([True] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    present = grid[np.array(keep, dtype=bool)]
    nnz = data.draw(st.lists(st.integers(1, 16), min_size=len(present), max_size=len(present)))
    return present, np.array(nnz, dtype=np.int64)


def _nnz_table(weights, extents):
    """The replay's (position, weight code) nonzero table of (present codes, nnz) pairs."""
    table = np.zeros((len(weights), _grid_codes(*extents[:2])[-1] + 1), dtype=np.int64)
    for row, (present, nnz) in zip(table, weights):
        row[present] = nnz
    return table


@settings(max_examples=200, deadline=None)
@given(
    extents=st.tuples(_POW2, _POW2, _POW2),
    fifo_depth=st.integers(1, 5),
    sparse=st.booleans(),
    data=st.data(),
)
def test_cluster_schedule_matches_sort_based_reference(extents, fifo_depth, sparse, data):
    streams = matmul_streams(*extents)
    cfg = ArchConfig(fifo_depth=fifo_depth)
    weights = _draw_weights(data, extents) if sparse else None
    table = None if weights is None else _nnz_table([weights], extents)
    [got] = _run_cluster_schedules(streams, cfg, table, collect_steps=True)
    want = _reference_run_cluster_schedule(streams, cfg, weights, collect_steps=True)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    extents=st.tuples(_POW2, _POW2, _POW2),
    fifo_depth=st.integers(1, 5),
    data=st.data(),
)
def test_batched_replay_matches_reference_per_position(extents, fifo_depth, data):
    # one dense replay, then up to 36 positions (l = 6), each with its own sparse weight set
    streams = matmul_streams(*extents)
    cfg = ArchConfig(fifo_depth=fifo_depth)
    n_pos = data.draw(st.integers(1, 36))
    weights = [_draw_weights(data, extents) for _ in range(n_pos)]
    calls = [(None, [None]), (_nnz_table(weights, extents), weights)]
    for table, per_position in calls:
        got = _run_cluster_schedules(streams, cfg, table, collect_steps=True)
        assert len(got) == len(per_position)
        for rep, w in zip(got, per_position):
            want = _reference_run_cluster_schedule(streams, cfg, w, collect_steps=True)
            for f in dataclasses.fields(SimReport):
                assert getattr(rep, f.name) == getattr(want, f.name), f.name


# ---------------------------------------------------------------------------
# transform stage


def test_transform_zero_tiles(cfg):
    rep = simulate_transform(0, cfg)
    assert rep.total_cycles == 0
    assert sum(rep.busy_cycles) == 0


def test_transform_one_tile_cost(cfg):
    rep = simulate_transform(1, cfg)
    assert rep.total_cycles == 2 * (4 + 6)  # two passes of l + 2(l-1)


def test_transform_pipeline_and_distribution(cfg):
    rep = simulate_transform(33, cfg)  # 16 arrays: one gets 3 tiles
    assert rep.total_cycles == 2 * (10 + 2 * 4)
    assert max(rep.busy_cycles) == rep.total_cycles
    assert all(b <= rep.total_cycles for b in rep.busy_cycles)


# ---------------------------------------------------------------------------
# dense cluster


def test_cluster_dense_16x16_fetch_sharing(cfg):
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (16, 16))
    B = rng.uniform(-1, 1, (16, 16))
    rep = simulate_cluster_dense(to_zmorton(A, 4), to_zmorton(B, 4), cfg, collect_steps=True)
    # every step: eight operand slots served by four distinct blocks
    assert all(s == 8 for s in rep.step_slots)
    assert all(d == 4 for d in rep.step_distinct)
    # first step loads the schedule's opening operand set from memory
    assert rep.step_slots[0] == 8 and rep.external_block_fetches >= 4
    # each of the 32 operand blocks is fetched externally exactly once
    assert rep.external_block_fetches == 32
    assert rep.operand_slots == 128
    assert rep.bandwidth_reduction_factor == 4.0


def test_cluster_dense_single_block(cfg):
    rng = np.random.default_rng(2)
    U = to_zmorton(np.eye(4), 4)
    V = to_zmorton(rng.uniform(-1, 1, (4, 4)), 4)
    rep = simulate_cluster_dense(U, V, cfg)
    assert rep.busy_cycles == [4, 0, 0, 0]  # one array busy, three idle
    assert rep.total_cycles == 6 + 4
    assert rep.block_matmuls_executed == 1


def test_cluster_dense_functional_fidelity(cfg):
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (24, 12))
    B = rng.uniform(-1, 1, (12, 20))
    rep = simulate_cluster_dense(to_zmorton(A, 4), to_zmorton(B, 4), cfg)
    assert rep.block_matmuls_executed == 8 * 4 * 8  # padded block grid product


def test_cluster_dense_determinism(cfg):
    rng = np.random.default_rng(4)
    A = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    B = to_zmorton(rng.uniform(-1, 1, (16, 16)), 4)
    r1 = simulate_cluster_dense(A, B, cfg)
    r2 = simulate_cluster_dense(A, B, cfg)
    assert r1 == r2


def test_cluster_dimension_mismatch(cfg):
    with pytest.raises(ValueError):
        simulate_cluster_dense(to_zmorton(np.eye(4), 4), to_zmorton(np.ones((8, 8)), 4), cfg)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("U, V, message", [
    (np.ones((8, 8)), to_zmorton(np.ones((8, 8)), 2), "block sides differ"),
    (np.ones((8, 4)), to_zmorton(np.ones((8, 8)), 4), "inner dimensions differ"),
], ids=["block sides", "inner dimensions"])
def test_cluster_rejects_nonconforming_operands(cfg, sparse, U, V, message):
    U = to_zmorton(U, 4)
    with pytest.raises(ValueError, match=message):
        if sparse:
            simulate_cluster_sparse(bcoo_encode(U), V, cfg)
        else:
            simulate_cluster_dense(U, V, cfg)


@pytest.mark.parametrize("case", sorted(_malformed_records()))
def test_cluster_sparse_rejects_malformed_operand(cfg, case):
    V = to_zmorton(np.random.default_rng(24).uniform(-1, 1, (8, 8)), 4)
    with pytest.raises(BcooFormatError):
        simulate_cluster_sparse(_malformed_records()[case], V, cfg)


@pytest.mark.parametrize("field", ["bn", "bi", "ai", "aj"])
def test_cluster_sparse_rejects_non_integer_indices(cfg, field):
    # a fractional index must not be priced: it names no block or entry
    vectors = {"bn": np.array([0]), "bi": np.array([0, 1]), "ai": np.array([0]), "aj": np.array([0])}
    vectors[field] = vectors[field] + 0.5
    U = BcooMatrix(4, 4, 4, **vectors, an=np.array([1.0]))
    with pytest.raises(BcooFormatError, match=f"{field.upper()} must be a 1-D integer array"):
        simulate_cluster_sparse(U, to_zmorton(np.ones((4, 4)), 4), cfg)


# ---------------------------------------------------------------------------
# sparse cluster


def test_cluster_sparse_fully_dense_consistency(cfg):
    rng = np.random.default_rng(5)
    A = rng.uniform(0.1, 1.0, (16, 16))  # no accidental zeros
    B = rng.uniform(-1, 1, (16, 16))
    dense_rep = simulate_cluster_dense(to_zmorton(A, 4), to_zmorton(B, 4), cfg)
    rep = simulate_cluster_sparse(bcoo_encode(to_zmorton(A, 4)), to_zmorton(B, 4), cfg)
    assert rep.total_cycles == dense_rep.total_cycles + rep.decompress_stall_cycles
    assert rep.external_block_fetches == dense_rep.external_block_fetches
    assert rep.local_block_fetches == dense_rep.local_block_fetches
    assert rep.block_matmuls_executed == dense_rep.block_matmuls_executed


def test_cluster_sparse_empty(cfg):
    U = bcoo_encode(to_zmorton(np.zeros((16, 16)), 4))
    V = to_zmorton(np.random.default_rng(6).uniform(-1, 1, (16, 16)), 4)
    rep = simulate_cluster_sparse(U, V, cfg)
    assert rep.block_matmuls_executed == 0
    assert rep.total_cycles == 0


def test_cluster_sparse_two_blocks_schedule(cfg):
    # weight blocks at morton 2 and 5 only: each feeds the four output
    # blocks in its row band, and each is fetched externally once
    A = np.zeros((16, 16))
    A[4:8, 0:4] = 1.0  # morton 2
    A[0:4, 12:16] = 2.0  # morton 5
    V = to_zmorton(np.random.default_rng(7).uniform(-1, 1, (16, 16)), 4)
    rep = simulate_cluster_sparse(bcoo_encode(to_zmorton(A, 4)), V, cfg)
    assert rep.block_matmuls_executed == 8
    # the weight block is shared by the two arrays of its row band per step
    assert rep.external_block_fetches < 2 * rep.block_matmuls_executed


def test_cluster_sparse_monotone_in_density(cfg):
    rng = np.random.default_rng(8)
    B = to_zmorton(rng.uniform(-1, 1, (32, 32)), 4)
    order = rng.permutation(64)  # nested survivor sets: prefixes of one order
    values = rng.uniform(0.1, 1, (32, 32))
    cycles = []
    for keep in (64, 32, 8, 2):
        A = np.zeros((32, 32))
        for idx in order[:keep]:
            r, c = divmod(int(idx), 8)
            A[r * 4 : r * 4 + 4, c * 4 : c * 4 + 4] = values[r * 4 : r * 4 + 4, c * 4 : c * 4 + 4]
        rep = simulate_cluster_sparse(bcoo_encode(to_zmorton(A, 4)), B, cfg)
        cycles.append(rep.total_cycles)
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))


def test_cluster_sparse_serial_decompress_when_shallow_fifo():
    cfg1 = ArchConfig(fifo_depth=1)
    rng = np.random.default_rng(9)
    A = rng.uniform(0.1, 1.0, (8, 8))
    B = to_zmorton(rng.uniform(-1, 1, (8, 8)), 4)
    rep = simulate_cluster_sparse(bcoo_encode(to_zmorton(A, 4)), B, cfg1)
    # every external fetch decompresses serially: nnz * 1 cycle each
    assert rep.decompress_stall_cycles == rep.external_block_fetches // 2 * 16


# ---------------------------------------------------------------------------
# layer simulation


def test_layer_wave_counts(plan):
    layer = LayerSpec("t", H=8, W=8, C=8, K=8, r=3, pad=1)
    rep8 = simulate_layer(layer, plan, ArchConfig(clusters=8))
    rep16 = simulate_layer(layer, plan, ArchConfig(clusters=16))
    # all dense positions replay alike: 16 positions take two waves on 8 clusters, one on 16
    assert rep8.matmul_cycles == 2 * rep16.matmul_cycles


def test_layer_degenerate_single_tile(plan):
    layer = LayerSpec("t", H=2, W=2, C=1, K=1, r=3, pad=1)
    # with one cluster per position multiply, total is transform + one
    # cluster step (fill + issue) + inverse
    rep = simulate_layer(layer, plan, ArchConfig(clusters=16))
    assert rep.transform_cycles == 20
    assert rep.inverse_cycles == 20
    assert rep.matmul_cycles == 6 + 4
    assert rep.total_cycles == 20 + 10 + 20
    # default eight clusters run the sixteen position multiplies in two waves
    rep8 = simulate_layer(layer, plan, ArchConfig(clusters=8))
    assert rep8.matmul_cycles == 2 * (6 + 4)


def test_layer_sparsity_speedup_and_monotonicity(plan, cfg):
    layer = LayerSpec("conv5_like", H=14, W=14, C=256, K=256, r=3, pad=1)
    dense = simulate_layer(layer, plan, cfg, 0.0)
    cycles = [dense.total_cycles]
    fetches = [dense.external_block_fetches]
    for s in (0.6, 0.7, 0.8, 0.9):
        rep = simulate_layer(layer, plan, cfg, s)
        cycles.append(rep.total_cycles)
        fetches.append(rep.external_block_fetches)
    assert all(a > b for a, b in zip(cycles, cycles[1:]))
    assert all(a >= b for a, b in zip(fetches, fetches[1:]))
    assert dense.total_cycles / cycles[-1] >= 3.0


@pytest.mark.parametrize("n, seed, pos", [(1, 0, 0), (64, 1, 5), (1024, 3, 35)])
def test_survivor_order_is_the_seeded_permutation(n, seed, pos):
    order = _survivor_order(n, seed, pos)
    assert order.tolist() == np.random.default_rng((seed, pos)).permutation(n).tolist()
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 1


def test_layer_reports_do_not_depend_on_sparsity_order(plan, cfg):
    # the 0.6 and 0.9 points share one memoized survivor draw per position
    layer = LayerSpec("t", H=8, W=8, C=32, K=16, r=3, pad=1)
    runs = []
    for order in ((0.6, 0.9), (0.9, 0.6)):
        _simulate_geometry.cache_clear()
        _survivor_order.cache_clear()
        runs.append({s: simulate_layer(layer, plan, cfg, s, seed=4) for s in order})
    assert runs[0] == runs[1]


def test_layer_rejects_plan_for_other_filter_width():
    # an F(2, 5) plan has the l = 6 of a matching ArchConfig but not the layer's r = 3
    layer = LayerSpec("t", H=8, W=8, C=4, K=4, r=3, pad=1)
    with pytest.raises(ValueError, match="filter width"):
        simulate_layer(layer, make_plan(2, 5), ArchConfig(l=6))


def test_layer_memo_keys_on_config_seed_and_geometry(plan, cfg):
    layer = LayerSpec("a", H=8, W=8, C=16, K=16, r=3, pad=1)
    base = simulate_layer(layer, plan, cfg, 0.7, seed=1)
    assert simulate_layer(layer, plan, ArchConfig(fifo_depth=2), 0.7, seed=1) != base
    assert simulate_layer(layer, plan, cfg, 0.7, seed=2) != base
    # another name, and H, W giving the same 16 tiles: the same report
    for other in (LayerSpec("b", H=8, W=8, C=16, K=16, r=3, pad=1),
                  LayerSpec("c", H=4, W=16, C=16, K=16, r=3, pad=1)):
        assert simulate_layer(other, plan, cfg, 0.7, seed=1) == base
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.fifo_depth = 2


def test_layer_report_does_not_alias_memo(plan, cfg):
    layer = LayerSpec("t", H=8, W=8, C=16, K=16, r=3, pad=1)
    first = simulate_layer(layer, plan, cfg, 0.7, seed=1)
    want = dataclasses.replace(first, busy_cycles=list(first.busy_cycles))
    first.busy_cycles[0] += 1
    first.busy_cycles.append(5)
    assert simulate_layer(layer, plan, cfg, 0.7, seed=1) == want


def test_layer_determinism(plan, cfg):
    layer = LayerSpec("t", H=8, W=8, C=16, K=16, r=3, pad=1)
    r1 = simulate_layer(layer, plan, cfg, 0.7, seed=3)
    r2 = simulate_layer(layer, plan, cfg, 0.7, seed=3)
    assert r1 == r2


def test_layer_bandwidth_reduction_reported(plan, cfg):
    layer = LayerSpec("t", H=8, W=8, C=16, K=16, r=3, pad=1)
    rep = simulate_layer(layer, plan, cfg)
    assert rep.bandwidth_reduction_factor >= 2.0


def test_csv_row_writes_numpy_counters_as_builtins():
    counters = dict(total_cycles=12, external_block_fetches=3, block_matmuls_executed=7,
                    operand_slots=12, busy_cycles=[5, 7])
    builtin = SimReport(**counters)
    numpy = SimReport(**{k: (np.int64(v) if isinstance(v, int) else v) for k, v in counters.items()})
    assert isinstance(numpy.bandwidth_reduction_factor, np.float64)
    want = "conv,2,0.5,12,3,9,7,4.0"
    assert sim_csv_row("conv", 2, 0.5, builtin) == want
    assert sim_csv_row("conv", np.int32(2), np.float64(0.5), numpy) == want
    assert sim_csv_row("conv", 2, np.float32(0.5), builtin) == want
    assert sim_csv_row("conv", np.uint8(2), np.float32(0.1), numpy) == f"conv,2,{float(np.float32(0.1))!r},12,3,9,7,4.0"


def test_csv_shape():
    rep = simulate_layer(LayerSpec("t", H=4, W=4, C=4, K=4, r=3, pad=1), make_plan(2, 3), ArchConfig())
    header = sim_csv_header().split(",")
    row = sim_csv_row("t", 2, 0.0, rep).split(",")
    assert header == ["layer", "m", "sparsity", "cycles", "ext_fetches",
                      "local_fetches", "block_matmuls", "bw_reduction"]
    assert len(row) == len(header)
    assert row[0] == "t"
