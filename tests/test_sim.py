import dataclasses
import struct
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from test_engine import _malformed_records
from winosim import sim
from winosim.bcoo import BcooFormatError, BcooMatrix, bcoo_encode, bcoo_from_bytes, bcoo_to_bytes
from winosim.engine import LayerSpec, _operand_keys, matmul_streams
from winosim.layout import _grid_codes, to_zmorton
from winosim.model import dse_sweep, parse_network_config, scale_network, vgg16_spec
from winosim.plans import make_plan
from winosim.sim import (
    ArchConfig,
    SimReport,
    simulate_cluster_dense,
    simulate_cluster_sparse,
    simulate_layer,
    simulate_transform,
)
from winosim.sim import (
    _ADDITIVE_FIELDS,
    _counter_misses,
    _fifo_misses,
    _run_cluster_schedules,
    _run_dense_schedule,
    _survivor_orders,
    _transform_stage_cycles,
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


def _counter_sequence(keyed):
    """The key of every counter value: its keyed bits, most significant first."""
    n = len(keyed)
    counter = np.arange(1 << n)
    keys = np.zeros_like(counter)
    for i, bit in enumerate(keyed):
        if bit:
            keys = keys << 1 | (counter >> (n - 1 - i)) & 1
    return keys.tolist()


@settings(max_examples=300, deadline=None)
@given(keyed=st.lists(st.booleans(), max_size=12), data=st.data())
def test_counter_misses_matches_fifo_walk(keyed, data):
    seq = _counter_sequence(keyed)
    # small capacities, and capacities up to past the sequence length
    capacity = data.draw(st.one_of(st.integers(1, 8), st.integers(1, len(seq) + 2)))
    assert _counter_misses(keyed, capacity) == _fifo_misses(seq, capacity, [0] * len(seq))[0]


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
    busy = [0] * 4
    busy[: len(streams)] = (issue * active.sum(axis=1)).tolist()

    compute = steps * issue
    stall = 0
    if weights is not None:
        decomp = int(nnz[np.searchsorted(present, a_missed)].sum())
        stall = max(0, decomp - compute) if cfg.fifo_depth >= 2 else decomp
    total = cfg.pipeline_fill + compute + stall if macs else 0

    return SimReport(
        external_block_fetches=ext,
        block_matmuls_executed=macs,
        busy_cycles=busy,
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
    # up to past twice the 256 distinct blocks of an operand: the half-depth sparse FIFOs hold them all too
    fifo_depth=st.one_of(st.integers(1, 5), st.integers(6, 1 << 10)),
    sparse=st.booleans(),
    data=st.data(),
)
def test_cluster_schedule_matches_sort_based_reference(extents, fifo_depth, sparse, data):
    streams = matmul_streams(*extents)
    cfg = ArchConfig(fifo_depth=fifo_depth)
    weights = _draw_weights(data, extents) if sparse else None
    if weights is None:
        got = _run_dense_schedule(extents, cfg, collect_steps=True)
    else:
        [got] = _run_cluster_schedules(
            extents, _operand_keys(*extents), cfg, _nnz_table([weights], extents), collect_steps=True
        )
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
    calls = [
        ([_run_dense_schedule(extents, cfg, collect_steps=True)], [None]),
        (_run_cluster_schedules(
            extents, _operand_keys(*extents), cfg, _nnz_table(weights, extents), collect_steps=True
        ), weights),
    ]
    for got, per_position in calls:
        assert len(got) == len(per_position)
        for rep, w in zip(got, per_position):
            want = _reference_run_cluster_schedule(streams, cfg, w, collect_steps=True)
            for f in dataclasses.fields(SimReport):
                assert getattr(rep, f.name) == getattr(want, f.name), f.name


@settings(max_examples=50, deadline=None)
@given(extents=st.tuples(_POW2, _POW2, st.sampled_from([1, 4, 64, 1024])), data=st.data())
def test_dense_fifo_holding_every_block_fetches_each_once(extents, data):
    mb, nb, pb = extents
    blocks = mb * nb + nb * pb  # distinct weight blocks plus distinct feature-map blocks
    deepest = max(mb * nb, nb * pb)
    fifo_depth = data.draw(st.one_of(st.integers(deepest, 2 * deepest), st.just(1 << 20)))
    rep = _run_dense_schedule(extents, ArchConfig(fifo_depth=fifo_depth), collect_steps=False)
    assert rep.external_block_fetches == blocks


@pytest.mark.parametrize(
    "fifo_depth, fetches",
    [(2, 141132800), (8, 114999552), (32, 76865792), (128, 55734528)],
)
def test_vgg16_dense_fetches_at_fifo_depths(plan, fifo_depth, fetches):
    # full-size VGG16 at m = 2, summed over the conv layers; the FIFO walk gave these totals
    cfg = ArchConfig(fifo_depth=fifo_depth)
    layers = vgg16_spec().conv_layers()
    assert sum(simulate_layer(layer, plan, cfg).external_block_fetches for layer in layers) == fetches


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


def test_transform_stage_closed_form_matches_busiest_array():
    for l in (4, 6):
        for n in range(1, 34):
            cfg = ArchConfig(l=l, transform_arrays=n)
            for tiles in range(301):
                per_array = [tiles // n + (1 if i < tiles % n else 0) for i in range(n)]
                busy = [2 * (l + 2 * (l - 1) + (t - 1) * l) if t else 0 for t in per_array]
                rep = simulate_transform(tiles, cfg)
                assert rep.busy_cycles == busy
                assert _transform_stage_cycles(tiles, cfg) == rep.transform_cycles == max(busy)


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
    (to_zmorton(np.ones((8, 8)), 4), to_zmorton(np.ones((8, 8)), 2), "block sides differ"),
    (to_zmorton(np.ones((8, 4)), 4), to_zmorton(np.ones((8, 8)), 4), "inner dimensions differ"),
    # l = 6 operands on the l = 4 arrays would be priced at 4-cycle issue
    (to_zmorton(np.ones((6, 6)), 6), to_zmorton(np.ones((6, 6)), 6),
     "architecture block side 4 != operand block side 6"),
], ids=["block sides", "inner dimensions", "architecture block side"])
def test_cluster_rejects_nonconforming_operands(cfg, sparse, U, V, message):
    with pytest.raises(ValueError, match=message):
        if sparse:
            simulate_cluster_sparse(bcoo_encode(U), V, cfg)
        else:
            simulate_cluster_dense(U, V, cfg)


@pytest.mark.parametrize("case", sorted(_malformed_records()[1]))
def test_cluster_sparse_rejects_malformed_operand(cfg, case):
    # simulate_cluster_sparse checks nothing: a malformed record read from bytes never becomes an operand
    u, cases = _malformed_records()
    changes, message = cases[case]
    vectors = [changes.get(name, getattr(u, name)) for name in ("bn", "bi", "ai", "aj")]
    blob = struct.pack(f"<5q{sum(map(len, vectors))}q{u.nnz}d", u.rows, u.cols, u.l, len(vectors[0]), u.nnz,
                       *np.concatenate(vectors).tolist(), *u.an.tolist())
    with pytest.raises(BcooFormatError) as err:
        bcoo_from_bytes(blob)
    assert str(err.value) == message
    V = to_zmorton(np.random.default_rng(24).uniform(-1, 1, (8, 8)), 4)
    assert simulate_cluster_sparse(bcoo_from_bytes(bcoo_to_bytes(u))[0], V, cfg) == simulate_cluster_sparse(u, V, cfg)


@pytest.mark.parametrize("field", ["bn", "bi", "ai", "aj"])
def test_cluster_sparse_rejects_non_integer_indices(field):
    # a fractional index names no block or entry, so no record holding one reaches the simulator
    vectors = {"bn": np.array([0]), "bi": np.array([0, 1]), "ai": np.array([0]), "aj": np.array([0])}
    BcooMatrix(4, 4, 4, **vectors, an=np.array([1.0]))
    vectors[field] = vectors[field] + 0.5
    with pytest.raises(BcooFormatError, match=f"{field.upper()} must be a 1-D integer array"):
        BcooMatrix(4, 4, 4, **vectors, an=np.array([1.0]))


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
    orders = _survivor_orders(n, seed, pos + 1)
    assert orders[pos].tolist() == np.random.default_rng((seed, pos)).permutation(n).tolist()
    assert orders.dtype == np.min_scalar_type(n - 1)


def test_layer_reports_do_not_depend_on_sparsity_order(plan, cfg):
    # the 0.6 and 0.9 points read prefixes of one seeded survivor draw per position
    layer = LayerSpec("t", H=8, W=8, C=32, K=16, r=3, pad=1)
    runs = []
    for order in ((0.6, 0.9), (0.9, 0.6)):
        runs.append({s: simulate_layer(layer, plan, cfg, s, seed=4) for s in order})
    assert runs[0] == runs[1]


def test_layer_rejects_plan_for_other_filter_width():
    # an F(2, 5) plan has the l = 6 of a matching ArchConfig but not the layer's r = 3
    layer = LayerSpec("t", H=8, W=8, C=4, K=4, r=3, pad=1)
    with pytest.raises(ValueError, match="filter width"):
        simulate_layer(layer, make_plan(2, 5), ArchConfig(l=6))


def test_layer_report_depends_on_config_seed_and_geometry(plan, cfg):
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


def test_layer_report_does_not_alias_a_later_report(plan, cfg):
    layer = LayerSpec("t", H=8, W=8, C=16, K=16, r=3, pad=1)
    first = simulate_layer(layer, plan, cfg, 0.7, seed=1)
    want = dataclasses.replace(first, busy_cycles=list(first.busy_cycles))
    first.busy_cycles[0] += 1
    first.busy_cycles.append(5)
    assert simulate_layer(layer, plan, cfg, 0.7, seed=1) == want


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(sim, name)
    monkeypatch.setattr(sim, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_sweep_prices_each_block_grid_once(plan, cfg, monkeypatch):
    # scale-4 VGG16 at m = 2: ten (K, C, tiles) geometries on nine padded block grids
    layers = scale_network(vgg16_spec(), 4).conv_layers()
    stages, keys = (_count_calls(monkeypatch, name) for name in ("_matmul_stages", "_operand_keys"))
    dse_sweep(scale_network(vgg16_spec(), 4), [2], [0.0], cfg=cfg)
    assert len(layers) == 18
    assert len({(layer.K, layer.C, layer.tile_counts(2)) for layer in layers}) == 10
    assert len(stages) == len({args[0] for args in stages}) == 9
    assert keys == []

    # conv5_1 (4 tiles) and conv6_1 (1 tile) share the (32, 32, 1) grid
    by_name = {layer.name: layer for layer in layers}
    reps = [simulate_layer(by_name[name], plan, cfg) for name in ("conv5_1", "conv6_1")]
    for f in _ADDITIVE_FIELDS + ("matmul_cycles", "busy_cycles"):
        assert getattr(reps[0], f) == getattr(reps[1], f), f
    for name, rep in zip(("conv5_1", "conv6_1"), reps):
        layer = by_name[name]
        tiles = np.prod(layer.tile_counts(2))
        assert rep.transform_cycles == simulate_transform(layer.C * tiles, cfg).total_cycles
        assert rep.inverse_cycles == simulate_transform(layer.K * tiles, cfg).total_cycles
        assert rep.total_cycles == rep.transform_cycles + rep.matmul_cycles + rep.inverse_cycles
    assert reps[0].transform_cycles > reps[1].transform_cycles

    # neither report aliases the shared entry
    want = dataclasses.replace(reps[1], busy_cycles=list(reps[1].busy_cycles))
    reps[0].busy_cycles[0] += 1
    reps[1].busy_cycles.append(5)
    assert simulate_layer(by_name["conv6_1"], plan, cfg) == want
    assert simulate_layer(by_name["conv5_1"], plan, cfg).busy_cycles == want.busy_cycles


def test_sweep_builds_each_sparse_grid_keys_once(cfg, monkeypatch):
    # a sweep builds each sparse grid's keys once, for all its sparsities and layers
    keys = _count_calls(monkeypatch, "_operand_keys")
    dse_sweep(scale_network(vgg16_spec(), 4), [2, 4], [0.6, 0.9], cfg=cfg)
    assert len(keys) == 17


def test_sweep_prices_each_layer_on_its_own_plan():
    # at m = 2 all three layers pad to the (1, 1, 4) block grid, but b's r = 5 prices it at l = 6
    net = parse_network_config("conv a 8 8 4 4 3 1\nconv b 8 8 4 4 5 2\nconv c 8 8 4 4 3 1\n")
    rows = dse_sweep(net, [2], [0.0, 0.5], seed=3)
    assert len(rows) == 6
    for row in rows:
        [layer] = [layer for layer in net.conv_layers() if layer.name == row.layer]
        plan = make_plan(2, layer.r)
        rep = simulate_layer(layer, plan, ArchConfig(l=plan.l), row.sparsity, seed=3)
        got = (row.cycles, row.ext_fetches, row.block_matmuls)
        assert got == (rep.total_cycles, rep.external_block_fetches, rep.block_matmuls_executed)


def test_sweep_rows_do_not_depend_on_sparsity_order(cfg):
    net = scale_network(vgg16_spec(), 8)
    runs = [dse_sweep(net, [2, 4], order, cfg=cfg, seed=2) for order in ([0.6, 0.9], [0.9, 0.6])]
    by_point = [{(row.layer, row.m, row.sparsity): row for row in rows} for rows in runs]
    assert len(by_point[0]) == len(runs[0]) == len(runs[1])
    assert by_point[0] == by_point[1]


def test_every_report_derives_its_total_and_operand_slots(plan, cfg):
    rng = np.random.default_rng(26)
    A = rng.uniform(0.1, 1.0, (16, 12))
    A[:8, 4:] = 0.0  # three absent weight blocks
    V = to_zmorton(rng.uniform(-1, 1, (12, 8)), 4)
    layer = LayerSpec("t", H=8, W=8, C=16, K=8, r=3, pad=1)
    reports = {
        "empty": SimReport(),
        "transform": simulate_transform(33, cfg),
        "cluster dense": simulate_cluster_dense(to_zmorton(A, 4), V, cfg),
        "cluster sparse": simulate_cluster_sparse(bcoo_encode(to_zmorton(A, 4)), V, cfg),
        "layer dense": simulate_layer(layer, plan, cfg),
        "layer sparse": simulate_layer(layer, plan, cfg, 0.7, seed=1),
    }
    for name, rep in reports.items():
        assert rep.total_cycles == rep.transform_cycles + rep.matmul_cycles + rep.inverse_cycles, name
        assert rep.operand_slots == 2 * rep.block_matmuls_executed, name
        assert (rep.total_cycles > 0) == (name != "empty"), name
    assert reports["transform"].transform_cycles == 2 * (10 + 2 * 4)
    with pytest.raises(TypeError):
        SimReport(total_cycles=1)


def test_layer_determinism(plan, cfg):
    layer = LayerSpec("t", H=8, W=8, C=16, K=16, r=3, pad=1)
    r1 = simulate_layer(layer, plan, cfg, 0.7, seed=3)
    r2 = simulate_layer(layer, plan, cfg, 0.7, seed=3)
    assert r1 == r2


def test_layer_bandwidth_reduction_reported(plan, cfg):
    layer = LayerSpec("t", H=8, W=8, C=16, K=16, r=3, pad=1)
    rep = simulate_layer(layer, plan, cfg)
    assert rep.bandwidth_reduction_factor >= 2.0
