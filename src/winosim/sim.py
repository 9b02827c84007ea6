"""Deterministic block-level model of the systolic-array architecture.

The machine is built from l-by-l processing-element arrays.  A bank of
`transform_arrays` arrays applies the input transform with the transform
matrix held stationary: tiles make two passes, the first producing
(D^T . B)^T which feeds back as the new input.  No multiplications are
attributed to the transform stage: only adders are exercised, matrix
entries of +-1/0 steering add / subtract / pass.  That holds for F(2, 3)
alone; the m >= 3 plans' Bt and At hold other values too, whose
multiplies this model does not price (ROADMAP.md, item 11).

Matrix multiplies run on clusters of four arrays sharing circular FIFOs.
The four arrays track the four top-level output quadrants of the unrolled
divide-and-conquer schedule in lockstep, one block multiply per array per
step, so each step's eight operand slots are served by four distinct
blocks (pairwise sharing), and FIFO reuse across steps removes repeat
external fetches entirely while a working set fits.

In the sparse configuration only weight blocks present in the compressed
operand trigger multiplies; weight FIFOs gain a decompressor (a fixed
cost per nonzero, overlapped with compute when the FIFO is at least two
blocks deep) and the feature-map FIFO is split into two half-depth FIFOs,
one per output-column group.

Everything is cycle-deterministic: identical inputs and configuration
produce identical reports, and no report depends on an earlier call.  A
layer's matmul stage depends only on its padded block grid (the
power-of-two block extents of K, C and the tile count), the ArchConfig,
sparsity and seed.  _matmul_stages prices one grid at every sparsity of
a sweep and builds the sparse replay's keys and survivor draws once, so
every sparsity reads a prefix of one permutation; `dse_sweep` shares
each plan's priced grids among its layers, and each layer adds its own
two transform stages.  The dense datapath is priced in closed form from
the schedule's operation counter (_counter_misses); a sparse grid's l*l
positions replay in one batched pass, one list walk per buffer and
position (_run_cluster_schedules).  Each producer sets only the stage it
prices; a report's total cycles and operand slots are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bcoo import BcooMatrix
from .engine import _COL, _ROW, LayerSpec, _block_grid, _operand_keys, _quadrant_split
from .layout import ZMortonMatrix, _block_extent, _grid_codes
from .plans import WinogradPlan

__all__ = [
    "ArchConfig",
    "SimReport",
    "simulate_transform",
    "simulate_cluster_dense",
    "simulate_cluster_sparse",
    "simulate_layer",
]


@dataclass(frozen=True)
class ArchConfig:
    """Architecture geometry.

    The cycle costs derive from the array side l: a block multiply issues
    every l cycles, the array pipeline fills in 2(l-1), one transform pass
    costs l + 2(l-1), and the decompressor spends one cycle per nonzero.
    """

    l: int = 4
    clusters: int = 8
    transform_arrays: int = 16
    fifo_depth: int = 8

    def __post_init__(self):
        if min(self.l, self.clusters, self.transform_arrays, self.fifo_depth) < 1:
            raise ValueError("all architecture counts must be >= 1")

    @property
    def cycles_per_block_matmul_issue(self) -> int:
        return self.l

    @property
    def pipeline_fill(self) -> int:
        return 2 * (self.l - 1)

    @property
    def transform_pass_cycles(self) -> int:
        return self.l + self.pipeline_fill


@dataclass
class SimReport:
    """Counters from one deterministic simulation; the total and the operand slots are derived."""

    external_block_fetches: int = 0
    block_matmuls_executed: int = 0
    busy_cycles: list = field(default_factory=list)
    steps_executed: int = 0
    decompress_stall_cycles: int = 0
    transform_cycles: int = 0
    matmul_cycles: int = 0
    inverse_cycles: int = 0
    step_slots: list | None = None
    step_distinct: list | None = None

    @property
    def total_cycles(self) -> int:
        return self.transform_cycles + self.matmul_cycles + self.inverse_cycles

    @property
    def operand_slots(self) -> int:
        return 2 * self.block_matmuls_executed

    @property
    def local_block_fetches(self) -> int:
        return self.operand_slots - self.external_block_fetches

    @property
    def bandwidth_reduction_factor(self) -> float:
        ext = self.external_block_fetches
        return self.operand_slots / ext if ext else 1.0

    @property
    def utilization(self) -> float:
        if not self.busy_cycles or self.total_cycles == 0:
            return 0.0
        return sum(self.busy_cycles) / (len(self.busy_cycles) * self.total_cycles)


# SimReport counters that add up: a layer's value is the sum over its l*l positions
_ADDITIVE_FIELDS = (
    "external_block_fetches",
    "block_matmuls_executed",
    "steps_executed",
    "decompress_stall_cycles",
)


# ---------------------------------------------------------------------------
# transform stage


def simulate_transform(tile_count: int, cfg: ArchConfig) -> SimReport:
    """Cost of pushing `tile_count` tiles through the two-pass transform bank.

    Tiles distribute round-robin over the transform arrays; each pass is
    pipelined at one tile per issue interval after the first.  The stage
    is reported in transform_cycles, whichever transform the bank runs.
    """
    if tile_count < 0:
        raise ValueError("tile_count must be >= 0")
    n = cfg.transform_arrays
    per_array = [tile_count // n + (1 if i < tile_count % n else 0) for i in range(n)]
    busy = [_array_transform_cycles(t, cfg) for t in per_array]
    return SimReport(transform_cycles=_transform_stage_cycles(tile_count, cfg), busy_cycles=busy)


def _array_transform_cycles(tiles: int, cfg: ArchConfig) -> int:
    """Busy cycles of one transform array given `tiles` tiles: two passes, each one tile per issue after the first."""
    return 2 * (cfg.transform_pass_cycles + (tiles - 1) * cfg.cycles_per_block_matmul_issue) if tiles else 0


def _transform_stage_cycles(tile_count: int, cfg: ArchConfig) -> int:
    """simulate_transform(tile_count, cfg).transform_cycles: the busiest array holds ceil(tile_count / n) tiles."""
    return _array_transform_cycles(-(-tile_count // cfg.transform_arrays), cfg)


# ---------------------------------------------------------------------------
# cluster matmul stage


def _fifo_misses(keys: list, capacity: int, cost: list) -> tuple[int, int]:
    """(misses, sum of cost[key] over the misses) of one FIFO-replacement buffer.

    Keys index `cost`.  Only misses insert, so a key is still held iff at
    most `capacity` misses, its own included, have happened since its own
    last miss: a key whose last miss is at or below `evicted`, the miss
    count less `capacity`, has left.  A key never missed counts as last
    missed at -capacity, which `evicted` never falls below, so it always
    misses.
    """
    last = [-capacity] * len(cost)
    evicted = -capacity
    total = 0
    for key in keys:
        if last[key] <= evicted:
            evicted += 1
            last[key] = evicted + capacity
            total += cost[key]
    return evicted + capacity, total


def _window(slots, base: int, size: int) -> tuple:
    """The slots of keys base..base+size-1, renumbered from 0, others -1, cut after the last kept."""
    held = [k - base if base <= k < base + size else -1 for k in slots]
    while held and held[-1] < 0:
        held.pop()
    return tuple(held)


def _counter_misses(keyed: list, capacity: int) -> int:
    """Misses of one FIFO-replacement buffer of `capacity` >= 1 slots walking a binary operation counter.

    keyed[i] says whether counter bit i, most significant first, names the
    key; the other bits repeat.  A counter value's key is its keyed bits,
    so the walk of bits i.. is the walk of bits i+1.. twice: on the keys
    whose bit i is 0 and then on those where it is 1, or twice on the
    same keys.  FIFO replacement is not a stack algorithm, so no
    reuse-distance count applies; the count recurses over the bits.

    - A walk sees the buffer only through the slots that hold its own
      keys.  `state` lists the slots newest first, each holding a key
      renumbered from 0 within the walk or -1 for another's key, and ends
      at the last slot of its own.
    - Only misses insert, so a walk of M misses leaves its last
      min(M, capacity) inserted keys, newest first, then its entry slots
      moved M places on.  `walk` returns M and those keys.
    - A walk whose keys all fit and are all absent misses each key once,
      at its first access, where its repeat bits are 0: in key order.  A
      walk of one key, held on entry, never misses.

    The memo of (bit, state) lives for one call.
    """
    distinct = [1]  # distinct[i]: keys of the walk of bits i..
    for bit in reversed(keyed):
        distinct.append(distinct[-1] << bit)
    distinct.reverse()
    memo = {}

    def walk(i: int, state: tuple) -> tuple[int, tuple]:
        d = distinct[i]
        if not state and d <= capacity:
            return d, tuple(range(d - 1, -1, -1))
        if d == 1:
            return 0, ()
        got = memo.get((i, state))
        if got is None:
            size = distinct[i + 1]
            base = size if keyed[i] else 0  # where the second walk's keys start
            m0, new0 = walk(i + 1, _window(state, 0, size))
            m1, new1 = walk(i + 1, _window(new0 + state[: max(0, capacity - m0)], base, size))
            got = memo[i, state] = m0 + m1, (tuple([k + base for k in new1]) + new0)[:capacity]
        return got

    return walk(0, ())[0]


def _run_cluster_schedules(
    grid, keys, cfg: ArchConfig, nnz: np.ndarray, collect_steps: bool = False
) -> list[SimReport]:
    """Replay the padded (mb, nb, pb) block grid through the sparse cluster's FIFOs, once per position.

    `nnz` is a (position, weight code) table of each present weight
    block's nonzero count, 0 where the block is absent: only operations on
    a present weight run, weight misses pass the decompressor and the
    feature-map FIFO splits into one half-depth FIFO per column group.
    The table must span every weight code of the grid.  Returns one
    report per position.

    The walks read `keys`, engine._operand_keys of the grid, which the
    caller builds once for all the tables it replays: both row halves'
    weight codes, and column half 0's feature-map ranks, since the two
    column-half FIFOs see one mask and keys one constant apart.  The
    activity and its counts are built for all positions at once; per
    position, each buffer's access sequence goes to one list walk.
    """
    issue = cfg.cycles_per_block_matmul_issue
    a, b = keys
    n_col_halves = 1 << len(_quadrant_split(*grid)[1])
    member = nnz > 0  # member[pos, code]: does position pos run operations on weight code?
    fm_cost = [0] * (int(b.max()) + 1)
    act = member[:, a]  # (position, step, row half)
    rows_active = act.sum(axis=2, dtype=np.uint8)
    ran = rows_active > 0
    steps = ran.sum(axis=1).tolist()
    macs = (n_col_halves * act.sum(axis=(1, 2))).tolist()
    busy = np.zeros((len(member), 4), dtype=np.int64)
    busy[:, : a.shape[1] * n_col_halves] = np.repeat(issue * act.sum(axis=1), n_col_halves, axis=1)
    busy = busy.tolist()

    reps = []
    for p in range(len(member)):
        a_misses, decomp = _fifo_misses(a[act[p]].tolist(), cfg.fifo_depth, nnz[p].tolist())
        fm_misses = _fifo_misses(b[ran[p]].tolist(), cfg.fifo_depth // 2, fm_cost)[0]

        compute = steps[p] * issue
        stall = max(0, decomp - compute) if cfg.fifo_depth >= 2 else decomp
        rep = SimReport(
            external_block_fetches=a_misses + n_col_halves * fm_misses,
            block_matmuls_executed=macs[p],
            busy_cycles=busy[p],
            steps_executed=steps[p],
            decompress_stall_cycles=stall,
            matmul_cycles=cfg.pipeline_fill + compute + stall if macs[p] else 0,
        )
        if collect_steps:
            active = rows_active[p][ran[p]]
            rep.step_slots = (2 * n_col_halves * active).tolist()
            rep.step_distinct = (active + n_col_halves).tolist()
        reps.append(rep)
    return reps


def _run_dense_schedule(grid, cfg: ArchConfig, collect_steps: bool) -> SimReport:
    """Price the padded (mb, nb, pb) block grid on the dense datapath, all in closed form.

    Every operation runs, so every step issues all of its row halves times
    column halves, and each buffer sees its whole access sequence in one
    shared FIFO with no decompressor to charge.  Each sequence is the
    operation counter with one quadrant bit moved last (engine._operand_keys):
    the weights' is `rest + row_q`, whose row and inner bits name the block
    and whose column bits repeat; the feature map's is `rest + col_q`,
    whose inner and column bits name the block and whose row bits repeat.
    _counter_misses counts each one's misses without walking it.
    """
    mb, nb, pb = grid
    row_q, col_q, rest = _quadrant_split(mb, nb, pb)
    n_row_halves, n_col_halves = 1 << len(row_q), 1 << len(col_q)
    n_arrays = n_row_halves * n_col_halves
    n_steps = mb * nb * pb // n_arrays
    compute = n_steps * cfg.cycles_per_block_matmul_issue
    misses = sum(
        _counter_misses([dim != repeat for dim, _ in bits], cfg.fifo_depth)
        for bits, repeat in ((rest + row_q, _COL), (rest + col_q, _ROW))
    )
    rep = SimReport(
        external_block_fetches=misses,
        block_matmuls_executed=mb * nb * pb,
        busy_cycles=[compute] * n_arrays + [0] * (4 - n_arrays),
        steps_executed=n_steps,
        matmul_cycles=cfg.pipeline_fill + compute,
    )
    if collect_steps:
        rep.step_slots = [2 * n_arrays] * n_steps
        rep.step_distinct = [n_row_halves + n_col_halves] * n_steps
    return rep


def _cluster_grid(U, V: ZMortonMatrix, cfg: ArchConfig) -> tuple[int, int, int]:
    """_block_grid of U times V; ValueError unless the arrays are U's block side too."""
    if U.l != cfg.l:
        raise ValueError(f"architecture block side {cfg.l} != operand block side {U.l}")
    return _block_grid(U, V)


def simulate_cluster_dense(
    U: ZMortonMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
) -> SimReport:
    """Price one cluster running U times V; engine.recursive_matmul computes the product."""
    return _run_dense_schedule(_cluster_grid(U, V, cfg), cfg, collect_steps)


def simulate_cluster_sparse(
    U: BcooMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
) -> SimReport:
    """Price one cluster running sparse-weight U times V; engine.block_matmul_sparse multiplies.

    Only products whose weight block exists are scheduled; the memory
    access pattern follows the distribution of the stored blocks.
    """
    grid = _cluster_grid(U, V, cfg)
    nnz = np.zeros((1, _grid_codes(*grid[:2])[-1] + 1), dtype=np.int64)
    nnz[0, U.bn] = np.diff(U.bi)
    return _run_cluster_schedules(grid, _operand_keys(*grid), cfg, nnz, collect_steps)[0]


# ---------------------------------------------------------------------------
# whole-layer simulation


def _survivor_orders(n: int, seed: int, positions: int) -> np.ndarray:
    """Row pos: the (seed, pos) permutation of n grid blocks, most durable first, narrowest unsigned type."""
    dtype = np.min_scalar_type(n - 1)
    return np.stack([np.random.default_rng((seed, pos)).permutation(n).astype(dtype) for pos in range(positions)])


def _synthetic_block_nnz(l: int, sparsity: float) -> int:
    """Expected nonzeros of a surviving block under element-wise pruning.

    Treating entries as independently zero with the density that yields the
    requested all-zero-block fraction, a surviving block carries
    l^2 * d / (1 - sparsity) nonzeros with d = 1 - sparsity^(1/l^2); this
    sits near one for any appreciable sparsity.
    """
    if sparsity <= 0.0:
        return l * l
    if sparsity >= 1.0:
        return 1
    d = 1.0 - sparsity ** (1.0 / (l * l))
    return max(1, int(round(l * l * d / (1.0 - sparsity))))


def simulate_layer(
    layer: LayerSpec,
    plan: WinogradPlan,
    cfg: ArchConfig,
    sparsity: float = 0.0,
    seed: int = 0,
) -> SimReport:
    """Simulate one convolution layer end to end.

    The l*l independent position multiplies are assigned round-robin to the
    clusters; total cycles are the input-transform stage plus the slowest
    cluster's multiply work plus the inverse-transform stage.  At nonzero
    `sparsity` each position's weight matrix drops that fraction of its
    blocks (deterministic seeded choice, nested across sparsities) and
    surviving blocks carry the element-wise-pruning nonzero estimate of
    _synthetic_block_nnz; at zero sparsity the dense datapath (no
    decompressors) is modelled.  Each call prices its own grid.
    """
    return _simulate_sparsities(layer, plan, cfg, [sparsity], seed, {})[0]


def _simulate_sparsities(layer, plan: WinogradPlan, cfg: ArchConfig, sparsities, seed: int, priced: dict) -> list:
    """simulate_layer at each of `sparsities`, one fresh report each.

    `priced` maps a padded block grid to its _matmul_stages at these
    sparsities, cfg and seed, so a caller shares one table only across
    calls that agree on all three.  A grid not in it is priced and added.
    """
    if not all(0.0 <= s <= 1.0 for s in sparsities):
        raise ValueError("sparsity must lie in [0, 1]")
    if cfg.l != plan.l:
        raise ValueError(f"architecture block side {cfg.l} != plan l={plan.l}")
    if plan.r != layer.r:
        raise ValueError(f"{layer.name}: filter width {layer.r} != plan r={plan.r}")
    th, tw = layer.tile_counts(plan.m)
    P = th * tw
    grid = tuple(_block_extent(n, cfg.l) for n in (layer.K, layer.C, P))
    if grid not in priced:
        priced[grid] = _matmul_stages(grid, cfg, sparsities, seed)
    transform, inverse = (_transform_stage_cycles(n * P, cfg) for n in (layer.C, layer.K))
    return [
        replace(stage, busy_cycles=list(stage.busy_cycles), transform_cycles=transform, inverse_cycles=inverse)
        for stage in priced[grid]
    ]


def _matmul_stages(grid, cfg: ArchConfig, sparsities, seed: int) -> list[SimReport]:
    """The matmul stage of the padded (mb x nb) by (nb x pb) block grid at each of `sparsities`.

    At nonzero sparsity all l*l positions replay in one
    _run_cluster_schedules call, each keeping a prefix of its seeded
    survivor draw; the grid codes, the draws and the operand keys are built
    once, and only if some sparsity is nonzero.  At zero sparsity one dense
    pricing stands for every position.
    """
    l = cfg.l
    if any(s > 0.0 for s in sparsities):
        grid_codes = _grid_codes(*grid[:2])
        orders = _survivor_orders(len(grid_codes), seed, l * l)
        keys = _operand_keys(*grid)
    stages = []
    for s in sparsities:
        if s > 0.0:
            # Each position keeps its draw's most durable blocks: survivor sets nest.
            keep = int(round((1.0 - s) * len(grid_codes)))
            block_nnz = _synthetic_block_nnz(l, s)
            nnz = np.zeros((l * l, grid_codes[-1] + 1), dtype=np.min_scalar_type(block_nnz))
            nnz[np.arange(l * l)[:, None], grid_codes[orders[:, :keep]]] = block_nnz
            reps = _run_cluster_schedules(grid, keys, cfg, nnz)
        else:
            # Every dense position runs the same streams, so one pricing serves all l^2.
            reps = [_run_dense_schedule(grid, cfg, False)] * (l * l)

        cluster_cycles = [0] * cfg.clusters
        busy = [0] * (cfg.clusters * 4)
        for pos, rep in enumerate(reps):
            cluster_cycles[pos % cfg.clusters] += rep.matmul_cycles
            for q, b in enumerate(rep.busy_cycles, 4 * (pos % cfg.clusters)):
                busy[q] += b
        stages.append(SimReport(
            busy_cycles=busy,
            **{f: sum(getattr(rep, f) for rep in reps) for f in _ADDITIVE_FIELDS},
            matmul_cycles=max(cluster_cycles),
        ))
    return stages
