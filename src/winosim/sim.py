"""Deterministic block-level model of the systolic-array architecture.

The machine is built from l-by-l processing-element arrays.  A bank of
`transform_arrays` arrays applies the input transform with the transform
matrix held stationary: tiles make two passes, the first producing
(D^T . B)^T which feeds back as the new input, so only adders are
exercised (matrix entries of +-1/0 steer add / subtract / pass) and no
multiplications are attributed to the transform stage.

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
produce identical reports.  simulate_layer therefore memoizes a layer's
report on its geometry (K, C, tile count), the ArchConfig, sparsity and
seed, so `simulate` and `dse` price repeated layer geometries once.  A
geometry's l*l positions share one stream schedule and are replayed in
one batched pass: their weight tables, activity masks and the counts
derived from them are built together, and per position each buffer
runs one pure-Python walk that counts its misses and, for the weights,
sums the decompressor's nonzeros.  The seeded survivor draw of a (block
count, seed, position) is memoized too, so every swept sparsity reads a
prefix of one permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bcoo import BcooMatrix
from .engine import LayerSpec, _block_grid, matmul_streams
from .layout import ZMortonMatrix, _block_extent, _grid_codes, _morton_decode_array
from .plans import WinogradPlan

__all__ = [
    "ArchConfig",
    "SimReport",
    "simulate_transform",
    "simulate_cluster_dense",
    "simulate_cluster_sparse",
    "simulate_layer",
    "sim_csv_header",
    "sim_csv_row",
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

    @property
    def decompress_cycles_per_nnz(self) -> int:
        return 1


@dataclass
class SimReport:
    """Counters from one deterministic simulation."""

    total_cycles: int = 0
    external_block_fetches: int = 0
    block_matmuls_executed: int = 0
    busy_cycles: list = field(default_factory=list)
    operand_slots: int = 0
    steps_executed: int = 0
    decompress_stall_cycles: int = 0
    transform_cycles: int = 0
    matmul_cycles: int = 0
    inverse_cycles: int = 0
    step_slots: list | None = None
    step_distinct: list | None = None

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
    "operand_slots",
    "steps_executed",
    "decompress_stall_cycles",
)


# ---------------------------------------------------------------------------
# transform stage


def simulate_transform(tile_count: int, cfg: ArchConfig) -> SimReport:
    """Cost of pushing `tile_count` tiles through the two-pass transform bank.

    Tiles distribute round-robin over the transform arrays; each pass is
    pipelined at one tile per issue interval after the first.
    """
    if tile_count < 0:
        raise ValueError("tile_count must be >= 0")
    n = cfg.transform_arrays
    per_array = [tile_count // n + (1 if i < tile_count % n else 0) for i in range(n)]

    def pass_cycles(tiles: int) -> int:
        if tiles == 0:
            return 0
        return cfg.transform_pass_cycles + (tiles - 1) * cfg.cycles_per_block_matmul_issue

    busy = [2 * pass_cycles(a) for a in per_array]
    return SimReport(
        total_cycles=max(busy) if busy else 0,
        busy_cycles=busy,
    )


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


def _run_cluster_schedules(
    streams, cfg: ArchConfig, nnz: np.ndarray | None = None, collect_steps: bool = False
) -> list[SimReport]:
    """Replay the lockstep streams through the cluster's operand FIFOs, once per position.

    `nnz` is None for the dense datapath, which yields one report, or a
    (position, weight code) table of each present weight block's nonzero
    count, 0 where the block is absent, for the sparse one: only
    operations on a present weight run, weight misses pass the
    decompressor and the feature-map FIFO splits into one half-depth FIFO
    per column group.  The table must span every weight code of the
    streams.  Returns one report per position.

    Streams are row-half major.  The streams of one row half share their
    weight codes (and so their activity), those of one column half their
    feature-map codes, and at every step half 0's code lies below half
    1's, so each step's distinct ascending codes need no sort.  Activity
    and the counts derived from it are built for all positions at once;
    per position, each buffer's access sequence goes to one list walk.
    """
    issue = cfg.cycles_per_block_matmul_issue
    n_col_halves = 1 + max(s.col_half for s in streams)
    a = np.stack([s.a for s in streams[::n_col_halves]], axis=1)  # (step, row half)
    # Feature-map blocks are keyed by (row, column) rank, not Morton code: a
    # skinny grid's codes spread far wider than its block count.
    rows, cols = _morton_decode_array(np.stack([s.b for s in streams[:n_col_halves]]))
    b = rows * (int(cols.max()) + 1) + cols
    sparse = nnz is not None
    if sparse:
        member = nnz > 0  # member[pos, code]: does position pos run operations on weight code?
    else:  # every weight block present, and no decompressor to charge
        member = np.ones((1, int(a.max()) + 1), dtype=bool)
        nnz = np.zeros(member.shape, dtype=np.uint8)
    fm_cost = [0] * (int(b.max()) + 1)
    act = member[:, a]  # (position, step, row half)
    rows_active = act.sum(axis=2, dtype=np.uint8)
    ran = rows_active > 0
    steps = ran.sum(axis=1).tolist()
    macs = (n_col_halves * act.sum(axis=(1, 2))).tolist()
    busy = np.zeros((len(member), 4), dtype=np.int64)
    busy[:, : len(streams)] = np.repeat(issue * act.sum(axis=1), n_col_halves, axis=1)
    busy = busy.tolist()

    reps = []
    for p in range(len(member)):
        a_misses, decomp = _fifo_misses(a[act[p]].tolist(), cfg.fifo_depth, nnz[p].tolist())
        if sparse:
            # Both column-half FIFOs see one mask, and their keys differ by one
            # constant, so they miss alike: replay one, count it per half.
            fm_seq, fm_depth, fm_fifos = b[0][ran[p]], cfg.fifo_depth // 2, n_col_halves
        else:
            fm_seq, fm_depth, fm_fifos = b.T.ravel(), cfg.fifo_depth, 1
        fm_misses = _fifo_misses(fm_seq.tolist(), fm_depth, fm_cost)[0]

        compute = steps[p] * issue
        stall = 0
        if sparse:
            decomp *= cfg.decompress_cycles_per_nnz
            stall = max(0, decomp - compute) if cfg.fifo_depth >= 2 else decomp
        total = cfg.pipeline_fill + compute + stall if macs[p] else 0
        rep = SimReport(
            total_cycles=total,
            external_block_fetches=a_misses + fm_fifos * fm_misses,
            block_matmuls_executed=macs[p],
            busy_cycles=busy[p],
            operand_slots=2 * macs[p],
            steps_executed=steps[p],
            decompress_stall_cycles=stall,
            matmul_cycles=total,
        )
        if collect_steps:
            active = rows_active[p][ran[p]]
            rep.step_slots = (2 * n_col_halves * active).tolist()
            rep.step_distinct = (active + n_col_halves).tolist()
        reps.append(rep)
    return reps


def simulate_cluster_dense(
    U: ZMortonMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
) -> SimReport:
    """Price one cluster running U times V; engine.recursive_matmul computes the product."""
    return _run_cluster_schedules(matmul_streams(*_block_grid(U, V)), cfg, None, collect_steps)[0]


def simulate_cluster_sparse(
    U: BcooMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
) -> SimReport:
    """Price one cluster running sparse-weight U times V; engine.block_matmul_sparse multiplies.

    Only products whose weight block exists are scheduled; the memory
    access pattern follows the distribution of the stored blocks.  Raises
    BcooFormatError unless U is a well-formed BCOO matrix.
    """
    U.validate()
    mb, nb, pb = _block_grid(U, V)
    nnz = np.zeros((1, _grid_codes(mb, nb)[-1] + 1), dtype=np.int64)
    nnz[0, U.bn] = np.diff(U.bi)
    return _run_cluster_schedules(matmul_streams(mb, nb, pb), cfg, nnz, collect_steps)[0]


# ---------------------------------------------------------------------------
# whole-layer simulation


# Holds every position of two block grids for l <= 8: `dse` prices a layer's
# sparsities back to back, and layers of one block grid often follow each other.
@lru_cache(maxsize=128)
def _survivor_order(n: int, seed: int, pos: int) -> np.ndarray:
    """Seeded permutation of n grid blocks, most durable first; read-only, as the cache shares it.

    Every sparsity of a (seed, position) reads a prefix of this one draw.
    It is stored in the narrowest unsigned type that holds n - 1.
    """
    order = np.random.default_rng((seed, pos)).permutation(n)
    order = order.astype(np.min_scalar_type(n - 1))
    order.setflags(write=False)
    return order


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
    decompressors) is modelled.  Layers of one geometry share a memoized
    report; each call gets its own copy.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must lie in [0, 1]")
    if cfg.l != plan.l:
        raise ValueError(f"architecture block side {cfg.l} != plan l={plan.l}")
    if plan.r != layer.r:
        raise ValueError(f"{layer.name}: filter width {layer.r} != plan r={plan.r}")
    th, tw = layer.tile_counts(plan.m)
    rep = _simulate_geometry(layer.K, layer.C, th * tw, cfg, sparsity, seed)
    return replace(rep, busy_cycles=list(rep.busy_cycles))


@lru_cache(maxsize=256)
def _simulate_geometry(
    K: int, C: int, P: int, cfg: ArchConfig, sparsity: float, seed: int
) -> SimReport:
    """simulate_layer's report for K filters, C channels and P = th*tw tiles.

    The report depends on nothing else of the layer: not its name, and not
    H and W beyond P.  Callers get a copy, so the memo is never aliased.
    All l*l positions replay in one _run_cluster_schedules call; at nonzero
    sparsity each keeps a prefix of its memoized _survivor_order draw, and
    at zero sparsity one dense replay stands for every position.
    """
    l = cfg.l
    mb, nb, pb = (_block_extent(n, l) for n in (K, C, P))
    streams = matmul_streams(mb, nb, pb)

    if sparsity > 0.0:
        # Each position keeps the most durable blocks of its draw; survivor
        # sets nest as sparsity grows.
        grid_codes = _grid_codes(mb, nb)
        n = len(grid_codes)
        keep = int(round((1.0 - sparsity) * n))
        orders = np.stack([_survivor_order(n, seed, pos)[:keep] for pos in range(l * l)])
        block_nnz = _synthetic_block_nnz(l, sparsity)
        nnz = np.zeros((l * l, grid_codes[-1] + 1), dtype=np.min_scalar_type(block_nnz))
        nnz[np.arange(l * l)[:, None], grid_codes[orders]] = block_nnz
        reps = _run_cluster_schedules(streams, cfg, nnz)
    else:
        # Every dense position replays the same streams, so one replay serves all l^2.
        reps = _run_cluster_schedules(streams, cfg) * (l * l)

    cluster_cycles = [0] * cfg.clusters
    busy = [0] * (cfg.clusters * 4)
    for pos, rep in enumerate(reps):
        cluster = pos % cfg.clusters
        cluster_cycles[cluster] += rep.total_cycles
        for q, b in enumerate(rep.busy_cycles):
            busy[cluster * 4 + q] += b

    matmul_stage = max(cluster_cycles)
    t_in = simulate_transform(C * P, cfg)
    t_out = simulate_transform(K * P, cfg)
    return SimReport(
        total_cycles=t_in.total_cycles + matmul_stage + t_out.total_cycles,
        busy_cycles=busy,
        **{f: sum(getattr(rep, f) for rep in reps) for f in _ADDITIVE_FIELDS},
        transform_cycles=t_in.total_cycles,
        matmul_cycles=matmul_stage,
        inverse_cycles=t_out.total_cycles,
    )


# ---------------------------------------------------------------------------
# CSV emission

# CSV column -> SimReport attribute, after the layer, m and sparsity columns
_CSV_COLUMNS = {
    "cycles": "total_cycles",
    "ext_fetches": "external_block_fetches",
    "local_fetches": "local_block_fetches",
    "block_matmuls": "block_matmuls_executed",
    "bw_reduction": "bandwidth_reduction_factor",
}


def _csv_field(v) -> str:
    """Floats by repr, so they read back exactly; the rest by str.

    A numpy float is written as the builtin float of the same value: the
    repr of np.float64, a float subclass, names its type.  A numpy
    integer's str is already that of the builtin int.
    """
    if isinstance(v, np.floating):
        v = float(v)
    return repr(v) if isinstance(v, float) else str(v)


def _csv_line(values) -> str:
    """One CSV line of _csv_field texts."""
    return ",".join(map(_csv_field, values))


def sim_csv_header() -> str:
    return ",".join(("layer", "m", "sparsity", *_CSV_COLUMNS))


def sim_csv_row(layer_name: str, m: int, sparsity: float, rep: SimReport) -> str:
    return _csv_line((layer_name, m, sparsity, *(getattr(rep, f) for f in _CSV_COLUMNS.values())))
