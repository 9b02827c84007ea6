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
seed, so `simulate` and `dse` price repeated layer geometries once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bcoo import BcooMatrix
from .engine import (
    LayerSpec,
    block_matmul_sparse,
    matmul_streams,
    recursive_matmul,
)
from .layout import ZMortonMatrix, _block_extent, _grid_codes
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
    local_block_fetches: int = 0
    block_matmuls_executed: int = 0
    busy_cycles: list = field(default_factory=list)
    bandwidth_reduction_factor: float = 1.0
    operand_slots: int = 0
    steps_executed: int = 0
    decompress_stall_cycles: int = 0
    transform_cycles: int = 0
    matmul_cycles: int = 0
    inverse_cycles: int = 0
    waves: int = 0
    step_slots: list | None = None
    step_distinct: list | None = None

    @property
    def utilization(self) -> float:
        if not self.busy_cycles or self.total_cycles == 0:
            return 0.0
        return sum(self.busy_cycles) / (len(self.busy_cycles) * self.total_cycles)


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


def _fifo_misses(keys: list, capacity: int) -> np.ndarray:
    """Miss mask of one FIFO-replacement buffer over an access sequence.

    Only misses insert, so a key is still held iff at most `capacity`
    misses, its own included, have happened since its own last miss.
    """
    last_miss: dict = {}
    misses = 0
    out = []
    for key in keys:
        j = last_miss.get(key)
        if j is None or misses - j >= capacity:
            misses += 1
            last_miss[key] = misses
            out.append(True)
        else:
            out.append(False)
    return np.array(out, dtype=bool)


def _run_cluster_schedule(
    streams, cfg: ArchConfig, weights=None, collect_steps: bool = False
) -> SimReport:
    """Replay the lockstep streams through the cluster's operand FIFOs.

    `weights` is None for the dense datapath, or (ascending present weight
    codes, their nonzero counts) for the sparse one: only operations on a
    present weight run, weight misses pass the decompressor and the
    feature-map FIFO splits into one half-depth FIFO per column group.

    Streams are row-half major.  The streams of one row half share their
    weight codes (and so their activity), those of one column half their
    feature-map codes, and at every step half 0's code lies below half
    1's, so each step's distinct ascending codes need no sort.
    """
    issue = cfg.cycles_per_block_matmul_issue
    n_col_halves = 1 + max(s.col_half for s in streams)
    a = np.stack([s.a for s in streams[::n_col_halves]])
    b = np.stack([s.b for s in streams[:n_col_halves]])
    if weights is None:
        act = np.ones(a.shape, dtype=bool)
        fm_seq, fm_depth, fm_fifos = b.T.ravel(), cfg.fifo_depth, 1
    else:
        present, nnz = weights
        # A sentinel past the last code: codes are >= 0, so a code not present never matches.
        act = np.append(present, -1)[np.searchsorted(present, a)] == a
        # Both column-half FIFOs see one mask, and their codes differ by one
        # constant Morton bit, so they miss alike: replay one, count it per half.
        fm_seq, fm_depth, fm_fifos = b[0][act.any(axis=0)], cfg.fifo_depth // 2, n_col_halves

    seq = a.T[act.T]
    a_missed = seq[_fifo_misses(seq.tolist(), cfg.fifo_depth)]
    ext = len(a_missed) + fm_fifos * int(_fifo_misses(fm_seq.tolist(), fm_depth).sum())

    rows_active = act.sum(axis=0)
    ran = rows_active > 0
    n_active = n_col_halves * rows_active
    steps = int(ran.sum())
    macs = int(n_active.sum())
    slots = 2 * macs
    busy = [0] * 4
    busy[: len(streams)] = np.repeat(issue * act.sum(axis=1), n_col_halves).tolist()

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
        local_block_fetches=slots - ext,
        block_matmuls_executed=macs,
        busy_cycles=busy,
        bandwidth_reduction_factor=slots / ext if ext else 1.0,
        operand_slots=slots,
        steps_executed=steps,
        decompress_stall_cycles=stall,
        matmul_cycles=total,
        step_slots=(2 * n_active[ran]).tolist() if collect_steps else None,
        step_distinct=(rows_active + n_col_halves)[ran].tolist() if collect_steps else None,
    )


def _simulate_cluster(product, U, V: ZMortonMatrix, cfg: ArchConfig, weights, collect_steps):
    """(report, product) for U times V; the product's operand checks have run."""
    streams = matmul_streams(_block_extent(U.rows, U.l), _block_extent(U.cols, U.l), V.block_cols)
    return _run_cluster_schedule(streams, cfg, weights, collect_steps), product


def simulate_cluster_dense(
    U: ZMortonMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
):
    """Run one cluster over a dense block multiply.

    Returns (SimReport, product ZMortonMatrix); the product is numerically
    identical to recursive_matmul on the same operands.
    """
    return _simulate_cluster(recursive_matmul(U, V), U, V, cfg, None, collect_steps)


def simulate_cluster_sparse(
    U: BcooMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
):
    """Run one cluster over a sparse-weight block multiply.

    Only products whose weight block exists are scheduled; the memory
    access pattern follows the distribution of the stored blocks.
    """
    product = block_matmul_sparse(U, V)
    return _simulate_cluster(product, U, V, cfg, (U.bn, np.diff(U.bi)), collect_steps)


# ---------------------------------------------------------------------------
# whole-layer simulation


def _synthetic_present_codes(grid_codes: np.ndarray, sparsity: float, seed: int, pos: int):
    """Deterministic surviving-block choice; survivor sets nest as sparsity grows."""
    n = len(grid_codes)
    keep = int(round((1.0 - sparsity) * n))
    perm = np.random.default_rng((seed, pos)).permutation(n)
    return np.sort(grid_codes[perm[:keep]])


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
    """
    l = cfg.l
    mb, nb, pb = (_block_extent(n, l) for n in (K, C, P))
    streams = matmul_streams(mb, nb, pb)

    if sparsity > 0.0:
        grid_codes = _grid_codes(mb, nb)
        block_nnz = _synthetic_block_nnz(l, sparsity)
        reps = []
        for pos in range(l * l):
            present = _synthetic_present_codes(grid_codes, sparsity, seed, pos)
            nnz = np.full(len(present), block_nnz)
            reps.append(_run_cluster_schedule(streams, cfg, (present, nnz)))
    else:
        # Every dense position replays the same streams, so one replay serves all l^2.
        reps = [_run_cluster_schedule(streams, cfg)] * (l * l)

    cluster_cycles = [0] * cfg.clusters
    busy = [0] * (cfg.clusters * 4)
    ext = loc = slots = macs = steps = stall = 0
    for pos, rep in enumerate(reps):
        cluster = pos % cfg.clusters
        cluster_cycles[cluster] += rep.total_cycles
        for q, b in enumerate(rep.busy_cycles):
            busy[cluster * 4 + q] += b
        ext += rep.external_block_fetches
        loc += rep.local_block_fetches
        slots += rep.operand_slots
        macs += rep.block_matmuls_executed
        steps += rep.steps_executed
        stall += rep.decompress_stall_cycles

    matmul_stage = max(cluster_cycles)
    t_in = simulate_transform(C * P, cfg)
    t_out = simulate_transform(K * P, cfg)
    return SimReport(
        total_cycles=t_in.total_cycles + matmul_stage + t_out.total_cycles,
        external_block_fetches=ext,
        local_block_fetches=loc,
        block_matmuls_executed=macs,
        busy_cycles=busy,
        bandwidth_reduction_factor=slots / ext if ext else 1.0,
        operand_slots=slots,
        steps_executed=steps,
        decompress_stall_cycles=stall,
        transform_cycles=t_in.total_cycles,
        matmul_cycles=matmul_stage,
        inverse_cycles=t_out.total_cycles,
        waves=-(-(l * l) // cfg.clusters),
    )


# ---------------------------------------------------------------------------
# CSV emission

# CSV column -> SimReport field, after the layer, m and sparsity columns
_CSV_COLUMNS = {
    "cycles": "total_cycles",
    "ext_fetches": "external_block_fetches",
    "local_fetches": "local_block_fetches",
    "block_matmuls": "block_matmuls_executed",
    "bw_reduction": "bandwidth_reduction_factor",
}


def _csv_line(values) -> str:
    """One CSV line: floats by repr, so they read back exactly; the rest by str."""
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def sim_csv_header() -> str:
    return ",".join(("layer", "m", "sparsity", *_CSV_COLUMNS))


def sim_csv_row(layer_name: str, m: int, sparsity: float, rep: SimReport) -> str:
    return _csv_line((layer_name, m, sparsity, *(getattr(rep, f) for f in _CSV_COLUMNS.values())))
