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
produce identical reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bcoo import BcooMatrix
from .engine import (
    LayerSpec,
    block_matmul_sparse,
    matmul_streams,
    recursive_matmul,
)
from .layout import ZMortonMatrix, _grid_codes, _next_pow2
from .plans import WinogradPlan

__all__ = [
    "ArchConfig",
    "SimReport",
    "simulate_transform",
    "transform_tiles_two_pass",
    "simulate_cluster_dense",
    "simulate_cluster_sparse",
    "simulate_layer",
    "sim_csv_header",
    "sim_csv_row",
]


@dataclass
class ArchConfig:
    """Architecture geometry and cycle-cost constants.

    Cost constants default from the array side l: a block multiply issues
    every l cycles, the array pipeline fills in 2(l-1), and one transform
    pass costs l + 2(l-1).  All are overridable.
    """

    l: int = 4
    clusters: int = 8
    transform_arrays: int = 16
    fifo_depth: int = 8
    cycles_per_block_matmul_issue: int | None = None
    pipeline_fill: int | None = None
    transform_pass_cycles: int | None = None
    decompress_cycles_per_nnz: int = 1

    def __post_init__(self):
        if min(self.l, self.clusters, self.transform_arrays, self.fifo_depth) < 1:
            raise ValueError("all architecture counts must be >= 1")
        if self.cycles_per_block_matmul_issue is None:
            self.cycles_per_block_matmul_issue = self.l
        if self.pipeline_fill is None:
            self.pipeline_fill = 2 * (self.l - 1)
        if self.transform_pass_cycles is None:
            self.transform_pass_cycles = self.l + 2 * (self.l - 1)


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
    transform_multiplications: int = 0
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


class _FifoCache:
    """FIFO-replacement cache of block codes (one circular FIFO)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._queue: deque = deque()
        self._members: set = set()

    def access(self, key) -> bool:
        """True on hit (local supply), False on miss (external load)."""
        if key in self._members:
            return True
        if self.capacity <= 0:
            return False
        if len(self._queue) == self.capacity:
            self._members.discard(self._queue.popleft())
        self._queue.append(key)
        self._members.add(key)
        return False


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
        transform_multiplications=0,
    )


def transform_tiles_two_pass(plan: WinogradPlan, tiles: np.ndarray) -> np.ndarray:
    """Functional two-pass transform.

    Pass 1 streams D^T against the stationary matrix and emits the result
    transposed, i.e. the value Bt . D; pass 2 feeds that back and appends
    the trailing . B.  The composition equals transform_input_tile for
    every tile.
    """
    pass1 = plan.Bt @ tiles
    return pass1 @ plan.Bt.T


# ---------------------------------------------------------------------------
# cluster matmul stage


def _run_cluster_schedule(
    streams,
    active_masks,
    cfg: ArchConfig,
    sparse_mode: bool,
    u_nnz_lookup,
    collect_steps: bool,
) -> SimReport:
    issue = cfg.cycles_per_block_matmul_issue
    n_streams = len(streams)
    n_steps = len(streams[0].c) if n_streams else 0
    a_cols = [s.a.tolist() for s in streams]
    b_cols = [s.b.tolist() for s in streams]
    col_groups = [s.col_half for s in streams]

    a_fifo = _FifoCache(cfg.fifo_depth)
    if sparse_mode:
        b_fifos = {g: _FifoCache(cfg.fifo_depth // 2) for g in set(col_groups)}
    else:
        b_shared = _FifoCache(cfg.fifo_depth)

    ext = loc = slots = macs = steps = 0
    decomp = 0
    busy = [0] * max(4, n_streams)
    step_slots = [] if collect_steps else None
    step_distinct = [] if collect_steps else None

    if active_masks is None:
        step_iter = range(n_steps)
    else:
        any_active = np.zeros(n_steps, dtype=bool)
        for mask in active_masks:
            any_active |= mask
        step_iter = np.flatnonzero(any_active).tolist()

    for p in step_iter:
        if active_masks is None:
            active = range(n_streams)
        else:
            active = [q for q in range(n_streams) if active_masks[q][p]]
        steps += 1
        n_active = len(active) if active_masks is not None else n_streams
        slots += 2 * n_active
        macs += n_active
        distinct_this_step = 0

        # weight (left operand) side: one shared FIFO
        a_counts: dict = {}
        for q in active:
            code = a_cols[q][p]
            a_counts[code] = a_counts.get(code, 0) + 1
            busy[q] += issue
        for code in sorted(a_counts):
            distinct_this_step += 1
            if a_fifo.access(code):
                loc += 1
            else:
                ext += 1
                if sparse_mode:
                    decomp += u_nnz_lookup(code) * cfg.decompress_cycles_per_nnz
            loc += a_counts[code] - 1

        # feature-map (right operand) side
        if sparse_mode:
            group_counts: dict = {}
            for q in active:
                key = (col_groups[q], b_cols[q][p])
                group_counts[key] = group_counts.get(key, 0) + 1
            for group, code in sorted(group_counts):
                distinct_this_step += 1
                if b_fifos[group].access(code):
                    loc += 1
                else:
                    ext += 1
                loc += group_counts[(group, code)] - 1
        else:
            b_counts: dict = {}
            for q in active:
                code = b_cols[q][p]
                b_counts[code] = b_counts.get(code, 0) + 1
            for code in sorted(b_counts):
                distinct_this_step += 1
                if b_shared.access(code):
                    loc += 1
                else:
                    ext += 1
                loc += b_counts[code] - 1

        if collect_steps:
            step_slots.append(2 * n_active)
            step_distinct.append(distinct_this_step)

    compute = steps * issue
    if macs == 0:
        total = 0
        stall = 0
    else:
        if sparse_mode:
            stall = max(0, decomp - compute) if cfg.fifo_depth >= 2 else decomp
        else:
            stall = 0
        total = cfg.pipeline_fill + compute + stall

    return SimReport(
        total_cycles=total,
        external_block_fetches=ext,
        local_block_fetches=loc,
        block_matmuls_executed=macs,
        busy_cycles=busy[:4] if n_streams <= 4 else busy,
        bandwidth_reduction_factor=slots / ext if ext else 1.0,
        operand_slots=slots,
        steps_executed=steps,
        decompress_stall_cycles=stall,
        matmul_cycles=total,
        step_slots=step_slots,
        step_distinct=step_distinct,
    )


def simulate_cluster_dense(
    U: ZMortonMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
):
    """Run one cluster over a dense block multiply.

    Returns (SimReport, product ZMortonMatrix); the product is numerically
    identical to recursive_matmul on the same operands.
    """
    if U.cols != V.rows:
        raise ValueError(f"inner dimensions differ: {U.cols} vs {V.rows}")
    streams = matmul_streams(U.block_rows, U.block_cols, V.block_cols)
    report = _run_cluster_schedule(streams, None, cfg, False, None, collect_steps)
    return report, recursive_matmul(U, V)


def simulate_cluster_sparse(
    U: BcooMatrix, V: ZMortonMatrix, cfg: ArchConfig, collect_steps: bool = False
):
    """Run one cluster over a sparse-weight block multiply.

    Only products whose weight block exists are scheduled; the memory
    access pattern follows the distribution of the stored blocks.
    """
    U.validate()
    if U.cols != V.rows:
        raise ValueError(f"inner dimensions differ: {U.cols} vs {V.rows}")
    mb = _next_pow2(-(-U.rows // U.l))
    nb = _next_pow2(-(-U.cols // U.l))
    streams = matmul_streams(mb, nb, V.block_cols)
    masks = [np.isin(s.a, U.bn) for s in streams]
    nnz_by_code = dict(zip(U.bn.tolist(), np.diff(U.bi).tolist()))
    report = _run_cluster_schedule(
        streams, masks, cfg, True, lambda code: nnz_by_code[code], collect_steps
    )
    return report, block_matmul_sparse(U, V)


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
    decompressors) is modelled.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must lie in [0, 1]")
    if cfg.l != plan.l:
        raise ValueError(f"architecture block side {cfg.l} != plan l={plan.l}")
    l = plan.l
    th, tw = layer.tile_counts(plan.m)
    P = th * tw
    mb = _next_pow2(-(-layer.K // l))
    nb = _next_pow2(-(-layer.C // l))
    pb = _next_pow2(-(-P // l))
    streams = matmul_streams(mb, nb, pb)
    grid_codes = _grid_codes(mb, nb)

    sparse_mode = sparsity > 0.0
    block_nnz = _synthetic_block_nnz(l, sparsity)
    cluster_cycles = [0] * cfg.clusters
    busy = [0] * (cfg.clusters * 4)
    ext = loc = slots = macs = steps = stall = 0

    for pos in range(l * l):
        cluster = pos % cfg.clusters
        if sparse_mode:
            present = _synthetic_present_codes(grid_codes, sparsity, seed, pos)
            masks = [np.isin(s.a, present) for s in streams]
        else:
            masks = None
        rep = _run_cluster_schedule(
            streams, masks, cfg, sparse_mode, (lambda code: block_nnz), False
        )
        cluster_cycles[cluster] += rep.total_cycles
        for q, b in enumerate(rep.busy_cycles[:4]):
            busy[cluster * 4 + q] += b
        ext += rep.external_block_fetches
        loc += rep.local_block_fetches
        slots += rep.operand_slots
        macs += rep.block_matmuls_executed
        steps += rep.steps_executed
        stall += rep.decompress_stall_cycles

    matmul_stage = max(cluster_cycles)
    t_in = simulate_transform(layer.C * P, cfg)
    t_out = simulate_transform(layer.K * P, cfg)
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

_CSV_FIELDS = "layer,m,sparsity,cycles,ext_fetches,local_fetches,block_matmuls,bw_reduction"


def sim_csv_header() -> str:
    return _CSV_FIELDS


def sim_csv_row(layer_name: str, m: int, sparsity: float, rep: SimReport) -> str:
    return (
        f"{layer_name},{m},{sparsity!r},{rep.total_cycles},"
        f"{rep.external_block_fetches},{rep.local_block_fetches},"
        f"{rep.block_matmuls_executed},{rep.bandwidth_reduction_factor!r}"
    )
