"""Executable convolution numerics and the block-multiply schedule model.

Provides the direct-correlation oracle and dense and sparse Winograd
convolution.  Both Winograd front doors run one body: the input is
transformed once into an (l*l, C, P) stack and multiplied by the
(l*l, K, C) transformed weights in one batched matmul, the l*l
independent GEMMs of the Winograd split.  Alongside it sits the block
engine: the divide-and-conquer multiply over Z-Morton operands that the
systolic clusters execute.  The simulator replays its schedule, and
winograd_conv_blocks runs the convolution through it as an independent
reference.  The module also holds the layer and network descriptions.

Schedule order.  The recursive multiply halves every block dimension
greater than one until single l-by-l blocks remain.  Over power-of-two
block extents its depth-first order is a fixed bit order of one
operation counter: each recursion level adds, most significant first, a
bit of the output row, then of the output column, then of the inner
(shared) dimension, and a dimension adds no more bits once its extent is
used up.  The top row and column bits pick the top-level output quadrant
(one per systolic array, matmul_streams).  Moved down to just above the
trailing run of inner bits, they make the four quadrants advance in
lockstep, one accumulation statement each per turn (matmul_trace), which
for a 16x16 input (l = 4) starts

    C_0  += A_0 * B_0  + A_1 * B_2
    C_4  += A_0 * B_4  + A_1 * B_6
    C_8  += A_8 * B_0  + A_9 * B_2
    C_12 += A_8 * B_4  + A_9 * B_6

Per output block, the block engine accumulates contributions in
ascending order of the inner (shared) dimension, so its results are
reproducible regardless of how the independent multiplies are
dispatched.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bcoo import BcooMatrix, _decode_dense, _prune_dense, bcoo_encode
from .layout import (
    TransformedBatch,
    ZMortonMatrix,
    _block_extent,
    _filter_stack,
    _input_stack,
    _morton_encode_array,
    _output_extent,
    _tile_counts,
    assemble_output,
    extract_tiles,
    from_zmorton,
    scatter_to_matrices,
    to_zmorton,
    transform_tiles,
    zmorton_zeros,
)
from .plans import OpCounters, WinogradPlan, _charge

__all__ = [
    "LayerSpec",
    "PoolSpec",
    "FcSpec",
    "NetworkSpec",
    "MatmulStream",
    "matmul_streams",
    "matmul_trace",
    "direct_conv",
    "recursive_matmul",
    "block_matmul_sparse",
    "winograd_conv_dense",
    "winograd_conv_sparse",
    "winograd_conv_blocks",
    "compress_filters",
    "save_tensor",
    "load_tensor",
    "tensor_to_bytes",
    "tensor_from_bytes",
]


# ---------------------------------------------------------------------------
# layer and network descriptions


@dataclass(frozen=True)
class LayerSpec:
    """Convolution layer geometry.  The Winograd path requires stride 1."""

    name: str
    H: int
    W: int
    C: int
    K: int
    r: int = 3
    pad: int = 1
    stride: int = 1

    def __post_init__(self):
        if min(self.H, self.W, self.C, self.K) < 1:
            raise ValueError(f"{self.name}: extents must be positive")
        if self.r % 2 == 0:
            raise ValueError(f"{self.name}: filter width must be odd")
        try:
            self._out_extent()
        except ValueError as exc:
            raise ValueError(f"{self.name}: {exc}") from None

    def _out_extent(self) -> tuple[int, int]:
        return _output_extent(self.H, self.W, self.r, self.pad, self.stride)

    @property
    def out_h(self) -> int:
        return self._out_extent()[0]

    @property
    def out_w(self) -> int:
        return self._out_extent()[1]

    def tile_counts(self, m: int) -> tuple[int, int]:
        return _tile_counts(*self._out_extent(), m)


@dataclass(frozen=True)
class PoolSpec:
    """2x2 stride-2 max-pooling marker; parsed and kept, never executed."""

    name: str = "pool"


@dataclass(frozen=True)
class FcSpec:
    """Fully-connected layer marker; parsed and kept, never executed."""

    name: str
    in_features: int
    out_features: int


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered conv layers plus pooling/FC markers."""

    items: tuple

    def conv_layers(self) -> list[LayerSpec]:
        return [it for it in self.items if isinstance(it, LayerSpec)]


# ---------------------------------------------------------------------------
# block-multiply schedule


@dataclass(frozen=True)
class MatmulStream:
    """One top-level output quadrant's depth-first block-operation stream."""

    col_half: int
    c: np.ndarray  # Morton codes of the output block per operation
    a: np.ndarray  # Morton codes of the left operand block
    b: np.ndarray  # Morton codes of the right operand block


_ROW, _INNER, _COL = range(3)


def _order_bits(mb: int, nb: int, pb: int) -> list[tuple[int, int]]:
    """(dimension, bit) of each operation-counter bit, most significant first.

    Each recursion level halves the row, then the column, then the inner
    block range; a dimension whose extent is used up adds no more bits.
    """
    extents = (mb, nb, pb)  # indexed by _ROW, _INNER, _COL
    for extent, label in zip(extents, ("rows", "inner", "cols")):
        if extent < 1 or extent & (extent - 1):
            raise ValueError(f"block {label} count {extent} is not a power of two")
    widths = [int(extent).bit_length() - 1 for extent in extents]
    return [
        (dim, widths[dim] - 1 - level)
        for level in range(max(widths))
        for dim in (_ROW, _COL, _INNER)
        if level < widths[dim]
    ]


def _schedule_codes(order) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Morton (c, a, b) codes of every counter value, its bits placed per `order`."""
    ops = np.arange(1 << len(order), dtype=np.int64)
    coords = np.zeros((3, len(ops)), dtype=np.int64)
    for shift, (dim, bit) in enumerate(reversed(order)):
        coords[dim] |= ((ops >> shift) & 1) << bit
    row, inner, col = coords
    return (
        _morton_encode_array(row, col),
        _morton_encode_array(row, inner),
        _morton_encode_array(inner, col),
    )


@lru_cache(maxsize=64)
def matmul_streams(mb: int, nb: int, pb: int) -> tuple[MatmulStream, ...]:
    """Streams for an (mb x nb) by (nb x pb) block-grid multiply.

    All grid extents must be powers of two.  The top row and column bits
    of the counter pick the top-level output quadrant, so each quadrant is
    one contiguous chunk; those chunks are the per-systolic-array streams
    and advance in lockstep.
    """
    n_col_halves = 2 if pb > 1 else 1
    n_streams = (2 if mb > 1 else 1) * n_col_halves
    codes = _schedule_codes(_order_bits(mb, nb, pb))
    chunks = zip(*(np.split(code, n_streams) for code in codes))
    return tuple(
        MatmulStream(col_half=q % n_col_halves, c=c, a=a, b=b) for q, (c, a, b) in enumerate(chunks)
    )


@lru_cache(maxsize=64)
def matmul_trace(mb: int, nb: int, pb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unrolled (c, a, b) block-operation sequence, statement-interleaved.

    Statements (runs of operations accumulating into one output block)
    rotate round-robin across the top-level quadrant streams, reproducing
    the order block memory is visited: the quadrant bits move from the top
    of the counter to just above its trailing run of inner bits.
    """
    order = _order_bits(mb, nb, pb)
    n_quadrant = (mb > 1) + (pb > 1)
    rest = order[n_quadrant:]
    split = len(rest)
    while split and rest[split - 1][0] == _INNER:
        split -= 1
    return _schedule_codes(rest[:split] + order[:n_quadrant] + rest[split:])


# ---------------------------------------------------------------------------
# block matrix multiplication


_EXEC_CHUNK = 1 << 15


def _block_grid(A, B: ZMortonMatrix) -> tuple[int, int, int]:
    """Padded (row, inner, column) block extents of A times B; ValueError unless they conform."""
    if A.l != B.l:
        raise ValueError(f"block sides differ: {A.l} vs {B.l}")
    if A.cols != B.rows:
        raise ValueError(f"inner dimensions differ: {A.cols} vs {B.rows}")
    return _block_extent(A.rows, A.l), _block_extent(A.cols, A.l), B.block_cols


def _block_matmul(A, codes, stack, B: ZMortonMatrix, entries, rows_hit, counters, trace):
    """Block multiply of A, whose blocks `stack` sit at ascending Morton `codes`, by B.

    Operations whose A block is absent are skipped; a dense A has every
    block present.  Per output block, np.add.at applies the addends in
    schedule order, which keeps the accumulation deterministic.
    """
    cc, aa, bb = matmul_trace(*_block_grid(A, B))
    ranks = np.searchsorted(codes, aa)
    # A sentinel past the last code: codes are >= 0, so an absent code never matches.
    present = np.append(codes, -1)[ranks] == aa
    cc, aa, bb, ranks = cc[present], aa[present], bb[present], ranks[present]
    if trace is not None:
        trace.extend(zip(cc.tolist(), aa.tolist(), bb.tolist()))
    out = zmorton_zeros(A.rows, B.cols, A.l)
    rc, rb = out.ranks_of(cc), B.ranks_of(bb)
    for lo in range(0, len(rc), _EXEC_CHUNK):
        hi = lo + _EXEC_CHUNK
        np.add.at(out.blocks, rc[lo:hi], np.matmul(stack[ranks[lo:hi]], B.blocks[rb[lo:hi]]))
    _charge(counters, entries, rows_hit, B.cols)
    return out


def recursive_matmul(
    A: ZMortonMatrix,
    B: ZMortonMatrix,
    counters: OpCounters | None = None,
    trace: list | None = None,
) -> ZMortonMatrix:
    """Divide-and-conquer block multiply over Z-Morton operands.

    Numerically equal to the dense product of the logical matrices; block
    memory is visited in the unrolled schedule order (pass `trace` to
    collect the (c, a, b) Morton-code triples).  Counters charge every
    logical entry of A.
    """
    return _block_matmul(A, A.block_codes, A.blocks, B, A.rows * A.cols, A.rows, counters, trace)


def block_matmul_sparse(
    U: BcooMatrix,
    V: ZMortonMatrix,
    counters: OpCounters | None = None,
    trace: list | None = None,
) -> ZMortonMatrix:
    """Sparse-left block multiply: products whose U block is absent are skipped.

    Equal to recursive_matmul on the decoded U, since skipped products are
    exactly zero.  Counters charge stored nonzeros only.  Raises
    BcooFormatError unless U is a well-formed BCOO matrix.
    """
    brow, _ = U._nonzero_blocks()
    rows_hit = len(np.unique(brow * U.l + U.ai))
    return _block_matmul(U, U.bn, U.block_stack(), V, U.nnz, rows_hit, counters, trace)


# ---------------------------------------------------------------------------
# convolution paths


def direct_conv(
    fm: np.ndarray,
    filters: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Literal triple-sum correlation: Y[k,i,j] = sum_{t,p,q} G[k,t,p,q] * D[t,i*s+p,j*s+q]."""
    fm = np.asarray(fm, dtype=float)
    filters = np.asarray(filters, dtype=float)
    C, H, W = fm.shape
    K, Cf, r, r2 = filters.shape
    if Cf != C or r != r2:
        raise ValueError("filter bank does not match the feature map")
    if K < 1:
        raise ValueError(f"filter bank needs K >= 1, got K={K}")
    oh, ow = _output_extent(H, W, r, pad, stride)
    padded = np.zeros((C, H + 2 * pad, W + 2 * pad))
    padded[:, pad : pad + H, pad : pad + W] = fm
    win = np.lib.stride_tricks.sliding_window_view(padded, (r, r), axis=(1, 2))
    win = win[:, ::stride, ::stride][:, :oh, :ow]
    out = np.einsum("chwpq,kcpq->khw", win, filters)
    _charge(counters, K * C * r * r, K, oh * ow)
    return out


def transform_input_batch(fm, plan: WinogradPlan, pad: int) -> TransformedBatch:
    """The l*l transformed C-by-P input matrices, as Z-Morton block operands."""
    tiles = extract_tiles(fm, plan, pad)
    return scatter_to_matrices(transform_tiles(plan, tiles))


def _winograd_conv(fm, U, plan, pad, counters, nnz, rows_hit):
    """Convolve with an (l*l, K, C) transformed weight stack as l*l batched GEMMs.

    `nnz` and `rows_hit` are the weight entries and weight rows the
    counters charge (see _charge).
    """
    fm = np.asarray(fm, dtype=float)
    C, H, W = fm.shape
    if U.shape[2] != C:
        raise ValueError(f"weights expect {U.shape[2]} channels, input has {C}")
    out_h, out_w = _output_extent(H, W, plan.r, pad)
    tiles = extract_tiles(fm, plan, pad)
    _, th, tw, l, _ = tiles.shape
    V = _input_stack(transform_tiles(plan, tiles))
    K, P = U.shape[1], th * tw
    _charge(counters, nnz, rows_hit, P)
    mats = np.matmul(U, V).reshape(l, l, K, P)
    return assemble_output(mats, plan, K, out_h, out_w, counters=counters)


def _check_records(u_sparse, l: int) -> tuple[int, int]:
    """(K, C) of l*l weight records of block side l and one shape; else ValueError."""
    if len(u_sparse) != l * l:
        raise ValueError(f"expected {l * l} sparse weight matrices, got {len(u_sparse)}")
    K, C = u_sparse[0].rows, u_sparse[0].cols
    for p, u in enumerate(u_sparse):
        if u.l != l:
            raise ValueError(f"weight matrix at position {p} has block side {u.l}, plan needs l={l}")
        if (u.rows, u.cols) != (K, C):
            raise ValueError(f"weight matrix at position {p} is {u.rows}x{u.cols}, position 0 is {K}x{C}")
    return K, C


def winograd_conv_dense(
    fm: np.ndarray,
    filters: np.ndarray,
    plan: WinogradPlan,
    pad: int = 0,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Winograd convolution via l*l dense GEMMs; equals direct_conv."""
    U = _filter_stack(filters, plan)
    return _winograd_conv(fm, U, plan, pad, counters, U.size, U.shape[0] * U.shape[1])


def winograd_conv_sparse(
    fm: np.ndarray,
    u_sparse,
    plan: WinogradPlan,
    pad: int = 0,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Winograd convolution with pre-transformed, pruned, BCOO-compressed weights.

    `u_sparse` is the sequence of l*l BcooMatrix weight matrices (K-by-C
    each) in (i, j) row-major position order.  Counters charge stored
    nonzeros only.
    """
    K, C = _check_records(u_sparse, plan.l)
    U = np.zeros((len(u_sparse), K, C))
    for u, dense in zip(u_sparse, U):
        _decode_dense(u, dense)
    nnz = np.count_nonzero(U)
    rows_hit = np.count_nonzero(U.any(axis=2))
    return _winograd_conv(fm, U, plan, pad, counters, nnz, rows_hit)


def winograd_conv_blocks(fm: np.ndarray, u_sparse, plan: WinogradPlan, pad: int = 0) -> np.ndarray:
    """Reference for winograd_conv_sparse through the block engine.

    Each position runs block_matmul_sparse over Z-Morton operands, the
    schedule the simulator models, so it shares no multiply code with the
    batched path.
    """
    K, _ = _check_records(u_sparse, plan.l)
    fm = np.asarray(fm, dtype=float)
    vb = transform_input_batch(fm, plan, pad)
    mats = np.stack([from_zmorton(block_matmul_sparse(u, v)) for u, v in zip(u_sparse, vb)])
    out_h, out_w = _output_extent(fm.shape[1], fm.shape[2], plan.r, pad)
    return assemble_output(mats.reshape(plan.l, plan.l, K, -1), plan, K, out_h, out_w)


def compress_filters(filters, plan: WinogradPlan, target_sparsity: float):
    """Transform, magnitude-prune, and BCOO-encode a filter bank.

    Returns (pruned TransformedBatch, list of BcooMatrix, achieved sparsity).
    """
    U = _filter_stack(filters, plan)
    for dense in U:
        _prune_dense(dense, target_sparsity)
    pruned = TransformedBatch(l=plan.l, mats=[to_zmorton(dense, plan.l) for dense in U])
    encoded = [bcoo_encode(mat) for mat in pruned]
    total = sum(mat.rows * mat.cols for mat in pruned)
    nnz = sum(enc.nnz for enc in encoded)
    achieved = 1.0 - nnz / total if total else 1.0
    return pruned, encoded, achieved


# ---------------------------------------------------------------------------
# dense tensor container: int64 ndim, int64 shape[ndim], float64 data (C order)


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=float)
    head = struct.pack("<q", arr.ndim) + struct.pack(f"<{arr.ndim}q", *arr.shape)
    return head + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def tensor_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 8:
        raise ValueError("truncated tensor header")
    (ndim,) = struct.unpack_from("<q", buf, 0)
    if ndim < 0 or len(buf) < 8 + 8 * ndim:
        raise ValueError("malformed tensor header")
    shape = struct.unpack_from(f"<{ndim}q", buf, 8)
    if any(dim < 0 for dim in shape):
        raise ValueError(f"negative tensor dimension in shape {shape}")
    count = math.prod(shape)
    if len(buf) != 8 + 8 * ndim + 8 * count:
        raise ValueError(f"tensor payload is {len(buf) - 8 - 8 * ndim} bytes, shape {shape} needs {8 * count}")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=8 + 8 * ndim)
    return data.reshape(shape).copy()


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
