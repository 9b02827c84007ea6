"""Blocked tensor layouts.

Feature maps are arrays of shape (C, H, W) and filter banks (K, C, r, r).
Matrices destined for the block engine are stored as ZMortonMatrix: l-by-l
dense blocks ordered along the Z-order curve, with the physical block
address formed by interleaving the bits of the logical block row and
column (column bits in even positions, row bits in odd positions).

Each axis is zero-padded so that the number of blocks along it is a power
of two; padding never leaks into logical reads.

Winograd tile stacks are position-major: from tile extraction to the
inverse transform they have shape (l, l, C, tiles_h, tiles_w), the l-by-l
transform positions outermost, so each per-position matrix is one
contiguous slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .plans import OpCounters, WinogradPlan

__all__ = [
    "morton_encode",
    "morton_decode",
    "ZMortonMatrix",
    "to_zmorton",
    "from_zmorton",
    "zmorton_zeros",
    "extract_tiles",
    "transform_tiles",
    "TransformedBatch",
    "scatter_to_matrices",
    "gather_filters",
    "assemble_output",
]

_AXIS_BITS = 16
_AXIS_LIMIT = 1 << _AXIS_BITS
# Entries of one padded Z-Morton grid (2 GiB of float64).
_GRID_LIMIT = 1 << 28


def _axis_width(extent: int, label: str) -> int:
    """Bits of a power-of-two block extent that fits a Morton axis; else ValueError."""
    if extent < 1 or extent & (extent - 1):
        raise ValueError(f"block {label} count {extent} is not a power of two")
    if extent > _AXIS_LIMIT:
        raise ValueError(f"block coordinates must lie in [0, 2**{_AXIS_BITS})")
    return int(extent).bit_length() - 1


def _morton_weight(hi: int, lo: int):
    """_placed weight of a Morton code: bit k of dimension `hi` goes to bit 2k+1, of `lo` to 2k."""
    return lambda dim, bit: (2 << 2 * bit) if dim == hi else (1 << 2 * bit) if dim == lo else 0


def _placed(order, weight, dtype=np.int64) -> np.ndarray:
    """For each counter in arange(2**len(order)), the OR of weight(dim, bit) over its set bits.

    order lists the (dim, bit) each counter bit stands for, most significant
    first; weights must not overlap.  One outer OR per 8-bit table builds
    it.  Read-only, as the memos built on it share it with every caller.
    """
    out = np.zeros(1, dtype)
    for lo in range(0, len(order), 8):
        table = np.zeros(1, dtype)
        for dim, bit in order[lo : lo + 8]:
            table = np.bitwise_or.outer(table, np.array((0, weight(dim, bit)), dtype)).ravel()
        out = np.bitwise_or.outer(out, table).ravel()
    out.setflags(write=False)
    return out


# Every byte, its bits spread to the even bit positions
_SPREAD_BYTE = _placed([(0, bit) for bit in range(7, -1, -1)], lambda _, bit: 1 << 2 * bit)


@lru_cache(maxsize=1)
def _compact_table() -> np.ndarray:
    """Every 16-bit code, decoded: its column bits in bits 0-7, its row bits in bits 16-23; read-only."""
    # code bit b holds row bit b // 2 when b is odd, else column bit b // 2
    return _placed([(0, b) for b in range(15, -1, -1)], lambda _, b: 1 << (16 + b // 2) if b & 1 else 1 << (b // 2))


def morton_encode(block_row: int, block_col: int) -> int:
    """Bit-interleaved block address: column bits even, row bits odd."""
    return int(_morton_encode_array(block_row, block_col))


def morton_decode(index: int) -> tuple[int, int]:
    """Inverse of morton_encode."""
    rows, cols = _morton_decode_array(index)
    return int(rows), int(cols)


def _morton_encode_array(rows, cols):
    """Morton codes of (row, col) block coordinates; refuses to alias."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if np.any((rows | cols) >> _AXIS_BITS):  # a negative coordinate sets the high bits too
        raise ValueError(f"block coordinates must lie in [0, 2**{_AXIS_BITS})")
    low = (_SPREAD_BYTE[rows & 0xFF] << 1) | _SPREAD_BYTE[cols & 0xFF]
    return (((_SPREAD_BYTE[rows >> 8] << 1) | _SPREAD_BYTE[cols >> 8]) << 16) | low


def _morton_decode_array(codes):
    """(rows, cols) block coordinates of Morton codes; refuses to alias."""
    codes = np.asarray(codes)
    if (codes >> (2 * _AXIS_BITS)).any():
        raise ValueError(f"morton index must lie in [0, 2**{2 * _AXIS_BITS})")
    table = _compact_table()
    both = table[codes & 0xFFFF] | (table[codes >> 16] << 8)
    return both >> 16, both & 0xFFFF


def _block_extent(n: int, l: int) -> int:
    """Blocks of side l along an axis of n, rounded up to a power of two (1 when n = 0)."""
    blocks = -(-n // l)
    p = 1
    while p < blocks:
        p <<= 1
    return p


@dataclass
class ZMortonMatrix:
    """A rows-by-cols matrix stored as l-by-l blocks in Morton order.

    `blocks` holds the (n_blocks, l, l) data of all grid blocks, in the
    order of `block_codes`, their sorted Morton codes (for a non-square
    block grid the codes are not contiguous).  Treat instances as
    immutable once built; they are then safe to share across threads.
    """

    rows: int
    cols: int
    l: int
    blocks: np.ndarray

    @property
    def block_codes(self) -> np.ndarray:
        return _grid_codes(self.block_rows, self.block_cols)

    @property
    def block_rows(self) -> int:
        return _block_extent(self.rows, self.l)

    @property
    def block_cols(self) -> int:
        return _block_extent(self.cols, self.l)

    @property
    def padded_rows(self) -> int:
        return self.block_rows * self.l

    @property
    def padded_cols(self) -> int:
        return self.block_cols * self.l

    def ranks_of(self, codes) -> np.ndarray:
        """Positions of the given Morton codes in the stored block sequence."""
        return np.searchsorted(self.block_codes, codes)


@lru_cache(maxsize=64)
def _grid_codes(block_rows: int, block_cols: int) -> np.ndarray:
    """Sorted Morton codes of a power-of-two block grid; read-only, as the cache shares it."""
    widths = (_axis_width(block_rows, "rows"), _axis_width(block_cols, "cols"))
    # the counter takes the bits in code order, so the codes come out ascending
    order = [(dim, k) for k in reversed(range(max(widths))) for dim in (0, 1) if k < widths[dim]]
    return _placed(order, _morton_weight(0, 1))


@lru_cache(maxsize=64)
def _grid_coords(block_rows: int, block_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """(block rows, block columns) of _grid_codes, in its order; read-only, as the cache shares them."""
    coords = _morton_decode_array(_grid_codes(block_rows, block_cols))
    for c in coords:
        c.setflags(write=False)
    return coords


@lru_cache(maxsize=16)
def _morton_order(block_rows: int, block_cols: int, l: int) -> np.ndarray:
    """Row-major index into the padded matrix of every entry, in Morton block order; read-only, as the cache shares it."""
    brow, bcol = _grid_coords(block_rows, block_cols)
    side = np.arange(l)
    row_start = (brow[:, None] * l + side) * (block_cols * l)  # (n_blocks, l): each block row's first entry
    order = (row_start[:, :, None] + (bcol[:, None] * l + side)[:, None, :]).ravel()
    order.setflags(write=False)
    return order


def _grid_extents(rows: int, cols: int, l: int) -> tuple[int, int]:
    """(block rows, block cols) of a rows-by-cols matrix; ValueError if its padded grid exceeds _GRID_LIMIT entries."""
    if l < 1:
        raise ValueError("block side must be >= 1")
    nbr = _block_extent(rows, l)
    nbc = _block_extent(cols, l)
    if nbr * nbc * l * l > _GRID_LIMIT:
        raise ValueError(
            f"{nbr}x{nbc} grid of {l}x{l} blocks holds {nbr * nbc * l * l} entries, "
            f"over the limit of 2**{_GRID_LIMIT.bit_length() - 1}"
        )
    return nbr, nbc


def to_zmorton(dense, l: int) -> ZMortonMatrix:
    """Pack a row-major matrix into Morton-ordered l-by-l blocks (a fresh copy, never a view)."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = dense.shape
    nbr, nbc = _grid_extents(rows, cols, l)
    if (rows, cols) != (nbr * l, nbc * l):
        padded = np.zeros((nbr * l, nbc * l))
        padded[:rows, :cols] = dense
        dense = padded
    blocks = dense.ravel().take(_morton_order(nbr, nbc, l)).reshape(-1, l, l)
    return ZMortonMatrix(rows=rows, cols=cols, l=l, blocks=blocks)


def _block_coords(zm: ZMortonMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(block rows, block columns) of zm's blocks; ValueError unless the blocks fill its grid."""
    l = zm.l
    nbr, nbc = zm.block_rows, zm.block_cols
    brow, bcol = _grid_coords(nbr, nbc)
    if zm.blocks.shape != (len(brow), l, l):
        raise ValueError(f"{zm.blocks.shape} block stack does not fill a {nbr}x{nbc} grid of {l}x{l} blocks")
    return brow, bcol


def from_zmorton(zm: ZMortonMatrix) -> np.ndarray:
    """Recover the logical row-major matrix (padding dropped) in a fresh array."""
    l = zm.l
    nbr, nbc = zm.block_rows, zm.block_cols
    _block_coords(zm)  # ValueError unless the blocks fill the grid
    grid = np.empty(nbr * l * nbc * l)  # every entry is written below
    grid[_morton_order(nbr, nbc, l)] = zm.blocks.ravel()
    return grid.reshape(nbr * l, nbc * l)[: zm.rows, : zm.cols]


def zmorton_zeros(rows: int, cols: int, l: int) -> ZMortonMatrix:
    """An all-zero rows-by-cols matrix; ValueError if its padded grid exceeds _GRID_LIMIT entries."""
    codes = _grid_codes(*_grid_extents(rows, cols, l))  # ValueError past the Morton axis, too
    return ZMortonMatrix(rows=rows, cols=cols, l=l, blocks=np.zeros((len(codes), l, l)))


def _output_extent(H: int, W: int, r: int, pad: int = 0, stride: int = 1) -> tuple[int, int]:
    """(out_h, out_w) of an r-by-r correlation at `stride` over an H-by-W map padded by `pad`."""
    if pad < 0:
        raise ValueError("pad must be >= 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    out_h, out_w = ((n + 2 * pad - r) // stride + 1 for n in (H, W))
    if out_h < 1 or out_w < 1:
        raise ValueError(f"non-positive output extent {out_h}x{out_w}")
    return out_h, out_w


def _tile_counts(out_h: int, out_w: int, m: int) -> tuple[int, int]:
    """(tiles_h, tiles_w): m-by-m output tiles covering an out_h-by-out_w output."""
    return tuple(-(-n // m) for n in (out_h, out_w))


def extract_tiles(fm: np.ndarray, plan: WinogradPlan, pad: int = 0) -> np.ndarray:
    """Overlapped l-by-l tiles at stride m over the zero-padded input.

    Returns a contiguous (l, l, C, tiles_h, tiles_w) array: entry
    (i, j, c, x, y) is element (i, j) of channel c's tile (x, y).  Adjacent
    tiles overlap by r - 1; reads past the padded input are zero.
    """
    fm = np.asarray(fm, dtype=float)
    C, H, W = fm.shape
    m, l = plan.m, plan.l
    th, tw = _tile_counts(*_output_extent(H, W, plan.r, pad), m)
    padded = np.zeros((C, (th - 1) * m + l, (tw - 1) * m + l))
    padded[:, pad : pad + H, pad : pad + W] = fm
    win = np.lib.stride_tricks.sliding_window_view(padded, (l, l), axis=(1, 2))
    return np.ascontiguousarray(win[:, ::m, ::m][:, :th, :tw].transpose(3, 4, 0, 1, 2))


def _add_term(acc: np.ndarray, first: bool, coef: float, x: np.ndarray, scratch: np.ndarray) -> None:
    """acc + coef * x into acc, reading acc as +0.0 when first; unless coef is +-1, |coef| * x goes through scratch."""
    if abs(coef) != 1.0:
        x = np.multiply(x, abs(coef), out=scratch)
    (np.add if coef > 0 else np.subtract)(0.0 if first else acc, x, out=acc)


def _sandwich(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M . X . M.T over the two leading axes of X, as two 1-D passes: out[a, e] = sum_d M[e,d] (sum_b M[a,b] X[b,d]).

    X has shape (n, n, ...) for an m-by-n M; the result is a contiguous
    (m, m, ...) array.  The sums run in one fixed order, whatever the
    memory order of X.  For each output row a and column d, y = sum_b
    M[a,b] * X[b,d] is formed in ascending b; as soon as y is complete,
    M[e,d] * y is added to every out[a, e], so out[a, e] sums its terms in
    ascending d.  Every sum starts at +0.0, and y is one reused row.

    Rounding to nearest is sign-symmetric, so adding c * x is, bit for
    bit, adding or subtracting |c| * x, and a coefficient of +-1 needs no
    multiply.  Zero coefficients are skipped.  That changes no bit: for
    finite X such a term is +-0.0, and a sum that starts at +0.0 never
    holds -0.0, so adding +-0.0 leaves it unchanged.  That is why X must
    be finite.  Each output's first term is written as 0.0 + t, so no
    output is read before it is written, and an output no term reaches
    (a zero row of M) keeps np.zeros' +0.0.

    Raises ValueError on any other leading shape of X, on NaN or inf in X,
    and on a result that overflows.
    """
    na, nb = M.shape
    if X.shape[:2] != (nb, nb):
        raise ValueError(f"transform needs {nb}x{nb} tiles, got leading shape {X.shape[:2]}")
    if not np.isfinite(X).all():
        raise ValueError("Winograd transform operand holds non-finite values (NaN or inf)")
    flat = X.reshape(nb, nb, -1)
    entries = np.asarray(M, dtype=float).tolist()
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in entries]
    # per column d: (e, M[e, d], whether d is row e's first nonzero) for each nonzero M[e, d]
    cols = [[(e, c, rows[e][0][0] == d) for e, c in enumerate(col) if c] for d, col in enumerate(zip(*entries))]
    out = np.zeros((na, na, flat.shape[2]))
    y, scratch = np.empty((2, flat.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, terms in enumerate(rows):
            if not terms:
                continue
            for d, feeds in enumerate(cols):
                for k, (b, c) in enumerate(terms):
                    _add_term(y, k == 0, c, flat[b, d], scratch)
                for e, c, first in feeds:
                    _add_term(out[a, e], first, c, y, scratch)
    if not np.isfinite(out).all():
        raise ValueError("Winograd transform overflowed to non-finite values")
    return out.reshape(na, na, *X.shape[2:])


def transform_tiles(plan: WinogradPlan, tiles: np.ndarray) -> np.ndarray:
    """Apply Bt . d . Bt.T to every tile of an (l, l, C, tiles_h, tiles_w) stack.

    Returns a contiguous array of the same shape.  The sums run in the
    fixed order of _sandwich, so the result does not depend on the memory
    order of `tiles`.
    """
    return _sandwich(plan.Bt, tiles)


@dataclass
class TransformedBatch:
    """The l*l per-position matrices of a transformed operand.

    Entry (i, j) holds, for every tile/filter, the (i, j) element of its
    transformed l-by-l tile: shape C-by-P for inputs and K-by-C for filters.
    """

    l: int
    mats: list

    def at(self, i: int, j: int) -> ZMortonMatrix:
        return self.mats[i * self.l + j]

    def __iter__(self):
        return iter(self.mats)


def _input_stack(transformed_tiles: np.ndarray) -> np.ndarray:
    """Regroup transformed input tiles (l, l, C, th, tw) into an (l*l, C, P) stack.

    Tile coordinates collapse row-major: b = x * tw + y.  A view of the
    contiguous stack transform_tiles returns.
    """
    l, _, C, th, tw = transformed_tiles.shape
    return transformed_tiles.reshape(l * l, C, th * tw)


def scatter_to_matrices(transformed_tiles: np.ndarray) -> TransformedBatch:
    """Regroup transformed input tiles (l, l, C, th, tw) into l*l C-by-P matrices."""
    l = transformed_tiles.shape[0]
    return TransformedBatch(l=l, mats=[to_zmorton(v, l) for v in _input_stack(transformed_tiles)])


def _filter_stack(filters: np.ndarray, plan: WinogradPlan) -> np.ndarray:
    """Transform a (K, C, r, r) filter bank into an (l*l, K, C) stack."""
    filters = np.asarray(filters, dtype=float)
    K, C, r, r2 = filters.shape
    if r != plan.r or r2 != plan.r:
        raise ValueError(f"filter width {r}x{r2} != plan r={plan.r}")
    if K < 1 or C < 1:
        raise ValueError(f"filter bank needs K, C >= 1, got K={K}, C={C}")
    # Copied.  _sandwich reads each (K, C) slice once for every nonzero in its
    # column of G, two or three times; on the transposed view every read
    # strides r*r*8 bytes, a cache line per element.  Scale-4 VGG16 at m = 2,
    # 2 vCPUs: the copy took 11.0-11.6 ms in all against 13.5-14.2 ms for the
    # view (warm, medians of two runs of 30 interleaved rounds), 16.9 against
    # 21.9 ms cold (median of 10 alternating fresh-process passes).
    position_major = np.ascontiguousarray(filters.transpose(2, 3, 0, 1))
    return _sandwich(plan.G, position_major).reshape(plan.l * plan.l, K, C)


def gather_filters(filters: np.ndarray, plan: WinogradPlan) -> TransformedBatch:
    """Transform a (K, C, r, r) filter bank into l*l K-by-C matrices."""
    return TransformedBatch(l=plan.l, mats=[to_zmorton(u, plan.l) for u in _filter_stack(filters, plan)])


def assemble_output(
    mats: np.ndarray,
    plan: WinogradPlan,
    K: int,
    out_h: int,
    out_w: int,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Inverse-transform the l*l product matrices into a (K, out_h, out_w) map.

    `mats` has shape (l, l, K, P).  One inverse transform runs per (k, b)
    pair -- the channel sum already happened inside the matrix product --
    and tiles extending past the logical output extent are clipped.
    """
    l, m = plan.l, plan.m
    th, tw = _tile_counts(out_h, out_w, m)
    P = mats.shape[3]
    if mats.shape != (l, l, K, P) or P != th * tw:
        raise ValueError("product matrices inconsistent with output geometry")
    tiles = _sandwich(plan.At, mats)
    if counters is not None:
        counters.inverse_transforms += K * P
    tiles = tiles.reshape(m, m, K, th, tw).transpose(2, 3, 0, 4, 1)
    return np.ascontiguousarray(tiles.reshape(K, th * m, tw * m)[:, :out_h, :out_w])
