"""Block-based compressed coordinates (BCOO) for pruned transformed weights.

Only l-by-l blocks containing nonzeros are stored.  Five vectors describe
them: BN (Morton block numbers, ascending), BI (CSR-style start offsets,
one trailing entry), AI/AJ (row/column of each nonzero inside its block),
and AN (the nonzero values).  Nonzeros within a block are strictly row-major.

The on-disk container is little-endian and documented byte-exactly in the
README: five int64 header words (rows, cols, l, n_blocks, nnz), then BN,
BI, AI, AJ as int64 and AN as float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layout import (
    _AXIS_BITS,
    _AXIS_LIMIT,
    _GRID_LIMIT,
    TransformedBatch,
    ZMortonMatrix,
    _block_coords,
    _block_extent,
    _morton_decode_array,
    from_zmorton,
    morton_encode,
    to_zmorton,
    zmorton_zeros,
)

__all__ = [
    "BcooFormatError",
    "BcooMatrix",
    "bcoo_encode",
    "bcoo_decode",
    "prune",
    "bcoo_to_bytes",
    "bcoo_from_bytes",
]


class BcooFormatError(ValueError):
    """Structural violation in a BCOO container."""


_VECTORS = ("bn", "bi", "ai", "aj", "an")


@dataclass(frozen=True)
class BcooMatrix:
    """Block-sparse matrix, well-formed by construction.

    BN, BI, AI and AJ may be given as integers of any type that int64
    holds, and AN as real floating-point values.  The record keeps its own
    read-only copies, int64 and float64, and raises BcooFormatError unless
    they form a well-formed BCOO matrix; no later stage checks it again.
    """

    rows: int
    cols: int
    l: int
    bn: np.ndarray  # ascending Morton block numbers
    bi: np.ndarray  # len(bn) + 1 start offsets
    ai: np.ndarray  # in-block row of each nonzero
    aj: np.ndarray  # in-block column of each nonzero
    an: np.ndarray  # nonzero values

    def __post_init__(self):
        for name in _VECTORS[:4]:
            vec = getattr(self, name)
            # any signed integer type, or an unsigned one narrower than 64 bits
            if not (isinstance(vec, np.ndarray) and vec.ndim == 1 and (
                    vec.dtype.kind == "i" or (vec.dtype.kind == "u" and vec.dtype.itemsize < 8))):
                raise BcooFormatError(f"{name.upper()} must be a 1-D integer array that int64 holds")
        if not (isinstance(self.an, np.ndarray) and self.an.ndim == 1 and self.an.dtype.kind == "f"):
            raise BcooFormatError("AN must be a 1-D real floating-point array")
        self._own(np.array)
        _check_record(self)

    def _own(self, convert) -> None:
        """Replace each vector by convert(vector, int64 or float64), made read-only."""
        for name in _VECTORS:
            vec = convert(getattr(self, name), np.float64 if name == "an" else np.int64)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)

    @classmethod
    def _trusted(cls, **fields) -> BcooMatrix:
        """A record of fresh vectors that no caller holds, taken over unchecked: bcoo_encode's path."""
        rec = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(rec, name, value)
        rec._own(np.asarray)
        return rec

    @property
    def nnz(self) -> int:
        return len(self.an)


@lru_cache(maxsize=None)  # grid extents are powers of two up to 2**16: at most 17 * 17 entries
def _last_block_code(block_rows: int, block_cols: int) -> int:
    return morton_encode(block_rows - 1, block_cols - 1)


def _check_header(rows: int, cols: int, l: int, n_blocks: int = 0, nnz: int = 0) -> None:
    """Raise BcooFormatError unless rows, cols, l >= 1 and n_blocks, nnz >= 0: every record's header rule."""
    if min(rows, cols, l) < 1 or min(n_blocks, nnz) < 0:
        raise BcooFormatError("malformed BCOO header")


def _check_record(u: BcooMatrix) -> None:
    """Raise BcooFormatError, naming the first check failed, unless u is well-formed.

    Reads u's own int64 (BN, BI, AI, AJ) and float64 (AN) vectors.
    """
    rows, cols, l = int(u.rows), int(u.cols), int(u.l)
    _check_header(rows, cols, l)
    bn, bi, ai, aj, an = u.bn, u.bi, u.ai, u.aj, u.an
    nbr = _block_extent(rows, l)
    nbc = _block_extent(cols, l)
    if max(nbr, nbc) > _AXIS_LIMIT:
        raise BcooFormatError(f"{nbr}x{nbc} block grid exceeds the {_AXIS_BITS}-bit Morton axis")
    if len(bi) != len(bn) + 1:
        raise BcooFormatError("BI must have exactly len(BN) + 1 entries")
    if bi[0]:
        raise BcooFormatError("BI[0] must be 0" if len(bn) else "empty matrix must have BI == [0]")
    counts = bi[1:] - bi[:-1]
    if len(counts) and (low := counts.min()) <= 0:
        raise BcooFormatError("BI must be non-decreasing" if low < 0 else "BN lists a block with no nonzeros")
    if bi[-1] != len(an) or len(ai) != len(an) or len(aj) != len(an):
        raise BcooFormatError("AI/AJ/AN lengths disagree with BI")
    if (bn[1:] <= bn[:-1]).any():
        raise BcooFormatError("BN must be strictly ascending")
    # Both grid extents are powers of two, so a code names a grid block
    # exactly when it sets no bit outside the code of the last block.
    if (bn & ~_last_block_code(nbr, nbc)).any():
        raise BcooFormatError("BN contains a block number outside the grid")
    for name, vec in (("AI", ai), ("AJ", aj)):
        # unsigned view: a negative entry reads as at least 2**63 >= l
        if (vec.view(np.uint64) >= l).any():
            raise BcooFormatError(f"{name} entry outside [0, l)")
    if not an.all():
        raise BcooFormatError("AN stores an explicit zero")
    if not np.isfinite(an).all():
        raise BcooFormatError("AN holds a non-finite value")
    if (rows, cols) != (nbr * l, nbc * l):  # else every in-grid nonzero lies inside the matrix
        row, col = (coord.repeat(counts) for coord in _morton_decode_array(bn))  # block row and column
        # row * l + ai < rows, rearranged so that it cannot overflow int64
        if ((row > (rows - 1 - ai) // l) | (col > (cols - 1 - aj) // l)).any():
            raise BcooFormatError("nonzero outside the logical matrix")
    # Each nonzero lies strictly after its predecessor in the block, in
    # (AI, AJ) order, which also rules out duplicates.
    d_ai = ai[1:] - ai[:-1]
    later = (d_ai > 0) | ((d_ai == 0) & (aj[1:] > aj[:-1]))
    later[bi[1:-1] - 1] = True  # a block's first nonzero has no predecessor
    if not later.all():
        raise BcooFormatError("duplicate or out-of-order (AI, AJ) pair within a block")


def _nonzero_entries(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (record, row, col) of every nonzero of records that share one l."""
    l = records[0].l
    counts = np.concatenate([np.diff(u.bi) for u in records])
    # block row and column of each nonzero, then its row and column
    row, col = (coord.repeat(counts) for coord in _morton_decode_array(np.concatenate([u.bn for u in records])))
    row *= l
    row += np.concatenate([u.ai for u in records])
    col *= l
    col += np.concatenate([u.aj for u in records])
    return np.repeat(np.arange(len(records)), [u.nnz for u in records]), row, col


def bcoo_encode(zm: ZMortonMatrix) -> BcooMatrix:
    """Compress a Z-Morton matrix; blocks appear in ascending Morton order.

    ValueError unless zm's blocks fill its grid; BcooFormatError if its
    shape breaks the header rule, a nonzero lies in the padding outside
    its rows-by-cols matrix or a value is NaN or infinite.
    """
    rows, cols, l, blocks = zm.rows, zm.cols, zm.l, zm.blocks
    _check_header(rows, cols, l)
    brow, bcol = _block_coords(zm)
    # block-major, row-major within a block; nonzero of a bool mask is the fast kind
    flat = (blocks != 0.0).ravel().nonzero()[0]
    owner, ai, aj = np.unravel_index(flat, blocks.shape)
    padded = (rows, cols) != (zm.padded_rows, zm.padded_cols)  # else no entry lies outside
    if padded and ((brow[owner] * l + ai >= rows) | (bcol[owner] * l + aj >= cols)).any():
        raise BcooFormatError("nonzero outside the logical matrix")
    an = blocks.ravel().take(flat)
    if not np.isfinite(an).all():
        raise BcooFormatError("AN holds a non-finite value")
    counts = np.bincount(owner, minlength=len(brow))
    stored = counts.nonzero()[0]
    bi = np.zeros(len(stored) + 1, np.int64)
    counts.take(stored).cumsum(out=bi[1:])
    return BcooMatrix._trusted(rows=rows, cols=cols, l=l, bn=zm.block_codes.take(stored), bi=bi, ai=ai, aj=aj, an=an)


def bcoo_decode(b: BcooMatrix) -> ZMortonMatrix:
    """Exact inverse of bcoo_encode.  ValueError, before allocating, if its padded grid exceeds _GRID_LIMIT entries."""
    zm = zmorton_zeros(b.rows, b.cols, b.l)
    zm.blocks[zm.ranks_of(b.bn).repeat(np.diff(b.bi)), b.ai, b.aj] = b.an
    return zm


def _decode_stack(records) -> np.ndarray:
    """Records of one (rows, cols, l) decoded into a dense (len, rows, cols) stack.

    Raises ValueError, before allocating, if the stack exceeds _GRID_LIMIT entries.
    """
    rows, cols = int(records[0].rows), int(records[0].cols)
    entries = len(records) * rows * cols
    if entries > _GRID_LIMIT:
        raise ValueError(
            f"{len(records)} {rows}x{cols} weight matrices hold {entries} entries, "
            f"over the limit of 2**{_GRID_LIMIT.bit_length() - 1}"
        )
    out = np.zeros((len(records), rows, cols))
    flat, row, col = _nonzero_entries(records)
    # (record * rows + row) * cols + col, in place: index arrays are as long as AN
    flat *= rows
    flat += row
    del row
    flat *= cols
    flat += col
    del col
    out.ravel()[flat] = np.concatenate([u.an for u in records])
    return out


def _prune_dense(dense: np.ndarray, target_sparsity: float) -> None:
    """Zero the ceil(target_sparsity * size) smallest-magnitude entries of `dense` in place.

    Selection, not sorting: every entry below the needed-th smallest
    magnitude goes, then the first entries at that magnitude in row-major
    order, which is the order a stable sort of the flattening leaves them.
    """
    if not 0.0 <= target_sparsity <= 1.0:
        raise ValueError("target_sparsity must lie in [0, 1]")
    if not np.all(np.isfinite(dense)):
        raise ValueError("cannot prune non-finite weights (NaN or inf)")
    needed = int(np.ceil(target_sparsity * dense.size))
    if needed == 0:
        return
    mag = np.abs(dense)
    cut = np.partition(mag, needed - 1, axis=None)[needed - 1]
    below = mag < cut
    np.putmask(dense, below, 0.0)
    ties = np.flatnonzero(mag == cut)[: needed - np.count_nonzero(below)]
    dense[np.unravel_index(ties, dense.shape)] = 0.0


def prune(batch: TransformedBatch, target_sparsity: float) -> TransformedBatch:
    """Zero the smallest-magnitude entries of each per-position matrix.

    Zeroing proceeds until at least `target_sparsity` of each matrix's
    logical entries are zero; ties break deterministically by (row, col).
    Surviving values are never changed.  Non-finite entries raise ValueError.
    """
    pruned = []
    for mat in batch:
        dense = from_zmorton(mat)  # a fresh array, never a view of `mat`
        _prune_dense(dense, target_sparsity)
        pruned.append(to_zmorton(dense, mat.l))
    return TransformedBatch(l=batch.l, mats=pruned)


_HEADER = struct.Struct("<5q")


def bcoo_to_bytes(b: BcooMatrix) -> bytes:
    ints = [vec.astype("<i8").tobytes() for vec in (b.bn, b.bi, b.ai, b.aj)]
    head = _HEADER.pack(b.rows, b.cols, b.l, len(b.bn), len(b.an))
    return b"".join([head, *ints, b.an.astype("<f8").tobytes()])


def bcoo_from_bytes(buf: bytes, offset: int = 0) -> tuple[BcooMatrix, int]:
    """Parse one BCOO record; returns (matrix, next_offset)."""
    if len(buf) - offset < _HEADER.size:
        raise BcooFormatError("truncated BCOO header")
    rows, cols, l, n_blocks, nnz = _HEADER.unpack_from(buf, offset)
    _check_header(rows, cols, l, n_blocks, nnz)
    pos = offset + _HEADER.size
    n_ints = 2 * n_blocks + 1 + 2 * nnz  # BN, BI, AI, AJ
    end = pos + 8 * (n_ints + nnz)
    if len(buf) < end:
        raise BcooFormatError("truncated BCOO payload")
    ints = np.frombuffer(buf, dtype="<i8", count=n_ints, offset=pos)  # BcooMatrix copies it
    ai_at = 2 * n_blocks + 1
    bn, bi, ai, aj = ints[:n_blocks], ints[n_blocks:ai_at], ints[ai_at : ai_at + nnz], ints[ai_at + nnz :]
    an = np.frombuffer(buf, dtype="<f8", count=nnz, offset=pos + 8 * n_ints)
    return BcooMatrix(rows=rows, cols=cols, l=l, bn=bn, bi=bi, ai=ai, aj=aj, an=an), end

