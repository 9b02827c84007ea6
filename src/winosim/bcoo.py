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

import numpy as np

from .layout import (
    _AXIS_BITS,
    _AXIS_LIMIT,
    TransformedBatch,
    ZMortonMatrix,
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
    "save_bcoo",
    "load_bcoo",
]


class BcooFormatError(ValueError):
    """Structural violation in a BCOO container."""


@dataclass
class BcooMatrix:
    """Block-sparse matrix.  Treat instances as immutable once built."""

    rows: int
    cols: int
    l: int
    bn: np.ndarray  # int64, ascending Morton block numbers
    bi: np.ndarray  # int64, len(bn) + 1 start offsets
    ai: np.ndarray  # int64, in-block row of each nonzero
    aj: np.ndarray  # int64, in-block column of each nonzero
    an: np.ndarray  # float64 nonzero values

    @property
    def nnz(self) -> int:
        return len(self.an)

    def owners(self) -> np.ndarray:
        """Position in BN of the block holding each nonzero."""
        return np.repeat(np.arange(len(self.bn)), np.diff(self.bi))

    def block_stack(self) -> np.ndarray:
        """The stored blocks as a dense (len(BN), l, l) stack, in BN order."""
        stack = np.zeros((len(self.bn), self.l, self.l))
        stack[self.owners(), self.ai, self.aj] = self.an
        return stack

    def validate(self) -> None:
        """Raise BcooFormatError unless the record is a well-formed BCOO matrix."""
        self._nonzero_blocks()

    def _nonzero_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Validate; return the block row and block column of every nonzero."""
        l = int(self.l)
        nbr = _block_extent(self.rows, l)
        nbc = _block_extent(self.cols, l)
        if max(nbr, nbc) > _AXIS_LIMIT:
            raise BcooFormatError(f"{nbr}x{nbc} block grid exceeds the {_AXIS_BITS}-bit Morton axis")
        if len(self.bi) != len(self.bn) + 1:
            raise BcooFormatError("BI must have exactly len(BN) + 1 entries")
        if len(self.bn) and self.bi[0] != 0:
            raise BcooFormatError("BI[0] must be 0")
        if len(self.bn) == 0 and list(self.bi) != [0]:
            raise BcooFormatError("empty matrix must have BI == [0]")
        counts = np.diff(self.bi)
        if np.any(counts < 0):
            raise BcooFormatError("BI must be non-decreasing")
        if np.any(counts == 0):
            raise BcooFormatError("BN lists a block with no nonzeros")
        if self.bi[-1] != len(self.an) or len(self.ai) != len(self.an) or len(self.aj) != len(self.an):
            raise BcooFormatError("AI/AJ/AN lengths disagree with BI")
        if len(self.bn) and np.any(np.diff(self.bn) <= 0):
            raise BcooFormatError("BN must be strictly ascending")
        # Both grid extents are powers of two, so a code names a grid block
        # exactly when it sets no bit outside the code of the last block.
        if np.any(self.bn & ~morton_encode(nbr - 1, nbc - 1)):
            raise BcooFormatError("BN contains a block number outside the grid")
        if np.any((self.ai < 0) | (self.ai >= l)):
            raise BcooFormatError("AI entry outside [0, l)")
        if np.any((self.aj < 0) | (self.aj >= l)):
            raise BcooFormatError("AJ entry outside [0, l)")
        if np.any(self.an == 0.0):
            raise BcooFormatError("AN stores an explicit zero")
        owner = np.repeat(np.arange(len(self.bn)), counts)
        brow, bcol = (coord[owner] for coord in _morton_decode_array(self.bn))
        # brow * l + ai < rows, rearranged so that it cannot overflow int64
        outside_rows = brow > (self.rows - 1 - self.ai) // l
        outside_cols = bcol > (self.cols - 1 - self.aj) // l
        if np.any(outside_rows | outside_cols):
            raise BcooFormatError("nonzero outside the logical matrix")
        # Each nonzero lies strictly after its predecessor in the block, in
        # (AI, AJ) order, which also rules out duplicates.
        d_ai, d_aj = np.diff(self.ai), np.diff(self.aj)
        later = (d_ai > 0) | ((d_ai == 0) & (d_aj > 0))
        if np.any(~later & (owner[1:] == owner[:-1])):
            raise BcooFormatError("duplicate or out-of-order (AI, AJ) pair within a block")
        return brow, bcol


def bcoo_encode(zm: ZMortonMatrix) -> BcooMatrix:
    """Compress a Z-Morton matrix; blocks appear in ascending Morton order."""
    owner, ai, aj = np.nonzero(zm.blocks)  # block-major, row-major within a block
    counts = np.bincount(owner, minlength=len(zm.block_codes))
    stored = counts > 0
    return BcooMatrix(
        rows=zm.rows,
        cols=zm.cols,
        l=zm.l,
        bn=zm.block_codes[stored],
        bi=np.concatenate(([0], np.cumsum(counts[stored]))),
        ai=ai,
        aj=aj,
        an=zm.blocks[owner, ai, aj],
    )


def bcoo_decode(b: BcooMatrix) -> ZMortonMatrix:
    """Exact inverse of bcoo_encode.  Raises BcooFormatError on bad structure."""
    b.validate()
    zm = zmorton_zeros(b.rows, b.cols, b.l)
    zm.blocks[zm.ranks_of(b.bn)] = b.block_stack()
    return zm


def _decode_dense(b: BcooMatrix, out: np.ndarray) -> None:
    """Validate `b` and scatter its nonzeros into `out`, a zeroed rows-by-cols array."""
    brow, bcol = b._nonzero_blocks()
    out[brow * b.l + b.ai, bcol * b.l + b.aj] = b.an


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
    dense[below] = 0.0
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
    parts = [_HEADER.pack(b.rows, b.cols, b.l, len(b.bn), len(b.an))]
    parts.append(b.bn.astype("<i8").tobytes())
    parts.append(b.bi.astype("<i8").tobytes())
    parts.append(b.ai.astype("<i8").tobytes())
    parts.append(b.aj.astype("<i8").tobytes())
    parts.append(b.an.astype("<f8").tobytes())
    return b"".join(parts)


def bcoo_from_bytes(buf: bytes, offset: int = 0) -> tuple[BcooMatrix, int]:
    """Parse one BCOO record; returns (matrix, next_offset)."""
    if len(buf) - offset < _HEADER.size:
        raise BcooFormatError("truncated BCOO header")
    rows, cols, l, n_blocks, nnz = _HEADER.unpack_from(buf, offset)
    if min(rows, cols, l) < 1 or n_blocks < 0 or nnz < 0:
        raise BcooFormatError("malformed BCOO header")
    pos = offset + _HEADER.size

    def take(count, dtype):
        nonlocal pos
        nbytes = count * 8
        if len(buf) - pos < nbytes:
            raise BcooFormatError("truncated BCOO payload")
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).copy()
        pos += nbytes
        return arr

    bn = take(n_blocks, "<i8")
    bi = take(n_blocks + 1, "<i8")
    ai = take(nnz, "<i8")
    aj = take(nnz, "<i8")
    an = take(nnz, "<f8")
    mat = BcooMatrix(rows=rows, cols=cols, l=l, bn=bn, bi=bi, ai=ai, aj=aj, an=an)
    mat.validate()
    return mat, pos


def save_bcoo(path, b: BcooMatrix) -> None:
    with open(path, "wb") as fh:
        fh.write(bcoo_to_bytes(b))


def load_bcoo(path) -> BcooMatrix:
    with open(path, "rb") as fh:
        buf = fh.read()
    mat, pos = bcoo_from_bytes(buf)
    if pos != len(buf):
        raise BcooFormatError("trailing bytes after BCOO record")
    return mat
