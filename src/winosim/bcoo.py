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
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
]


class BcooFormatError(ValueError):
    """Structural violation in a BCOO container."""


@dataclass
class BcooMatrix:
    """Block-sparse matrix.  Treat instances as immutable once built.

    BN, BI, AI and AJ hold integers of any type that int64 holds (int64
    when parsed or encoded); AN holds real floating-point values.
    """

    rows: int
    cols: int
    l: int
    bn: np.ndarray  # ascending Morton block numbers
    bi: np.ndarray  # len(bn) + 1 start offsets
    ai: np.ndarray  # in-block row of each nonzero
    aj: np.ndarray  # in-block column of each nonzero
    an: np.ndarray  # nonzero values (float64 when parsed or encoded)

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
        _nonzero_entries([self])


@lru_cache(maxsize=None)  # grid extents are powers of two up to 2**16: at most 17 * 17 entries
def _last_block_code(block_rows: int, block_cols: int) -> int:
    return morton_encode(block_rows - 1, block_cols - 1)


def _joined(vectors, dtype=None) -> np.ndarray:
    """One array of the given vectors, in order; a lone vector already of `dtype` is not copied."""
    if len(vectors) == 1 and (dtype is None or vectors[0].dtype == dtype):
        return vectors[0]
    return np.concatenate(vectors, dtype=dtype)


def _nonzero_entries(records, positions: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate records of one (rows, cols, l); return the (record, row, col) of every nonzero.

    All records are checked together, one vectorised pass per check, in
    the order a lone record is checked.  BcooFormatError names the first
    check that a record fails, and with `positions` also the record's
    index ("weight matrix at position p: ...").  BN, BI, AI and AJ may
    be of any integer type that int64 holds; AN must be real floating point.
    """
    first = records[0]
    rows, cols, l = int(first.rows), int(first.cols), int(first.l)

    def fail(message, r=0):
        raise BcooFormatError(f"weight matrix at position {r}: {message}" if positions else message)

    for r, u in enumerate(records):
        for name, vec in (("BN", u.bn), ("BI", u.bi), ("AI", u.ai), ("AJ", u.aj)):
            # any signed integer type, or an unsigned one narrower than 64 bits
            if not (isinstance(vec, np.ndarray) and vec.ndim == 1 and (
                    vec.dtype.kind == "i" or (vec.dtype.kind == "u" and vec.dtype.itemsize < 8))):
                fail(f"{name} must be a 1-D integer array that int64 holds", r)
        if not (isinstance(u.an, np.ndarray) and u.an.ndim == 1 and u.an.dtype.kind == "f"):
            fail("AN must be a 1-D real floating-point array", r)
    nbr = _block_extent(rows, l)
    nbc = _block_extent(cols, l)
    if max(nbr, nbc) > _AXIS_LIMIT:
        fail(f"{nbr}x{nbc} block grid exceeds the {_AXIS_BITS}-bit Morton axis")
    n_blocks = [len(u.bn) for u in records]
    for r, (u, nb) in enumerate(zip(records, n_blocks)):
        if len(u.bi) != nb + 1:
            fail("BI must have exactly len(BN) + 1 entries", r)
    # Where each record's BI starts and ends in the joined BI; the step
    # from one record's last entry to the next record's first is no count.
    bi_ends = list(accumulate(nb + 1 for nb in n_blocks))
    bi_starts = [0, *bi_ends[:-1]]
    bi = _joined([u.bi for u in records], np.int64)
    if bi[bi_starts].any():
        r = int(np.flatnonzero(bi[bi_starts])[0])
        fail("BI[0] must be 0" if n_blocks[r] else "empty matrix must have BI == [0]", r)
    counts = bi[1:] - bi[:-1]
    steps = [end - 1 for end in bi_ends[:-1]]
    if steps:
        counts[steps] = 1
    if len(counts) and (low := counts.min()) <= 0:
        r = bisect_right(bi_ends, int(np.argmax(counts == low)))
        fail("BI must be non-decreasing" if low < 0 else "BN lists a block with no nonzeros", r)
    nnz = [len(u.an) for u in records]
    for r, (u, n, last) in enumerate(zip(records, nnz, bi[[end - 1 for end in bi_ends]].tolist())):
        if last != n or len(u.ai) != n or len(u.aj) != n:
            fail("AI/AJ/AN lengths disagree with BI", r)
    if steps:
        counts = np.delete(counts, steps)  # one count per block
    block_ends = list(accumulate(n_blocks))
    bn = _joined([u.bn for u in records], np.int64)
    descending = bn[1:] <= bn[:-1]
    # a record's first block need not exceed the block before it
    if record_starts := [end - 1 for end, nb in zip(block_ends[:-1], n_blocks[1:]) if nb and end]:
        descending[record_starts] = False
    if descending.any():
        fail("BN must be strictly ascending", bisect_right(block_ends, int(np.argmax(descending)) + 1))
    # Both grid extents are powers of two, so a code names a grid block
    # exactly when it sets no bit outside the code of the last block.
    outside = bn & ~_last_block_code(nbr, nbc)
    if outside.any():
        fail("BN contains a block number outside the grid", bisect_right(block_ends, int(np.argmax(outside != 0))))
    nz_ends = list(accumulate(nnz))
    ai = _joined([u.ai for u in records], np.int64)
    aj = _joined([u.aj for u in records], np.int64)
    # unsigned views: a negative entry reads as at least 2**63 >= l
    if (np.maximum(ai.view(np.uint64), aj.view(np.uint64)) >= l).any():
        for name, vec in (("AI", ai), ("AJ", aj)):
            if (outside := vec.view(np.uint64) >= l).any():
                fail(f"{name} entry outside [0, l)", bisect_right(nz_ends, int(np.argmax(outside))))
    an = _joined([u.an for u in records])
    if not an.all():
        fail("AN stores an explicit zero", bisect_right(nz_ends, int(np.argmin(an != 0.0))))
    del an
    # The arrays below are as long as AN, so each is computed in place where it can be.
    owner = np.repeat(np.arange(len(bn)), counts)
    row, col = (coord[owner] for coord in _morton_decode_array(bn))  # block row and column so far
    # row * l + ai < rows, rearranged so that it cannot overflow int64
    bound = rows - 1 - ai
    bound //= l
    outside = row > bound
    np.subtract(cols - 1, aj, out=bound)
    bound //= l
    outside |= col > bound
    del bound
    if outside.any():
        fail("nonzero outside the logical matrix", bisect_right(nz_ends, int(np.argmax(outside))))
    # Each nonzero lies strictly after its predecessor in the block, in
    # (AI, AJ) order, which also rules out duplicates.
    d_ai = ai[1:] - ai[:-1]
    later = (d_ai > 0) | ((d_ai == 0) & (aj[1:] > aj[:-1]))
    del d_ai
    later[owner[1:] != owner[:-1]] = True  # a block's first nonzero has no predecessor
    if not later.all():
        r = bisect_right(nz_ends, int(np.argmin(later)) + 1)
        fail("duplicate or out-of-order (AI, AJ) pair within a block", r)
    row *= l
    row += ai
    col *= l
    col += aj
    return np.repeat(np.arange(len(records)), nnz), row, col


def bcoo_encode(zm: ZMortonMatrix) -> BcooMatrix:
    """Compress a Z-Morton matrix; blocks appear in ascending Morton order."""
    # block-major, row-major within a block; nonzero of a bool mask is the fast kind
    flat = np.flatnonzero(zm.blocks != 0.0)
    owner, ai, aj = np.unravel_index(flat, zm.blocks.shape)
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
        an=zm.blocks.ravel()[flat],
    )


def bcoo_decode(b: BcooMatrix) -> ZMortonMatrix:
    """Exact inverse of bcoo_encode.  Raises BcooFormatError on bad structure."""
    b.validate()
    zm = zmorton_zeros(b.rows, b.cols, b.l)
    zm.blocks[zm.ranks_of(b.bn)] = b.block_stack()
    return zm


def _decode_stack(records, positions: bool = False) -> np.ndarray:
    """Validate records of one (rows, cols, l) and decode them into a (len, rows, cols) stack.

    `positions` names a failing record by its index, as _nonzero_entries does.
    """
    rows, cols = records[0].rows, records[0].cols
    out = np.zeros((len(records), rows, cols))
    flat, row, col = _nonzero_entries(records, positions)
    # (record * rows + row) * cols + col, in place: index arrays are as long as AN
    flat *= rows
    flat += row
    del row
    flat *= cols
    flat += col
    del col
    out.ravel()[flat] = _joined([u.an for u in records])
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
    ints = [vec.astype("<i8").tobytes() for vec in (b.bn, b.bi, b.ai, b.aj)]
    head = _HEADER.pack(b.rows, b.cols, b.l, len(b.bn), len(b.an))
    return b"".join([head, *ints, b.an.astype("<f8").tobytes()])


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

