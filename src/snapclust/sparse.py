"""Compressed sparse row storage for the landmark affinity matrices.

Only what the pipeline needs: canonical CSR with validation, the Gram
product Z^T Z densified on the small side, and dense right-multiplication
for back-substituting singular vectors. Row reductions happen in fixed
index order so results are bit-stable.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

GRAM_COLS_CAP = 16384

# Rows per accumulation chunk in gram/matmul; bounds the gather buffers.
_CHUNK_ROWS = 8192


class SparseRowMatrix:
    """Immutable CSR matrix with nonnegative float64 values.

    row_offsets has length rows+1; column indices are strictly increasing
    within each row. Duplicate entries are rejected at construction.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._validate()

    def _validate(self):
        if self.rows < 0 or self.cols < 0:
            raise DataError("matrix dimensions must be nonnegative")
        off = self.row_offsets
        if off.shape != (self.rows + 1,):
            raise DataError(f"row_offsets length {off.shape[0]} != rows+1 = {self.rows + 1}")
        if off[0] != 0 or np.any(np.diff(off) < 0):
            raise DataError("row_offsets must start at 0 and be non-decreasing")
        nnz = int(off[-1])
        if self.col_indices.shape != (nnz,) or self.values.shape != (nnz,):
            raise DataError("col_indices/values length must equal row_offsets[-1]")
        if nnz:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.cols:
                raise DataError("column index out of range")
            # strictly increasing within each row <=> diffs > 0 except at row starts
            d = np.diff(self.col_indices)
            starts = np.zeros(nnz, dtype=bool)
            # offsets equal to nnz belong to empty trailing rows; no entry starts there
            pos = off[1:-1]
            starts[pos[pos < nnz]] = True  # positions that begin a new row
            if np.any(d[~starts[1:]] <= 0):
                raise DataError("column indices must be strictly increasing within each row")
            if not np.all(np.isfinite(self.values)):
                raise DataError("values must be finite")
            if np.any(self.values < 0):
                raise DataError("values must be nonnegative")

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def row_counts(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def to_triplets(self) -> list[tuple[int, int, float]]:
        """Row-major (i, j, v) triplets."""
        rows = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_counts())
        return list(zip(rows.tolist(), self.col_indices.tolist(), self.values.tolist()))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.cols), dtype=np.float64)
        rows = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_counts())
        dense[rows, self.col_indices] = self.values
        return dense

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.rows, dtype=np.float64)
        rows = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_counts())
        np.add.at(out, rows, self.values)
        return out

    def scaled(self, factor: float) -> "SparseRowMatrix":
        return SparseRowMatrix(
            self.rows, self.cols, self.row_offsets, self.col_indices, self.values * factor
        )

    def gram(self, cols_cap: int = GRAM_COLS_CAP) -> np.ndarray:
        """Dense Z^T Z, shape (cols, cols). Exactly symmetric by construction."""
        if self.cols > cols_cap:
            raise DataError(f"gram: cols {self.cols} exceeds cap {cols_cap}")
        G = np.zeros((self.cols, self.cols), dtype=np.float64)
        counts = self.row_counts()
        for c in np.unique(counts):
            c = int(c)
            if c == 0:
                continue
            row_ids = np.nonzero(counts == c)[0]
            for start in range(0, row_ids.size, _CHUNK_ROWS):
                chunk = row_ids[start : start + _CHUNK_ROWS]
                gather = self.row_offsets[chunk][:, None] + np.arange(c)[None, :]
                J = self.col_indices[gather]
                V = self.values[gather]
                np.add.at(G, (J[:, :, None], J[:, None, :]), V[:, :, None] * V[:, None, :])
        return G

    def matmul_dense(self, D: np.ndarray) -> np.ndarray:
        """Z @ D for dense D of shape (cols, k)."""
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != self.cols:
            raise DataError(f"matmul_dense: shape {D.shape} incompatible with cols {self.cols}")
        out = np.zeros((self.rows, D.shape[1]), dtype=np.float64)
        counts = self.row_counts()
        for c in np.unique(counts):
            c = int(c)
            if c == 0:
                continue
            row_ids = np.nonzero(counts == c)[0]
            for start in range(0, row_ids.size, _CHUNK_ROWS):
                chunk = row_ids[start : start + _CHUNK_ROWS]
                gather = self.row_offsets[chunk][:, None] + np.arange(c)[None, :]
                J = self.col_indices[gather]
                V = self.values[gather]
                out[chunk] = np.einsum("lc,lck->lk", V, D[J])
        return out

    def nbytes(self) -> int:
        """Bytes actually held by the value, column and offset arrays."""
        return self.values.nbytes + self.col_indices.nbytes + self.row_offsets.nbytes

    def footprint_bytes(self) -> int:
        """Modelled compact CSR size (see `csr_footprint_bytes`).

        A model, not a measurement: the arrays here hold int64 column
        indices, so `nbytes()` is larger by 4 bytes per nonzero.
        """
        return csr_footprint_bytes(self.rows, self.nnz)


def csr_footprint_bytes(rows: int, nnz: int) -> int:
    """Compact CSR size: f64 value + u32 column index per entry, i64 row offsets."""
    return nnz * (8 + 4) + (rows + 1) * 8


def sparse_from_triplets(
    rows: int, cols: int, triplets: list[tuple[int, int, float]]
) -> SparseRowMatrix:
    """Build canonical CSR from (i, j, v) triplets. Duplicates are an error."""
    if rows < 0 or cols < 0:
        raise DataError("matrix dimensions must be nonnegative")
    n = len(triplets)
    ri = np.fromiter((t[0] for t in triplets), dtype=np.int64, count=n)
    ci = np.fromiter((t[1] for t in triplets), dtype=np.int64, count=n)
    vv = np.fromiter((t[2] for t in triplets), dtype=np.float64, count=n)
    if n:
        if ri.min() < 0 or ri.max() >= rows:
            raise DataError("triplet row index out of range")
        if ci.min() < 0 or ci.max() >= cols:
            raise DataError("triplet column index out of range")
        order = np.lexsort((ci, ri))
        ri, ci, vv = ri[order], ci[order], vv[order]
        dup = (np.diff(ri) == 0) & (np.diff(ci) == 0)
        if np.any(dup):
            k = int(np.nonzero(dup)[0][0])
            raise DataError(f"duplicate triplet at ({int(ri[k])}, {int(ci[k])})")
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(ri, minlength=rows), out=offsets[1:])
    return SparseRowMatrix(rows, cols, offsets, ci, vv)


def hstack_scaled(members: list[SparseRowMatrix], factor: float) -> SparseRowMatrix:
    """Column-concatenate CSR blocks, scaling every value by `factor`."""
    if not members:
        raise DataError("hstack_scaled: empty member list")
    rows = members[0].rows
    if any(z.rows != rows for z in members):
        raise DataError("hstack_scaled: members disagree on row count")
    col_offset = np.concatenate([[0], np.cumsum([z.cols for z in members])])
    total_cols = int(col_offset[-1])
    counts = sum(z.row_counts() for z in members)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    nnz = int(offsets[-1])
    col_indices = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=np.float64)
    cursor = offsets[:-1].copy()
    for b, z in enumerate(members):
        zc = z.row_counts()
        # destination slots for this block, row by row in one shot
        dest = np.repeat(cursor, zc) + _ramp(zc)
        col_indices[dest] = z.col_indices + col_offset[b]
        values[dest] = z.values * factor
        cursor += zc
    return SparseRowMatrix(rows, total_cols, offsets, col_indices, values)


def _ramp(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for per-row counts."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    starts = np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    return idx - starts
