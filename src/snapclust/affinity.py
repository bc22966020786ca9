"""Sparse point-to-landmark affinity matrices.

Each data point keeps Gaussian kernel weights to its r nearest landmarks
and drops everything else, so each row has exactly r nonzeros and sums to
one after normalization. Density is r/p by construction, independent of n.

The r nearest landmarks are picked in float32 and weighted in float64.
Euclidean and cosine picks are `distances.nearest_rows` against a float32
copy of the landmarks, in row blocks of _CHUNK_ENTRIES // p points, so
peak memory is O(block * (p + d) + n * r) instead of a dense n x p
matrix; ties go to the lower landmark index, exactly as a stable sort
would order them. The rows and the landmarks are narrowed as offsets
from the landmarks' mean, computed in float64 and rounded once:
euclidean and minkowski distances do not depend on the origin, and
float32 rounding then scales with the spread of the data, not with its
distance from the origin. Cosine ranks the landmarks as the euclidean
distance between unit vectors does, ||u - v||^2 = 2 (1 - u.v), so under
cosine both are scaled to unit norm in float64 first and ranked by that
distance from their offsets; a float32 1 - u.v would round by about 1e-7
whatever the spread of the directions. Minkowski picks the r smallest
of each float32 `pairwise_distance` row, in blocks of BLOCK_ENTRIES // p
rows. Only where float32 rounding flips a near tie does a pick differ
from float64's. The r picked distances are then recomputed in float64
by `distances.exact_distances`, where every metric's exact formula
lives, and the kernel's squares, shift, exp and normalization run on
those. The result is a scipy `csr_array` with sorted columns in each row
and int32 indices and offsets, unless n * r or p needs int64
(`index_dtype`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .distances import (
    _CHUNK_ENTRIES,
    EUCLIDEAN,
    Metric,
    _smallest,
    as_float,
    exact_distances,
    nearest_rows,
    pairwise_distance,
    row_norms,
    sq_norms,
    unit_rows,
)
from .errors import ConfigError, DataError, NumericalError
from .landmarks import LandmarkSet

ROW_SUM_TOL = 1e-10

# minkowski distance entries per row block: 2**20 float32 values is 4 MiB
BLOCK_ENTRIES = 2**20


def index_dtype(nnz: int, width: int) -> type:
    """int32 for CSR indices and offsets where nnz and the width fit in it, else int64."""
    return np.int32 if max(nnz, width) <= np.iinfo(np.int32).max else np.int64


def scott_bandwidth(Y: np.ndarray) -> float:
    """Scott's rule on the embedding: mean per-dim std times n^(-1/(d+4)).

    Standard deviations use the n-1 denominator. They are accumulated in
    float64 from the column means, a chunk of rows at a time, so a float32
    Y is never copied whole to float64. Degenerate input (fewer than two
    samples, or all rows identical) has no usable spread.
    """
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise DataError("bandwidth needs at least two samples")
    n, d = Y.shape
    mean = np.sum(Y, axis=0, dtype=np.float64) / n
    squares = np.zeros(d)
    step = max(1, _CHUNK_ENTRIES // max(1, d))
    for start in range(0, n, step):
        dev = Y[start : start + step] - mean
        dev *= dev
        squares += np.sum(dev, axis=0)
    std = np.sqrt(squares / (n - 1))
    sigma = float(np.mean(std)) * n ** (-1.0 / (d + 4))
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise DataError("degenerate embedding: zero spread in every dimension")
    return sigma


@dataclass(frozen=True)
class AffinityParams:
    """Sparsity r, the distance metric, and an optional fixed bandwidth."""

    r: int
    metric: Metric = EUCLIDEAN
    sigma: float | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError(f"sparsity must be at least 1, got r={self.r}")
        if self.sigma is not None and not self.sigma > 0:
            raise ConfigError(f"bandwidth must be positive, got {self.sigma}")


def _nearest_landmark_rows(
    Y: np.ndarray, centers: np.ndarray, r: int, metric: Metric
) -> np.ndarray:
    """The r nearest landmark indices of each row of Y, picked in float32.

    Y and the float64 centers are narrowed as offsets from the centers'
    mean (see the module docstring). Euclidean and cosine picks are
    `nearest_rows`. Under cosine both are scaled to unit norm first; a
    zero landmark, at cosine distance 1 from every nonzero row, gets 1
    added to its bias entry, which puts it at squared distance 2 from
    every unit row, the unit distance of cosine distance 1. A zero row is
    at cosine distance 1 from every nonzero landmark, so instead of the
    first r by index it takes the r landmarks of smallest euclidean norm
    (stable order), the ones a zero row picks under euclidean distance.
    Zero landmarks, at distance 0, come first. Minkowski picks run on
    `pairwise_distance` blocks of BLOCK_ENTRIES // p rows.
    """
    if metric.name == "cosine":
        units, zero_c = unit_rows(centers)
        norms, zero = row_norms(Y)
        shift = units.mean(axis=0)
        offsets = (units - shift).astype(np.float32)
        nearest = nearest_rows(Y, offsets, r, shift, norms, sq_norms(offsets) + zero_c)
        if np.any(zero):
            nearest[zero] = np.argsort(sq_norms(centers), kind="stable")[:r]
        return nearest
    shift = centers.mean(axis=0)
    offsets = (centers - shift).astype(np.float32)
    if metric.name == "euclidean":
        return nearest_rows(Y, offsets, r, shift)
    step = max(1, BLOCK_ENTRIES // centers.shape[0])
    nearest = np.empty((Y.shape[0], r), dtype=np.intp)
    for start in range(0, Y.shape[0], step):
        block = Y[start : start + step]
        # float64 differences, each rounded once, without a float64 block
        rows = np.subtract(block, shift, out=np.empty(block.shape, np.float32))
        _smallest(pairwise_distance(rows, offsets, metric), nearest[start : start + step])
    return nearest


@dataclass
class SparseAffinity:
    """Row-stochastic n x p CSR affinity: r sorted, distinct columns per row."""

    matrix: csr_array
    params: AffinityParams
    bandwidth: float

    def __post_init__(self):
        M = self.matrix
        if not np.all(np.diff(M.indptr) == self.params.r):
            raise DataError(f"affinity rows must hold exactly r={self.params.r} nonzeros")
        cols = M.indices
        in_range = not M.nnz or 0 <= cols.min() <= cols.max() < M.shape[1]
        if not (M.has_canonical_format and in_range):
            raise DataError("affinity columns must be in range, sorted and unique in each row")
        if np.any(np.abs(M.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise DataError("affinity rows must sum to 1")
        # written so that NaN fails too
        if M.nnz and not (M.data.min() > 0.0 and M.data.max() <= 1.0):
            raise DataError("affinity values must lie in (0, 1]")
        if self.bandwidth <= 0:
            raise DataError("bandwidth must be positive")

    @property
    def density(self) -> float:
        return self.params.r / self.matrix.shape[1]


def build_affinity(
    Y: np.ndarray,
    landmarks: LandmarkSet,
    params: AffinityParams,
) -> SparseAffinity:
    """Gaussian affinities from every point to its r nearest landmarks.

    Kernel weights are exp(-dist^2 / (2 sigma^2)) with sigma from Scott's
    rule unless fixed in params. Each row is shifted by its smallest
    squared distance before exponentiation; the shift cancels in
    normalization and keeps the largest term at exp(0), so a row can
    never underflow to all zeros. A row whose farther kernels still
    underflow would break the strictly-positive-values contract, which is
    reported as a numerical failure rather than silently densified.

    Each point keeps only its r nearest landmarks (ties to the lower
    index), picked in float32 from its offset from the landmarks' mean
    (under cosine of unit vectors) a block of rows at a time, so peak
    memory is O(block * (p + d) + n * r) rather than O(n * p). The
    weights come from the picked distances recomputed in float64, so they
    equal those of the float64 widening of Y wherever the picks do. Under
    cosine a zero-norm point takes the r landmarks of smallest euclidean
    norm; they are all at distance 1 from it unless some are zero too, so
    its weights are uniform, 1/r.
    """
    Y = as_float(Y)
    centers = landmarks.centers
    if Y.ndim != 2 or Y.shape[1] != centers.shape[1]:
        raise DataError(f"embedding/landmark dims disagree: {Y.shape} vs {centers.shape}")
    n, p = Y.shape[0], centers.shape[0]
    r = params.r
    if not 1 <= r < p:
        raise ConfigError(f"sparsity must satisfy 1 <= r < p, got r={r}, p={p}")
    sigma = scott_bandwidth(Y) if params.sigma is None else float(params.sigma)

    nearest = _nearest_landmark_rows(Y, centers, r, params.metric)
    sel = exact_distances(Y, centers, nearest, params.metric)
    sel_sq = sel**2
    shifted = sel_sq - sel_sq.min(axis=1, keepdims=True)
    weights = np.exp(-shifted / (2.0 * sigma * sigma))
    if weights.min() <= 0.0:
        bad = int(np.nonzero(weights.min(axis=1) <= 0.0)[0][0])
        raise NumericalError(
            f"kernel underflow in affinity row {bad}; increase the bandwidth "
            f"(sigma={sigma:.3e}) or reduce sparsity r"
        )
    weights /= weights.sum(axis=1, keepdims=True)

    # CSR wants ascending columns per row; sort the r picks by landmark index
    order = np.argsort(nearest, axis=1, kind="stable")
    dtype = index_dtype(n * r, p)
    cols = np.take_along_axis(nearest, order, axis=1).reshape(-1).astype(dtype)
    vals = np.take_along_axis(weights, order, axis=1).reshape(-1)
    offsets = np.arange(n + 1, dtype=dtype) * r
    matrix = csr_array((vals, cols, offsets), shape=(n, p))
    return SparseAffinity(matrix, params=params, bandwidth=sigma)
