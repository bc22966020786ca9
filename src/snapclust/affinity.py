"""Sparse point-to-landmark affinity matrices.

Each data point keeps Gaussian kernel weights to its r nearest landmarks
and drops everything else, so each row has exactly r nonzeros and sums to
one after normalization. Density is r/p by construction, independent of n.

Distances are computed in row blocks of max(1, BLOCK_ENTRIES // p) points,
and the r nearest landmarks of each row are picked by r successive
argmins rather than a full sort, so peak memory is O(block * p + n * r)
instead of a dense n x p matrix. Ties at the r-th distance still go to
the lower landmark index, exactly as a stable sort would order them. The
result is a scipy `csr_array` with sorted columns in each row and int32
indices and offsets, unless n * r or p needs int64 (`index_dtype`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .distances import EUCLIDEAN, Metric, pairwise_distance
from .errors import ConfigError, DataError, NumericalError
from .landmarks import LandmarkSet

ROW_SUM_TOL = 1e-10

# distance entries per row block: 2**20 float64 values is 8 MiB per buffer
BLOCK_ENTRIES = 2**20


def index_dtype(nnz: int, width: int) -> type:
    """int32 for CSR indices and offsets where nnz and the width fit in it, else int64."""
    return np.int32 if max(nnz, width) <= np.iinfo(np.int32).max else np.int64


def scott_bandwidth(Y: np.ndarray) -> float:
    """Scott's rule on the embedding: mean per-dim std times n^(-1/(d+4)).

    Standard deviations use the n-1 denominator. Degenerate input (fewer
    than two samples, or all rows identical) has no usable spread.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise DataError("bandwidth needs at least two samples")
    n, d = Y.shape
    sigma = float(np.mean(np.std(Y, axis=0, ddof=1))) * n ** (-1.0 / (d + 4))
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


def _nearest_rows(dists: np.ndarray, r: int) -> np.ndarray:
    """Per row, the r smallest columns ordered by (distance, index).

    Equals np.argsort(dists, axis=1, kind="stable")[:, :r]. Takes r
    successive row-wise argmins, masking each pick with +inf in place and
    restoring every pick before returning; argmin breaks ties to the lower
    index, as the stable sort does. A row whose picks include NaN or +-inf
    (where masking is no longer exact) is sorted in full instead.
    """
    rows = np.arange(dists.shape[0])
    nearest = np.empty((dists.shape[0], r), dtype=np.int64)
    picked = np.empty((dists.shape[0], r), dtype=dists.dtype)
    for i in range(r):
        nearest[:, i] = np.argmin(dists, axis=1)
        picked[:, i] = dists[rows, nearest[:, i]]
        dists[rows, nearest[:, i]] = np.inf
    # reverse order: a masked entry picked again holds +inf, the first pick the value
    for i in reversed(range(r)):
        dists[rows, nearest[:, i]] = picked[:, i]
    unsure = ~np.all(np.isfinite(picked), axis=1)
    nearest[unsure] = np.argsort(dists[unsure], axis=1, kind="stable")[:, :r]
    return nearest


def _nearest_landmark_rows(
    Y: np.ndarray, centers: np.ndarray, r: int, metric: Metric
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, r nearest landmark indices) for each row of Y.

    Under cosine a zero-norm row is at distance 1 from every nonzero
    landmark, so instead of the first r by index it takes the r landmarks
    of smallest euclidean norm (stable order), the ones a zero row picks
    under euclidean distance. Zero landmarks, at distance 0, come first.
    """
    dists = pairwise_distance(Y, centers, metric)
    nearest = _nearest_rows(dists, r)
    if metric.name == "cosine":
        zero = np.sum(Y * Y, axis=1) == 0.0
        if np.any(zero):
            nearest[zero] = np.argsort(np.sum(centers * centers, axis=1), kind="stable")[:r]
    return dists, nearest


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

    Points are processed in row blocks of max(1, BLOCK_ENTRIES // p):
    each block gets its own distance matrix and keeps only its r nearest
    landmarks (ties to the lower index), so peak memory is
    O(block * p + n * r) rather than O(n * p). Under cosine a zero-norm
    point takes the r landmarks of smallest euclidean norm; they are all
    at distance 1 from it unless some are zero too, so its weights are
    uniform, 1/r.
    """
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    centers = landmarks.centers
    if Y.ndim != 2 or Y.shape[1] != centers.shape[1]:
        raise DataError(f"embedding/landmark dims disagree: {Y.shape} vs {centers.shape}")
    n, p = Y.shape[0], centers.shape[0]
    r = params.r
    if not 1 <= r < p:
        raise ConfigError(f"sparsity must satisfy 1 <= r < p, got r={r}, p={p}")
    sigma = scott_bandwidth(Y) if params.sigma is None else float(params.sigma)

    block = max(1, BLOCK_ENTRIES // p)
    nearest = np.empty((n, r), dtype=np.int64)
    sel = np.empty((n, r), dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dists, nearest[start:stop] = _nearest_landmark_rows(
            Y[start:stop], centers, r, params.metric
        )
        sel[start:stop] = np.take_along_axis(dists, nearest[start:stop], axis=1)
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
