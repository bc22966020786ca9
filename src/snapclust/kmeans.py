"""Exact KMeans: k-means++ seeding, Lloyd iteration, seeded restarts.

Used both as the final clustering step on the spectral embedding and as
the initializer inside minibatch landmark selection. Restarts draw
independent derived seeds; the winner is the minimum (inertia, restart
index) pair. Only the best restart's labels are kept, and every
restart's inertia and Lloyd iteration count stay on the Partition.
On more than SAMPLE_ROWS rows, the restarts run on a seeded uniform
sample of that many rows, and one Lloyd over every row starts from the
winning restart's centroids: the refinement of Bradley & Fayyad
("Refining initial points for k-means clustering", ICML 1998) in its
simplest form.
Lloyd assigns each row by `distances.nearest_rows` in float64; its
squared distance is the row's norm, computed once, plus the smallest
||c||^2 - 2 x.c, clamped at 0. k-means++ computes each new center's
distances as one GEMV in buffers allocated once and draws each
D^2-weighted index with NumPy's own inverse-CDF rule, so it picks the
centers `Generator.choice` would pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemv
from scipy.sparse import csc_array

from .distances import nearest_rows, sq_norms
from .errors import ConfigError, DataError
from .rng import STAGE_RESTART, STAGE_SAMPLE, SeedStream

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITERS = 300
# Rows the restarts run on when there are more. At k = 10, n = 5 000-400 000,
# 1 000 ended in worse minima more often; 4 000 or n // 20 took longer.
SAMPLE_ROWS = 2000


@dataclass
class Partition:
    """Final clustering: one label in [0, k) per row, plus the KMeans objective.

    `restarts` holds one {"inertia", "lloyd_iters"} record per restart, in
    restart order, for diagnostics. If they ran on a sample of the rows,
    their inertias are the sample's, and `sample` holds its size `rows`
    and the `lloyd_iters` of the Lloyd over every row.
    """

    labels: np.ndarray
    inertia: float
    k: int
    restarts: list = field(default_factory=list)
    sample: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise DataError("labels must be a nonempty 1-D array")
        if not (0 <= self.labels.min() and self.labels.max() < self.k):
            raise DataError(f"labels outside [0, {self.k})")
        if not (np.isfinite(self.inertia) and self.inertia >= 0.0):
            raise DataError(f"inertia must be finite and >= 0, got {self.inertia}")


def _center_sums(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-label row sums, (k, d), accumulated in row order like np.add.at."""
    n = X.shape[0]
    # one entry per column: row i of X is added to row labels[i], in row order
    return csc_array((np.ones(n), labels, np.arange(n + 1)), shape=(k, n)) @ X


def kmeans_pp_init(X: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest D^2-weighted.

    Each D^2 draw is `gen.choice(n, p=d2 / d2.sum())` without the checks
    NumPy repeats on every call: the same cumulative sum, normalized by
    its last entry, searched with the same one uniform draw, so the index
    and the generator state match. Distances to each new center are
    (||c||^2 + ||x||^2) - 2 x.c clamped at 0: the row norms plus the
    chosen row's, then one `dgemv` with alpha -2 added, in buffers
    allocated once.
    """
    n = X.shape[0]
    if k > n:
        raise ConfigError(f"kmeans++: k={k} exceeds n={n}")
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    index = int(gen.integers(n))
    centers[0] = X[index]
    if k == 1:
        return centers
    xx = sq_norms(X)
    gram, dist, cdf = np.empty(n), np.empty(n), np.empty(n)
    d2 = np.full(n, np.inf)
    for i in range(1, k):
        np.add(xx[index], xx, out=dist)
        # -2 (X @ c) exactly; beta=1 into dist would round differently
        # where OpenBLAS adds the tail of an unrolled width separately
        dgemv(-2.0, X.T, centers[i - 1], beta=0.0, y=gram, trans=1, overwrite_y=1)
        dist += gram
        np.maximum(dist, 0.0, out=dist)
        np.minimum(d2, dist, out=d2)
        total = float(d2.sum())
        if total <= 0.0:
            raise DataError(f"kmeans++: fewer than {k} distinct points")
        if not np.isfinite(total):
            raise DataError("kmeans++: squared distances are not finite")
        np.divide(d2, total, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        index = int(cdf.searchsorted(gen.random(), side="right"))
        centers[i] = X[index]
    return centers


def lloyd(
    X: np.ndarray, centers: np.ndarray, max_iters: int = DEFAULT_MAX_ITERS
) -> tuple[np.ndarray, float, list[float]]:
    """Lloyd iteration to an assignment fixpoint (or max_iters).

    Returns (labels, inertia, per-iteration inertia history). Empty
    clusters are repaired by relocating the center to the point farthest
    from its current center.
    """
    k = centers.shape[0]
    centers = centers.copy()
    xx = sq_norms(X)
    low = np.empty((X.shape[0], 1))
    prev_labels = None
    labels = None
    inertia = float("inf")
    history: list[float] = []
    for _ in range(max_iters):
        labels = nearest_rows(X, centers, value=low).ravel()
        mind = np.maximum(xx + low.ravel(), 0.0)

        counts = np.bincount(labels, minlength=k)
        dead = np.nonzero(counts == 0)[0]
        if dead.size:
            # the j-th empty cluster takes the j-th farthest point
            far = np.argsort(mind, kind="stable")[::-1][: dead.size]
            centers[dead] = X[far]
            labels[far] = dead
            mind[far] = 0.0
            counts = np.bincount(labels, minlength=k)

        inertia = float(mind.sum())
        history.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        # centroid update; every cluster nonempty after repair
        centers = _center_sums(X, labels, k) / counts[:, None]
    return labels, inertia, history


def kmeans(
    X,
    k: int,
    rng: SeedStream,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> Partition:
    """Best-of-restarts KMeans. `X` is a data matrix or a SpectralEmbedding.

    Restart i draws from `rng.child(STAGE_RESTART, i)`. With k <= SAMPLE_ROWS
    < n the restarts run on a sample drawn from `rng.child(STAGE_SAMPLE)`,
    unless it holds fewer than k distinct rows.
    """
    if hasattr(X, "U"):
        X = X.U
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("kmeans: input must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise DataError("kmeans: input contains non-finite values")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"kmeans: k={k} outside [1, n={n}]")
    for name, value in (("restarts", restarts), ("max_iters", max_iters)):
        if value < 1:
            raise ConfigError(f"kmeans: {name} must be >= 1, got {value}")

    if k <= SAMPLE_ROWS < n:
        rows = rng.child(STAGE_SAMPLE).generator().choice(n, SAMPLE_ROWS, replace=False)
        sample = X[np.sort(rows)]
        try:
            # the sample has SAMPLE_ROWS rows, so the restarts run on all of them
            on_sample = kmeans(sample, k, rng, restarts, max_iters)
        except DataError:
            # fewer than k distinct rows in the sample: restart on every row
            pass
        else:
            counts = np.bincount(on_sample.labels, minlength=k)
            centers = _center_sums(sample, on_sample.labels, k) / counts[:, None]
            labels, inertia, history = lloyd(X, centers, max_iters)
            sampled = {"rows": SAMPLE_ROWS, "lloyd_iters": len(history)}
            return Partition(labels, inertia, k, on_sample.restarts, sampled)

    best = None
    log = []
    for i in range(restarts):
        gen = rng.child(STAGE_RESTART, i).generator()
        labels, inertia, history = lloyd(X, kmeans_pp_init(X, k, gen), max_iters)
        log.append({"inertia": inertia, "lloyd_iters": len(history)})
        # the minimum (inertia, index): a tie keeps the earlier restart
        if best is None or inertia < best[1]:
            best = labels, inertia
    return Partition(*best, k, restarts=log)
