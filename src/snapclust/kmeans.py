"""Exact KMeans: k-means++ seeding, Lloyd iteration, seeded restarts.

Used both as the final clustering step on the spectral embedding and as
the initializer inside minibatch landmark selection. Restarts draw
independent derived seeds; the winner is the minimum (inertia, restart
index) pair, so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rng import STAGE_RESTART, SeedStream

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITERS = 300


@dataclass
class Partition:
    """Final clustering: one label in [0, k) per row, plus the KMeans objective."""

    labels: np.ndarray
    inertia: float
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise DataError("labels must be a nonempty 1-D array")
        if not (0 <= self.labels.min() and self.labels.max() < self.k):
            raise DataError(f"labels outside [0, {self.k})")
        if not (np.isfinite(self.inertia) and self.inertia >= 0.0):
            raise DataError(f"inertia must be finite and >= 0, got {self.inertia}")


def _sq_dists(
    X: np.ndarray,
    C: np.ndarray,
    xx: np.ndarray,
    out: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Squared euclidean distances, (n, k), clamped at 0.

    `xx` holds the row norms sum(X * X, axis=1), computed once by the
    caller; `out` and `gram` are optional (n, k) buffers reused across
    calls. The arithmetic is (xx + cc) - 2 X C^T in that order, so results
    do not depend on whether buffers are given.
    """
    sq = np.add(xx[:, None], np.sum(C * C, axis=1)[None, :], out=out)
    G = np.matmul(X, C.T, out=gram)
    G *= 2.0
    sq -= G
    np.maximum(sq, 0.0, out=sq)
    return sq


def _center_sums(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-label row sums, (k, d), accumulated in row order like np.add.at."""
    sums = np.empty((k, X.shape[1]), dtype=np.float64)
    for j in range(X.shape[1]):
        sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=k)
    return sums


def kmeans_pp_init(X: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest D^2-weighted."""
    n = X.shape[0]
    if k > n:
        raise ConfigError(f"kmeans++: k={k} exceeds n={n}")
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(gen.integers(n))
    centers[0] = X[first]
    if k == 1:
        return centers
    xx = np.sum(X * X, axis=1)
    d2 = _sq_dists(X, centers[:1], xx)[:, 0]
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            raise DataError(f"kmeans++: fewer than {k} distinct points")
        nxt = int(gen.choice(n, p=d2 / total))
        centers[i] = X[nxt]
        d2 = np.minimum(d2, _sq_dists(X, centers[i : i + 1], xx)[:, 0])
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
    xx = np.sum(X * X, axis=1)
    sq = np.empty((X.shape[0], k), dtype=np.float64)
    gram = np.empty_like(sq)
    prev_labels = None
    labels = None
    inertia = float("inf")
    history: list[float] = []
    for _ in range(max_iters):
        _sq_dists(X, centers, xx, sq, gram)
        labels = np.argmin(sq, axis=1)
        mind = sq[np.arange(X.shape[0]), labels]

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
    """Best-of-restarts KMeans. `X` is a data matrix or a SpectralEmbedding."""
    if hasattr(X, "U"):
        X = X.U
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("kmeans: input must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise DataError("kmeans: input contains non-finite values")
    if not 1 <= k <= X.shape[0]:
        raise ConfigError(f"kmeans: k={k} outside [1, n={X.shape[0]}]")
    if restarts < 1:
        raise ConfigError("kmeans: restarts must be >= 1")

    best: tuple[float, int] | None = None
    best_labels = None
    for i in range(restarts):
        gen = rng.child(STAGE_RESTART, i).generator()
        centers = kmeans_pp_init(X, k, gen)
        labels, inertia, _ = lloyd(X, centers, max_iters)
        key = (inertia, i)
        if best is None or key < best:
            best = key
            best_labels = labels
    return Partition(best_labels, best[0], k)
