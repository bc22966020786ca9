"""Landmark selection via minibatch KMeans (Sculley, WWW 2010).

Landmarks are the cluster centers of a streamed KMeans over the embedding,
seeded by k-means++; selection always measures euclidean distance,
independent of the metric later used for affinities. The loop runs a fixed
budget of batches with no early stop. The centers are float64 throughout;
each batch is assigned in float32, with points and centers taken as
offsets from one float64 shift, the mean of the k-means++ seeds,
subtracted in float64 before the narrowing: distances do not change, but
their float32 expansion rounds in proportion to the norms, so data far
from the origin would otherwise be assigned by its rounding. Each batch
point goes to its nearest center by `distances.nearest_rows`, in float32.
The k-means++ seeding runs on the float64 widening of the subset, which
is exact, and draws each center exactly as `Generator.choice` would.
Per-batch center updates use the running-mean form, which is the
sequential per-point rule in closed form, on the batch in Y's own dtype
summed in float64. It is computed for every center into a buffer
allocated once and written back to the touched centers only: the same
operations on the same rows as updating the touched rows alone. A center
that no batch point reaches keeps its k-means++ position, which is a data
point and so still a valid landmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import as_float, nearest_rows
from .errors import ConfigError, DataError
from .kmeans import _center_sums, kmeans_pp_init
from .rng import STAGE_BATCH, STAGE_INIT, SeedStream

DEFAULT_BATCH_SIZE = 1024
DEFAULT_MAX_BATCHES = 100


@dataclass
class LandmarkSet:
    """p representative points in embedding space, selected euclidean-only."""

    centers: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[0] < 2:
            raise DataError("landmark set needs a 2-D center matrix with p >= 2")
        if not np.all(np.isfinite(self.centers)):
            raise DataError("landmark centers must be finite")

    @property
    def p(self) -> int:
        return self.centers.shape[0]


def minibatch_kmeans(
    Y: np.ndarray,
    p: int,
    rng: SeedStream,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_iters: int = DEFAULT_MAX_BATCHES,
) -> LandmarkSet:
    """Select p landmarks from embedding Y by streamed KMeans.

    Initialization is k-means++ on a uniform subset of max(10p, 2048)
    points. Runs `max_iters` batches; each assigns its points to the
    nearest center, in float32, and moves every touched center to the
    running mean of all points it has ever absorbed. `meta["empty"]`
    counts the centers no batch point reached, and `meta["occupancy"]`
    holds the min, median and max of the points each center absorbed.
    Centers never leave the bounding box of Y. A float32 Y is used as it
    is; any other dtype is taken as float64.
    """
    Y = as_float(Y)
    if Y.ndim != 2 or Y.shape[0] == 0:
        raise DataError("minibatch_kmeans: empty input")
    n, d = Y.shape
    if not 2 <= p < n:
        raise ConfigError(f"landmark count must satisfy 2 <= p < n, got p={p}, n={n}")
    for name, value in (("batch_size", batch_size), ("max_iters", max_iters)):
        if value < 1:
            raise ConfigError(f"minibatch_kmeans: {name} must be >= 1, got {value}")

    init_gen = rng.child(STAGE_INIT).generator()
    subset_size = min(n, max(10 * p, 2048))
    subset = init_gen.choice(n, size=subset_size, replace=False)
    centers = kmeans_pp_init(Y[subset].astype(np.float64, copy=False), p, init_gen)

    counts = np.zeros(p, dtype=np.int64)
    batch_gen = rng.child(STAGE_BATCH).generator()
    bsz = min(batch_size, n)
    shift = centers.mean(axis=0)
    # buffers reused by every batch; mode="clip" lets np.take write into
    # `out` directly (the indices are in range), "raise" would copy first
    B = np.empty((bsz, d), dtype=Y.dtype)
    B32 = np.empty((bsz, d), dtype=np.float32)
    C32 = np.empty((p, d), dtype=np.float32)
    num = np.empty_like(centers)
    for _ in range(max_iters):
        idx = batch_gen.choice(n, size=bsz, replace=False)
        np.take(Y, idx, axis=0, out=B, mode="clip")
        # float64 differences, each rounded once to float32
        np.subtract(B, shift, out=B32)
        np.subtract(centers, shift, out=C32)
        assign = nearest_rows(B32, C32).ravel()
        batch_counts = np.bincount(assign, minlength=p)
        sums = _center_sums(B, assign, p)
        touched = batch_counts > 0
        new_total = counts + batch_counts
        # (counts * center + sums) / new_total on the touched rows; the
        # others keep their center
        np.multiply(counts[:, None], centers, out=num)
        num += sums
        np.divide(num, new_total[:, None], out=centers, where=touched[:, None])
        counts = new_total

    meta = {
        "empty": int(np.count_nonzero(counts == 0)),
        "occupancy": {
            "min": int(counts.min()),
            "median": float(np.median(counts)),
            "max": int(counts.max()),
        },
    }
    return LandmarkSet(centers, seed=rng.seed, meta=meta)
