"""Landmark selection via minibatch KMeans (Sculley, WWW 2010).

Landmarks are the cluster centers of a streamed KMeans over the embedding,
seeded by k-means++; selection always measures euclidean distance,
independent of the metric later used for affinities. The loop runs a fixed
budget of batches with no early stop. Each batch is assigned by
`distances.nearest_centers`: the squared distances are prefilled with the
row norms and completed by one fused dgemm in a buffer reused across
batches, and the argmin runs on them unclamped. The k-means++ seeding
draws each center exactly as `Generator.choice` would. Per-batch center updates use the
running-mean form, which is the sequential per-point rule in closed form.
A center that no batch point reaches keeps its k-means++ position, which
is a data point and so still a valid landmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import _CHUNK_ENTRIES, nearest_centers
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
    nearest center and moves every touched center to the running mean of
    all points it has ever absorbed. `meta["empty"]` counts the centers no
    batch point reached. Centers never leave the bounding box of Y.
    """
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] == 0:
        raise DataError("minibatch_kmeans: empty input")
    n = Y.shape[0]
    if not 2 <= p < n:
        raise ConfigError(f"landmark count must satisfy 2 <= p < n, got p={p}, n={n}")

    init_gen = rng.child(STAGE_INIT).generator()
    subset_size = min(n, max(10 * p, 2048))
    subset = init_gen.choice(n, size=subset_size, replace=False)
    centers = kmeans_pp_init(Y[subset], p, init_gen)

    counts = np.zeros(p, dtype=np.int64)
    batch_gen = rng.child(STAGE_BATCH).generator()
    bsz = min(batch_size, n)
    # row norms a block at a time: Y * Y whole would be an n x d temporary
    yy = np.empty(n)
    step = max(1, _CHUNK_ENTRIES // Y.shape[1])
    for start in range(0, n, step):
        block = Y[start : start + step]
        np.sum(block * block, axis=1, out=yy[start : start + step])
    gram = np.empty((bsz, p), dtype=np.float64)
    for _ in range(max_iters):
        idx = batch_gen.choice(n, size=bsz, replace=False)
        B = Y[idx]
        assign, _ = nearest_centers(B, centers, yy[idx], gram)
        batch_counts = np.bincount(assign, minlength=p)
        sums = _center_sums(B, assign, p)
        touched = batch_counts > 0
        new_total = counts + batch_counts
        centers[touched] = (
            counts[touched, None] * centers[touched] + sums[touched]
        ) / new_total[touched, None]
        counts = new_total

    return LandmarkSet(centers, seed=rng.seed, meta={"empty": int(np.count_nonzero(counts == 0))})
