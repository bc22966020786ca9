"""The benchmark's workloads: seeded inputs and the run each one makes.

Each workload is a `run_model` call, the call `snapclust cluster` and
`snapclust baseline` make, on synthetic blob datasets written as rawf32.
Everything the program sees derives from the workload seed: the data, the
ground truth and `PipelineConfig.seed`. Cycles are short and codes small
(outside `config.DOMAINS`, which only logs a warning) so that one call
takes seconds, not minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tags for the two independent streams drawn from one workload seed.
_DATA_STREAM = 0
_CONFIG_STREAM = 1


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    # blob data: n points in d dims around k centers placed with the given
    # spread, each point with unit Gaussian noise
    n: int
    d: int
    separation: float
    # PipelineConfig fields other than dataset, format, k and seed
    config: dict
    # seeded inputs every untraced run covers, whatever --seconds allows;
    # the reported NMI is their median, so it is fixed by code and seed
    inputs: int
    k: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        # work that grows with n dominates: affinity and its n x p buffers
        Workload(
            name="ssc-tall",
            model="ssc",
            n=20_000,
            d=32,
            separation=2.0,
            config=dict(
                m=6,
                cycle_length=2,
                encoding_size=16,
                hidden=(),
                activation="relu",
                landmarks=350,
                sparsity=3,
                metric="euclidean",
                batch_size=256,
                repeats=1,
            ),
            inputs=4,
        ),
        # the dense eigh of the 3600-wide fused Gram dominates; all three metrics
        Workload(
            name="ssc_rm-wide",
            model="ssc_rm",
            n=5_000,
            d=64,
            separation=3.0,
            # the cifar_scale preset's shape (p=600, r=7); alpha0 stays at
            # the package default
            config=dict(
                m=6,
                cycle_length=2,
                encoding_size=16,
                activation="relu",
                landmarks=600,
                sparsity=7,
                metrics=("euclidean", "cosine", "minkowski"),
                repeats=1,
            ),
            inputs=2,
        ),
        # training and Lloyd dominate; no spectral layer runs
        Workload(
            name="dae_kmeans-image",
            model="dae_kmeans",
            n=5_000,
            d=784,
            separation=1.0,
            # alpha0 is the package default: at 0.001 the 12-epoch code stays
            # undertrained and NMI ranged 0.35-0.82 across inputs
            config=dict(
                m=6,
                cycle_length=2,
                alpha0=0.01,
                encoding_size=32,
                hidden=(256,),
                activation="relu",
                repeats=1,
            ),
            inputs=5,
        ),
    )
}


def make_inputs(workload: Workload, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Input `index` of a run: blob data (n x d float32) and its truth labels.

    Generated here rather than by `snapclust.make_blobs`, so that the
    inputs stay fixed while the program changes. float32 is what the
    rawf32 file stores, and it keeps generation below the run's peak memory.
    """
    gen = np.random.default_rng(np.random.SeedSequence([seed, index, _DATA_STREAM]))
    w = workload
    centers = (gen.standard_normal((w.k, w.d)) * w.separation).astype(np.float32)
    truth = np.arange(w.n, dtype=np.int64) % w.k
    X = gen.standard_normal((w.n, w.d), dtype=np.float32)
    X += centers[truth]
    return X, truth


def config_seed(seed: int, index: int) -> int:
    """`PipelineConfig.seed` for input `index` of a run, independent of the data."""
    state = np.random.SeedSequence([seed, index, _CONFIG_STREAM]).generate_state(1, np.uint64)
    return int(state[0])
