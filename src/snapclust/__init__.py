"""Snapshot-ensemble spectral clustering on sparse landmark affinities.

A single cyclically annealed denoising autoencoder yields one encoder
snapshot per learning-rate cycle. Each snapshot embeds the data, each
embedding becomes a sparse point-to-landmark affinity matrix, and the
scaled concatenation of all members is clustered through its leading
left singular vectors. The package also ships the reference baselines,
agreement metrics, seeded synthetic datasets and a CLI.
"""

from .affinity import AffinityParams, SparseAffinity, build_affinity, scott_bandwidth
from .autoencoder import AutoencoderSpec, EmbeddingSet, EncoderSnapshot, encode
from .config import PipelineConfig, load_config, save_config
from .consensus import FusedAffinity, SpectralEmbedding, fuse, left_singular_vectors
from .datasets import (
    detect_format,
    load_dataset,
    load_labels,
    make_blobs,
    make_moons,
    save_labels,
    save_rawf32,
)
from .distances import EUCLIDEAN, Metric, distance, pairwise_distance, parse_metric
from .errors import ConfigError, DataError, NumericalError, SnapclustError
from .evaluation import accuracy, aggregate, ari, contingency, nmi, score
from .kmeans import Partition, kmeans, kmeans_pp_init
from .landmarks import LandmarkSet, minibatch_kmeans
from .pipeline import (
    RunRecord,
    footprint_report,
    run_baseline,
    run_model,
    run_ssc,
    run_ssc_rm,
    sweep,
    train_ensemble,
)
from .rng import SeedStream
from .trainer import (
    SnapshotSchedule,
    cosine_lr,
    load_snapshot,
    save_snapshot,
    snapshot_epochs,
    train_snapshots,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityParams",
    "AutoencoderSpec",
    "ConfigError",
    "DataError",
    "EmbeddingSet",
    "EncoderSnapshot",
    "EUCLIDEAN",
    "FusedAffinity",
    "LandmarkSet",
    "Metric",
    "NumericalError",
    "Partition",
    "PipelineConfig",
    "RunRecord",
    "SeedStream",
    "SnapclustError",
    "SnapshotSchedule",
    "SparseAffinity",
    "SpectralEmbedding",
    "accuracy",
    "aggregate",
    "ari",
    "build_affinity",
    "contingency",
    "cosine_lr",
    "detect_format",
    "distance",
    "encode",
    "footprint_report",
    "fuse",
    "kmeans",
    "kmeans_pp_init",
    "left_singular_vectors",
    "load_config",
    "load_dataset",
    "load_labels",
    "load_snapshot",
    "make_blobs",
    "make_moons",
    "minibatch_kmeans",
    "nmi",
    "pairwise_distance",
    "parse_metric",
    "run_baseline",
    "run_model",
    "run_ssc",
    "run_ssc_rm",
    "save_config",
    "save_labels",
    "save_rawf32",
    "save_snapshot",
    "scott_bandwidth",
    "score",
    "snapshot_epochs",
    "sweep",
    "train_ensemble",
    "train_snapshots",
    "__version__",
]
