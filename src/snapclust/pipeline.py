"""End-to-end clustering pipelines, baselines, sweeps and run artifacts.

One run = `repeats` independent executions with derived seeds, evaluated
against ground truth when available and aggregated into a single report.
Artifacts per run: one labels file per repeat (one integer per line),
report.json (deterministic for a fixed config and seed), config.txt, and
run.json. Only run.json holds wall-clock timings, memory and diagnostics,
so every other artifact is byte-reproducible. The README lists its
fields.

Ensemble members are independent: member j draws its landmarks from its
own seed stream, so they are built in parallel, while training goes on.
A pool of worker processes, one per CPU in the process's affinity mask
and at most m, is opened before training; its workers fork when the
first snapshot arrives. Each snapshot goes to the pool as soon as
training captures it, and a worker embeds the data under it, selects
landmarks and builds the affinity; only the affinity and its diagnostics
come back. This process trains meanwhile and never builds a member
itself, so it holds no embedding, and collects the members in index
order once training ends: a training error is raised first, then the
lowest failing member's. Training may fork a child of its own, which
draws the batches ahead (`trainer._BatchProducer`); it lives only as
long as the training call. Fusion and the SVD stay in this process. For
every model, the final k-means restarts run in a pool of their own,
forked once the points to cluster exist. Each worker runs OpenBLAS at
one thread, so outputs are byte-identical to a serial run at one BLAS
thread whatever the CPU count, and on Linux it is killed when this
process dies. A one-CPU mask (`taskset -c 0`) runs everything serially,
in this process, and so does a call made while other Python threads are
alive, since forking a threaded process can deadlock; the batch producer
follows the same rules (`forking`). Serially, and for the single-member
models, the members are built one after the other once training has
ended, so this process holds one embedding at a time; the
members and the k-means restarts then run at one BLAS thread here too.
Memory grows to about one member's embedding plus its O(block * p + nnz)
per worker. X is held in the dtype it arrives in when that is float32 or
float64 (a rawf32 file stays float32) and is widened to float64 only a
batch or a row block at a time, by training and `encode`; the untrained
spectral baseline widens it once, and k-means on the raw data widens its
own copy. Training and `encode` run in fixed-size buffers, so beyond X
and the n x code embedding the trained path holds O(block * width +
parameters). The "train" stage seconds are the training loop's wall time,
during which the member workers share the CPUs with it. The "landmarks"
and "affinity" stage seconds sum the members' own seconds, so with
several workers they can exceed `members_wall_s`, the time from opening
the member pool, before training, to collecting the last member.

The ensemble pipeline and the dae_lsc baseline intentionally share one
code path: a single-member ensemble IS the base model, so the degeneracy
holds structurally instead of by test luck.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .affinity import AffinityParams, build_affinity
from .autoencoder import AutoencoderSpec
from .config import PipelineConfig, save_config
from .consensus import fuse, left_singular_vectors
from .datasets import check_matrix, load_dataset, save_labels
from .distances import parse_metric
from .errors import ConfigError, DataError, SnapclustError
from .evaluation import METRIC_KEYS, aggregate, score
from .forking import die_with_parent, pool_workers
from .kmeans import Partition, kmeans
from .landmarks import minibatch_kmeans
from .rng import (
    STAGE_INIT,
    STAGE_KMEANS,
    STAGE_LANDMARKS,
    STAGE_REPEAT,
    STAGE_TRAIN,
    SeedStream,
)
from .trainer import SnapshotSchedule, embed_snapshot, train_snapshots

MODELS = ("ssc", "ssc_rm", "kmeans", "dae_kmeans", "lsc", "dae_lsc")
BASELINES = ("kmeans", "dae_kmeans", "lsc", "dae_lsc")

_TRAINED = ("ssc", "ssc_rm", "dae_kmeans", "dae_lsc")
_SPECTRAL = ("ssc", "ssc_rm", "lsc", "dae_lsc")

NMI_VARIANT = "sqrt-normalized mutual information, natural log"


@dataclasses.dataclass
class RunRecord:
    """Everything about one aggregated run except the partitions themselves."""

    model: str
    fingerprint: str
    stage_seconds: dict
    total_seconds: float
    artifact_paths: dict
    report: dict
    footprint: dict


def _peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024


@contextlib.contextmanager
def _stage(timings: dict, name: str, peaks: dict | None = None):
    start = time.perf_counter()
    try:
        yield
    except SnapclustError as exc:
        raise type(exc)(f"{name} stage: {exc}") from exc
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)
        if peaks is not None:
            peaks[name] = _peak_rss_mib()


# set only in _ForkPool's workers, by the pool initializer, never in the caller
_forked_fn = None
_forked_stop = None


def _openblas_thread_controls() -> list:
    """(get, set) of the thread count of each OpenBLAS loaded in this process.

    Linux only: the libraries are found in /proc/self/maps. Covers stock
    OpenBLAS and the builds bundled with the numpy and scipy wheels.
    """
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {
            fields[-1]
            for fields in map(str.split, fh)
            if "openblas" in os.path.basename(fields[-1])
        }
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                controls.append(
                    (
                        getattr(lib, f"{prefix}_get_num_threads{suffix}"),
                        getattr(lib, f"{prefix}_set_num_threads{suffix}"),
                    )
                )
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread (Linux only).

    The caller's thread counts are restored on leaving, also through an
    exception.
    """
    controls = _openblas_thread_controls() if sys.platform.startswith("linux") else []
    counts = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, counts):
            set_threads(count)


def _adopt(fn, parent: int, stop) -> None:
    global _forked_fn, _forked_stop
    _forked_fn, _forked_stop = fn, stop
    # a worker left behind would wait on the task queue forever, since it
    # holds that queue's write end itself
    die_with_parent(parent)
    if sys.platform.startswith("linux"):
        # one BLAS thread, so that a member's bytes do not depend on the CPU count
        for _, set_threads in _openblas_thread_controls():
            set_threads(1)


def _call_forked(*args):
    # the caller has given up on the results: a queued call is dropped
    return None if _forked_stop.is_set() else _forked_fn(*args)


class _ForkPool:
    """Calls fn(0, ...), fn(1, ...), ... of one function on forked worker processes.

    `submit(*args)` queues fn(i, *args), `i` counting the earlier
    submissions, and a free worker starts it at once. `results()` waits
    for every call and returns the results in submission order, raising
    the exception of the lowest failing call, as a serial loop would.
    `fn` reaches the workers through fork, not pickling: only the
    arguments go out and only the results come back. With fewer than 2
    workers nothing is forked, and `results()` makes the calls here, in
    order, at one BLAS thread as a worker would. Leaving the `with` block
    through an exception drops the calls no worker has started; every
    worker has exited once the block is left.

    On Linux a worker is killed when this process dies, and each worker
    runs OpenBLAS at one thread: the pool does not oversubscribe the CPUs,
    and a call rounds the same whatever the CPU count.
    """

    def __init__(self, fn, workers: int):
        self._fn = fn
        self._calls: list = []
        self._pool = None
        if workers >= 2:
            context = multiprocessing.get_context("fork")
            # the executor hands a worker more calls than it has started
            # and cannot cancel them, so the workers check this first
            self._stop = context.Event()
            self._pool = ProcessPoolExecutor(
                workers,
                mp_context=context,
                initializer=_adopt,
                initargs=(fn, os.getpid(), self._stop),
            )

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._pool is not None:
            if exc_type is not None:
                self._stop.set()
            self._pool.shutdown(cancel_futures=exc_type is not None)

    def submit(self, *args) -> None:
        args = (len(self._calls), *args)
        self._calls.append(self._pool.submit(_call_forked, *args) if self._pool else args)

    def results(self) -> list:
        if self._pool is None:
            with _one_blas_thread():
                return [self._fn(*args) for args in self._calls]
        return [call.result() for call in self._calls]


def fork_map(fn, count: int, workers: int | None = None) -> list:
    """[fn(0), ..., fn(count - 1)], in index order, on forked worker processes.

    `workers` defaults to `pool_workers(count)`. An exception from `fn`
    is raised here as the one from the lowest failing index, as in a
    serial loop. Every worker has exited when this returns or raises.
    With fewer than 2 workers it is a plain loop in this process.
    """
    with _ForkPool(fn, pool_workers(count) if workers is None else workers) as pool:
        for _ in range(count):
            pool.submit()
        return pool.results()


def train_ensemble(
    X: np.ndarray,
    config: PipelineConfig,
    repeat_index: int = 0,
    cycles: int | None = None,
    on_capture=None,
):
    """Train the denoising autoencoder under the run's seed tree.

    Returns (snapshots, embeddings). `cycles` defaults to the ensemble
    size; baselines pass 1 to spend the same L*m epoch budget on a single
    snapshot. The repeat index isolates both the weight init and every
    batch/noise stream, so repeats are genuinely independent. With
    `on_capture`, each snapshot goes to it as soon as it is captured and
    the data is not embedded here (see `train_snapshots`).
    """
    rep = SeedStream(config.seed).child(STAGE_REPEAT, repeat_index)
    n, d = X.shape
    init_seed = int(rep.child(STAGE_INIT).generator().integers(0, 2**63))
    spec = AutoencoderSpec.from_encoder_widths(
        [d, *config.hidden, config.encoding_size],
        activation=config.activation,
        input_noise_sigma=config.noise_sigma,
        init_seed=init_seed,
    )
    schedule = SnapshotSchedule(
        config.alpha0, config.total_epochs, config.m if cycles is None else cycles
    )
    return train_snapshots(
        X,
        spec,
        schedule,
        min(config.batch_size, n),
        rep.child(STAGE_TRAIN),
        momentum=config.momentum,
        on_capture=on_capture,
    )


def _single_run(
    model: str,
    X: np.ndarray,
    config: PipelineConfig,
    repeat_index: int,
    timings: dict,
    peaks: dict,
) -> tuple[Partition, dict, dict]:
    """One fully seeded pipeline execution; returns (partition, footprint, diagnostics).

    Adds each stage's seconds to `timings` and sets its entry in `peaks`
    to this process's peak RSS in MiB when the stage ended.
    """
    rep = SeedStream(config.seed).child(STAGE_REPEAT, repeat_index)
    n = X.shape[0]
    footprint = {}
    diagnostics = {}

    if model in _SPECTRAL:

        def build_member(j: int, snapshot=None):
            # may run in a forked worker, so its seconds return with the result
            seconds: dict = {}
            with _stage(seconds, "train"):
                if snapshot is None:
                    # widened once here, not by each of the two layers below
                    Y = X.astype(np.float64, copy=False)
                else:
                    Y = embed_snapshot(X, snapshot)
            with _stage(seconds, "landmarks"):
                lm = minibatch_kmeans(Y, config.landmarks, rep.child(STAGE_LANDMARKS, j))
            with _stage(seconds, "affinity"):
                params = AffinityParams(
                    config.sparsity, parse_metric(config.member_metric(j))
                )
                affinity = build_affinity(Y, lm, params)
            return affinity, {
                "metric": params.metric.label(),
                "encode_s": seconds["train"],
                "landmarks_s": seconds["landmarks"],
                "affinity_s": seconds["affinity"],
                "empty_landmarks": lm.meta["empty"],
                "worker_peak_rss_mib": _peak_rss_mib(),
            }

        # each snapshot's member is built while training goes on; a
        # training error leaves this block before any member error is seen
        cycles = config.m if model in ("ssc", "ssc_rm") else 1
        workers = pool_workers(cycles)
        start = time.perf_counter()
        with _ForkPool(build_member, workers) as pool:
            if model in _TRAINED:
                with _stage(timings, "train", peaks):
                    _, embeddings = train_ensemble(
                        X, config, repeat_index, cycles, on_capture=pool.submit
                    )
                diagnostics["train"] = embeddings.history
                diagnostics.update(embeddings.feed)
            else:
                pool.submit()
            built = pool.results()
        diagnostics["workers"] = workers
        diagnostics["members_wall_s"] = time.perf_counter() - start
        members = [affinity for affinity, _ in built]
        member_diagnostics = [member for _, member in built]
        for name in ("landmarks", "affinity"):
            timings[name] = timings.get(name, 0.0) + sum(
                member[f"{name}_s"] for member in member_diagnostics
            )
            peaks[name] = _peak_rss_mib()
        with _stage(timings, "fuse", peaks):
            fused = fuse(members)
        with _stage(timings, "svd", peaks):
            points = left_singular_vectors(
                fused,
                config.k,
                degree_normalize=config.degree_normalize,
                row_normalize=config.row_normalize,
            )
        Z = members[0].matrix
        footprint = {
            "member_affinity_bytes": csr_footprint_bytes(n, Z.nnz),
            "member_affinity_nbytes": Z.data.nbytes + Z.indices.nbytes + Z.indptr.nbytes,
            "fused_nnz": fused.nnz,
            "density": members[0].density,
            "dense_equivalent_bytes": n * n * 8,
        }
        diagnostics["spectrum"] = points.meta
        diagnostics["members"] = member_diagnostics
    elif model in _TRAINED:
        with _stage(timings, "train", peaks):
            _, embeddings = train_ensemble(X, config, repeat_index, 1)
        points = embeddings.members[0]
        diagnostics["train"] = embeddings.history
        diagnostics.update(embeddings.feed)
    else:
        points = X

    with _stage(timings, "kmeans", peaks):
        partition = kmeans(points, config.k, rep.child(STAGE_KMEANS), map_restarts=fork_map)
    if model in _SPECTRAL:
        diagnostics["kmeans"] = partition.restarts
    return partition, footprint, diagnostics


def _build_report(config: PipelineConfig, per_run: list[dict]) -> dict:
    report = {
        "config_fingerprint": config.fingerprint(),
        "repeats": config.repeats,
        "nmi_variant": NMI_VARIANT,
    }
    agg = aggregate(per_run)
    report["runs"] = per_run
    report["mean"] = {key: agg[key]["mean"] for key in agg}
    report["std"] = {key: agg[key]["std"] for key in agg}
    for key in METRIC_KEYS:
        report[key] = agg[key]["mean"] if key in agg else None
    return report


def _write_artifacts(
    out_dir,
    config: PipelineConfig,
    partitions: list[Partition],
    report: dict,
    run_doc: dict,
) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    paths = {"labels": []}
    try:
        for i, part in enumerate(partitions):
            path = os.path.join(out_dir, f"labels_rep{i}.txt")
            save_labels(path, part.labels)
            written.append(path)
            paths["labels"].append(path)
        paths["report"] = os.path.join(out_dir, "report.json")
        with open(paths["report"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        written.append(paths["report"])
        paths["config"] = os.path.join(out_dir, "config.txt")
        save_config(paths["config"], config)
        written.append(paths["config"])
        run_doc = dict(run_doc, artifacts={k: v for k, v in paths.items()})
        paths["run"] = os.path.join(out_dir, "run.json")
        with open(paths["run"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(run_doc, sort_keys=True, indent=2) + "\n")
        written.append(paths["run"])
    except OSError as exc:
        # never leave a half-written artifact directory behind
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise DataError(f"cannot write artifacts to {out_dir}: {exc}") from None
    return paths


def run_model(
    model: str,
    config: PipelineConfig,
    X: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    out_dir=None,
) -> tuple[Partition, dict, RunRecord]:
    """Run any pipeline or baseline; the canonical partition is repeat 0.

    With `truth` given, every repeat is scored and the report aggregates
    mean and sample std per metric. With `out_dir` given, artifacts are
    persisted there.
    """
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODELS}")
    config.validate()
    wall_start = time.perf_counter()
    if X is None:
        if not config.dataset:
            raise ConfigError("no dataset given: pass a matrix or set config.dataset")
        X = load_dataset(config.dataset, config.format)
    X = check_matrix(X)
    if truth is not None:
        truth = np.asarray(truth)
        if truth.shape != (X.shape[0],):
            raise DataError(
                f"truth labels length {truth.shape} does not match n={X.shape[0]}"
            )
    if config.k > X.shape[0]:
        raise ConfigError(f"k={config.k} exceeds n={X.shape[0]}")

    timings: dict = {}
    peaks: dict = {}
    partitions: list[Partition] = []
    per_run: list[dict] = []
    footprint: dict = {}
    diagnostics: list[dict] = []
    for i in range(config.repeats):
        partition, footprint, diag = _single_run(model, X, config, i, timings, peaks)
        partitions.append(partition)
        diagnostics.append(diag)
        entry = {"inertia": partition.inertia}
        if truth is not None:
            with _stage(timings, "evaluate", peaks):
                entry.update(score(partition.labels, truth))
        per_run.append(entry)

    report = _build_report(config, per_run)
    total = time.perf_counter() - wall_start
    run_doc = {
        "model": model,
        "config": dataclasses.asdict(config),
        "config_fingerprint": config.fingerprint(),
        "n": int(X.shape[0]),
        "d": int(X.shape[1]),
        "input_dtype": str(X.dtype),
        "input_mib": X.nbytes / 2**20,
        "stage_seconds": timings,
        "stage_peak_rss_mib": peaks,
        "total_seconds": total,
        "footprint": footprint,
        "diagnostics": diagnostics,
        "peak_rss_mib": _peak_rss_mib(),
        # the largest child this process has waited for: member workers included
        "peak_rss_children_mib": _peak_rss_mib(resource.RUSAGE_CHILDREN),
    }
    paths = _write_artifacts(out_dir, config, partitions, report, run_doc) if out_dir else {}
    record = RunRecord(
        model=model,
        fingerprint=config.fingerprint(),
        stage_seconds=dict(timings),
        total_seconds=total,
        artifact_paths=paths,
        report=report,
        footprint=footprint,
    )
    return partitions[0], report, record


def run_ssc(config: PipelineConfig, X=None, truth=None, out_dir=None):
    """Snapshot-ensemble spectral clustering with a single distance metric."""
    if config.random_metric:
        raise ConfigError("config carries a metric list; use run_ssc_rm")
    return run_model("ssc", config, X, truth, out_dir)


def run_ssc_rm(config: PipelineConfig, X=None, truth=None, out_dir=None):
    """Random-metric variant: member i uses metrics[i mod len(metrics)]."""
    if not config.random_metric:
        raise ConfigError("run_ssc_rm needs a nonempty metric list in config.metrics")
    return run_model("ssc_rm", config, X, truth, out_dir)


def run_baseline(model: str, config: PipelineConfig, X=None, truth=None, out_dir=None):
    """One of the reference models: kmeans, dae_kmeans, lsc, dae_lsc."""
    if model not in BASELINES:
        raise ConfigError(f"unknown baseline {model!r}; expected one of {BASELINES}")
    return run_model(model, config, X, truth, out_dir)


def sweep(
    config: PipelineConfig,
    name: str,
    values,
    X=None,
    truth=None,
    out_dir=None,
) -> list[RunRecord]:
    """One aggregated run per value of a single config field.

    All other fields stay at the template's values. Every swept config is
    validated before the dataset is read; the template itself need not be
    valid. Output directories are suffixed with the swept value so runs
    never collide.
    """
    field_names = {f.name for f in dataclasses.fields(PipelineConfig)}
    if name not in field_names:
        raise ConfigError(f"unknown hyperparameter {name!r}; expected a config field")
    configs = [config.replace(**{name: value}).validate() for value in values]
    records: list[RunRecord] = []
    if X is None and config.dataset and name not in ("dataset", "format"):
        X = load_dataset(config.dataset, config.format)
    for value, cfg in zip(values, configs):
        model = "ssc_rm" if cfg.random_metric else "ssc"
        sub_dir = os.path.join(out_dir, f"{name}_{value}") if out_dir else None
        _, _, record = run_model(model, cfg, X, truth, sub_dir)
        records.append(record)
    return records


def csr_footprint_bytes(rows: int, nnz: int) -> int:
    """Modelled compact CSR size: f64 value and u32 column per entry, i64 row offsets."""
    return nnz * (8 + 4) + (rows + 1) * 8


def footprint_report(n: int, p: int, r: int, m: int) -> dict:
    """Memory accounting for the sparse representation vs a dense n x n one."""
    if n < 1 or p < 1 or r < 1 or m < 1:
        raise ConfigError("footprint needs positive n, p, r, m")
    member_bytes = csr_footprint_bytes(n, n * r)
    dense_bytes = n * n * 8
    return {
        "n": n,
        "landmarks": p,
        "sparsity": r,
        "ensemble_size": m,
        "density": r / p,
        "member_affinity_bytes": member_bytes,
        "member_affinity_mib": member_bytes / 2**20,
        "fused_nnz": m * n * r,
        "fused_bytes": csr_footprint_bytes(n, m * n * r),
        "dense_equivalent_bytes": dense_bytes,
        "dense_equivalent_gib": dense_bytes / 2**30,
    }
