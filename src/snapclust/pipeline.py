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
A pool of forked worker processes (`_ForkPool`) runs one function, which
its workers inherit. Each repeat opens one pool, for the members, with
one worker per CPU in the process's affinity mask and at most m. Each
snapshot goes to the pool as soon as training captures it, and a worker
embeds the data under it, selects landmarks and builds the affinity;
only the affinity and its diagnostics come back. This process trains
meanwhile and never builds a member itself, so it holds no embedding,
and collects the members in index order once training ends: a training
error is raised first, then the lowest failing member's. `fuse` copies
each member into the fused matrix as it is collected and drops it. The
pool is the only thing a run forks, and never while a second Python
thread is alive: its workers fork before training starts its
batch-drawing thread (`trainer._drawn_ahead`). Fusion, the SVD and the
final k-means stay in this process; on many rows the k-means restarts
run on a sample of them (see `kmeans`). On Linux a worker is killed
when this process dies. A pool of one worker runs its calls serially,
in this process: so do the one member of `lsc` and `dae_lsc`, a one-CPU
mask (`taskset -c 0`), and a call made while other Python threads are
alive, since forking a threaded process can deadlock (`pool_workers`).
A run holds every loaded OpenBLAS at one thread, which the workers
inherit (`run_model`), so its outputs are byte-identical whatever the
CPU count.
Serially each member is built when `fuse` asks for it, once training
has ended, so this process holds one embedding and member at a time.
Memory grows to about one member's embedding plus its O(block * p + nnz)
per worker. X is held in the dtype it arrives in when that is float32 or
float64 (a rawf32 file stays float32). Training and `encode` run in
float32, so they narrow a float64 X a batch or a row block at a time and
a trained model runs on it as on its float32 narrowing; the codes are
handed on as float32. Every member is built on a float32 embedding: the
untrained spectral baseline uses a float32 X as it is and narrows a
float64 X once, so it too runs on X's float32 narrowing. Landmarks are
assigned and affinities picked in float32 (as offsets from a float64
mean, of unit vectors under cosine, so data far from the origin rounds
like its spread; see `landmarks` and `affinity`), while the landmark centers,
the affinity weights, fusion, the SVD and k-means stay float64; k-means
widens float32 codes or data to its own float64 copy, exactly. Training
and `encode` run in fixed-size buffers, so beyond X and the n x code
embedding the trained path holds O(block * width + parameters). The
"train" stage seconds are the training loop's wall time,
during which the member workers share the CPUs with it. The "landmarks"
and "affinity" stage seconds sum the members' own seconds, so with
several workers they can exceed `members_wall_s`, the time from just
before training to collecting the last member; their peaks are read at
the first member, before any copy. "fuse" counts only the copies and
the fused matrix's check, not the waits for members.

The ensemble pipeline and the dae_lsc baseline intentionally share one
code path: a single-member ensemble IS the base model, so the degeneracy
holds structurally instead of by test luck.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import itertools
import json
import multiprocessing
import os
import resource
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .affinity import AffinityParams, build_affinity
from .autoencoder import AutoencoderSpec
from .config import PipelineConfig, save_config
from .consensus import fuse, left_singular_vectors
from .datasets import check_matrix, load_dataset, save_labels, writing_to
from .distances import parse_metric
from .errors import ConfigError, DataError, SnapclustError
from .evaluation import METRIC_KEYS, aggregate, score
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


# <linux/prctl.h>: deliver a signal to this process when its parent dies
_PR_SET_PDEATHSIG = 1

# set only in _ForkPool's workers, never in the caller: the pool's function,
# whether the caller has given up on its calls, and whether one is running
_forked_fn = None
_forked_stopped = False
_forked_busy = False

# sent to each worker when the caller gives up on the pool's calls
_STOP_SIGNAL = signal.SIGUSR1


def pool_workers(count: int) -> int:
    """Worker processes for `count` independent tasks; below 2, run them here.

    One per CPU in this process's affinity mask, at most `count`. Serial
    where the mask cannot be read, inside a multiprocessing worker, and
    while other Python threads are alive, since forking a threaded process
    can deadlock in the child.
    """
    if (
        not hasattr(os, "sched_getaffinity")
        or multiprocessing.parent_process() is not None
        or threading.active_count() > 1
    ):
        return 1
    return min(count, len(os.sched_getaffinity(0)))


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


class _CallStopped(BaseException):
    """Raised in a worker's running call once the caller has given up on it.

    Not an Exception, so that no `except Exception` in the call catches it.
    """


def _stop_forked(signum, frame) -> None:
    global _forked_stopped
    _forked_stopped = True
    # only inside a call: a worker stopped while it sends a result or reads
    # the next call would leave a message half written in the pool's pipes
    if _forked_busy:
        raise _CallStopped


def _adopt(fn, parent: int) -> None:
    global _forked_fn
    _forked_fn = fn
    # the worker forked with the signal blocked, so one sent before now
    # arrives here
    signal.signal(_STOP_SIGNAL, _stop_forked)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {_STOP_SIGNAL})
    if sys.platform.startswith("linux"):
        # killed with the caller: a worker left behind would wait on the
        # task queue forever, since it holds that queue's write end itself,
        # and hold the caller's stdout open
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        # the caller died before the kill was set up
        os._exit(1)


def _call_forked(*args):
    global _forked_busy
    _forked_busy = True
    try:
        # a call queued before the caller gave up is dropped
        return None if _forked_stopped else _forked_fn(*args)
    finally:
        _forked_busy = False


class _ForkPool:
    """Calls of one function, fn, on forked worker processes.

    The workers fork when the `with` block opens and inherit fn and
    everything it refers to, so `submit(*args)` queues fn(*args) by
    sending only the arguments, and a free worker starts it at once. Only
    the results come back. `results()` yields the results of the calls
    submitted since the last `results()` in submission order, raising the
    exception of the lowest failing call in its place, as a serial loop
    would, and drops each future once its result is taken. With fewer
    than 2 workers nothing is forked, and `results()` makes each call
    here, when its result is asked for. Leaving the block normally waits
    for every call submitted. Leaving it through an exception signals
    each worker to stop: its running call raises at the next Python
    bytecode, and the calls still queued return None unrun, so no call is
    waited for beyond the C function it is in. A worker is never killed
    while it sends or reads, which would leave a message half written in
    the pipes and the executor's threads waiting on it for ever. Either
    way every worker has exited and the executor's threads have ended
    once the block is left. On Linux a worker is killed when this process
    dies.
    """

    def __init__(self, workers: int, fn):
        self._workers = workers
        self._fn = fn
        self._calls: list = []
        self._pool = None

    def __enter__(self):
        if self._workers >= 2:
            before = set(multiprocessing.active_children())
            self._pool = ProcessPoolExecutor(
                self._workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt,
                initargs=(self._fn, os.getpid()),
            )
            # with the fork context the executor forks every worker at its
            # first call, before it starts a thread; until a worker has set
            # its handler, the stop signal stays pending
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {_STOP_SIGNAL})
            try:
                self._pool.submit(os.getpid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            self._forked = [p for p in multiprocessing.active_children() if p not in before]
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._pool is None:
            return
        if exc_type is not None:
            # the caller has given up on the results
            for worker in self._forked:
                if worker.exitcode is None:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(worker.pid, _STOP_SIGNAL)
        self._pool.shutdown(cancel_futures=exc_type is not None)

    def submit(self, *args) -> None:
        if self._pool is None:
            self._calls.append(args)
        else:
            self._calls.append(self._pool.submit(_call_forked, *args))

    def results(self):
        calls, self._calls = self._calls, []
        calls.reverse()
        while calls:
            # rebinding `call` drops the previous future and the result it held
            call = calls.pop()
            yield self._fn(*call) if self._pool is None else call.result()


@_one_blas_thread()
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
    the data is not embedded here (see `train_snapshots`). It trains at
    one OpenBLAS thread, as `run_model` does.
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
    cycles = config.m if model in ("ssc", "ssc_rm") else 1

    def build_member(snapshot=None):
        # may run in a forked worker, so its seconds return with the result
        j = 0 if snapshot is None else snapshot.cycle_index - 1
        seconds: dict = {}
        with _stage(seconds, "train"):
            if snapshot is None:
                # narrowed once here, not by each of the two layers below
                Y = X.astype(np.float32, copy=False)
            else:
                Y = embed_snapshot(X, snapshot)
        with _stage(seconds, "landmarks"):
            lm = minibatch_kmeans(Y, config.landmarks, rep.child(STAGE_LANDMARKS, j))
        with _stage(seconds, "affinity"):
            params = AffinityParams(config.sparsity, parse_metric(config.member_metric(j)))
            affinity = build_affinity(Y, lm, params)
        return affinity, {
            "metric": params.metric.label(),
            "encode_s": seconds["train"],
            "landmarks_s": seconds["landmarks"],
            "affinity_s": seconds["affinity"],
            "empty_landmarks": lm.meta["empty"],
            "occupancy": lm.meta["occupancy"],
            "bandwidth": affinity.bandwidth,
            "zero_code_share": (Y.size - np.count_nonzero(Y)) / Y.size,
            "worker_peak_rss_mib": _peak_rss_mib(),
        }

    member_diagnostics: list = []

    def collected(pool, start):
        # outside the fuse stage, so a member's error keeps its own stage name
        for affinity, member in pool.results():
            diagnostics["members_wall_s"] = time.perf_counter() - start
            if not member_diagnostics:
                peaks["landmarks"] = peaks["affinity"] = _peak_rss_mib()
                Z = affinity.matrix
                footprint.update(
                    member_affinity_bytes=csr_footprint_bytes(n, Z.nnz),
                    member_affinity_nbytes=Z.data.nbytes + Z.indices.nbytes + Z.indptr.nbytes,
                    density=affinity.density,
                )
                del Z
            member_diagnostics.append(member)
            yield affinity
            # released before fuse asks for the next member
            del affinity

    workers = pool_workers(cycles)
    # the workers fork here, before training starts a thread
    with _ForkPool(workers, build_member) as pool:
        start = time.perf_counter()
        if model in _TRAINED:
            # each snapshot's member is built while training goes on; a
            # training error leaves this block before any member error is seen
            capture = pool.submit if model in _SPECTRAL else None
            with _stage(timings, "train", peaks):
                _, embeddings = train_ensemble(X, config, repeat_index, cycles, on_capture=capture)
            diagnostics["train"] = embeddings.history
            diagnostics.update(embeddings.feed)
        elif model in _SPECTRAL:
            pool.submit()
        if model in _SPECTRAL:
            stage = functools.partial(_stage, timings, "fuse", peaks)
            fused = fuse(collected(pool, start), cycles, stage)
    if model in _SPECTRAL:
        for name in ("landmarks", "affinity"):
            timings[name] = timings.get(name, 0.0) + sum(
                member[f"{name}_s"] for member in member_diagnostics
            )
        with _stage(timings, "svd", peaks):
            points = left_singular_vectors(
                fused,
                config.k,
                degree_normalize=config.degree_normalize,
                row_normalize=config.row_normalize,
            )
        footprint.update(fused_nnz=fused.nnz, dense_equivalent_bytes=n * n * 8)
        # not held while k-means runs
        del fused
        diagnostics["workers"] = workers
        diagnostics["spectrum"] = points.meta
        diagnostics["members"] = member_diagnostics
    else:
        points = embeddings.members[0] if model in _TRAINED else X

    with _stage(timings, "kmeans", peaks):
        partition = kmeans(points, config.k, rep.child(STAGE_KMEANS))
    if model in _SPECTRAL:
        diagnostics["kmeans"] = partition.restarts
        diagnostics["kmeans_sample"] = partition.sample
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
    written = []
    paths = {"labels": []}
    # never leave a half-written artifact directory behind
    with writing_to(out_dir, written, "artifacts"):
        os.makedirs(out_dir, exist_ok=True)
        for i, part in enumerate(partitions):
            path = os.path.join(out_dir, f"labels_rep{i}.txt")
            written.append(path)
            save_labels(path, part.labels)
            paths["labels"].append(path)
        paths["report"] = os.path.join(out_dir, "report.json")
        written.append(paths["report"])
        with open(paths["report"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        paths["config"] = os.path.join(out_dir, "config.txt")
        written.append(paths["config"])
        save_config(paths["config"], config)
        run_doc = dict(run_doc, artifacts={k: v for k, v in paths.items()})
        paths["run"] = os.path.join(out_dir, "run.json")
        written.append(paths["run"])
        with open(paths["run"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(run_doc, sort_keys=True, indent=2) + "\n")
    return paths


@_one_blas_thread()
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
    persisted there. Every loaded OpenBLAS runs at one thread until the
    call returns or raises; then the caller's thread counts are restored.
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
    peak = _peak_rss_mib()
    worker_peaks = [
        member["worker_peak_rss_mib"] for diag in diagnostics for member in diag.get("members", ())
    ]
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
        "peak_rss_mib": peak,
        # this process or any worker it forked, whichever peaked higher
        "peak_rss_all_mib": max([peak, *worker_peaks]),
        # the largest child this process has waited for, whatever started it
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
    values = list(values)
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
    """Modelled CSR size: f64 value and i32 column per entry, i32 row offsets."""
    return nnz * (8 + 4) + (rows + 1) * 4


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
