"""Outside-in tracing: spans around the calls into each snapclust module.

The tracer replaces, for the length of a `with` block, the names through
which one module calls into another (for example `pipeline.build_affinity`
or `SparseRowMatrix.gram`) with wrappers that record a span per call. No
file of the package changes. Spans stay in memory; `layer_metrics` turns
them into per-layer busy and self times once the run has ended.

A hook whose target no longer exists is reported as absent and skipped,
so the same benchmark can measure a parent commit and a refactored child.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute path). The attribute is the name the
# *calling* module binds: patching `snapclust.landmarks.kmeans_pp_init`
# times landmark seeding only, while `snapclust.kmeans.kmeans_pp_init`
# times the seeding inside the final k-means.
HOOKS = (
    ("datasets.load_dataset", "snapclust.pipeline", "load_dataset"),
    ("pipeline.train_ensemble", "snapclust.pipeline", "train_ensemble"),
    ("trainer.train_snapshots", "snapclust.pipeline", "train_snapshots"),
    ("autoencoder.backward", "snapclust.trainer", "backward"),
    ("autoencoder.sgd_step", "snapclust.trainer", "sgd_step"),
    ("autoencoder.encode", "snapclust.trainer", "encode"),
    ("landmarks.minibatch_kmeans", "snapclust.pipeline", "minibatch_kmeans"),
    ("landmarks.kmeans_pp_init", "snapclust.landmarks", "kmeans_pp_init"),
    ("affinity.build_affinity", "snapclust.pipeline", "build_affinity"),
    ("distances.pairwise_distance", "snapclust.affinity", "pairwise_distance"),
    ("consensus.fuse", "snapclust.pipeline", "fuse"),
    ("consensus.left_singular_vectors", "snapclust.pipeline", "left_singular_vectors"),
    ("sparse.gram", "snapclust.sparse", "SparseRowMatrix.gram"),
    ("sparse.matmul_dense", "snapclust.sparse", "SparseRowMatrix.matmul_dense"),
    ("kmeans.kmeans", "snapclust.pipeline", "kmeans"),
    ("kmeans.kmeans_pp_init", "snapclust.kmeans", "kmeans_pp_init"),
    ("kmeans.lloyd", "snapclust.kmeans", "lloyd"),
    ("evaluation.score", "snapclust.pipeline", "score"),
    ("datasets.save_labels", "snapclust.pipeline", "save_labels"),
)

ROOT = "pipeline.run_model"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    label: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans and the exact counts taken at the hooked boundaries."""

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, label=label))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def __enter__(self) -> "Tracer":
        for name, module, attr in HOOKS:
            target = _resolve(module, attr)
            if target is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, key, original = target
            setattr(owner, key, self._wrap(name, original))
            self._undo.append((owner, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, _label(name, args, kwargs)):
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    # the call's signature or result changed shape
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
            return result

        return traced


def _resolve(module: str, attr: str):
    """(owner, name, current value) for a dotted attribute, or None if gone.

    Modules come from `sys.modules`/`importlib`, never from attributes of
    the package: `snapclust.kmeans` there is the function, not the module.
    """
    try:
        owner = sys.modules.get(module) or importlib.import_module(module)
    except ImportError:
        return None
    *path, key = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, key, None)
    if not callable(value):
        return None
    return owner, key, value


def _label(name: str, args, kwargs) -> str:
    if name == "distances.pairwise_distance":
        metric = kwargs.get("metric", args[2] if len(args) > 2 else None)
        return getattr(metric, "name", str(metric))
    return ""


def _observe_backward(tracer: Tracer, args, result) -> None:
    tracer.count("autoencoder.backward_calls", 1)
    tracer.count("autoencoder.backward_rows", len(args[0]))


def _observe_lloyd(tracer: Tracer, args, result) -> None:
    # lloyd returns (labels, inertia, history): one history entry per iteration
    tracer.count("kmeans.lloyd_iters", len(result[2]))


def _observe_fuse(tracer: Tracer, args, result) -> None:
    matrix = getattr(result, "matrix", result)
    shape = getattr(matrix, "shape", None)
    tracer.count("consensus.width", shape[1] if shape is not None else matrix.cols)
    tracer.count("sparse.nnz", matrix.nnz)


_OBSERVERS = {
    "autoencoder.backward": _observe_backward,
    "kmeans.lloyd": _observe_lloyd,
    "consensus.fuse": _observe_fuse,
}


# Per-layer metrics: name -> (unit, better). Order is the report order.
LAYER_METRICS = {
    "affinity.busy_s": ("s", "lower"),
    "affinity.self_s": ("s", "lower"),
    "distances.pairwise_s.euclidean": ("s", "lower"),
    "distances.pairwise_s.cosine": ("s", "lower"),
    "distances.pairwise_s.minkowski": ("s", "lower"),
    "consensus.svd_s": ("s", "lower"),
    "consensus.svd_self_s": ("s", "lower"),
    "consensus.fuse_s": ("s", "lower"),
    "sparse.gram_s": ("s", "lower"),
    "sparse.matmul_dense_s": ("s", "lower"),
    "consensus.width": ("count", "lower"),
    "sparse.nnz": ("count", "lower"),
    "sparse.gram_mib": ("MiB", "lower"),
    "landmarks.busy_s": ("s", "lower"),
    "landmarks.self_s": ("s", "lower"),
    "landmarks.kmeanspp_s": ("s", "lower"),
    "trainer.busy_s": ("s", "lower"),
    "trainer.self_s": ("s", "lower"),
    "trainer.samples_per_s": ("points/s", "higher"),
    "autoencoder.backward_s": ("s", "lower"),
    "autoencoder.sgd_step_s": ("s", "lower"),
    "autoencoder.encode_s": ("s", "lower"),
    "autoencoder.backward_calls": ("count", "lower"),
    "kmeans.busy_s": ("s", "lower"),
    "kmeans.lloyd_s": ("s", "lower"),
    "kmeans.kmeanspp_s": ("s", "lower"),
    "kmeans.lloyd_iters": ("count", "lower"),
    "datasets.load_s": ("s", "lower"),
    "datasets.save_labels_s": ("s", "lower"),
    "evaluation.score_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "consensus.width",
    "sparse.nnz",
    "autoencoder.backward_calls",
    "kmeans.lloyd_iters",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, except `trace.overhead_frac`.

    busy = summed span time of a hooked function; self = busy minus the
    time its direct child spans cover. A layer that did not run reads 0.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
    busy: dict = {}
    own: dict = {}
    for i, s in enumerate(spans):
        key = f"{s.name}.{s.label}" if s.label else s.name
        busy[key] = busy.get(key, 0.0) + s.seconds
        own[key] = own.get(key, 0.0) + s.seconds - child_s[i]

    counts = tracer.counts
    width = counts.get("consensus.width", 0)
    train_s = busy.get("trainer.train_snapshots", 0.0)
    out = {
        "affinity.busy_s": busy.get("affinity.build_affinity", 0.0),
        "affinity.self_s": own.get("affinity.build_affinity", 0.0),
        "consensus.svd_s": busy.get("consensus.left_singular_vectors", 0.0),
        "consensus.svd_self_s": own.get("consensus.left_singular_vectors", 0.0),
        "consensus.fuse_s": busy.get("consensus.fuse", 0.0),
        "sparse.gram_s": busy.get("sparse.gram", 0.0),
        "sparse.matmul_dense_s": busy.get("sparse.matmul_dense", 0.0),
        "consensus.width": width,
        "sparse.nnz": counts.get("sparse.nnz", 0),
        # computed, not measured: the dense width x width float64 Gram
        "sparse.gram_mib": width * width * 8 / 2**20,
        "landmarks.busy_s": busy.get("landmarks.minibatch_kmeans", 0.0),
        "landmarks.self_s": own.get("landmarks.minibatch_kmeans", 0.0),
        "landmarks.kmeanspp_s": busy.get("landmarks.kmeans_pp_init", 0.0),
        "trainer.busy_s": train_s,
        "trainer.self_s": own.get("trainer.train_snapshots", 0.0),
        "trainer.samples_per_s": (
            counts.get("autoencoder.backward_rows", 0) / train_s if train_s > 0 else 0.0
        ),
        "autoencoder.backward_s": busy.get("autoencoder.backward", 0.0),
        "autoencoder.sgd_step_s": busy.get("autoencoder.sgd_step", 0.0),
        "autoencoder.encode_s": busy.get("autoencoder.encode", 0.0),
        "autoencoder.backward_calls": counts.get("autoencoder.backward_calls", 0),
        "kmeans.busy_s": busy.get("kmeans.kmeans", 0.0),
        "kmeans.lloyd_s": busy.get("kmeans.lloyd", 0.0),
        "kmeans.kmeanspp_s": busy.get("kmeans.kmeans_pp_init", 0.0),
        "kmeans.lloyd_iters": counts.get("kmeans.lloyd_iters", 0),
        "datasets.load_s": busy.get("datasets.load_dataset", 0.0),
        "datasets.save_labels_s": busy.get("datasets.save_labels", 0.0),
        "evaluation.score_s": busy.get("evaluation.score", 0.0),
        "pipeline.self_s": own.get(ROOT, 0.0),
    }
    for metric in ("euclidean", "cosine", "minkowski"):
        out[f"distances.pairwise_s.{metric}"] = busy.get(
            f"distances.pairwise_distance.{metric}", 0.0
        )
    return out


def stage_spans(tracer: Tracer) -> tuple[float, float, dict]:
    """(root seconds, summed top-level stage seconds, top-level seconds by name)."""
    roots = [i for i, s in enumerate(tracer.spans) if s.parent < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root = roots[0]
    stages: dict = {}
    for s in tracer.spans:
        if s.parent == root:
            stages[s.name] = stages.get(s.name, 0.0) + s.seconds
    return tracer.spans[root].seconds, sum(stages.values()), stages
