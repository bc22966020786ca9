"""Snapshot training: SGD under a cyclic cosine learning-rate schedule.

One training run produces M encoder snapshots, captured at the end of
each annealing cycle, plus the noise-free embedding of the data under
each snapshot. The learning rate restarts to its maximum at every cycle
start and decays along a half cosine within the cycle. A capture hook
receives each snapshot as soon as its cycle ends, so a caller can embed
and cluster it while training goes on. Training runs in float32: the
weights, the momentum, the batches and their noise, whatever the dtype
of the data.

The batches, their order and their input noise come from the seed tree
alone, so on a machine with a CPU to spare a thread draws each batch
while the one before trains (`_drawn_ahead`). The thread lives only as
long as one `train_snapshots` call.

Snapshots are saved as numpy .npz files in the weights' dtype, which
`load_snapshot` and `np.load(path, allow_pickle=False)` read without
unpickling anything.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import zipfile
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autoencoder import (
    AutoencoderSpec,
    EmbeddingSet,
    EncoderSnapshot,
    Workspace,
    backward,
    encode,
    init_params,
    sgd_step,
)
from .datasets import check_matrix
from .distances import _CHUNK_ENTRIES
from .errors import ConfigError, DataError, NumericalError, SnapclustError
from .rng import STAGE_BATCH, STAGE_EPOCH, STAGE_NOISE, SeedStream

DEFAULT_MOMENTUM = 0.9


@dataclass(frozen=True)
class SnapshotSchedule:
    """Cyclic cosine annealing: max LR alpha0 over T epochs in M cycles."""

    alpha0: float
    total_epochs: int
    cycles: int

    def __post_init__(self):
        if not 0 < self.alpha0 < math.inf:
            raise ConfigError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        if self.cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {self.cycles}")
        if self.total_epochs < self.cycles:
            raise ConfigError(
                f"total_epochs {self.total_epochs} must be >= cycles {self.cycles}"
            )

    @property
    def cycle_length(self) -> int:
        return math.ceil(self.total_epochs / self.cycles)

    def fingerprint(self) -> dict:
        return {
            "alpha0": self.alpha0,
            "total_epochs": self.total_epochs,
            "cycles": self.cycles,
        }


def cosine_lr(t: int, schedule: SnapshotSchedule) -> float:
    """Learning rate at epoch t (1-based): restarts each cycle, cosine decay within."""
    if not 1 <= t <= schedule.total_epochs:
        raise ConfigError(f"epoch {t} outside schedule range [1, {schedule.total_epochs}]")
    L = schedule.cycle_length
    # divide before scaling by pi: the cycle fraction is then exact at the
    # endpoints and midpoint, so alpha(1) == alpha0 and the even-L midpoint
    # is exactly alpha0 / 2
    return 0.5 * schedule.alpha0 * (math.cos(math.pi * (((t - 1) % L) / L)) + 1.0)


def snapshot_epochs(schedule: SnapshotSchedule) -> list[int]:
    """Epochs at which the M snapshots are captured: min(i*L, T) for i=1..M.

    Always M entries. When T is not a multiple of M the final cycle is
    truncated at T; if trailing cycles collapse entirely, the last epoch
    repeats and the corresponding snapshots share weights.
    """
    L = schedule.cycle_length
    T = schedule.total_epochs
    return [min(i * L, T) for i in range(1, schedule.cycles + 1)]


def train_snapshots(
    X: np.ndarray,
    spec: AutoencoderSpec,
    schedule: SnapshotSchedule,
    batch_size: int,
    rng: SeedStream,
    momentum: float = DEFAULT_MOMENTUM,
    on_capture: Callable[[EncoderSnapshot], None] | None = None,
) -> tuple[list[EncoderSnapshot], EmbeddingSet]:
    """Train the denoising autoencoder and capture M encoder snapshots.

    Each step's batch and its input noise depend on the seed tree only,
    never on the weights: `_batches` draws them in a fixed order. Where
    the CPU affinity mask holds 2 or more CPUs and a batch holds at least
    `distances._CHUNK_ENTRIES` values, a thread draws the next batch into
    the other of two batch slots while `backward` and `sgd_step` run on
    the current one (`_drawn_ahead`); smaller batches are drawn in the
    training loop, where a hand-over would cost about as much as the
    draw. The arithmetic is the same either way, so the weights, history
    and embeddings are too. This call forks nothing.

    The run keeps one set of buffers throughout: one batch slot (two when
    drawn ahead) holding a batch and its noisy copy, a `backward`
    workspace, and the weights and momentum, which are updated in place.
    All of them are float32, and so is the arithmetic. A float32 X is
    gathered straight into its slot; a float64 X is gathered and narrowed
    into it one batch at a time, so it trains bit for bit as
    X.astype(np.float32) does, with no whole float32 copy. The data is
    embedded in row blocks (`encode`), so beyond X and the n x code
    embeddings training holds O(batch * width + parameters).

    Parameters
    ----------
    X : array, shape (n, d)
        Clean training data; also the reconstruction target. float32 and
        float64 are kept as they are, any other dtype is widened to
        float64 (`datasets.check_matrix`).
    spec : AutoencoderSpec
        Architecture, activation, input noise level and weight init seed.
    schedule : SnapshotSchedule
        Cosine annealing schedule; one snapshot per cycle.
    batch_size : int
        Minibatch size, at most n.
    rng : SeedStream
        Source of batch shuffles and input noise. Weight init comes from
        spec.init_seed, so (spec, schedule, rng) fixes the run exactly.
    momentum : float
        Classical momentum coefficient (0 disables).
    on_capture : callable, optional
        Called with each snapshot as soon as it is captured, in cycle
        order. X is then not embedded here: `embeddings.members` is empty
        and the hook's owner embeds each snapshot with `embed_snapshot`.

    Returns
    -------
    (snapshots, embeddings) : exactly M snapshots in cycle order, and the
        noise-free float32 embedding of X under each snapshot (`encode`).
        `embeddings.history`
        holds each epoch's learning rate and mean minibatch loss, and
        `embeddings.feed` where the batches were drawn.
    """
    X = check_matrix(X, "training data")
    n, d = X.shape
    if d != spec.input_size:
        raise DataError(f"data width {d} != autoencoder input {spec.input_size}")
    if not 1 <= batch_size <= n:
        raise ConfigError(f"batch_size must be in [1, {n}], got {batch_size}")

    n_batches = math.ceil(n / batch_size)
    capture_epochs = snapshot_epochs(schedule)

    params = init_params(spec)
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    # one workspace for the run; the short last batch uses its leading rows
    workspace = Workspace.allocate(params, batch_size)
    snapshots: list[EncoderSnapshot] = []
    history: list[dict] = []

    sigma = spec.input_noise_sigma
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    ahead = cpus >= 2 and batch_size * d >= _CHUNK_ENTRIES
    slots = _slots(2 if ahead else 1, batch_size, d, sigma)
    batches = _batches(X, batch_size, schedule.total_epochs, rng, sigma, slots)
    feed_stats = {"train_feed": "thread" if ahead else "inline", "train_feed_wait_s": 0.0}
    if ahead:
        batches = _drawn_ahead(batches, schedule.total_epochs * n_batches, feed_stats)
    # closing the generator joins the draw thread on every exit path
    with contextlib.closing(batches):
        for t in range(1, schedule.total_epochs + 1):
            lr = cosine_lr(t, schedule)
            loss_sum = 0.0
            for _ in range(n_batches):
                clean, noisy = next(batches)
                # divergence is detected from the loss, so let overflow reach it
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grads = backward(noisy, clean, params, spec.activation, workspace)
                if not math.isfinite(loss):
                    raise NumericalError(
                        f"training diverged at epoch {t} (lr={lr:.6g}): non-finite loss"
                    )
                loss_sum += loss
                params, velocity = sgd_step(params, grads, lr, momentum, velocity, in_place=True)
            epoch_loss = loss_sum / n_batches
            history.append({"epoch": t, "lr": lr, "loss": epoch_loss})
            for _ in range(capture_epochs.count(t)):
                snapshots.append(_capture(params, spec, len(snapshots) + 1, epoch_loss))
                if on_capture is not None:
                    on_capture(snapshots[-1])

    if len(snapshots) != schedule.cycles:
        raise NumericalError(
            f"captured {len(snapshots)} snapshots, expected {schedule.cycles}"
        )
    provenance = {"schedule": schedule.fingerprint(), "autoencoder": spec.fingerprint()}
    members = [] if on_capture is not None else [embed_snapshot(X, s) for s in snapshots]
    return snapshots, EmbeddingSet(members, provenance, history, feed_stats)


def _slots(count: int, batch_size: int, d: int, sigma: float) -> list:
    """`count` batch slots: (clean, noisy) pairs of batch_size x d float32 buffers.

    With sigma == 0 the noisy buffer is the clean one, since no noise is
    added.
    """
    shape = (count, 2 if sigma > 0 else 1, batch_size, d)
    return [(slot[0], slot[-1]) for slot in np.empty(shape, np.float32)]


def _batches(X, batch_size: int, epochs: int, rng: SeedStream, sigma: float, slots: list):
    """Every training step's (clean, noisy) float32 batch, in draw order.

    Epoch t permutes the rows with the stream rng.child(STAGE_EPOCH, t)
    .child(STAGE_BATCH) and draws the input noise from its STAGE_NOISE
    sibling, one batch after the other. Step i is written into
    slots[i % len(slots)] (`_slots`) and yielded as views of its leading
    rows, fewer for the short last batch of an epoch. With sigma == 0,
    noisy is clean.
    """
    n = X.shape[0]
    # np.take cannot cast into `out`: a float64 X is gathered here, then narrowed
    gather = None if X.dtype == np.float32 else np.empty((batch_size, X.shape[1]), X.dtype)
    step = 0
    for t in range(1, epochs + 1):
        epoch_stream = rng.child(STAGE_EPOCH, t)
        order = epoch_stream.child(STAGE_BATCH).generator().permutation(n)
        noise_gen = epoch_stream.child(STAGE_NOISE).generator()
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            clean_buf, noisy_buf = slots[step % len(slots)]
            step += 1
            clean = clean_buf[: len(idx)]
            # the indices are a permutation's, so "clip" clips nothing; the
            # default "raise" would copy through a temporary
            if gather is None:
                np.take(X, idx, axis=0, out=clean, mode="clip")
            else:
                clean[...] = np.take(X, idx, axis=0, out=gather[: len(idx)], mode="clip")
            noisy = clean
            if sigma > 0:
                noisy = noise_gen.standard_normal(out=noisy_buf[: len(idx)], dtype=np.float32)
                noisy *= sigma
                noisy += clean
            yield clean, noisy


def _drawn_ahead(batches, steps: int, feed_stats: dict):
    """The `steps` batches of `batches`, each drawn in a thread while the one before trains.

    `batches` is a `_batches` generator over two slots: batch i + 1 is
    drawn into the slot of batch i - 1, which the caller is done with once
    it asks for batch i, and only one draw runs at a time. A failed draw
    raises a SnapclustError naming the batch producer. Closing the
    generator joins the thread. The seconds the caller blocked waiting
    for a batch are added to feed_stats["train_feed_wait_s"].
    """
    with ThreadPoolExecutor(1) as drawer:
        drawn = drawer.submit(next, batches)
        for step in range(1, steps + 1):
            start = time.perf_counter()
            try:
                batch = drawn.result()
            except Exception as exc:
                raise SnapclustError(
                    f"training batch producer stopped before batch {step} of {steps}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            finally:
                feed_stats["train_feed_wait_s"] += time.perf_counter() - start
            if step < steps:
                drawn = drawer.submit(next, batches)
            yield batch


def embed_snapshot(X: np.ndarray, snapshot: EncoderSnapshot) -> np.ndarray:
    """The noise-free embedding of X under `snapshot`, checked to be finite."""
    Y = encode(X, snapshot)
    if not np.all(np.isfinite(Y)):
        raise NumericalError(
            f"embedding of snapshot {snapshot.cycle_index} overflowed; "
            "lower alpha0 or add noise"
        )
    return Y


def _capture(params, spec: AutoencoderSpec, cycle_index: int, loss: float) -> EncoderSnapshot:
    enc = [(W.copy(), b.copy()) for W, b in params[: spec.encoder_layer_count]]
    return EncoderSnapshot(enc, cycle_index, loss, spec.activation)


def save_snapshot(path, snapshot: EncoderSnapshot, provenance: dict | None = None) -> None:
    """Write `snapshot` to exactly `path`: an .npz of W0, b0, W1, b1, ... and JSON `meta`."""
    meta = {
        "cycle_index": snapshot.cycle_index,
        "train_loss": snapshot.train_loss,
        "activation": snapshot.activation,
        "provenance": provenance or {},
    }
    arrays = {f"{k}{i}": a for i, layer in enumerate(snapshot.weights) for k, a in zip("Wb", layer)}
    with open(path, "wb") as fh:  # through a file object numpy appends no ".npz"
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_snapshot(path) -> tuple[EncoderSnapshot, dict]:
    """Read a file written by `save_snapshot`; nothing in it is unpickled.

    The weights keep the dtype they were stored in, float32 for a
    snapshot `train_snapshots` captured, so a reloaded snapshot encodes
    bit for bit as the one captured in the run.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(npz["meta"][()])
            # meta and a W, b pair per layer: a missing or extra array leaves a key absent
            pairs = [(f"W{i}", f"b{i}") for i in range(len(npz.files) // 2)]
            layers = [(npz[w], npz[b]) for w, b in pairs]
        fields = int(meta["cycle_index"]), float(meta["train_loss"]), str(meta["activation"])
        return EncoderSnapshot(layers, *fields), meta.get("provenance", {})
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile, DataError) as exc:
        raise DataError(f"{path}: not a snapshot file: {exc}") from None
