"""Snapshot training: SGD under a cyclic cosine learning-rate schedule.

One training run produces M encoder snapshots, captured at the end of
each annealing cycle, plus the noise-free embedding of the data under
each snapshot. The learning rate restarts to its maximum at every cycle
start and decays along a half cosine within the cycle. A capture hook
receives each snapshot as soon as its cycle ends, so a caller can embed
and cluster it while training goes on.

The batches, their order and their input noise come from the seed tree
alone, so on a machine with a CPU to spare a forked batch producer draws
them ahead while this process runs the weight updates (`_BatchProducer`).
The producer lives only as long as one `train_snapshots` call.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import time
from collections.abc import Callable
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
from .forking import die_with_parent, pool_workers
from .io import SNAPSHOT_MAGIC, read_container, write_container
from .rng import STAGE_BATCH, STAGE_EPOCH, STAGE_NOISE, SeedStream

DEFAULT_MOMENTUM = 0.9


@dataclass(frozen=True)
class SnapshotSchedule:
    """Cyclic cosine annealing: max LR alpha0 over T epochs in M cycles."""

    alpha0: float
    total_epochs: int
    cycles: int

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ConfigError(f"alpha0 must be > 0, got {self.alpha0}")
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
    `forking.pool_workers(2)` allows a fork and a batch holds at least
    `distances._CHUNK_ENTRIES` values, a forked child (`_BatchProducer`)
    draws them ahead into a ring of two shared batch slots while this
    process runs `backward` and `sgd_step` on the batch before; smaller
    batches are drawn here, where a hand-over would cost about as much as
    the draw. The arithmetic is the same either way, so the weights,
    history and embeddings are too.

    The run keeps one set of buffers throughout: one batch slot (two in
    the shared ring) holding a batch and its noisy copy, a `backward`
    workspace, and the weights and momentum, which are updated in place.
    A float32 X stays float32: each batch is gathered and widened into a
    float64 slot, so the arithmetic is the float64 one of
    X.astype(np.float64). The data is embedded in row blocks (`encode`),
    so beyond X and the n x code embeddings training holds O(batch *
    width + parameters).

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
        noise-free embedding of X under each snapshot. `embeddings.history`
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
    draw = (X, batch_size, schedule.total_epochs, rng, sigma)
    if pool_workers(2) >= 2 and batch_size * d >= _CHUNK_ENTRIES:
        feed = _BatchProducer(*draw)
    else:
        feed = contextlib.nullcontext(_batches(*draw, _slots(1, batch_size, d, sigma)))
    with feed as batches:
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
    forked = isinstance(feed, _BatchProducer)
    feed_stats = {
        "train_feed": "process" if forked else "inline",
        "train_feed_wait_s": feed.wait_s if forked else 0.0,
    }

    if len(snapshots) != schedule.cycles:
        raise NumericalError(
            f"captured {len(snapshots)} snapshots, expected {schedule.cycles}"
        )
    provenance = {"schedule": schedule.fingerprint(), "autoencoder": spec.fingerprint()}
    members = [] if on_capture is not None else [embed_snapshot(X, s) for s in snapshots]
    return snapshots, EmbeddingSet(members, provenance, history, feed_stats)


def _slots(count: int, batch_size: int, d: int, sigma: float, shared: bool = False) -> list:
    """`count` batch slots: (clean, noisy) pairs of batch_size x d float64 buffers.

    With sigma == 0 the noisy buffer is the clean one, since no noise is
    added. `shared` places them in anonymous shared memory, which a
    forked child writes and this process reads.
    """
    shape = (count, 2 if sigma > 0 else 1, batch_size, d)
    buffer = mmap.mmap(-1, math.prod(shape) * 8) if shared else None
    return [(slot[0], slot[-1]) for slot in np.ndarray(shape, np.float64, buffer)]


def _batches(X, batch_size: int, epochs: int, rng: SeedStream, sigma: float, slots: list):
    """Every training step's (clean, noisy) float64 batch, in draw order.

    Epoch t permutes the rows with the stream rng.child(STAGE_EPOCH, t)
    .child(STAGE_BATCH) and draws the input noise from its STAGE_NOISE
    sibling, one batch after the other. Step i is written into
    slots[i % len(slots)] (`_slots`) and yielded as views of its leading
    rows, fewer for the short last batch of an epoch. With sigma == 0,
    noisy is clean.
    """
    n = X.shape[0]
    # np.take cannot cast into `out`: a float32 X is gathered here, then widened
    gather = None if X.dtype == np.float64 else np.empty((batch_size, X.shape[1]), X.dtype)
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
                noisy = noise_gen.standard_normal(out=noisy_buf[: len(idx)])
                noisy *= sigma
                noisy += clean
            yield clean, noisy


class _BatchProducer:
    """The `_batches` of one training run, drawn ahead by a forked child.

    Entering the `with` block forks the child; `next` returns the same
    (clean, noisy) batches as `_batches`, as views of a ring of two
    shared slots. The child writes step i into slot i % 2 and sends a
    byte down a pipe once it is there. This process gives slot i - 1
    back, down a second pipe, just before it takes slot i, so the child
    fills slot i + 1 while this process trains on slot i.

    The child calls no BLAS. It runs at the lowest priority, so that the
    scheduler does not place it on the trainer's CPU, and it is killed
    when this process dies. If it fails, it sends its error down the pipe
    and exits; a SnapclustError naming the batch producer is then raised
    here, also when it exits without a word, since the pipe then closes.
    Leaving the block kills and reaps the child. `wait_s` sums the
    seconds this process blocked waiting for a batch.
    """

    def __init__(self, X, batch_size: int, epochs: int, rng: SeedStream, sigma: float):
        n, d = X.shape
        self._draw = (X, batch_size, epochs, rng, sigma)
        self._rows = [min(batch_size, n - start) for start in range(0, n, batch_size)]
        self._steps = epochs * len(self._rows)
        self._slots = _slots(2, batch_size, d, sigma, shared=True)
        self._step = 0
        self._pid = None
        self.wait_s = 0.0

    def __enter__(self):
        full_r, full_w = os.pipe()
        free_r, free_w = os.pipe()
        # both slots start free
        os.write(free_w, b"\0\0")
        parent = os.getpid()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(full_r)
            os.close(free_w)
            self._produce(parent, free_r, full_w)
        os.close(full_w)
        os.close(free_r)
        self._full, self._free = full_r, free_w
        return self

    def __exit__(self, *exc_info):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        os.close(self._full)
        os.close(self._free)

    def _produce(self, parent: int, free: int, full: int) -> None:
        """The child's whole life: fill the slots in step order, then exit."""
        status = 1
        try:
            die_with_parent(parent)
            os.nice(19)
            batches = _batches(*self._draw, self._slots)
            for _ in range(self._steps):
                os.read(free, 1)  # a slot is free
                next(batches)
                os.write(full, b"\0")
            status = 0
        except BaseException as exc:
            # reported to the trainer; the child never unwinds into its caller
            with contextlib.suppress(OSError):
                os.write(full, b"\1" + f"{type(exc).__name__}: {exc}".encode())
        finally:
            os._exit(status)

    def __next__(self):
        step = self._step
        start = time.perf_counter()
        try:
            # slot step - 1 is done with; the child fills step + 1 into it
            if 0 < step < self._steps - 1:
                os.write(self._free, b"\0")
            token = os.read(self._full, 1)
        except BrokenPipeError:
            token = b""
        self.wait_s += time.perf_counter() - start
        if token != b"\0":
            raise self._failure(token)
        self._step += 1
        clean, noisy = self._slots[step % 2]
        rows = self._rows[step % len(self._rows)]
        return clean[:rows], noisy[:rows]

    def _failure(self, token: bytes) -> SnapclustError:
        """The error for a child that stopped early; reaps it."""
        # the child has closed or is closing its end of the pipe: read to EOF
        data = token
        while chunk := os.read(self._full, 1 << 16):
            data += chunk
        message = data.partition(b"\1")[2].decode(errors="replace")
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        cause = message or f"exit code {os.waitstatus_to_exitcode(status)}"
        return SnapclustError(
            f"training batch producer stopped before batch {self._step + 1} "
            f"of {self._steps}: {cause}"
        )


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
    meta = {
        "cycle_index": snapshot.cycle_index,
        "train_loss": snapshot.train_loss,
        "activation": snapshot.activation,
        "provenance": provenance or {},
    }
    write_container(path, SNAPSHOT_MAGIC, snapshot.weights, meta)


def load_snapshot(path) -> tuple[EncoderSnapshot, dict]:
    layers, meta = read_container(path, SNAPSHOT_MAGIC)
    snap = EncoderSnapshot(
        layers,
        int(meta["cycle_index"]),
        float(meta["train_loss"]),
        str(meta.get("activation", "relu")),
    )
    return snap, meta.get("provenance", {})
