"""Snapshot training: SGD under a cyclic cosine learning-rate schedule.

One training run produces M encoder snapshots, captured at the end of
each annealing cycle, plus the noise-free embedding of the data under
each snapshot. The learning rate restarts to its maximum at every cycle
start and decays along a half cosine within the cycle. A capture hook
receives each snapshot as soon as its cycle ends, so a caller can embed
and cluster it while training goes on.
"""

from __future__ import annotations

import math
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
from .errors import ConfigError, DataError, NumericalError
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

    The run keeps one set of buffers throughout: the batch and its noise,
    a `backward` workspace, and the weights and momentum, which are
    updated in place. A float32 X stays float32: each batch is gathered
    and widened into the float64 batch buffer, so the arithmetic is the
    float64 one of X.astype(np.float64). The data is embedded in row
    blocks (`encode`), so beyond X and the n x code embeddings training
    holds O(batch * width + parameters).

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
        holds each epoch's learning rate and mean minibatch loss.
    """
    X = check_matrix(X, "training data")
    n = X.shape[0]
    if X.shape[1] != spec.input_size:
        raise DataError(f"data width {X.shape[1]} != autoencoder input {spec.input_size}")
    if not 1 <= batch_size <= n:
        raise ConfigError(f"batch_size must be in [1, {n}], got {batch_size}")

    n_batches = math.ceil(n / batch_size)
    capture_epochs = snapshot_epochs(schedule)

    params = init_params(spec)
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    # one set of buffers for the run; the short last batch uses their leading rows
    workspace = Workspace.allocate(params, batch_size)
    clean_buf = np.empty((batch_size, X.shape[1]))
    noisy_buf = np.empty_like(clean_buf)
    # np.take cannot cast into `out`: a float32 X is gathered here, then widened
    gather_buf = clean_buf if X.dtype == np.float64 else np.empty_like(clean_buf, X.dtype)
    snapshots: list[EncoderSnapshot] = []
    history: list[dict] = []

    for t in range(1, schedule.total_epochs + 1):
        epoch_stream = rng.child(STAGE_EPOCH, t)
        order = epoch_stream.child(STAGE_BATCH).generator().permutation(n)
        noise_gen = epoch_stream.child(STAGE_NOISE).generator()
        lr = cosine_lr(t, schedule)

        loss_sum = 0.0
        for b in range(n_batches):
            idx = order[b * batch_size : (b + 1) * batch_size]
            # the indices are a permutation's, so "clip" clips nothing; the
            # default "raise" would copy through a temporary
            batch = np.take(X, idx, axis=0, out=gather_buf[: len(idx)], mode="clip")
            clean = clean_buf[: len(idx)]
            if gather_buf is not clean_buf:
                clean[...] = batch
            if spec.input_noise_sigma > 0:
                noisy = noise_gen.standard_normal(out=noisy_buf[: len(idx)])
                noisy *= spec.input_noise_sigma
                noisy += clean
            else:
                noisy = clean
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
    return snapshots, EmbeddingSet(members, provenance, history)


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
