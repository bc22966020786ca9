"""Fully-connected denoising autoencoder with hand-rolled backprop.

The network is a symmetric stack of dense layers, rectifier (or identity)
activation on hidden layers and an identity output layer. Training noise
is additive Gaussian on the input only; encoding always runs noise-free.
Everything is float64 numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .rng import STAGE_INIT, SeedStream

Params = list[tuple[np.ndarray, np.ndarray]]  # per layer: (W: in x out, b: out)

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class AutoencoderSpec:
    """Architecture of the symmetric dense autoencoder.

    layer_widths is the full symmetric list, input to input, with the
    encoding width at the middle, e.g. [784, 512, 256, 512, 784].
    """

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    input_noise_sigma: float = 0.1
    init_seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 3 or len(widths) % 2 == 0:
            raise ConfigError(f"layer_widths must be an odd-length symmetric list, got {widths}")
        if widths != widths[::-1]:
            raise ConfigError(f"layer_widths must be symmetric, got {widths}")
        if any(w < 1 for w in widths):
            raise ConfigError("all layer widths must be >= 1")
        if self.encoding_size >= self.input_size:
            raise ConfigError(
                f"autoencoder must be undercomplete: encoding {self.encoding_size} "
                f">= input {self.input_size}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.input_noise_sigma < 0:
            raise ConfigError("input_noise_sigma must be >= 0")

    @staticmethod
    def from_encoder_widths(
        encoder_widths: list[int],
        activation: str = "relu",
        input_noise_sigma: float = 0.1,
        init_seed: int = 0,
    ) -> "AutoencoderSpec":
        """Mirror [d, h1, ..., d'] into the full symmetric stack."""
        enc = [int(w) for w in encoder_widths]
        return AutoencoderSpec(
            tuple(enc + enc[-2::-1]), activation, input_noise_sigma, init_seed
        )

    @property
    def input_size(self) -> int:
        return self.layer_widths[0]

    @property
    def encoding_size(self) -> int:
        return self.layer_widths[len(self.layer_widths) // 2]

    @property
    def encoder_layer_count(self) -> int:
        return len(self.layer_widths) // 2

    def fingerprint(self) -> dict:
        return {
            "layer_widths": list(self.layer_widths),
            "activation": self.activation,
            "input_noise_sigma": self.input_noise_sigma,
            "init_seed": self.init_seed,
        }


@dataclass
class EncoderSnapshot:
    """Encoder-half weights captured at the end of one annealing cycle."""

    weights: Params
    cycle_index: int
    train_loss: float
    activation: str = "relu"

    def __post_init__(self):
        for i, (W, b) in enumerate(self.weights):
            if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[1]:
                raise DataError(f"snapshot layer {i}: inconsistent shapes {W.shape} / {b.shape}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise DataError(f"snapshot layer {i}: non-finite weights")
            if i and self.weights[i - 1][0].shape[1] != W.shape[0]:
                raise DataError(f"snapshot layer {i}: width mismatch with previous layer")

    @property
    def input_size(self) -> int:
        return self.weights[0][0].shape[0]


@dataclass
class EmbeddingSet:
    """The m data embeddings produced by one snapshot training run.

    `history` holds one {"epoch", "lr", "loss"} record per training epoch,
    the loss being the mean over its minibatches. It is kept apart from
    `provenance`, which the snapshot files carry. `members` is empty when
    the snapshots went to a capture hook instead (`train_snapshots`).
    """

    members: list[np.ndarray]
    provenance: dict = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for k, Y in enumerate(self.members):
            if Y.shape != self.members[0].shape:
                raise DataError(f"embedding {k} shape {Y.shape} != {self.members[0].shape}")


def init_params(spec: AutoencoderSpec) -> Params:
    """Glorot-uniform initialization, one substream per layer."""
    root = SeedStream(spec.init_seed)
    params = []
    for i in range(len(spec.layer_widths) - 1):
        fan_in, fan_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        gen = root.child(STAGE_INIT, i).generator()
        W = gen.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out, dtype=np.float64)
        params.append((W, b))
    return params


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def forward(X: np.ndarray, params: Params, activation: str) -> list[np.ndarray]:
    """Activations [a0=X, a1, ..., aL]; hidden layers activated, output linear."""
    acts = [X]
    last = len(params) - 1
    for i, (W, b) in enumerate(params):
        z = acts[-1] @ W + b
        acts.append(z if i == last else _act(z, activation))
    return acts


def reconstruction_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements."""
    diff = output - target
    return float(np.mean(diff * diff))


def backward(
    X: np.ndarray, target: np.ndarray, params: Params, activation: str
) -> tuple[float, Params]:
    """One forward/backward pass; returns (loss, gradients).

    Loss is elementwise-mean squared error between the linear output and
    `target` (the clean input for denoising training).
    """
    acts = forward(X, params, activation)
    out = acts[-1]
    loss = reconstruction_loss(out, target)
    delta = (out - target) * (2.0 / out.size)
    grads: Params = [None] * len(params)  # type: ignore[list-item]
    for i in range(len(params) - 1, -1, -1):
        W, _ = params[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = delta @ W.T
            if activation == "relu":
                # acts[i] is post-activation; its positivity marks z > 0
                delta *= acts[i] > 0.0
    return loss, grads


def sgd_step(
    params: Params,
    grads: Params,
    lr: float,
    momentum: float = 0.0,
    velocity: Params | None = None,
) -> tuple[Params, Params]:
    """Classical-momentum SGD: v <- momentum*v + g, w <- w - lr*v.

    Returns (new params, new velocity). Pass the returned velocity back in
    on the next call; None starts from zero.
    """
    if velocity is None:
        velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    new_params: Params = []
    new_velocity: Params = []
    for (W, b), (gW, gb), (vW, vb) in zip(params, grads, velocity):
        if not (np.all(np.isfinite(gW)) and np.all(np.isfinite(gb))):
            raise NumericalError("non-finite gradient in sgd_step")
        vW = momentum * vW + gW
        vb = momentum * vb + gb
        new_params.append((W - lr * vW, b - lr * vb))
        new_velocity.append((vW, vb))
    return new_params, new_velocity


def encode(X: np.ndarray, snapshot: EncoderSnapshot) -> np.ndarray:
    """Deterministic noise-free forward pass through the encoder half."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != snapshot.input_size:
        raise DataError(
            f"encode: input shape {X.shape} incompatible with encoder input "
            f"width {snapshot.input_size}"
        )
    a = X
    for W, b in snapshot.weights:
        a = _act(a @ W + b, snapshot.activation)
    return a
