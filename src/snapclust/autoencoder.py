"""Fully-connected denoising autoencoder with hand-rolled backprop.

The network is a symmetric stack of dense layers, rectifier (or identity)
activation on hidden layers and an identity output layer. Training noise
is additive Gaussian on the input only; encoding always runs noise-free.
`init_params` makes float32 weights, and training runs in float32.
`forward`, `backward` and `sgd_step` run in the dtype of the arrays they
are given, and `encode` in the dtype of the snapshot's weights: an input
of another dtype is cast one row block at a time. `backward` can run in
buffers its caller keeps (a `Workspace`) and `encode` runs in row blocks,
so neither needs memory that grows with the number of rows beyond its
input and output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import _CHUNK_ENTRIES
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
        if self.activation not in ACTIVATIONS:
            raise DataError(f"snapshot activation {self.activation!r} is not one of {ACTIVATIONS}")
        dtype = self.weights[0][0].dtype if self.weights else None
        for i, (W, b) in enumerate(self.weights):
            if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[1]:
                raise DataError(f"snapshot layer {i}: inconsistent shapes {W.shape} / {b.shape}")
            if W.dtype not in (np.float32, np.float64) or {W.dtype, b.dtype} != {dtype}:
                raise DataError(
                    f"snapshot layer {i}: weights must be all float32 or all float64, "
                    f"got {W.dtype} / {b.dtype}"
                )
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
    `feed` says where the training batches were drawn: `train_feed` is
    "thread" when a thread drew each batch ahead and "inline" when the
    training loop drew it, and `train_feed_wait_s` the seconds training
    blocked waiting for the thread.
    """

    members: list[np.ndarray]
    provenance: dict = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)
    feed: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, Y in enumerate(self.members):
            if Y.shape != self.members[0].shape:
                raise DataError(f"embedding {k} shape {Y.shape} != {self.members[0].shape}")


def init_params(spec: AutoencoderSpec) -> Params:
    """Glorot-uniform float32 weights, drawn in float64 from one substream per layer."""
    root = SeedStream(spec.init_seed)
    params = []
    for i in range(len(spec.layer_widths) - 1):
        fan_in, fan_out = spec.layer_widths[i], spec.layer_widths[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        gen = root.child(STAGE_INIT, i).generator()
        W = gen.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
        b = np.zeros(fan_out, dtype=np.float32)
        params.append((W, b))
    return params


@dataclass
class Workspace:
    """Buffers `backward` writes into, for batches of up to `rows` rows.

    Per layer i, rows x (output width of layer i): its activation, its
    error signal and, for hidden layers, its relu mask; plus the output's
    squared errors and one gradient per parameter, in the parameters'
    dtype. A batch of fewer rows uses the leading rows of each buffer.
    """

    acts: list[np.ndarray]
    deltas: list[np.ndarray]
    masks: list[np.ndarray]
    squares: np.ndarray
    grads: Params

    @staticmethod
    def allocate(params: Params, rows: int) -> "Workspace":
        widths = [W.shape[1] for W, _ in params]
        dtype = params[0][0].dtype
        return Workspace(
            acts=[np.empty((rows, w), dtype) for w in widths],
            deltas=[np.empty((rows, w), dtype) for w in widths],
            masks=[np.empty((rows, w), dtype=bool) for w in widths[:-1]],
            squares=np.empty((rows, widths[-1]), dtype),
            grads=[(np.empty_like(W), np.empty_like(b)) for W, b in params],
        )


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """Apply the activation to z in place; return z."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def forward(
    X: np.ndarray, params: Params, activation: str, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Activations [a0=X, a1, ..., aL]; hidden layers activated, output linear.

    With `out`, layer i writes into the leading len(X) rows of out[i].
    """
    acts = [X]
    last = len(params) - 1
    for i, (W, b) in enumerate(params):
        z = np.matmul(acts[-1], W, out=None if out is None else out[i][: len(X)])
        z += b
        acts.append(z if i == last else _activate(z, activation))
    return acts


def reconstruction_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements."""
    diff = output - target
    return float(np.mean(diff * diff))


def backward(
    X: np.ndarray,
    target: np.ndarray,
    params: Params,
    activation: str,
    workspace: Workspace | None = None,
) -> tuple[float, Params]:
    """One forward/backward pass; returns (loss, gradients).

    Loss is elementwise-mean squared error between the linear output and
    `target` (the clean input for denoising training). Every intermediate
    and the returned gradients live in `workspace`, so the next call with
    it overwrites them; without one, a workspace sized to X is allocated.
    """
    rows = X.shape[0]
    ws = Workspace.allocate(params, rows) if workspace is None else workspace
    acts = forward(X, params, activation, ws.acts)
    out = acts[-1]
    delta = np.subtract(out, target, out=ws.deltas[-1][:rows])
    # the same values as reconstruction_loss(out, target), in a fixed buffer
    loss = float(np.mean(np.multiply(delta, delta, out=ws.squares[:rows])))
    delta *= 2.0 / out.size
    for i in range(len(params) - 1, -1, -1):
        W, _ = params[i]
        gW, gb = ws.grads[i]
        np.matmul(acts[i].T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        if i > 0:
            delta = np.matmul(delta, W.T, out=ws.deltas[i - 1][:rows])
            if activation == "relu":
                # acts[i] is post-activation; its positivity marks z > 0
                delta *= np.greater(acts[i], 0.0, out=ws.masks[i - 1][:rows])
    return loss, ws.grads


def sgd_step(
    params: Params,
    grads: Params,
    lr: float,
    momentum: float = 0.0,
    velocity: Params | None = None,
    in_place: bool = False,
) -> tuple[Params, Params]:
    """Classical-momentum SGD: v <- momentum*v + g, w <- w - lr*v.

    Returns (new params, new velocity). Pass the returned velocity back in
    on the next call; None starts from zero. With `in_place`, the arrays
    of `params` and `velocity` are updated and returned instead of new
    ones, by the same operations in the same order, so the values are bit
    for bit those of the default, pure step.
    """
    if velocity is None:
        velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    new_params: Params = []
    new_velocity: Params = []
    for (W, b), (gW, gb), (vW, vb) in zip(params, grads, velocity):
        if not (np.all(np.isfinite(gW)) and np.all(np.isfinite(gb))):
            raise NumericalError("non-finite gradient in sgd_step")
        if in_place:
            for w, v, g in ((W, vW, gW), (b, vb, gb)):
                v *= momentum
                v += g
                w -= lr * v
        else:
            vW = momentum * vW + gW
            vb = momentum * vb + gb
            W, b = W - lr * vW, b - lr * vb
        new_params.append((W, b))
        new_velocity.append((vW, vb))
    return new_params, new_velocity


def encode(X: np.ndarray, snapshot: EncoderSnapshot) -> np.ndarray:
    """Deterministic noise-free forward pass through the encoder half.

    Every layer runs in the dtype of the snapshot's weights, and the n x
    code codes are returned in that dtype. An X of another dtype is
    cast to the weights' dtype one row block at a time before the block's
    first GEMM, so a float64 X under float32 weights encodes bit for bit
    as X.astype(np.float32) does, with no whole float32 copy of X.
    Runs in row blocks of _CHUNK_ENTRIES // (widest layer) rows, the last
    block taking the remainder, and writes each block's codes into the
    output. Beyond X and that output it holds one block's activations per
    layer, and its cast input, O(block * width). A block's GEMMs are the
    whole-matrix ones restricted to its rows, and OpenBLAS rounds them
    alike when it takes the same kernel for both, as for 784 -> 256 -> 32.
    Where a block's product is small, as for a narrow code layer after a
    wide one (64 -> 512 -> 16), it can take its small-matrix kernel and
    round some codes differently in the last bits; the codes are still a
    fixed function of X and the weights.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != snapshot.input_size:
        raise DataError(
            f"encode: input shape {X.shape} incompatible with encoder input "
            f"width {snapshot.input_size}"
        )
    n = X.shape[0]
    dtype = snapshot.weights[0][0].dtype
    widths = [W.shape[1] for W, _ in snapshot.weights]
    block = max(1, _CHUNK_ENTRIES // max(widths))
    # no block is shorter than `block` rows unless X is: BLAS takes other
    # paths for a few rows (NumPy a GEMV for one) and rounds differently
    stops = [*range(block, n - block + 1, block), n]
    starts = [0, *stops[:-1]]
    # the last block is the longest
    rows = n - starts[-1]
    layers = [np.empty((rows, w), dtype) for w in widths]
    cast = None if X.dtype == dtype else np.empty((rows, X.shape[1]), dtype)
    out = np.empty((n, widths[-1]), dtype)
    for start, stop in zip(starts, stops):
        a = X[start:stop]
        if cast is not None:
            a = cast[: stop - start]
            a[...] = X[start:stop]
        for (W, b), buf in zip(snapshot.weights, layers):
            a = np.matmul(a, W, out=buf[: stop - start])
            a += b
            _activate(a, snapshot.activation)
        out[start:stop] = a
    return out
