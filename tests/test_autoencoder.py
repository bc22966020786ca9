"""Dense autoencoder: spec validation, init, forward oracle, gradient check."""

import tracemalloc

import numpy as np
import pytest

from snapclust import autoencoder
from snapclust.autoencoder import (
    AutoencoderSpec,
    EmbeddingSet,
    EncoderSnapshot,
    Workspace,
    backward,
    encode,
    forward,
    init_params,
    reconstruction_loss,
    sgd_step,
)
from snapclust.errors import ConfigError, DataError, NumericalError


def test_spec_validation():
    AutoencoderSpec((8, 4, 2, 4, 8))
    with pytest.raises(ConfigError):
        AutoencoderSpec((8, 4, 8, 8))  # even length
    with pytest.raises(ConfigError):
        AutoencoderSpec((8, 4, 6, 4, 9))  # not symmetric
    with pytest.raises(ConfigError):
        AutoencoderSpec((4, 8, 4))  # overcomplete
    with pytest.raises(ConfigError):
        AutoencoderSpec((8, 0, 8))
    with pytest.raises(ConfigError):
        AutoencoderSpec((8, 4, 8), activation="tanh")
    with pytest.raises(ConfigError):
        AutoencoderSpec((8, 4, 8), input_noise_sigma=-0.1)


def test_from_encoder_widths_mirrors():
    spec = AutoencoderSpec.from_encoder_widths([10, 6, 3])
    assert spec.layer_widths == (10, 6, 3, 6, 10)
    assert spec.input_size == 10
    assert spec.encoding_size == 3
    assert spec.encoder_layer_count == 2


def test_init_deterministic_and_glorot_bounded():
    spec = AutoencoderSpec((12, 5, 12), init_seed=42)
    p1 = init_params(spec)
    p2 = init_params(spec)
    for (W1, b1), (W2, b2) in zip(p1, p2):
        assert np.array_equal(W1, W2)
        assert np.array_equal(b1, b2)
        assert np.all(b1 == 0.0)
    W, _ = p1[0]
    bound = np.sqrt(6.0 / (12 + 5))
    assert np.abs(W).max() <= bound
    # different seeds give different weights
    other = init_params(AutoencoderSpec((12, 5, 12), init_seed=43))
    assert not np.array_equal(p1[0][0], other[0][0])


def test_forward_matches_handrolled_oracle():
    gen = np.random.default_rng(0)
    for activation in ("relu", "identity"):
        params = [
            (gen.normal(size=(5, 4)), gen.normal(size=4)),
            (gen.normal(size=(4, 3)), gen.normal(size=3)),
            (gen.normal(size=(3, 5)), gen.normal(size=5)),
        ]
        X = gen.normal(size=(3, 5))
        acts = forward(X, params, activation)
        h = X
        for i, (W, b) in enumerate(params):
            z = h @ W + b
            if i < len(params) - 1 and activation == "relu":
                z = np.maximum(z, 0.0)
            h = z
        assert np.allclose(acts[-1], h, atol=1e-12)
        assert len(acts) == len(params) + 1


def test_encode_zero_weights():
    snap = EncoderSnapshot([(np.zeros((4, 2)), np.zeros(2))], cycle_index=1, train_loss=0.0)
    out = encode(np.ones((3, 4)), snap)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_encode_identity_layer():
    snap = EncoderSnapshot(
        [(np.eye(3), np.zeros(3))], cycle_index=1, train_loss=0.0, activation="identity"
    )
    X = np.random.default_rng(1).normal(size=(4, 3))
    assert np.allclose(encode(X, snap), X)


def test_encode_shape_mismatch():
    snap = EncoderSnapshot([(np.zeros((4, 2)), np.zeros(2))], cycle_index=1, train_loss=0.0)
    with pytest.raises(DataError):
        encode(np.ones((3, 5)), snap)


def whole_matrix_encode(X, snapshot):
    """The encoder as one n x width matrix per layer, as it ran before blocking."""
    a = X
    for W, b in snapshot.weights:
        a = a @ W + b
        if snapshot.activation == "relu":
            a = np.maximum(a, 0.0)
    return a


def random_snapshot(gen, widths, activation, dtype=np.float64):
    weights = [
        (
            (gen.normal(size=(a, b)) / np.sqrt(a)).astype(dtype),
            (gen.normal(size=b) * 0.1).astype(dtype),
        )
        for a, b in zip(widths, widths[1:])
    ]
    return EncoderSnapshot(weights, cycle_index=1, train_loss=0.0, activation=activation)


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_encode_in_row_blocks_equals_the_whole_matrix_chain(activation):
    gen = np.random.default_rng(3)
    # the image benchmark's encoder: its 256-wide hidden layer sets the block
    snapshot = random_snapshot(gen, [784, 256, 32], activation)
    block = autoencoder._CHUNK_ENTRIES // 256
    X = gen.normal(size=(3 * block + 7, 784))
    assert np.array_equal(encode(X, snapshot), whole_matrix_encode(X, snapshot))


@pytest.mark.parametrize("chunk_entries", [2**15, 100])
def test_encode_in_row_blocks_agrees_to_rounding_where_blas_rounds_blocks_apart(
    monkeypatch, chunk_entries
):
    # 512 -> 16 on a 64-row block can take OpenBLAS's small-matrix kernel,
    # and a 100-entry budget leaves one-row blocks, which NumPy runs as GEMVs
    monkeypatch.setattr(autoencoder, "_CHUNK_ENTRIES", chunk_entries)
    gen = np.random.default_rng(4)
    for widths in ([64, 512, 16], [64, 500, 16], [30, 7]):
        snapshot = random_snapshot(gen, widths, "relu")
        X = gen.normal(size=(1000, widths[0]))
        expected = whole_matrix_encode(X, snapshot)
        assert np.allclose(encode(X, snapshot), expected, rtol=1e-12, atol=1e-12)
    assert encode(X[:0], snapshot).shape == (0, 7)


@pytest.mark.parametrize("widths", [[784, 256, 32], [64, 512, 16]])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_of_x_equals_encode_of_x_cast_to_the_weights_dtype(widths, dtype):
    # float32 weights narrow a float64 X; float64 weights widen a float32 X
    gen = np.random.default_rng(9)
    snapshot = random_snapshot(gen, widths, "relu", dtype)
    block = autoencoder._CHUNK_ENTRIES // max(widths[1:])
    other = np.float64 if dtype == np.float32 else np.float32
    X = gen.normal(size=(3 * block + 7, widths[0])).astype(other)
    codes = encode(X, snapshot)
    assert codes.dtype == dtype
    assert np.array_equal(codes, encode(X.astype(dtype), snapshot))


def test_encode_memory_is_bounded_by_the_block():
    gen = np.random.default_rng(5)
    snapshot = random_snapshot(gen, [64, 512, 16], "relu")
    n = 20_000
    X = gen.normal(size=(n, 64))
    tracemalloc.start()
    try:
        codes = encode(X, snapshot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (n, 16)
    # one n x 512 float64 matrix is what the hidden layer alone would take
    assert peak < n * 512 * 8 / 8


def test_backward_into_a_workspace_equals_a_fresh_one():
    gen = np.random.default_rng(6)
    params = init_params(AutoencoderSpec((12, 9, 4, 9, 12), init_seed=2))
    workspace = Workspace.allocate(params, 16)
    for rows in (16, 5, 16):
        X, target = gen.normal(size=(rows, 12)), gen.normal(size=(rows, 12))
        fresh_loss, fresh = backward(X, target, params, "relu")
        loss, grads = backward(X, target, params, "relu", workspace)
        assert loss == fresh_loss
        assert all(
            np.array_equal(g, f) for pair, ref in zip(grads, fresh) for g, f in zip(pair, ref)
        )


def test_sgd_step_in_place_equals_the_pure_step():
    gen = np.random.default_rng(8)
    params = init_params(AutoencoderSpec((6, 3, 6), init_seed=1))
    pure, pure_velocity = params, None
    inplace = [(W.copy(), b.copy()) for W, b in params]
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    arrays = [a for pair in inplace + velocity for a in pair]
    for lr in (0.1, 0.05, 0.01):
        grads = [
            (gen.normal(size=W.shape).astype(W.dtype), gen.normal(size=b.shape).astype(b.dtype))
            for W, b in params
        ]
        pure, pure_velocity = sgd_step(pure, grads, lr, 0.9, pure_velocity)
        inplace, velocity = sgd_step(inplace, grads, lr, 0.9, velocity, in_place=True)
        for state, ref in ((inplace, pure), (velocity, pure_velocity)):
            for pair, ref_pair in zip(state, ref):
                assert all(np.array_equal(a, r) for a, r in zip(pair, ref_pair))
    # the arrays passed in are the ones updated
    assert all(a is b for a, b in zip([a for pair in inplace + velocity for a in pair], arrays))


def test_snapshot_validation():
    with pytest.raises(DataError):
        EncoderSnapshot([(np.zeros((4, 2)), np.zeros(3))], cycle_index=1, train_loss=0.0)
    with pytest.raises(DataError):
        EncoderSnapshot(
            [(np.full((4, 2), np.nan), np.zeros(2))], cycle_index=1, train_loss=0.0
        )


@pytest.mark.parametrize(
    "layers, bad",
    [
        ([(np.zeros((4, 2), np.float32), np.zeros(2))], 0),
        ([(np.zeros((4, 2), np.int64), np.zeros(2, np.int64))], 0),
        ([(np.zeros((4, 2), np.float16), np.zeros(2, np.float16))], 0),
        # a float32 layer after a float64 one
        ([(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2), np.float32), np.zeros(2, np.float32))], 1),
    ],
)
def test_snapshot_rejects_mixed_or_non_float_weights(layers, bad):
    error = f"^snapshot layer {bad}: weights must be all float32 or all float64"
    with pytest.raises(DataError, match=error):
        EncoderSnapshot(layers, cycle_index=1, train_loss=0.0)


def test_snapshot_rejects_an_unknown_activation():
    # an unchecked name would encode as identity: [[2.0]] -> [[2., -2.]] under "tanh"
    weights = [(np.array([[1.0, -1.0]]), np.zeros(2))]
    with pytest.raises(DataError, match=r"^snapshot activation 'tanh' is not one of \('relu', 'identity'\)$"):
        EncoderSnapshot(weights, cycle_index=1, train_loss=0.0, activation="tanh")


def test_embedding_set_shape_check():
    with pytest.raises(DataError):
        EmbeddingSet([np.zeros((3, 2)), np.zeros((3, 3))])
    assert len(EmbeddingSet([np.zeros((3, 2))] * 4).members) == 4


def test_sgd_step_arithmetic():
    params = [(np.array([[1.0]]), np.array([0.5]))]
    grads = [(np.array([[2.0]]), np.array([1.0]))]
    out, vel = sgd_step(params, grads, lr=0.1, momentum=0.0)
    assert out[0][0][0, 0] == pytest.approx(0.8)
    assert out[0][1][0] == pytest.approx(0.4)
    # lr=0 leaves weights unchanged
    out2, _ = sgd_step(params, grads, lr=0.0, momentum=0.0)
    assert np.array_equal(out2[0][0], params[0][0])


def test_sgd_momentum_accumulates():
    params = [(np.array([[0.0]]), np.array([0.0]))]
    grads = [(np.array([[1.0]]), np.array([0.0]))]
    p1, vel = sgd_step(params, grads, lr=0.1, momentum=0.9)
    p2, vel = sgd_step(p1, grads, lr=0.1, momentum=0.9, velocity=vel)
    # second step moves farther: v2 = 0.9*v1 + g
    assert p1[0][0][0, 0] == pytest.approx(-0.1)
    assert p2[0][0][0, 0] == pytest.approx(-0.1 - 0.19)


def test_sgd_rejects_nonfinite_gradient():
    params = [(np.array([[0.0]]), np.array([0.0]))]
    grads = [(np.array([[np.inf]]), np.array([0.0]))]
    with pytest.raises(NumericalError):
        sgd_step(params, grads, lr=0.1)


def numeric_gradients(X, target, params, activation, h=1e-6):
    """Central finite differences of the reconstruction loss."""
    grads = []
    for W, b in params:
        gW = np.zeros_like(W)
        gb = np.zeros_like(b)
        for arr, g in ((W, gW), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp = reconstruction_loss(forward(X, params, activation)[-1], target)
                arr[idx] = old - h
                lm = reconstruction_loss(forward(X, params, activation)[-1], target)
                arr[idx] = old
                g[idx] = (lp - lm) / (2.0 * h)
        grads.append((gW, gb))
    return grads


def sample_net_away_from_kinks(gen, activation, max_layers=3, max_units=32):
    """Random net + batch whose relu pre-activations stay off the kink."""
    n_layers = int(gen.integers(1, max_layers + 1))
    widths = [int(gen.integers(2, max_units + 1)) for _ in range(n_layers + 1)]
    n = int(gen.integers(2, 7))
    for _ in range(100):
        params = [
            (
                gen.normal(size=(widths[i], widths[i + 1])) / np.sqrt(widths[i]),
                gen.normal(size=widths[i + 1]) * 0.1,
            )
            for i in range(n_layers)
        ]
        X = gen.normal(size=(n, widths[0]))
        target = gen.normal(size=(n, widths[-1]))
        if activation != "relu":
            return X, target, params
        h = X
        clear = True
        for i, (W, b) in enumerate(params):
            z = h @ W + b
            if i < n_layers - 1:
                if np.abs(z).min() < 1e-4:
                    clear = False
                    break
                h = np.maximum(z, 0.0)
        if clear:
            return X, target, params
    raise AssertionError("could not sample a kink-free relu instance")


def flatten(grads):
    return np.concatenate([np.r_[gW.ravel(), gb.ravel()] for gW, gb in grads])


def test_backprop_matches_finite_differences():
    gen = np.random.default_rng(7)
    for trial in range(12):
        activation = ("relu", "identity")[trial % 2]
        X, target, params = sample_net_away_from_kinks(gen, activation)
        loss, analytic = backward(X, target, params, activation)
        assert np.isfinite(loss)
        numeric = numeric_gradients(X, target, params, activation)
        fa, fn = flatten(analytic), flatten(numeric)
        rel = np.linalg.norm(fa - fn) / max(np.linalg.norm(fa), np.linalg.norm(fn), 1e-12)
        assert rel <= 1e-5


def test_backward_loss_is_mse():
    gen = np.random.default_rng(9)
    params = [(gen.normal(size=(3, 2)), gen.normal(size=2))]
    X = gen.normal(size=(4, 3))
    target = gen.normal(size=(4, 2))
    loss, _ = backward(X, target, params, "identity")
    out = X @ params[0][0] + params[0][1]
    assert loss == pytest.approx(np.mean((out - target) ** 2))
