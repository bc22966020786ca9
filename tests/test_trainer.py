"""Snapshot schedule and trainer: formula identities, capture rules, determinism."""

import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from snapclust import trainer
from snapclust.autoencoder import AutoencoderSpec, backward, encode, init_params, sgd_step
from snapclust.distances import _CHUNK_ENTRIES
from snapclust.errors import ConfigError, DataError, NumericalError, SnapclustError
from snapclust.rng import STAGE_BATCH, STAGE_EPOCH, STAGE_NOISE, STAGE_TRAIN, SeedStream
from snapclust.trainer import (
    SNAPSHOT_MAGIC,
    SnapshotSchedule,
    cosine_lr,
    embed_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_epochs,
    train_snapshots,
)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        SnapshotSchedule(alpha0=0.0, total_epochs=10, cycles=1)
    with pytest.raises(ConfigError):
        SnapshotSchedule(alpha0=0.1, total_epochs=10, cycles=0)
    with pytest.raises(ConfigError):
        SnapshotSchedule(alpha0=0.1, total_epochs=3, cycles=4)


def test_cycle_length_ceiling():
    assert SnapshotSchedule(0.1, 120, 6).cycle_length == 20
    assert SnapshotSchedule(0.1, 10, 4).cycle_length == 3
    assert SnapshotSchedule(0.1, 7, 7).cycle_length == 1


def test_lr_starts_at_alpha0():
    for alpha0 in (0.007, 0.01, 0.3):
        s = SnapshotSchedule(alpha0, 40, 2)
        assert cosine_lr(1, s) == alpha0


def test_lr_midpoint_exact_half():
    # L even: cos(pi/2) rounds away against 1.0, so the identity is exact
    s = SnapshotSchedule(0.01, 120, 6)  # L = 20
    assert cosine_lr(1 + 10, s) == 0.005
    s = SnapshotSchedule(0.3, 16, 2)  # L = 8
    assert cosine_lr(1 + 4, s) == 0.15


def test_lr_periodicity_and_reset():
    s = SnapshotSchedule(0.05, 60, 3)  # L = 20
    for t in range(1, 41):
        assert cosine_lr(t, s) == cosine_lr(t + 20, s)
    assert cosine_lr(21, s) == 0.05  # cycle start resets to the maximum


def test_lr_formula_randomized_grid():
    gen = np.random.default_rng(12)
    for _ in range(50):
        alpha0 = float(gen.uniform(1e-4, 0.5))
        M = int(gen.integers(1, 9))
        T = int(gen.integers(M, 300))
        s = SnapshotSchedule(alpha0, T, M)
        L = s.cycle_length
        for t in gen.integers(1, T + 1, size=10):
            t = int(t)
            want = 0.5 * alpha0 * (math.cos(math.pi * (((t - 1) % L) / L)) + 1.0)
            got = cosine_lr(t, s)
            assert got == want
            assert 0.0 < got <= alpha0


def test_lr_paper_point():
    # alpha0=0.01, T=120, M=6, t=20 -> 0.005 (cos(19 pi / 20) + 1)
    s = SnapshotSchedule(0.01, 120, 6)
    assert cosine_lr(20, s) == pytest.approx(0.005 * (math.cos(19 * math.pi / 20) + 1.0))


def test_lr_out_of_range():
    s = SnapshotSchedule(0.01, 10, 2)
    with pytest.raises(ConfigError):
        cosine_lr(0, s)
    with pytest.raises(ConfigError):
        cosine_lr(11, s)


def test_snapshot_epochs_exact_multiples():
    assert snapshot_epochs(SnapshotSchedule(0.1, 40, 2)) == [20, 40]
    assert snapshot_epochs(SnapshotSchedule(0.1, 120, 6)) == [20, 40, 60, 80, 100, 120]


def test_snapshot_epochs_truncated_tail():
    # T=10, M=4: L=3 -> 3, 6, 9, min(12,10)=10
    assert snapshot_epochs(SnapshotSchedule(0.1, 10, 4)) == [3, 6, 9, 10]
    # T=10, M=6: L=2 -> last snapshot epoch repeats; count stays M
    assert snapshot_epochs(SnapshotSchedule(0.1, 10, 6)) == [2, 4, 6, 8, 10, 10]


def tiny_data(n=24, d=6, seed=0):
    gen = np.random.default_rng(seed)
    return gen.normal(size=(n, d))


def test_train_returns_m_snapshots_and_embeddings():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2], input_noise_sigma=0.05)
    schedule = SnapshotSchedule(0.01, 10, 4)  # truncated tail, still 4 snapshots
    snaps, emb = train_snapshots(X, spec, schedule, batch_size=8, rng=SeedStream(3))
    assert len(snaps) == 4
    assert len(emb.members) == 4
    assert [s.cycle_index for s in snaps] == [1, 2, 3, 4]
    for Y in emb.members:
        assert Y.shape == (24, 2)
        assert np.all(np.isfinite(Y))


def test_single_snapshot_single_epoch():
    X = tiny_data(4, 3, seed=1)
    spec = AutoencoderSpec.from_encoder_widths([3, 2], input_noise_sigma=0.0)
    snaps, emb = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 1, 1), batch_size=4, rng=SeedStream(0)
    )
    assert len(snaps) == 1
    assert emb.members[0].shape == (4, 2)


def test_snapshots_differ_across_cycles():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 3], input_noise_sigma=0.05)
    snaps, _ = train_snapshots(
        X, spec, SnapshotSchedule(0.05, 40, 2), batch_size=8, rng=SeedStream(5)
    )
    w0 = snaps[0].weights[0][0]
    w1 = snaps[1].weights[0][0]
    assert not np.array_equal(w0, w1)


def test_training_deterministic():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2], input_noise_sigma=0.1)
    schedule = SnapshotSchedule(0.02, 12, 3)
    runs = []
    for _ in range(2):
        snaps, emb = train_snapshots(
            X, spec, schedule, batch_size=8, rng=SeedStream(11).child(STAGE_TRAIN)
        )
        runs.append((snaps, emb))
    for s1, s2 in zip(runs[0][0], runs[1][0]):
        for (W1, b1), (W2, b2) in zip(s1.weights, s2.weights):
            assert np.array_equal(W1, W2)
            assert np.array_equal(b1, b2)
    for Y1, Y2 in zip(runs[0][1].members, runs[1][1].members):
        assert np.array_equal(Y1, Y2)


def test_embeddings_are_noise_free_encodings():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 3], input_noise_sigma=0.5)
    snaps, emb = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 6, 2), batch_size=8, rng=SeedStream(2)
    )
    for snap, Y in zip(snaps, emb.members):
        assert np.array_equal(Y, encode(X, snap))


def test_capture_hook_gets_each_snapshot_as_it_is_captured():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2], input_noise_sigma=0.1)
    schedule = SnapshotSchedule(0.02, 12, 3)
    rng = SeedStream(11).child(STAGE_TRAIN)
    snaps, emb = train_snapshots(X, spec, schedule, batch_size=8, rng=rng)
    captured = []
    hooked, streamed = train_snapshots(
        X, spec, schedule, batch_size=8, rng=rng, on_capture=captured.append
    )
    # the hook leaves the embedding to its owner, and changes nothing else
    assert streamed.members == []
    assert streamed.history == emb.history and streamed.provenance == emb.provenance
    assert [id(s) for s in captured] == [id(s) for s in hooked]
    assert [s.cycle_index for s in captured] == [1, 2, 3]
    for snap, Y in zip(captured, emb.members):
        assert np.array_equal(embed_snapshot(X, snap), Y)


def test_embed_snapshot_names_the_overflowing_snapshot():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 2], activation="identity")
    snaps, _ = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 4, 2), batch_size=8, rng=SeedStream(1)
    )
    overflow = r"^embedding of snapshot 2 overflowed; lower alpha0 or add noise$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=overflow):
            embed_snapshot(X * 1e308, snaps[1])


def test_linear_ae_reaches_least_squares_floor():
    # rank-d' data: a linear AE can reconstruct exactly, oracle optimum ~ 0
    gen = np.random.default_rng(6)
    A = gen.normal(size=(60, 2))
    B = gen.normal(size=(2, 5))
    X = A @ B
    spec = AutoencoderSpec.from_encoder_widths(
        [5, 2], activation="identity", input_noise_sigma=0.0
    )
    snaps, _ = train_snapshots(
        X, spec, SnapshotSchedule(0.02, 200, 1), batch_size=16, rng=SeedStream(8)
    )
    # exact least-squares oracle: residual energy beyond the top-d' singular values
    s = np.linalg.svd(X, compute_uv=False)
    floor = float(np.sum(s[2:] ** 2) / X.size)
    assert snaps[-1].train_loss <= floor + 1e-3


def test_divergence_reports_epoch_and_lr():
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths(
        [6, 3], activation="identity", input_noise_sigma=0.0
    )
    with pytest.raises(NumericalError, match=r"diverged at epoch \d+"):
        train_snapshots(
            X, spec, SnapshotSchedule(1e6, 10, 1), batch_size=8, rng=SeedStream(0)
        )


def reference_training(X, spec, schedule, batch_size, rng, momentum):
    """The training loop written with the pure `backward` and `sgd_step`:
    (encoder weights at each capture, per-epoch history)."""
    params, velocity = init_params(spec), None
    captures, history = [], []
    n = X.shape[0]
    n_batches = math.ceil(n / batch_size)
    for t in range(1, schedule.total_epochs + 1):
        epoch_stream = rng.child(STAGE_EPOCH, t)
        order = epoch_stream.child(STAGE_BATCH).generator().permutation(n)
        noise_gen = epoch_stream.child(STAGE_NOISE).generator()
        lr = cosine_lr(t, schedule)
        loss_sum = 0.0
        for b in range(n_batches):
            clean = X[order[b * batch_size : (b + 1) * batch_size]]
            noisy = clean
            if spec.input_noise_sigma > 0:
                noisy = clean + spec.input_noise_sigma * noise_gen.standard_normal(clean.shape)
            loss, grads = backward(noisy, clean, params, spec.activation)
            loss_sum += loss
            params, velocity = sgd_step(params, grads, lr, momentum, velocity)
        history.append({"epoch": t, "lr": lr, "loss": loss_sum / n_batches})
        for _ in range(snapshot_epochs(schedule).count(t)):
            captures.append(params[: spec.encoder_layer_count])
    return captures, history


@pytest.mark.parametrize("sigma", [0.1, 0.0])
def test_training_equals_the_pure_reference_loop(sigma):
    X = tiny_data(29, 6, seed=4)  # 29 rows: the last batch of 8 is short
    spec = AutoencoderSpec.from_encoder_widths([6, 5, 2], input_noise_sigma=sigma, init_seed=3)
    schedule = SnapshotSchedule(0.05, 5, 2)
    rng = SeedStream(13).child(STAGE_TRAIN)
    snaps, emb = train_snapshots(X, spec, schedule, batch_size=8, rng=rng, momentum=0.9)
    captures, history = reference_training(X, spec, schedule, 8, rng, 0.9)
    assert emb.history == history
    assert len(snaps) == len(captures) == 2
    for snap, params in zip(snaps, captures):
        for (W, b), (W_ref, b_ref) in zip(snap.weights, params):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)


def test_non_finite_gradient_raises_from_training(monkeypatch):
    def nan_gradient(*args, **kwargs):
        loss, grads = backward(*args, **kwargs)
        grads[0][0][0, 0] = np.nan
        return loss, grads

    monkeypatch.setattr(trainer, "backward", nan_gradient)
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 3], input_noise_sigma=0.1)
    with pytest.raises(NumericalError, match="^non-finite gradient in sgd_step$"):
        train_snapshots(X, spec, SnapshotSchedule(0.01, 2, 1), batch_size=8, rng=SeedStream(0))


def test_float32_training_equals_training_on_its_float64_widening():
    X32 = tiny_data(29, 6, seed=5).astype(np.float32)
    X32.setflags(write=False)
    spec = AutoencoderSpec.from_encoder_widths([6, 5, 2], input_noise_sigma=0.1, init_seed=2)
    runs = [
        train_snapshots(X, spec, SnapshotSchedule(0.05, 4, 2), batch_size=8, rng=SeedStream(7))
        for X in (X32, X32.astype(np.float64))
    ]
    (snaps, emb), (snaps_ref, emb_ref) = runs
    assert emb.history == emb_ref.history
    for snap, ref in zip(snaps, snaps_ref):
        for (W, b), (W_ref, b_ref) in zip(snap.weights, ref.weights):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
    for Y, Y_ref in zip(emb.members, emb_ref.members):
        assert Y.dtype == np.float64 and np.array_equal(Y, Y_ref)


def test_float32_training_and_embedding_hold_no_float64_copy_of_the_data():
    n = 20_000
    X = np.random.default_rng(8).normal(size=(n, 64)).astype(np.float32)
    spec = AutoencoderSpec.from_encoder_widths([64, 16], input_noise_sigma=0.1)
    captured = []
    tracemalloc.start()
    try:
        train_snapshots(
            X,
            spec,
            SnapshotSchedule(0.01, 1, 1),
            batch_size=256,
            rng=SeedStream(0),
            on_capture=captured.append,
        )
        codes = embed_snapshot(X, captured[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (n, 16)
    # a float64 copy of X alone would take 2 * X.nbytes
    assert peak < X.nbytes


# 150 rows in batches of 64: the last batch of each epoch is short. A
# batch of 64 x 512 values is the smallest that training hands to a
# forked batch producer.
WIDE_ROWS, WIDE_DIMS, WIDE_BATCH = 150, 512, 64


def needs_two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the batch producer needs two CPUs in the affinity mask")


def train_wide(X, sigma=0.1, **kwargs):
    spec = AutoencoderSpec.from_encoder_widths(
        [WIDE_DIMS, 16, 4], input_noise_sigma=sigma, init_seed=9
    )
    schedule = SnapshotSchedule(0.01, 4, 2)
    return train_snapshots(X, spec, schedule, WIDE_BATCH, SeedStream(21), **kwargs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_forked_batch_producer_trains_bit_for_bit_as_inline(inline_training, dtype, sigma):
    needs_two_cpus()
    assert WIDE_BATCH * WIDE_DIMS >= _CHUNK_ENTRIES
    X = tiny_data(WIDE_ROWS, WIDE_DIMS, seed=10).astype(dtype)
    snaps, emb = train_wide(X, sigma)
    with inline_training():
        snaps_ref, emb_ref = train_wide(X, sigma)
    assert emb.feed["train_feed"] == "process" and emb.feed["train_feed_wait_s"] > 0
    assert emb_ref.feed == {"train_feed": "inline", "train_feed_wait_s": 0.0}
    assert emb.history == emb_ref.history
    for snap, ref in zip(snaps, snaps_ref, strict=True):
        for (W, b), (W_ref, b_ref) in zip(snap.weights, ref.weights, strict=True):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
    for Y, Y_ref in zip(emb.members, emb_ref.members, strict=True):
        assert np.array_equal(Y, Y_ref)


@pytest.mark.parametrize(
    "stop, cause",
    [
        (lambda: 1 / 0, "ZeroDivisionError: division by zero"),
        # no word down the pipe: the trainer sees it close
        (lambda: os._exit(3), "exit code 3"),
    ],
    ids=["raises", "exits"],
)
def test_a_stopped_batch_producer_is_named_in_the_error(monkeypatch, stop, cause):
    needs_two_cpus()
    batches = trainer._batches

    def three_then_stop(*args):
        draws = batches(*args)
        for _ in range(3):
            yield next(draws)
        stop()

    monkeypatch.setattr(trainer, "_batches", three_then_stop)
    X = tiny_data(WIDE_ROWS, WIDE_DIMS, seed=11)
    start = time.monotonic()
    # 4 epochs of 3 batches; the trainer got the first three
    error = f"^training batch producer stopped before batch 4 of 12: {cause}$"
    with pytest.raises(SnapclustError, match=error):
        train_wide(X)
    assert time.monotonic() - start < 10


def test_non_finite_gradient_raises_beside_the_batch_producer(monkeypatch):
    needs_two_cpus()

    def nan_gradient(*args, **kwargs):
        loss, grads = backward(*args, **kwargs)
        grads[0][0][0, 0] = np.nan
        return loss, grads

    monkeypatch.setattr(trainer, "backward", nan_gradient)
    with pytest.raises(NumericalError, match="^non-finite gradient in sgd_step$"):
        train_wide(tiny_data(WIDE_ROWS, WIDE_DIMS, seed=12))


def test_non_finite_training_data_error_names_the_first_bad_entry():
    X = tiny_data()
    X[5, 2] = np.nan
    spec = AutoencoderSpec.from_encoder_widths([6, 3])
    with pytest.raises(DataError, match=r"non-finite values, first at row 5, column 2; remove"):
        train_snapshots(X, spec, SnapshotSchedule(0.01, 2, 1), batch_size=8, rng=SeedStream(0))


def test_batch_size_capped_by_n():
    X = tiny_data(5, 3, seed=2)
    spec = AutoencoderSpec.from_encoder_widths([3, 2], input_noise_sigma=0.0)
    with pytest.raises(ConfigError):
        train_snapshots(X, spec, SnapshotSchedule(0.01, 2, 1), batch_size=8, rng=SeedStream(0))


def test_snapshot_container_round_trip(tmp_path):
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2])
    snaps, _ = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 4, 2), batch_size=8, rng=SeedStream(4)
    )
    path = tmp_path / "snap.sscw"
    save_snapshot(path, snaps[1], provenance={"cycle": 2})
    raw = path.read_bytes()
    assert raw[:4] == SNAPSHOT_MAGIC
    loaded, meta = load_snapshot(path)
    assert meta == {"cycle": 2}
    assert loaded.cycle_index == snaps[1].cycle_index
    assert loaded.activation == snaps[1].activation
    assert loaded.train_loss == pytest.approx(snaps[1].train_loss)
    for (W1, b1), (W2, b2) in zip(loaded.weights, snaps[1].weights):
        assert np.array_equal(W1, W2)
        assert np.array_equal(b1, b2)


def test_load_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.sscw"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError, match="bad magic"):
        load_snapshot(path)


def saved_snapshot_bytes(tmp_path):
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2])
    snaps, _ = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 2, 1), batch_size=8, rng=SeedStream(4)
    )
    path = tmp_path / "snap.sscw"
    save_snapshot(path, snaps[0], provenance={"cycle": 1})
    return path, path.read_bytes(), snaps[0].weights


def test_load_snapshot_rejects_other_container_version(tmp_path):
    path, raw, _ = saved_snapshot_bytes(tmp_path)
    path.write_bytes(raw[:4] + (2).to_bytes(2, "little") + raw[6:])
    with pytest.raises(DataError, match="unsupported container version 2"):
        load_snapshot(path)


def test_load_snapshot_rejects_each_truncation(tmp_path):
    path, raw, weights = saved_snapshot_bytes(tmp_path)
    W0 = weights[0][0]
    layers_end = 10 + sum(8 + 8 * (W.size + b.size) for W, b in weights)
    cuts = {
        10 + 4: "truncated layer header",
        10 + 8 + 8 * W0.size: "truncated layer payload",
        layers_end + 2: "truncated metadata length",
        len(raw) - 1: "truncated metadata",
    }
    for cut, message in cuts.items():
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError, match=f"{message}$"):
            load_snapshot(path)
