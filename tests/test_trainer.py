"""Snapshot schedule and trainer: formula identities, capture rules, determinism."""

import json
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from snapclust import trainer
from snapclust.autoencoder import (
    AutoencoderSpec,
    EncoderSnapshot,
    backward,
    encode,
    init_params,
    sgd_step,
)
from snapclust.distances import _CHUNK_ENTRIES
from snapclust.errors import ConfigError, DataError, NumericalError, SnapclustError
from snapclust.rng import STAGE_BATCH, STAGE_EPOCH, STAGE_NOISE, STAGE_TRAIN, SeedStream
from snapclust.trainer import (
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


@pytest.mark.parametrize("alpha0", [math.inf, -math.inf, math.nan])
def test_schedule_rejects_a_non_finite_alpha0(alpha0):
    # an infinite alpha0 would make every learning rate inf
    with pytest.raises(ConfigError, match="alpha0"):
        SnapshotSchedule(alpha0, 4, 2)


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
    """The training loop written with the pure `backward` and `sgd_step` on
    float32 batches and noise: (encoder weights at each capture, per-epoch
    history)."""
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
            clean = X[order[b * batch_size : (b + 1) * batch_size]].astype(np.float32)
            noisy = clean
            if spec.input_noise_sigma > 0:
                noise = noise_gen.standard_normal(clean.shape, dtype=np.float32)
                noisy = clean + spec.input_noise_sigma * noise
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


def test_float64_training_equals_training_on_its_float32_narrowing():
    X64 = tiny_data(29, 6, seed=5)
    X64.setflags(write=False)
    spec = AutoencoderSpec.from_encoder_widths([6, 5, 2], input_noise_sigma=0.1, init_seed=2)
    runs = [
        train_snapshots(X, spec, SnapshotSchedule(0.05, 4, 2), batch_size=8, rng=SeedStream(7))
        for X in (X64, X64.astype(np.float32))
    ]
    (snaps, emb), (snaps_ref, emb_ref) = runs
    assert emb.history == emb_ref.history
    for snap, ref in zip(snaps, snaps_ref):
        for (W, b), (W_ref, b_ref) in zip(snap.weights, ref.weights):
            assert W.dtype == b.dtype == np.float32
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
    for Y, Y_ref in zip(emb.members, emb_ref.members):
        assert Y.dtype == np.float32 and np.array_equal(Y, Y_ref)


def train_and_embed_peak_bytes(X):
    """Peak traced bytes of one epoch of training on X and embedding X."""
    spec = AutoencoderSpec.from_encoder_widths([X.shape[1], 16], input_noise_sigma=0.1)
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
    assert codes.shape == (X.shape[0], 16)
    return peak


def test_float32_training_and_embedding_hold_no_float64_copy_of_the_data():
    X = np.random.default_rng(8).normal(size=(20_000, 64)).astype(np.float32)
    # a float64 copy of X alone would take 2 * X.nbytes
    assert train_and_embed_peak_bytes(X) < X.nbytes


def test_float64_training_and_embedding_hold_no_float32_copy_of_the_data():
    X = np.random.default_rng(8).normal(size=(20_000, 64))
    # a float32 copy of X alone would take X.nbytes / 2
    assert train_and_embed_peak_bytes(X) < X.nbytes / 2


# 150 rows in batches of 64: the last batch of each epoch is short. A
# batch of 64 x 512 values is the smallest that training draws ahead in a
# thread.
WIDE_ROWS, WIDE_DIMS, WIDE_BATCH = 150, 512, 64


def needs_two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("drawing batches ahead needs two CPUs in the affinity mask")


def train_wide(X, sigma=0.1, **kwargs):
    spec = AutoencoderSpec.from_encoder_widths(
        [WIDE_DIMS, 16, 4], input_noise_sigma=sigma, init_seed=9
    )
    schedule = SnapshotSchedule(0.01, 4, 2)
    return train_snapshots(X, spec, schedule, WIDE_BATCH, SeedStream(21), **kwargs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_batches_drawn_ahead_train_bit_for_bit_as_inline(one_cpu, dtype, sigma):
    needs_two_cpus()
    assert WIDE_BATCH * WIDE_DIMS >= _CHUNK_ENTRIES
    X = tiny_data(WIDE_ROWS, WIDE_DIMS, seed=10).astype(dtype)
    snaps, emb = train_wide(X, sigma)
    with one_cpu():
        snaps_ref, emb_ref = train_wide(X, sigma)
    assert emb.feed["train_feed"] == "thread" and emb.feed["train_feed_wait_s"] > 0
    assert emb_ref.feed == {"train_feed": "inline", "train_feed_wait_s": 0.0}
    assert emb.history == emb_ref.history
    for snap, ref in zip(snaps, snaps_ref, strict=True):
        for (W, b), (W_ref, b_ref) in zip(snap.weights, ref.weights, strict=True):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
    for Y, Y_ref in zip(emb.members, emb_ref.members, strict=True):
        assert np.array_equal(Y, Y_ref)


def test_a_stopped_batch_producer_is_named_in_the_error(monkeypatch):
    needs_two_cpus()
    batches = trainer._batches

    def three_then_stop(*args):
        draws = batches(*args)
        for _ in range(3):
            yield next(draws)
        1 / 0

    monkeypatch.setattr(trainer, "_batches", three_then_stop)
    X = tiny_data(WIDE_ROWS, WIDE_DIMS, seed=11)
    start = time.monotonic()
    # 4 epochs of 3 batches; the trainer got the first three
    cause = "ZeroDivisionError: division by zero"
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


def trained_snapshot(cycles=2):
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2])
    snaps, _ = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 2 * cycles, cycles), batch_size=8, rng=SeedStream(4)
    )
    return snaps[-1]


def saved_snapshot_bytes(tmp_path):
    path = tmp_path / "snap.npz"
    snap = trained_snapshot(cycles=1)
    save_snapshot(path, snap, provenance={"cycle": 1})
    return path, path.read_bytes(), snap


def snapshot_error(path) -> str:
    """The DataError message `load_snapshot` raises for `path`, checked to name it."""
    with pytest.raises(DataError) as info:
        load_snapshot(path)
    assert str(path) in str(info.value)
    return str(info.value)


def test_snapshot_file_round_trip(tmp_path):
    snap = trained_snapshot()
    path = tmp_path / "snap"  # no suffix: the file is written under exactly this name
    save_snapshot(path, snap, provenance={"cycle": 2})
    assert os.listdir(tmp_path) == ["snap"]
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["W0", "W1", "b0", "b1", "meta"]
        assert npz["meta"].shape == () and npz["meta"].dtype.kind == "U"
    loaded, meta = load_snapshot(path)
    assert meta == {"cycle": 2}
    assert loaded.cycle_index == snap.cycle_index == 2
    assert loaded.activation == snap.activation
    assert loaded.train_loss == snap.train_loss
    assert len(loaded.weights) == len(snap.weights)
    for (W1, b1), (W2, b2) in zip(loaded.weights, snap.weights):
        assert W1.dtype == b1.dtype == np.float32
        assert W1.tobytes() == W2.tobytes() and b1.tobytes() == b2.tobytes()


def test_reloaded_snapshot_encodes_bit_for_bit_as_the_one_in_the_run(tmp_path):
    X = tiny_data()
    spec = AutoencoderSpec.from_encoder_widths([6, 4, 2])
    snaps, emb = train_snapshots(
        X, spec, SnapshotSchedule(0.01, 4, 2), batch_size=8, rng=SeedStream(4)
    )
    for snap, Y in zip(snaps, emb.members, strict=True):
        save_snapshot(tmp_path / "snap.npz", snap)
        loaded, _ = load_snapshot(tmp_path / "snap.npz")
        assert np.array_equal(embed_snapshot(X, loaded), Y)


def test_a_float64_snapshot_file_loads_and_encodes_in_float64(tmp_path):
    X = tiny_data()
    snap = trained_snapshot()
    wide = [(W.astype(np.float64), b.astype(np.float64)) for W, b in snap.weights]
    snap64 = EncoderSnapshot(wide, snap.cycle_index, snap.train_loss, snap.activation)
    save_snapshot(tmp_path / "snap.npz", snap64)
    loaded, _ = load_snapshot(tmp_path / "snap.npz")
    assert all(W.dtype == b.dtype == np.float64 for W, b in loaded.weights)
    assert np.array_equal(embed_snapshot(X, loaded), encode(X, snap64))
    assert np.allclose(embed_snapshot(X, loaded), encode(X, snap), rtol=1e-5, atol=1e-6)


def test_load_snapshot_rejects_a_missing_file(tmp_path):
    path = tmp_path / "missing.npz"
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
        load_snapshot(path)


def test_load_snapshot_rejects_a_non_zip_file(tmp_path):
    path = tmp_path / "bogus.npz"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    assert "not a snapshot file" in snapshot_error(path)


def test_load_snapshot_rejects_each_truncation(tmp_path):
    path, raw, _ = saved_snapshot_bytes(tmp_path)
    for cut in range(0, len(raw), 7):
        path.write_bytes(raw[:cut])
        assert "not a snapshot file" in snapshot_error(path), cut


def test_load_snapshot_rejects_a_flipped_payload_byte(tmp_path):
    path, raw, snap = saved_snapshot_bytes(tmp_path)
    at = raw.index(snap.weights[0][0].tobytes()) + 5
    path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1 :])
    assert "Bad CRC-32" in snapshot_error(path)


def rewrite_snapshot(path, **changes):
    """Rewrite the .npz at `path` with arrays replaced (or, when None, dropped)."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(changes)
    np.savez(path, **{name: a for name, a in arrays.items() if a is not None})


def test_load_snapshot_rejects_a_missing_layer_array(tmp_path):
    path, _, _ = saved_snapshot_bytes(tmp_path)
    rewrite_snapshot(path, W1=None)
    assert "W1 is not a file in the archive" in snapshot_error(path)


@pytest.mark.parametrize("meta", [b"\xff\xfe", "{not json", np.float64(1.0)])
def test_load_snapshot_rejects_undecodable_metadata(tmp_path, meta):
    path, _, _ = saved_snapshot_bytes(tmp_path)
    rewrite_snapshot(path, meta=np.array(meta))
    assert "not a snapshot file" in snapshot_error(path)


@pytest.mark.parametrize(
    "meta",
    [
        {"train_loss": 0.5, "activation": "relu"},
        {"cycle_index": 1, "activation": "relu"},
        {"cycle_index": 1, "train_loss": 0.5},
        {"cycle_index": "one", "train_loss": 0.5, "activation": "relu"},
        [1, 0.5, "relu"],
    ],
)
def test_load_snapshot_rejects_metadata_without_its_fields(tmp_path, meta):
    path, _, _ = saved_snapshot_bytes(tmp_path)
    rewrite_snapshot(path, meta=np.array(json.dumps(meta)))
    assert "not a snapshot file" in snapshot_error(path)


@pytest.mark.parametrize("dtype", [np.float16, np.int64])
def test_load_snapshot_rejects_weights_neither_float32_nor_float64(tmp_path, dtype):
    # the stored dtype is kept, so the file's dtype is checked
    path, _, snap = saved_snapshot_bytes(tmp_path)
    rewrite_snapshot(path, W1=snap.weights[1][0].astype(dtype))
    assert "weights must be all float32 or all float64" in snapshot_error(path)


def test_load_snapshot_rejects_an_unknown_activation(tmp_path):
    path, _, _ = saved_snapshot_bytes(tmp_path)
    meta = {"cycle_index": 1, "train_loss": 0.5, "activation": "tanh"}
    rewrite_snapshot(path, meta=np.array(json.dumps(meta)))
    assert "snapshot activation 'tanh' is not one of" in snapshot_error(path)


UNPICKLED = []


def record_unpickling():
    UNPICKLED.append(True)
    return "unpickled"


class Tripwire:
    def __reduce__(self):
        return record_unpickling, ()


def test_load_snapshot_never_unpickles(tmp_path):
    path, _, _ = saved_snapshot_bytes(tmp_path)
    meta = np.empty((), dtype=object)
    meta[()] = Tripwire()
    rewrite_snapshot(path, meta=meta)
    assert "allow_pickle=False" in snapshot_error(path)
    assert UNPICKLED == []
    # the tripwire works: a loader that unpickles sets it off
    with np.load(path, allow_pickle=True) as npz:
        assert npz["meta"][()] == "unpickled"
    assert UNPICKLED == [True]
