"""End-to-end pipeline runs, baselines, artifacts, sweeps, footprints."""

import importlib
import itertools
import json
import math
import multiprocessing
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from snapclust import cli, distances, pipeline, trainer
from snapclust.affinity import scott_bandwidth
from snapclust.autoencoder import backward
from snapclust.config import PipelineConfig, load_config
from snapclust.datasets import make_blobs, save_rawf32
from snapclust.errors import ConfigError, DataError, NumericalError
from snapclust.kmeans import DEFAULT_RESTARTS, SAMPLE_ROWS, kmeans
from snapclust.landmarks import minibatch_kmeans
from snapclust.pipeline import (
    BASELINES,
    MODELS,
    footprint_report,
    run_baseline,
    run_model,
    run_ssc,
    run_ssc_rm,
    sweep,
    train_ensemble,
)
from snapclust.rng import STAGE_LANDMARKS, STAGE_REPEAT, STAGE_TRAIN, SeedStream
from snapclust.trainer import SnapshotSchedule, cosine_lr, train_snapshots

DATA_SEED = 42


def small_config(**overrides):
    base = dict(
        m=2,
        cycle_length=2,
        alpha0=0.001,
        encoding_size=3,
        hidden=(8,),
        landmarks=10,
        sparsity=2,
        k=3,
        seed=0,
        repeats=2,
        batch_size=32,
        activation="identity",
    )
    base.update(overrides)
    return PipelineConfig(**base)


def small_data():
    return make_blobs(90, 5, 3, separation=5.0, noise_sigma=0.3, seed=DATA_SEED)


def test_report_shape_with_truth():
    X, y = small_data()
    cfg = small_config()
    partition, report, record = run_ssc(cfg, X, y)
    assert report["config_fingerprint"] == cfg.fingerprint()
    assert report["repeats"] == cfg.repeats
    assert "mutual information" in report["nmi_variant"]
    assert len(report["runs"]) == cfg.repeats
    for entry in report["runs"]:
        assert set(entry) == {"inertia", "nmi", "ari", "acc"}
        assert np.isfinite(entry["inertia"])
    for key in ("nmi", "ari", "acc"):
        assert report[key] == report["mean"][key]
        vals = [entry[key] for entry in report["runs"]]
        assert report["mean"][key] == pytest.approx(np.mean(vals))
        assert report["std"][key] == pytest.approx(np.std(vals, ddof=1))
    assert partition.labels.shape == (90,)
    assert record.fingerprint == cfg.fingerprint()
    assert record.model == "ssc"
    # timings live on the record, not in the report
    assert "train" in record.stage_seconds and "kmeans" in record.stage_seconds
    assert not any("seconds" in key for key in report)


def test_report_without_truth():
    X, _ = small_data()
    _, report, _ = run_ssc(small_config(repeats=1), X)
    assert report["nmi"] is None and report["ari"] is None and report["acc"] is None
    assert set(report["runs"][0]) == {"inertia"}
    assert set(report["mean"]) == {"inertia"}


def test_spectral_footprint_recorded():
    X, _ = small_data()
    cfg = small_config(repeats=1)
    _, _, record = run_ssc(cfg, X)
    fp = record.footprint
    assert fp["fused_nnz"] == cfg.m * 90 * cfg.sparsity
    assert fp["density"] == cfg.sparsity / cfg.landmarks
    assert fp["member_affinity_bytes"] == 90 * cfg.sparsity * 12 + 91 * 4
    # measured: f64 values and i32 column indices and offsets, as modelled
    assert fp["member_affinity_nbytes"] == fp["member_affinity_bytes"]
    assert fp["dense_equivalent_bytes"] == 90 * 90 * 8
    _, _, plain = run_baseline("kmeans", cfg, X)
    assert plain.footprint == {}


def test_run_ssc_rejects_metric_list():
    X, _ = small_data()
    with pytest.raises(ConfigError, match="use run_ssc_rm"):
        run_ssc(small_config(metrics=("euclidean", "cosine")), X)


def test_run_ssc_rm_requires_metric_list():
    X, _ = small_data()
    with pytest.raises(ConfigError, match="nonempty metric list"):
        run_ssc_rm(small_config(), X)


def test_run_ssc_rm_round_robin_runs():
    X, y = small_data()
    cfg = small_config(m=3, metrics=("euclidean", "cosine", "minkowski:3"), repeats=1)
    partition, report, record = run_ssc_rm(cfg, X, y)
    assert record.model == "ssc_rm"
    assert partition.labels.shape == (90,)
    assert 0.0 <= report["nmi"] <= 1.0


def test_baselines_all_run():
    X, y = small_data()
    cfg = small_config(repeats=1)
    for model in BASELINES:
        partition, report, record = run_baseline(model, cfg, X, y)
        assert record.model == model
        assert partition.labels.shape == (90,)
        assert len(report["runs"]) == 1


def test_kmeans_baseline_separated_blobs():
    # well-separated blobs are trivial for plain kmeans
    X, y = make_blobs(300, 5, 3, separation=8.0, noise_sigma=0.2, seed=1)
    _, report, _ = run_baseline("kmeans", small_config(repeats=3), X, y)
    assert report["nmi"] >= 0.99


def test_lsc_max_landmarks():
    # p up to n-1 is legal for the untrained spectral baseline
    X, y = make_blobs(40, 4, 3, separation=6.0, noise_sigma=0.3, seed=2)
    cfg = small_config(landmarks=39, sparsity=3, repeats=1)
    _, report, _ = run_baseline("lsc", cfg, X, y)
    assert len(report["runs"]) == 1


def test_unknown_model_rejected():
    X, _ = small_data()
    with pytest.raises(ConfigError, match="unknown model"):
        run_model("dbscan", small_config(), X)
    with pytest.raises(ConfigError, match="unknown baseline"):
        run_baseline("ssc", small_config(), X)


def test_input_validation():
    X, y = small_data()
    with pytest.raises(ConfigError, match="no dataset"):
        run_ssc(small_config())
    with pytest.raises(DataError, match="non-finite"):
        bad = X.copy()
        bad[0, 0] = np.nan
        run_ssc(small_config(), bad)
    with pytest.raises(DataError, match="truth labels"):
        run_ssc(small_config(), X, y[:-1])
    with pytest.raises(ConfigError, match="exceeds n"):
        run_ssc(small_config(k=91), X)


def test_stage_error_prefix():
    X, _ = small_data()
    cfg = small_config(alpha0=1e6, repeats=1)
    with pytest.raises(NumericalError, match=r"train stage: training diverged"):
        run_ssc(cfg, X)


def test_artifacts_written_and_deterministic(tmp_path):
    X, y = small_data()
    cfg = small_config()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    _, _, rec_a = run_ssc(cfg, X, y, out_dir=out_a)
    _, _, rec_b = run_ssc(cfg, X, y, out_dir=out_b)
    names = sorted(os.listdir(out_a))
    assert names == ["config.txt", "labels_rep0.txt", "labels_rep1.txt", "report.json", "run.json"]
    # everything except run.json (wall-clock timings) is byte-identical
    for name in names:
        if name == "run.json":
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # config round trip through the artifact
    assert load_config(out_a / "config.txt") == cfg
    # labels files parse back to the run's labels
    first = np.loadtxt(out_a / "labels_rep0.txt", dtype=np.int64)
    assert first.shape == (90,)
    report = json.loads((out_a / "report.json").read_text())
    assert report == rec_a.report
    run_doc = json.loads((out_a / "run.json").read_text())
    assert run_doc["model"] == "ssc"
    assert run_doc["config_fingerprint"] == cfg.fingerprint()
    assert set(run_doc["artifacts"]) == {"labels", "report", "config"}
    assert rec_a.artifact_paths["report"] == str(out_a / "report.json")
    assert rec_b.report == rec_a.report


def test_unwritable_artifacts_leave_nothing_half_written(tmp_path):
    X, y = small_data()
    # run.json is written last; a directory in its place fails the write
    (tmp_path / "run.json").mkdir()
    with pytest.raises(DataError, match=f"^cannot write artifacts to {re.escape(str(tmp_path))}: "):
        run_baseline("kmeans", small_config(), X, y, out_dir=tmp_path)
    assert os.listdir(tmp_path) == ["run.json"]


def test_artifact_directory_under_a_file_raises_data_error(tmp_path):
    X, y = small_data()
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    with pytest.raises(DataError, match=f"^cannot write artifacts to {re.escape(str(out))}: "):
        run_baseline("kmeans", small_config(repeats=1), X, y, out_dir=out)
    assert os.listdir(tmp_path) == ["file"]


def test_spectrum_diagnostics_only_in_run_json(tmp_path):
    X, y = make_blobs(300, 5, 3, separation=5.0, noise_sigma=0.3, seed=DATA_SEED)
    # fused widths 20 (dense eigh) and 3 * 100 = 300 (matrix-free eigsh)
    for landmarks, m, solver in ((10, 2, "eigh"), (100, 3, "eigsh")):
        cfg = small_config(landmarks=landmarks, m=m)
        out_a, out_b = tmp_path / f"{solver}_a", tmp_path / f"{solver}_b"
        run_ssc(cfg, X, y, out_dir=out_a)
        run_ssc(cfg, X, y, out_dir=out_b)
        report = (out_a / "report.json").read_bytes()
        assert (out_b / "report.json").read_bytes() == report
        doc = json.loads(report)
        assert set(doc) == {
            "config_fingerprint", "repeats", "nmi_variant", "runs", "mean", "std",
            "nmi", "ari", "acc",
        }
        assert b"singular" not in report and b"eigengap" not in report
        diagnostics = json.loads((out_a / "run.json").read_text())["diagnostics"]
        assert len(diagnostics) == cfg.repeats
        for repeat in diagnostics:
            spectrum = repeat["spectrum"]
            assert spectrum["solver"] == solver
            assert (spectrum["operator_applications"] > 0) == (solver == "eigsh")
            s = spectrum["singular_values"]
            assert len(s) == cfg.k and s == sorted(s, reverse=True)
            assert spectrum["eigengap"] >= 1.0
    run_baseline("kmeans", small_config(repeats=1), X, out_dir=tmp_path / "km")
    assert json.loads((tmp_path / "km" / "run.json").read_text())["diagnostics"] == [{}]


def test_member_diagnostics_only_in_run_json(tmp_path):
    X, y = small_data()
    cfg = small_config(m=3, metrics=("euclidean", "cosine", "minkowski"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_ssc_rm(cfg, np.abs(X) + 0.1, y, out_dir=out)
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report = (outs[0] / "report.json").read_bytes()
    for key in (b"empty_landmarks", b"nbytes", b"peak_rss", b"minkowski"):
        assert key not in report, key
    run_doc = json.loads((outs[0] / "run.json").read_text())
    assert run_doc["footprint"]["member_affinity_nbytes"] > 0
    assert 0 < run_doc["peak_rss_mib"] < 2**20
    assert 0 <= run_doc["peak_rss_children_mib"] < 2**20
    for key in (
        b"members_wall_s", b"workers", b"peak_rss_children", b"worker_peak_rss", b"bandwidth",
        b"zero_code_share", b"occupancy",
    ):
        assert key not in report, key
    for repeat in run_doc["diagnostics"]:
        assert 1 <= repeat["workers"] <= cfg.m
        assert repeat["members_wall_s"] > 0
        members = repeat["members"]
        assert len(members) == cfg.m
        assert [member["metric"] for member in members] == [
            "euclidean", "cosine", "minkowski(q=3)"
        ]
        for member in members:
            assert set(member) == {
                "metric", "encode_s", "landmarks_s", "affinity_s", "empty_landmarks",
                "occupancy", "bandwidth", "zero_code_share", "worker_peak_rss_mib",
            }
            assert member["encode_s"] > 0
            assert member["landmarks_s"] > 0 and member["affinity_s"] > 0
            assert 0 <= member["empty_landmarks"] < cfg.landmarks
            assert 0 < member["worker_peak_rss_mib"] < 2**20


def member_embeddings(model, X, cfg):
    """The points each member of repeat 0 of `model` is built on."""
    if model == "lsc":
        # the untrained member's points are the data's float32 narrowing
        return [X.astype(np.float32)]
    snapshots, _ = train_ensemble(X, cfg)
    return [trainer.embed_snapshot(X, snapshot) for snapshot in snapshots]


@pytest.mark.parametrize("model", ["ssc", "lsc"])
def test_member_bandwidth_and_zero_code_share_equal_a_direct_recomputation(tmp_path, model):
    X, y = small_data()
    cfg = small_config(m=3, activation="relu", repeats=1)
    run_model(model, cfg, X, y, out_dir=tmp_path)
    members = json.loads((tmp_path / "run.json").read_text())["diagnostics"][0]["members"]
    embeddings = member_embeddings(model, X, cfg)
    for member, Y in zip(members, embeddings, strict=True):
        assert member["zero_code_share"] == np.mean(Y == 0.0)
        assert member["bandwidth"] == scott_bandwidth(Y)
    if model == "ssc":
        # the relu code layer rectifies some entries to exactly zero
        assert all(0 < member["zero_code_share"] < 1 for member in members)


@pytest.mark.parametrize("model", ["ssc", "lsc"])
def test_member_occupancy_and_peak_rss_all_equal_a_direct_recomputation(
    tmp_path, monkeypatch, model
):
    # a forked member worker reports a peak far above this process's
    caller, peak_rss_mib = os.getpid(), pipeline._peak_rss_mib
    monkeypatch.setattr(
        pipeline,
        "_peak_rss_mib",
        lambda *who: peak_rss_mib(*who) + (1e4 if os.getpid() != caller else 0.0),
    )
    X, y = small_data()
    cfg = small_config(m=3, activation="relu", repeats=1)
    run_model(model, cfg, X, y, out_dir=tmp_path)
    run_doc = json.loads((tmp_path / "run.json").read_text())
    members = run_doc["diagnostics"][0]["members"]
    rep = SeedStream(cfg.seed).child(STAGE_REPEAT, 0)
    for j, (member, Y) in enumerate(zip(members, member_embeddings(model, X, cfg), strict=True)):
        lm = minibatch_kmeans(Y, cfg.landmarks, rep.child(STAGE_LANDMARKS, j))
        assert lm.meta["empty"] == member["empty_landmarks"]
        assert member["occupancy"] == lm.meta["occupancy"]
        assert member["occupancy"]["min"] <= member["occupancy"]["median"]
        assert member["occupancy"]["median"] <= member["occupancy"]["max"]
        assert (member["occupancy"]["min"] == 0) == (member["empty_landmarks"] > 0)
    worker_peaks = [member["worker_peak_rss_mib"] for member in members]
    assert run_doc["peak_rss_all_mib"] == max(run_doc["peak_rss_mib"], *worker_peaks)
    pooled = run_doc["diagnostics"][0]["workers"] >= 2
    assert (run_doc["peak_rss_all_mib"] > run_doc["peak_rss_mib"]) == pooled


def test_lsc_member_uses_a_float32_x_as_it_is(monkeypatch):
    X, y = small_data()
    X32 = X.astype(np.float32)
    seen = []

    def recording(fn):
        def wrapped(Y, *args, **kwargs):
            seen.append(Y)
            return fn(Y, *args, **kwargs)

        return wrapped

    for name in ("minibatch_kmeans", "build_affinity"):
        monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
    run_model("lsc", small_config(repeats=1), X32, y)
    # both stages get X itself: no widened (or any other) copy of it
    assert len(seen) == 2 and all(Y is X32 for Y in seen)


def test_final_kmeans_restarts_only_in_run_json(tmp_path):
    X, y = small_data()
    cfg = small_config()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_ssc(cfg, X, y, out_dir=out)
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report = (outs[0] / "report.json").read_bytes()
    assert b"lloyd_iters" not in report and b"restarts" not in report
    runs = json.loads(report)["runs"]
    diagnostics = json.loads((outs[0] / "run.json").read_text())["diagnostics"]
    assert len(diagnostics) == len(runs) == cfg.repeats
    for repeat, entry in zip(diagnostics, runs):
        restarts = repeat["kmeans"]
        assert len(restarts) == DEFAULT_RESTARTS
        assert min(r["inertia"] for r in restarts) == entry["inertia"]
        assert all(r["lloyd_iters"] >= 1 for r in restarts)
        # too few rows for a sample: the restarts ran on every row
        assert repeat["kmeans_sample"] == {}


def test_chunk_size_does_not_change_outputs(tmp_path, monkeypatch):
    # 7-entry chunks: one row per chunk at p = 10 landmarks, two in Lloyd at k = 3
    X, y = small_data()
    X = np.abs(X) + 0.1
    cfg = small_config(m=3, metrics=("euclidean", "cosine", "minkowski"))
    run_ssc_rm(cfg, X, y, out_dir=tmp_path / "default")
    monkeypatch.setattr(distances, "_CHUNK_ENTRIES", 7)
    run_ssc_rm(cfg, X, y, out_dir=tmp_path / "chunk7")
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        default = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "chunk7" / name).read_bytes() == default, name


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(pipeline, "pool_workers", lambda count: min(count, workers))


RM_METRICS = ("euclidean", "cosine", "minkowski")


@pytest.mark.parametrize("model", ["ssc", "ssc_rm"])
def test_pooled_members_match_serial_byte_for_byte(tmp_path, monkeypatch, model):
    X, y = small_data()
    X = np.abs(X) + 0.1
    metrics = RM_METRICS if model == "ssc_rm" else ()
    cfg = small_config(m=3, metrics=metrics)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        run_model(model, cfg, X, y, out_dir=tmp_path / str(workers))
        assert multiprocessing.active_children() == []
        run_doc = json.loads((tmp_path / str(workers) / "run.json").read_text())
        assert [repeat["workers"] for repeat in run_doc["diagnostics"]] == [workers] * 2
        labels = [member["metric"] for member in run_doc["diagnostics"][0]["members"]]
        expected = ["euclidean", "cosine", "minkowski(q=3)"] if metrics else ["euclidean"] * 3
        assert labels == expected
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        serial = (tmp_path / "1" / name).read_bytes()
        assert (tmp_path / "2" / name).read_bytes() == serial, name


def test_failing_member_worker_raises_as_serial(tmp_path, monkeypatch, capsys):
    # landmarks = n: every member's landmark stage rejects the config
    X, _ = small_data()
    data = tmp_path / "data.rawf32"
    save_rawf32(data, X)
    cfg = small_config(m=2, landmarks=X.shape[0], repeats=1)
    argv = [
        "cluster", "--dataset", str(data), "--m", "2", "--cycle-length", "2",
        "--alpha0", "0.001", "--encoding-size", "3", "--hidden", "8",
        "--landmarks", str(X.shape[0]), "--sparsity", "2", "--k", "3",
        "--repeats", "1", "--batch-size", "32", "--activation", "identity",
    ]
    outcomes = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(ConfigError) as raised:
            run_ssc(cfg, X)
        assert multiprocessing.active_children() == []
        assert type(raised.value) is ConfigError
        code = cli.main(argv)
        assert multiprocessing.active_children() == []
        outcomes.append((str(raised.value), code, capsys.readouterr().err))
    serial, pooled = outcomes
    assert pooled == serial
    message, code, err = serial
    assert message.startswith("landmarks stage: landmark count must satisfy")
    assert code == ConfigError.exit_code
    assert "landmarks stage: landmark count" in err


def _log_members(monkeypatch, path, delay=lambda j: 0.0):
    """Make member j's landmark step log "start j t" and "end j t" to `path`
    (t on the system-wide monotonic clock) and sleep `delay(j)` s between."""

    def log(event, j):
        # one O_APPEND write per line, so that workers' lines cannot interleave
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{event} {j} {time.monotonic()}\n".encode())
        finally:
            os.close(fd)

    def logged(Y, p, rng):
        j = rng.path[-1]
        log("start", j)
        time.sleep(delay(j))
        result = minibatch_kmeans(Y, p, rng)
        log("end", j)
        return result

    monkeypatch.setattr(pipeline, "minibatch_kmeans", logged)


def _logged(path, event) -> list[tuple[int, float]]:
    if not path.exists():
        return []
    lines = [line.split() for line in path.read_text().splitlines()]
    return [(int(j), float(t)) for name, j, t in lines if name == event]


@pytest.mark.parametrize("model", ["ssc", "ssc_rm"])
def test_outputs_do_not_depend_on_the_order_members_finish(tmp_path, monkeypatch, model):
    X, y = small_data()
    X = np.abs(X) + 0.1
    cfg = small_config(m=3, metrics=RM_METRICS if model == "ssc_rm" else ())
    finished = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        log = tmp_path / f"members{workers}.log"
        # the lower the member, the later it ends
        _log_members(monkeypatch, log, lambda j: 0.15 * (cfg.m - 1 - j))
        run_model(model, cfg, X, y, out_dir=tmp_path / str(workers))
        finished.append([j for j, _ in _logged(log, "end")])
    serial, pooled = finished
    assert serial == list(range(cfg.m)) * cfg.repeats
    assert sorted(pooled) == sorted(serial) and pooled != serial
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name


def _slow_training(monkeypatch, seconds, diverge_after=None):
    """Sleep `seconds` in each minibatch step; from step `diverge_after + 1` on,
    report a non-finite loss."""
    steps = itertools.count(1)

    def slow(*args, **kwargs):
        time.sleep(seconds)
        loss, grads = backward(*args, **kwargs)
        if diverge_after is not None and next(steps) > diverge_after:
            loss = math.inf
        return loss, grads

    monkeypatch.setattr(trainer, "backward", slow)


def test_members_start_while_training_runs(tmp_path, monkeypatch):
    X, y = small_data()
    cfg = small_config(m=3, repeats=1)
    _force_workers(monkeypatch, 2)
    _slow_training(monkeypatch, 0.03)
    _log_members(monkeypatch, tmp_path / "members.log")
    trained = []
    train_ensemble = pipeline.train_ensemble

    def timed(*args, **kwargs):
        result = train_ensemble(*args, **kwargs)
        trained.append(time.monotonic())
        return result

    monkeypatch.setattr(pipeline, "train_ensemble", timed)
    run_ssc(cfg, X, y)
    started = dict(_logged(tmp_path / "members.log", "start"))
    assert sorted(started) == [0, 1, 2]
    # member 0 is captured after 2 of 6 epochs: a worker starts it at once
    assert started[0] < trained[0]


def test_training_error_drops_the_queued_members(tmp_path, monkeypatch):
    # 3 minibatches per epoch: epoch 11 diverges after the 5th snapshot
    X, _ = small_data()
    cfg = small_config(m=6, repeats=1)
    started = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        _slow_training(monkeypatch, 0.03, diverge_after=30)
        log = tmp_path / f"members{workers}.log"
        _log_members(monkeypatch, log, lambda j: 1.0)
        with pytest.raises(NumericalError) as raised:
            run_ssc(cfg, X)
        assert str(raised.value).startswith("train stage: training diverged at epoch 11 ")
        assert multiprocessing.active_children() == []
        started.append(sorted(j for j, _ in _logged(log, "start")))
    # serially no member starts before training ends; pooled, the two
    # members running on the two workers finish, and the three queued
    # behind them never start
    assert started == [[], [0, 1]]


def test_overflowing_embedding_raises_as_serial(monkeypatch):
    X, _ = small_data()
    encode = trainer.encode

    def overflowing(X, snapshot):
        Y = encode(X, snapshot)
        return np.full_like(Y, np.inf) if snapshot.cycle_index == 2 else Y

    monkeypatch.setattr(trainer, "encode", overflowing)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(NumericalError) as raised:
            run_ssc(small_config(m=3, repeats=1), X)
        assert type(raised.value) is NumericalError
        assert str(raised.value) == (
            "train stage: embedding of snapshot 2 overflowed; lower alpha0 or add noise"
        )
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("model", MODELS)
def test_final_kmeans_runs_in_this_process(tmp_path, monkeypatch, model):
    X, y = small_data()
    cfg = small_config(repeats=1, metrics=RM_METRICS if model == "ssc_rm" else ())
    pids = tmp_path / "restart_pids.log"
    # the package exports the function kmeans under the module's name
    kmeans_module = importlib.import_module("snapclust.kmeans")
    kmeans_pp_init = kmeans_module.kmeans_pp_init

    def logged(*args):
        with open(pids, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return kmeans_pp_init(*args)

    monkeypatch.setattr(kmeans_module, "kmeans_pp_init", logged)
    calls = []

    def recorded(points, k, rng):
        partition = kmeans(points, k, rng)
        calls.append((points, k, rng, partition))
        return partition

    monkeypatch.setattr(pipeline, "kmeans", recorded)
    _force_workers(monkeypatch, 2)
    run_model(model, cfg, X, y, out_dir=tmp_path / "out")
    # every restart ran here, beside a pool of two workers for the members
    assert set(map(int, pids.read_text().split())) == {os.getpid()}
    run_doc = json.loads((tmp_path / "out" / "run.json").read_text())
    if model in ("lsc", "dae_lsc"):
        # one member: a pool of one worker builds it in this process
        assert run_doc["diagnostics"][0]["workers"] == 1
    elif model in ("ssc", "ssc_rm"):
        assert run_doc["diagnostics"][0]["workers"] == 2
    [(points, k, rng, partition)] = calls
    oracle = kmeans(points, k, rng)
    assert np.array_equal(partition.labels, oracle.labels)
    assert partition.inertia == oracle.inertia
    assert partition.restarts == oracle.restarts
    assert len(partition.restarts) == DEFAULT_RESTARTS


def test_one_cpu_affinity_mask_never_forks(tmp_path, monkeypatch):
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
    # the members are handed over as training captures them: they must stay
    # in this process
    captured, pools = [], []
    train_ensemble = pipeline.train_ensemble

    def capturing(*args, on_capture=None, **kwargs):
        def hook(snapshot):
            captured.append(snapshot.cycle_index)
            on_capture(snapshot)

        return train_ensemble(*args, on_capture=hook if on_capture else None, **kwargs)

    class CountedPool(pipeline._ForkPool):
        def __init__(self, workers, fn):
            pools.append(workers)
            super().__init__(workers, fn)

    monkeypatch.setattr(pipeline, "train_ensemble", capturing)
    monkeypatch.setattr(pipeline, "_ForkPool", CountedPool)
    X, y = small_data()
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        run_ssc(small_config(m=3, repeats=1), X, y, out_dir=tmp_path)
        run_baseline("dae_kmeans", small_config(m=3, repeats=1), X, y)
        run_baseline("kmeans", small_config(repeats=2), X, y)
    finally:
        os.sched_setaffinity(0, mask)
    assert json.loads((tmp_path / "run.json").read_text())["diagnostics"][0]["workers"] == 1
    assert captured == [1, 2, 3]
    # one pool per repeat, the members': ssc 1 repeat, dae_kmeans 1, kmeans 2
    assert pools == [1] * 4


def test_pool_workers_runs_serially_beside_threads():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    cpus = len(os.sched_getaffinity(0))
    assert pipeline.pool_workers(1) == 1
    assert pipeline.pool_workers(64) == min(64, cpus)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert pipeline.pool_workers(64) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_pool_map_keeps_index_order_and_the_first_error():
    parent = os.getpid()
    # a generator cannot be pickled: the function reaches the workers by fork
    unpicklable = (i for i in range(3))

    def task(i):
        assert unpicklable is not None
        return i * i, os.getpid() != parent

    def mapped(workers, fn, count):
        with pipeline._ForkPool(workers, fn) as pool:
            for i in range(count):
                pool.submit(i)
            return list(pool.results())

    assert mapped(2, task, 5) == [(i * i, True) for i in range(5)]
    assert mapped(1, task, 3) == [(i * i, False) for i in range(3)]

    def fail_from_two(i):
        if i >= 2:
            raise NumericalError(f"task {i}")
        return i

    with pytest.raises(NumericalError, match="^task 2$"):
        mapped(2, fail_from_two, 5)
    assert multiprocessing.active_children() == []


def test_an_exception_in_the_pool_block_stops_the_running_calls():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="caller failed"):
        with pipeline._ForkPool(2, lambda i: time.sleep(30)) as pool:
            for i in range(4):
                pool.submit(i)
            time.sleep(0.2)  # both workers are inside a call
            raise RuntimeError("caller failed")
    # the two running calls were not waited for
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []


LARGE_DATA_POOL = r"""
import multiprocessing, threading, time
import numpy as np
from snapclust import pipeline

# 4 MiB each way, far more than a pipe holds
payload = np.ones(1 << 19)

def work(i, data):
    if i >= 2 and sleeping:
        time.sleep(30)
    return data + i

threads = set(threading.enumerate())
for trial in range(12):
    # in the first trials both workers send results back while the caller
    # takes them; in the last, calls 2 and 3 keep both workers busy and the
    # executor is still writing the arguments of the calls queued behind
    sleeping = trial >= 10
    start = time.monotonic()
    try:
        with pipeline._ForkPool(2, work) as pool:
            for i in range(40):
                pool.submit(i, payload)
            if sleeping:
                time.sleep(0.5)
                raise RuntimeError("caller failed")
            for result in pool.results():
                if time.monotonic() - start > 0.1 + 0.02 * trial:
                    raise RuntimeError("caller failed")
    except RuntimeError:
        pass
    assert time.monotonic() - start < 5, f"trial {trial} waited"
    assert multiprocessing.active_children() == [], f"trial {trial} left a worker"
    assert set(threading.enumerate()) == threads, f"trial {trial} left a thread"
print("stopped", trial + 1)
"""


def test_an_exception_in_the_pool_block_stops_calls_that_move_large_data():
    # in a process of its own, so that a pool which hangs fails the test
    try:
        proc = subprocess.run(
            [sys.executable, "-c", LARGE_DATA_POOL], capture_output=True, timeout=60
        )
    except subprocess.TimeoutExpired:
        pytest.fail("leaving the pool block through an exception hung")
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == b"stopped 12\n"


def test_pool_results_stream_and_an_abandoned_consumer_leaves_no_worker():
    taken = []
    with pytest.raises(RuntimeError, match="consumer stopped"):
        with pipeline._ForkPool(2, lambda i: i * i) as pool:
            for i in range(6):
                pool.submit(i)
            for result in pool.results():
                taken.append(result)
                if len(taken) == 2:
                    raise RuntimeError("consumer stopped")
    assert taken == [0, 1]
    assert multiprocessing.active_children() == []


class _Result:
    """A result that can be pickled back from a worker and weakly referenced."""


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_results_drop_each_result_once_taken(workers):
    # once the caller releases a result, the pool holds it no longer: not
    # in its future, and serially not before the next call is made
    refs = []

    def build(j):
        assert all(ref() is None for ref in refs), f"a result before {j} is still held"
        return _Result()

    with pipeline._ForkPool(workers, build) as pool:
        for j in range(4):
            pool.submit(j)
        for result in pool.results():
            assert all(ref() is None for ref in refs), f"{len(refs)} results, one still held"
            refs.append(weakref.ref(result))
            del result
    assert len(refs) == 4


def test_members_are_released_once_fused(monkeypatch):
    # serial path: member j's affinity is gone before member j + 1 is built
    refs = []
    build_affinity = pipeline.build_affinity

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in refs), f"{len(refs)} members built, some still held"
        affinity = build_affinity(*args, **kwargs)
        refs.append(weakref.ref(affinity))
        return affinity

    monkeypatch.setattr(pipeline, "build_affinity", spy)
    _force_workers(monkeypatch, 1)
    X, _ = small_data()
    run_ssc(small_config(m=4, repeats=1), X)
    assert len(refs) == 4


def test_pool_workers_fork_when_the_block_opens():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs in the affinity mask")
    with pipeline._ForkPool(2, os.getpid):
        # every worker forked before the executor started its thread
        assert len(multiprocessing.active_children()) == 2
    assert multiprocessing.active_children() == []


def test_a_run_holds_every_openblas_at_one_thread(tmp_path, monkeypatch):
    if not sys.platform.startswith("linux"):
        pytest.skip("OpenBLAS threads are set on Linux only")
    controls = pipeline._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    seen = set()

    def pin_checked(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            # a forked worker cannot record into this process, so a call
            # off one thread fails the run instead
            counts = [get() for get, _ in controls]
            if counts != [1] * len(controls):
                raise NumericalError(f"{name} ran at {counts} OpenBLAS threads")
            seen.add(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    # training, the members, the SVD and the restarts
    pin_checked(trainer, "backward")
    pin_checked(pipeline, "minibatch_kmeans")
    pin_checked(pipeline, "left_singular_vectors")
    pin_checked(importlib.import_module("snapclust.kmeans"), "lloyd")

    def fuse_failed(members, m, stage):
        raise NumericalError("fuse failed")

    X, y = small_data()
    cfg = small_config(repeats=1)
    try:
        for _, set_threads in controls:
            set_threads(2)
        for workers in (2, 1):
            _force_workers(monkeypatch, workers)
            run_ssc(cfg, X, y, out_dir=tmp_path / str(workers))
            assert [get() for get, _ in controls] == [2] * len(controls)
            run_doc = json.loads((tmp_path / str(workers) / "run.json").read_text())
            assert run_doc["diagnostics"][0]["workers"] == workers
        # `snapclust train` calls this on its own
        train_ensemble(X, cfg)
        assert [get() for get, _ in controls] == [2] * len(controls)
        monkeypatch.setattr(pipeline, "fuse", fuse_failed)
        with pytest.raises(NumericalError, match="fuse failed"):
            run_ssc(cfg, X, y)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)
    assert seen == {"backward", "minibatch_kmeans", "left_singular_vectors", "lloyd"}


def test_workers_are_sent_only_the_members(monkeypatch):
    sent = []

    class Spied(ProcessPoolExecutor):
        def submit(self, fn, *args):
            # the pool's calls; not the one that makes the executor fork
            if fn is pipeline._call_forked:
                sent.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Spied)
    _force_workers(monkeypatch, 2)
    # more rows than the final restarts' sample
    X, y = make_blobs(2500, 50, 3, separation=5.0, noise_sigma=0.3, seed=DATA_SEED)
    cfg = small_config(m=3, repeats=1)
    for model, members in (("kmeans", 0), ("dae_kmeans", 0), ("ssc", cfg.m)):
        sent.clear()
        partition, _, _ = run_model(model, cfg, X, y)
        # the final k-means ran in this process, on a sample and then every row
        assert [snapshot.cycle_index for (snapshot,) in sent] == list(range(1, members + 1))
        assert partition.sample["rows"] == SAMPLE_ROWS


def test_pooled_and_serial_runs_match_at_two_blas_threads(tmp_path, monkeypatch, inline_training):
    if not sys.platform.startswith("linux"):
        pytest.skip("OpenBLAS threads are set on Linux only")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs in the affinity mask")
    controls = pipeline._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    # larger than small_data(), whose products are too small for OpenBLAS to
    # split across threads
    X, y = make_blobs(2000, 64, 4, separation=4.0, noise_sigma=0.5, seed=DATA_SEED)
    cfg = small_config(m=3, landmarks=100, sparsity=3, k=4, encoding_size=16, hidden=(64,))
    try:
        for _, set_threads in controls:
            set_threads(2)
        with monkeypatch.context() as patched:
            _force_workers(patched, 2)
            run_ssc(cfg, X, y, out_dir=tmp_path / "pooled")
        # a live Python thread takes the serial path
        with inline_training():
            run_ssc(cfg, X, y, out_dir=tmp_path / "serial")
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)
    for out, workers in (("pooled", 2), ("serial", 1)):
        run_doc = json.loads((tmp_path / out / "run.json").read_text())
        assert [repeat["workers"] for repeat in run_doc["diagnostics"]] == [workers] * 2
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        serial = (tmp_path / "serial" / name).read_bytes()
        assert (tmp_path / "pooled" / name).read_bytes() == serial, name


def test_stage_peak_memory_only_in_run_json(tmp_path):
    X, y = small_data()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_ssc(small_config(), X, y, out_dir=out)
    report = (outs[0] / "report.json").read_bytes()
    assert (outs[1] / "report.json").read_bytes() == report
    assert b"stage_peak" not in report
    run_doc = json.loads((outs[0] / "run.json").read_text())
    peaks = run_doc["stage_peak_rss_mib"]
    assert set(peaks) == set(run_doc["stage_seconds"])
    assert set(peaks) >= {"train", "landmarks", "affinity", "fuse", "svd", "kmeans", "evaluate"}
    assert all(0 < peak <= run_doc["peak_rss_mib"] for peak in peaks.values())


@pytest.mark.parametrize("model", MODELS)
def test_float32_input_runs_as_its_float64_widening(tmp_path, model):
    X, y = small_data()
    X32 = X.astype(np.float32)
    # read-only, as a loaded rawf32 file is: no stage may write into X
    X32.setflags(write=False)
    metrics = ("euclidean", "cosine") if model == "ssc_rm" else ()
    cfg = small_config(repeats=1, activation="relu", metrics=metrics)
    outs = {}
    for name, data in (("f32", X32), ("f64", X32.astype(np.float64))):
        outs[name] = tmp_path / name
        run_model(model, cfg, data, y, out_dir=outs[name])
    for artifact in ("labels_rep0.txt", "report.json"):
        assert (outs["f32"] / artifact).read_bytes() == (outs["f64"] / artifact).read_bytes()
    assert b"input_" not in (outs["f32"] / "report.json").read_bytes()
    for name, dtype, itemsize in (("f32", "float32", 4), ("f64", "float64", 8)):
        run_doc = json.loads((outs[name] / "run.json").read_text())
        assert run_doc["input_dtype"] == dtype
        assert run_doc["input_mib"] == X.size * itemsize / 2**20


@pytest.mark.parametrize("model", ["ssc", "dae_kmeans"])
def test_run_json_says_where_training_drew_its_batches(tmp_path, one_cpu, model):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("drawing batches ahead needs two CPUs in the affinity mask")
    # batches of 64 x 512 values: wide enough to be drawn ahead in a thread
    X, y = make_blobs(150, 512, 3, separation=5.0, noise_sigma=0.3, seed=DATA_SEED)
    cfg = small_config(batch_size=64)
    run_model(model, cfg, X, y, out_dir=tmp_path / "thread")
    with one_cpu():
        run_model(model, cfg, X, y, out_dir=tmp_path / "inline")
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        produced = (tmp_path / "thread" / name).read_bytes()
        assert produced == (tmp_path / "inline" / name).read_bytes(), name
    assert b"train_feed" not in (tmp_path / "thread" / "report.json").read_bytes()
    for feed in ("thread", "inline"):
        repeats = json.loads((tmp_path / feed / "run.json").read_text())["diagnostics"]
        assert len(repeats) == cfg.repeats
        for repeat in repeats:
            assert repeat["train_feed"] == feed
            waited = repeat["train_feed_wait_s"]
            assert waited > 0 if feed == "thread" else waited == 0.0


def test_no_fork_while_the_batch_thread_runs(tmp_path, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs in the affinity mask")
    threads_at_fork = []
    fork = os.fork

    def counted_fork():
        threads_at_fork.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # batches of 64 x 512 values: wide enough to be drawn ahead in a thread
    X, y = make_blobs(150, 512, 3, separation=5.0, noise_sigma=0.3, seed=DATA_SEED)
    cfg = small_config(batch_size=64, repeats=2)
    run_ssc(cfg, X, y, out_dir=tmp_path)
    # each repeat forks 2 workers, for its members
    assert threads_at_fork == [1] * 4
    repeats = json.loads((tmp_path / "run.json").read_text())["diagnostics"]
    assert [repeat["train_feed"] for repeat in repeats] == ["thread"] * 2
    assert [repeat["workers"] for repeat in repeats] == [2] * 2


def test_non_finite_input_error_names_the_first_bad_entry():
    X, _ = small_data()
    X = X.astype(np.float32)
    X[40, 3] = np.inf
    X[41, 0] = np.nan
    with pytest.raises(DataError, match=r"non-finite values, first at row 40, column 3; remove"):
        run_ssc(small_config(), X)


# a pooled `snapclust cluster` whose members report their pid and then stall
STALLED_MEMBERS = r"""
import os, sys, time
from snapclust import cli, pipeline

pipeline.pool_workers = lambda count: min(count, 2)
minibatch_kmeans = pipeline.minibatch_kmeans

def stalled(*args, **kwargs):
    # one write, so that the two workers' lines cannot interleave
    os.write(2, f"member {os.getpid()}\n".encode())
    time.sleep(60)
    return minibatch_kmeans(*args, **kwargs)

pipeline.minibatch_kmeans = stalled
sys.exit(cli.main(sys.argv[1:]))
"""
STALLED_MEMBER = re.compile(rb"^member (\d+)\n", re.MULTILINE)


def _read_pipe(fd: int, timeout: float, until=lambda data: False) -> tuple[bytes, bool]:
    """What a pipe yields within `timeout` s or until `until(data)`; and whether it closed."""
    data = b""
    deadline = time.monotonic() + timeout
    while not until(data):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return data, False
        chunk = os.read(fd, 4096)
        if not chunk:
            return data, True
        data += chunk
    return data, False


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_killed_caller_takes_its_member_workers_along(tmp_path):
    if not sys.platform.startswith("linux"):
        pytest.skip("the parent-death signal is Linux only")
    X, _ = small_data()
    data = tmp_path / "data.rawf32"
    save_rawf32(data, X)
    argv = [
        "cluster", "--dataset", str(data), "--m", "2", "--cycle-length", "2",
        "--alpha0", "0.001", "--encoding-size", "3", "--hidden", "8",
        "--landmarks", "10", "--sparsity", "2", "--k", "3",
        "--repeats", "1", "--batch-size", "32", "--activation", "identity",
    ]
    proc = subprocess.Popen(
        [sys.executable, "-c", STALLED_MEMBERS, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    workers = []
    try:
        err, _ = _read_pipe(
            proc.stderr.fileno(), 60, until=lambda data: len(STALLED_MEMBER.findall(data)) == 2
        )
        workers = [int(pid) for pid in STALLED_MEMBER.findall(err)]
        assert len(workers) == 2, err.decode(errors="replace")
        assert proc.pid not in workers
        proc.kill()
        proc.wait()
        # every worker holds the caller's stdout: it closes once they are all gone
        out, closed = _read_pipe(proc.stdout.fileno(), 10)
        assert closed, "a member worker kept the killed caller's stdout open"
        assert out == b""
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
        proc.stderr.close()


def test_training_history_only_in_run_json(tmp_path):
    X, y = small_data()
    cfg = small_config()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_ssc(cfg, X, y, out_dir=out)
    for name in ("report.json", "labels_rep0.txt", "labels_rep1.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report = (outs[0] / "report.json").read_bytes()
    assert b"loss" not in report and b"history" not in report and b"train" not in report
    schedule = SnapshotSchedule(cfg.alpha0, cfg.total_epochs, cfg.m)
    for repeat in json.loads((outs[0] / "run.json").read_text())["diagnostics"]:
        history = repeat["train"]
        assert [e["epoch"] for e in history] == list(range(1, cfg.total_epochs + 1))
        assert [e["lr"] for e in history] == [cosine_lr(e["epoch"], schedule) for e in history]
        assert all(np.isfinite(e["loss"]) and e["loss"] > 0 for e in history)
    # the history stays out of the provenance the snapshot files carry
    snapshots, embeddings = train_ensemble(X, cfg)
    assert set(embeddings.provenance) == {"schedule", "autoencoder"}
    by_epoch = {e["epoch"]: e["loss"] for e in embeddings.history}
    for snap, epoch in zip(snapshots, (2, 4)):
        assert snap.train_loss == by_epoch[epoch]


def test_dataset_loaded_from_config(tmp_path):
    from snapclust.datasets import save_rawf32

    X, y = small_data()
    path = tmp_path / "blobs.rawf32"
    save_rawf32(path, X)
    cfg = small_config(dataset=str(path), repeats=1)
    partition, _, _ = run_ssc(cfg, truth=y)
    assert partition.labels.shape == (90,)


def test_budget_parity_single_cycle():
    # baselines spend the same L*m epochs, all in one annealing cycle
    X, _ = small_data()
    cfg = small_config(m=3, cycle_length=2)
    snaps, embeds = train_ensemble(X, cfg, repeat_index=0, cycles=1)
    assert len(snaps) == 1 and len(embeds.members) == 1
    rep = SeedStream(cfg.seed).child(STAGE_REPEAT, 0)
    from snapclust.autoencoder import AutoencoderSpec

    init_seed = int(rep.child(4).generator().integers(0, 2**63))
    spec = AutoencoderSpec.from_encoder_widths(
        [5, 8, 3],
        activation="identity",
        input_noise_sigma=cfg.noise_sigma,
        init_seed=init_seed,
    )
    schedule = SnapshotSchedule(cfg.alpha0, cfg.total_epochs, 1)
    direct_snaps, _ = train_snapshots(
        X, spec, schedule, cfg.batch_size, rep.child(STAGE_TRAIN), momentum=cfg.momentum
    )
    for (W, b), (W2, b2) in zip(snaps[0].weights, direct_snaps[0].weights):
        assert np.array_equal(W, W2) and np.array_equal(b, b2)


def test_sweep_empty_values():
    X, _ = small_data()
    assert sweep(small_config(), "sparsity", [], X) == []


def test_sweep_unknown_field():
    X, _ = small_data()
    with pytest.raises(ConfigError, match="unknown hyperparameter"):
        sweep(small_config(), "learning_rate", [0.1], X)


def test_sweep_validates_every_config_before_loading(monkeypatch):
    def no_load(*args):
        raise AssertionError("dataset read before validation")

    monkeypatch.setattr(pipeline, "load_dataset", no_load)
    cfg = small_config(dataset="never-read.rawf32", format="bogus")
    with pytest.raises(ConfigError, match="format must be one of"):
        sweep(cfg, "m", [1])
    # a later swept value is invalid: nothing runs, nothing is read
    with pytest.raises(ConfigError, match="ensemble size must be >= 1"):
        sweep(small_config(dataset="never-read.rawf32"), "m", [1, 0])


def test_sweep_template_may_be_invalid_until_the_value_is_applied():
    X, y = small_data()
    records = sweep(small_config(m=0, repeats=1), "m", [1], X, y)
    assert [r.report["repeats"] for r in records] == [1]


def test_sweep_runs_per_value(tmp_path):
    X, y = small_data()
    cfg = small_config(repeats=1)
    records = sweep(cfg, "sparsity", [2, 3], X, y, out_dir=tmp_path)
    assert len(records) == 2
    fingerprints = {rec.fingerprint for rec in records}
    assert len(fingerprints) == 2
    assert sorted(os.listdir(tmp_path)) == ["sparsity_2", "sparsity_3"]
    for rec, r in zip(records, (2, 3)):
        assert rec.model == "ssc"
        assert rec.report["repeats"] == 1
        assert rec.footprint["density"] == r / cfg.landmarks


def test_sweep_takes_values_from_a_one_shot_iterable():
    X, y = small_data()
    records = sweep(small_config(repeats=1), "sparsity", (r for r in (2, 3)), X, y)
    assert [rec.footprint["density"] for rec in records] == [0.2, 0.3]


def test_sweep_picks_rm_when_metrics_set():
    X, y = small_data()
    cfg = small_config(repeats=1, metrics=("euclidean", "cosine"))
    records = sweep(cfg, "m", [1, 2], X, y)
    assert [rec.model for rec in records] == ["ssc_rm", "ssc_rm"]


def test_footprint_report_reference_scale():
    fp = footprint_report(70000, 350, 3, 6)
    assert fp["member_affinity_bytes"] == 70000 * 3 * 12 + 70001 * 4
    assert fp["member_affinity_mib"] == pytest.approx(2.670, abs=2e-3)
    assert fp["dense_equivalent_bytes"] == 70000 * 70000 * 8
    assert fp["dense_equivalent_gib"] == pytest.approx(36.51, abs=0.01)
    assert fp["fused_nnz"] == 1_260_000
    assert fp["density"] == pytest.approx(3 / 350)


def test_footprint_report_validates():
    with pytest.raises(ConfigError):
        footprint_report(0, 10, 2, 1)
    with pytest.raises(ConfigError):
        footprint_report(100, 10, 2, 0)


def test_models_constant():
    assert MODELS == ("ssc", "ssc_rm", "kmeans", "dae_kmeans", "lsc", "dae_lsc")
    assert set(BASELINES) < set(MODELS)
