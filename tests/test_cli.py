"""CLI: subcommands, config precedence, exit codes, artifact flows."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from snapclust import cli
from snapclust.cli import _build_parser, _merge_config, main
from snapclust.config import PipelineConfig, save_config
from snapclust.datasets import make_blobs, save_labels, save_rawf32

FAST = [
    "--m", "2",
    "--cycle-length", "2",
    "--alpha0", "0.001",
    "--encoding-size", "3",
    "--hidden", "8",
    "--landmarks", "10",
    "--sparsity", "2",
    "--k", "3",
    "--repeats", "1",
    "--batch-size", "32",
    "--activation", "identity",
]


@pytest.fixture(scope="module")
def blob_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobdata")
    X, y = make_blobs(90, 5, 3, separation=5.0, noise_sigma=0.3, seed=42)
    data = root / "data.rawf32"
    labels = root / "labels.txt"
    save_rawf32(data, X)
    save_labels(labels, y)
    return str(data), str(labels)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cluster_json_report(blob_files, capsys, tmp_path):
    data, labels = blob_files
    code, out, _ = run_cli(
        ["cluster", "--dataset", data, "--labels", labels, "--out", str(tmp_path), *FAST],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "ssc"
    assert doc["repeats"] == 1
    assert 0.0 <= doc["nmi"] <= 1.0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "labels_rep0.txt").exists()


def test_cluster_metrics_flag_selects_rm(blob_files, capsys):
    data, labels = blob_files
    code, out, _ = run_cli(
        ["cluster", "--dataset", data, "--labels", labels,
         "--metrics", "euclidean,cosine", *FAST],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["model"] == "ssc_rm"


def test_cluster_without_labels_or_out(blob_files, capsys):
    data, _ = blob_files
    code, out, _ = run_cli(["cluster", "--dataset", data, *FAST], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["nmi"] is None


def test_train_writes_snapshots(blob_files, capsys, tmp_path):
    data, _ = blob_files
    code, out, _ = run_cli(["train", "--dataset", data, "--out", str(tmp_path), *FAST], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["epochs"] == 4  # cycle_length 2 * m 2
    assert len(doc["members"]) == 2
    assert (tmp_path / "snapshot_cycle1.npz").exists()
    assert (tmp_path / "embedding_member2.rawf32").exists()
    from snapclust.datasets import load_rawf32
    from snapclust.trainer import load_snapshot

    snap, meta = load_snapshot(tmp_path / "snapshot_cycle1.npz")
    assert snap.cycle_index == 1
    emb = load_rawf32(tmp_path / "embedding_member1.rawf32")
    assert emb.shape == (90, 3)


def test_trained_snapshot_opens_with_bare_numpy(blob_files, capsys, tmp_path):
    data, _ = blob_files
    code, out, _ = run_cli(["train", "--dataset", data, "--out", str(tmp_path), *FAST], capsys)
    assert code == 0
    path = json.loads(out)["members"][1]["snapshot"]
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["W0", "W1", "b0", "b1", "meta"]
        assert npz["W0"].shape == (5, 8) and npz["W1"].shape == (8, 3)
        meta = json.loads(npz["meta"][()])
    assert (meta["cycle_index"], meta["activation"]) == (2, "identity")


@pytest.mark.parametrize("command", ["train", "synth"])
def test_out_under_a_file_is_a_data_error_before_any_work(
    command, blob_files, capsys, tmp_path, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was created")

    monkeypatch.setattr(cli, "train_ensemble", never)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    if command == "train":
        argv = ["train", "--dataset", blob_files[0], "--out", str(out), *FAST]
    else:
        argv = ["synth", "blobs", "--n", "30", "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert f"error: cannot write to {out}: " in err
    assert "Traceback" not in err


def test_train_maps_a_failed_file_write_to_a_data_error(blob_files, capsys, tmp_path):
    data, _ = blob_files
    (tmp_path / "embedding_member1.rawf32").mkdir()  # the embedding cannot be written
    code, _, err = run_cli(["train", "--dataset", data, "--out", str(tmp_path), *FAST], capsys)
    assert code == 3
    assert f"error: cannot write to {tmp_path}: " in err


def test_train_removes_the_files_it_wrote_when_a_later_write_fails(
    blob_files, capsys, tmp_path
):
    data, _ = blob_files
    (tmp_path / "embedding_member2.rawf32").mkdir()  # the second member cannot be written
    code, _, err = run_cli(["train", "--dataset", data, "--out", str(tmp_path), *FAST], capsys)
    assert code == 3
    assert f"error: cannot write to {tmp_path}: " in err
    # only the obstacle is left: member 1's files and member 2's snapshot are gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["embedding_member2.rawf32"]


def test_train_removes_a_file_cut_short_by_a_failed_write(
    blob_files, capsys, tmp_path, monkeypatch
):
    data, _ = blob_files
    save_rawf32 = cli.save_rawf32

    def cut_short(path, X):
        if path.endswith("embedding_member2.rawf32"):
            with open(path, "wb") as fh:
                fh.write(b"SSCD")
            raise OSError(28, "No space left on device")
        save_rawf32(path, X)

    monkeypatch.setattr(cli, "save_rawf32", cut_short)
    code, _, err = run_cli(["train", "--dataset", data, "--out", str(tmp_path), *FAST], capsys)
    assert code == 3
    assert f"error: cannot write to {tmp_path}: " in err
    assert list(tmp_path.iterdir()) == []


def test_synth_removes_the_data_it_wrote_when_the_labels_cannot_be_written(capsys, tmp_path):
    (tmp_path / "labels.txt").mkdir()
    code, _, err = run_cli(["synth", "blobs", "--n", "30", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert f"error: cannot write to {tmp_path}: " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt"]


def test_train_writes_the_same_files_with_and_without_the_batch_producer(
    capsys, tmp_path, monkeypatch, one_cpu
):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("drawing batches ahead needs two CPUs in the affinity mask")
    # batches of 64 x 512 values: wide enough to be drawn ahead in a thread
    X, _ = make_blobs(150, 512, 3, separation=5.0, noise_sigma=0.3, seed=43)
    data = tmp_path / "wide.rawf32"
    save_rawf32(data, X)
    feeds = []
    train_ensemble = cli.train_ensemble

    def recorded(*args, **kwargs):
        snapshots, embeddings = train_ensemble(*args, **kwargs)
        feeds.append(embeddings.feed["train_feed"])
        return snapshots, embeddings

    monkeypatch.setattr(cli, "train_ensemble", recorded)
    argv = ["train", "--dataset", str(data), *FAST, "--hidden", "16", "--batch-size", "64"]
    code, _, _ = run_cli([*argv, "--out", str(tmp_path / "thread")], capsys)
    assert code == 0 and feeds == ["thread"]
    with one_cpu():
        code, _, _ = run_cli([*argv, "--out", str(tmp_path / "inline")], capsys)
    assert code == 0 and feeds == ["thread", "inline"]
    names = sorted(os.listdir(tmp_path / "thread"))
    assert names == sorted(os.listdir(tmp_path / "inline")) and len(names) == 4
    for name in names:
        produced = (tmp_path / "thread" / name).read_bytes()
        assert produced == (tmp_path / "inline" / name).read_bytes(), name


def test_baseline_subcommand(blob_files, capsys):
    data, labels = blob_files
    code, out, _ = run_cli(
        ["baseline", "kmeans", "--dataset", data, "--labels", labels, *FAST], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "kmeans"
    assert 0.0 <= doc["nmi"] <= 1.0


def test_synth_cluster_evaluate_flow(capsys, tmp_path):
    code, out, _ = run_cli(
        ["synth", "blobs", "--n", "90", "--d", "5", "--k", "3",
         "--separation", "5", "--noise-sigma", "0.3", "--seed", "42",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 90 and doc["d"] == 5

    run_dir = tmp_path / "run"
    code, out, _ = run_cli(
        ["cluster", "--dataset", doc["data"], "--labels", doc["labels"],
         "--out", str(run_dir), *FAST],
        capsys,
    )
    assert code == 0

    code, out, _ = run_cli(
        ["evaluate", str(run_dir / "labels_rep0.txt"), "--labels", doc["labels"]],
        capsys,
    )
    assert code == 0
    scores = json.loads(out)
    assert set(scores) == {"nmi", "ari", "acc"}


def test_synth_moons_csv(capsys, tmp_path):
    code, out, _ = run_cli(
        ["synth", "moons", "--n", "40", "--seed", "1",
         "--data-format", "csv", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "moons" and doc["d"] == 2
    X = np.loadtxt(doc["data"], delimiter=",")
    assert X.shape == (40, 2)


def test_sweep_subcommand(blob_files, capsys):
    data, labels = blob_files
    code, out, err = run_cli(
        ["sweep", "sparsity", "--values", "2,3",
         "--dataset", data, "--labels", labels, *FAST],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["param"] == "sparsity"
    assert [row["value"] for row in doc["rows"]] == [2, 3]
    assert all(row["nmi_mean"] is not None for row in doc["rows"])
    # human-readable table goes to stderr, json to stdout
    assert "mean NMI" in err


def test_sweep_bad_format_fails_like_cluster_without_reading(capsys, tmp_path):
    missing = str(tmp_path / "x.rawf32")  # reading it would be a data error, exit 3
    flags = ["--dataset", missing, "--format", "bogus"]
    code, _, sweep_err = run_cli(["sweep", "m", "--values", "1", *flags], capsys)
    assert code == 2
    code, _, cluster_err = run_cli(["cluster", *flags], capsys)
    assert code == 2
    assert sweep_err == cluster_err
    assert "format must be one of" in sweep_err


@pytest.mark.parametrize("field,values", [("hidden", "64,32"), ("metrics", "cosine")])
def test_sweep_rejects_list_fields(field, values, blob_files, capsys):
    data, _ = blob_files
    code, out, err = run_cli(["sweep", field, "--values", values, "--dataset", data], capsys)
    assert code == 2
    assert out == ""
    assert f"cannot sweep list field {field!r}" in err
    assert "snapclust cluster" in err


def test_sweep_m_reports_trend(blob_files, capsys):
    data, labels = blob_files
    code, out, _ = run_cli(
        ["sweep", "m", "--values", "1,2",
         "--dataset", data, "--labels", labels, *FAST],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    # the ensemble-size trend is reported as a flag, never asserted
    assert doc["nondecreasing_trend"] in (True, False)


def test_info_subcommand(capsys):
    code, out, _ = run_cli(
        ["info", "--n", "70000", "--landmarks", "350", "--sparsity", "3", "--m", "6"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["member_affinity_mib"] == pytest.approx(2.670, abs=2e-3)
    assert doc["dense_equivalent_gib"] == pytest.approx(36.51, abs=0.01)
    assert doc["fused_nnz"] == 1_260_000


def test_config_file_with_flag_override(blob_files, capsys, tmp_path):
    from snapclust.config import save_config

    data, labels = blob_files
    cfg = PipelineConfig(
        dataset=data, m=2, cycle_length=2, alpha0=0.001, encoding_size=3,
        hidden=(8,), landmarks=10, sparsity=2, k=3, repeats=1,
        batch_size=32, activation="identity",
    )
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        ["cluster", "--config", str(path), "--labels", labels,
         "--seed", "7", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    # flag overrides the file: fingerprint reflects seed=7
    assert doc["config_fingerprint"] == cfg.replace(seed=7).fingerprint()


def test_exit_code_config_error(capsys):
    code, _, err = run_cli(["cluster", "--k", "0", "--dataset", "whatever"], capsys)
    assert code == 2
    assert "error:" in err


def test_exit_code_missing_dataset(capsys):
    code, _, err = run_cli(["cluster", *FAST], capsys)
    assert code == 2
    assert "no dataset" in err
    # train uses its own helper with the same exit code
    code, _, err = run_cli(["train", "--out", "/tmp/unused", *FAST], capsys)
    assert code == 2
    assert "dataset is required" in err


def test_exit_code_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.rawf32"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    code, _, err = run_cli(
        ["cluster", "--dataset", str(bad), "--format", "rawf32", *FAST], capsys
    )
    assert code == 3
    assert "error:" in err


def test_exit_code_unwritable_out_dir(blob_files, capsys, tmp_path):
    data, _ = blob_files
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    code, _, err = run_cli(["cluster", "--dataset", data, "--out", str(out), *FAST], capsys)
    assert code == 3
    assert f"cannot write artifacts to {out}" in err
    assert "Traceback" not in err


def test_exit_code_numerical_error(blob_files, capsys):
    data, _ = blob_files
    args = [arg for arg in FAST]
    args[args.index("0.001")] = "1e6"  # divergent learning rate
    code, _, err = run_cli(["cluster", "--dataset", data, *args], capsys)
    assert code == 4
    assert "diverged" in err


def test_console_entrypoint_exit_codes(blob_files, tmp_path):
    # the module runs as a subprocess and propagates exit codes to the shell
    data, labels = blob_files
    proc = subprocess.run(
        [sys.executable, "-m", "snapclust.cli", "cluster",
         "--dataset", data, "--labels", labels, "--out", str(tmp_path), *FAST],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["model"] == "ssc"

    proc = subprocess.run(
        [sys.executable, "-m", "snapclust.cli", "cluster", "--dataset", data,
         "--k", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_cluster_byte_identical_across_blas_threads_at_wide_fusion(tmp_path):
    # width m*p = 600: wide enough that a thread-order dependent dense
    # eigensolver would change the labels; criterion 11 only reaches width 40
    X, y = make_blobs(1000, 16, 8, separation=3.0, noise_sigma=1.0, seed=13)
    data, truth = tmp_path / "data.rawf32", tmp_path / "labels.txt"
    save_rawf32(data, X)
    save_labels(truth, y)
    args = [
        "cluster", "--dataset", str(data), "--labels", str(truth),
        "--m", "3", "--landmarks", "200", "--sparsity", "5", "--k", "8",
        "--cycle-length", "2", "--encoding-size", "8", "--seed", "9",
        "--repeats", "1",
    ]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "snapclust.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("report.json", "labels_rep0.txt"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


# the config flags every pipeline subcommand has carried, with their dests
CONFIG_FLAG_DESTS = {
    "--config": "config",
    "--dataset": "dataset",
    "--format": "format",
    "--m": "m",
    "--cycle-length": "cycle_length",
    "--alpha0": "alpha0",
    "--encoding-size": "encoding_size",
    "--hidden": "hidden",
    "--landmarks": "landmarks",
    "--sparsity": "sparsity",
    "--metric": "metric",
    "--metrics": "metrics",
    "--k": "k",
    "--seed": "seed",
    "--repeats": "repeats",
    "--batch-size": "batch_size",
    "--noise-sigma": "noise_sigma",
    "--momentum": "momentum",
    "--activation": "activation",
    "--degree-normalize": "degree_normalize",
    "--no-degree-normalize": "degree_normalize",
    "--row-normalize": "row_normalize",
    "--no-row-normalize": "row_normalize",
}

SUBCOMMAND_EXTRA_FLAGS = {
    "train": {"--out": "out"},
    "cluster": {"--labels": "labels", "--out": "out"},
    "baseline": {"--labels": "labels", "--out": "out"},
    "sweep": {"--values": "values", "--labels": "labels", "--out": "out"},
    "info": {"--n": "n"},
}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag_dests(parser):
    return {s: a.dest for a in parser._actions for s in a.option_strings}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_EXTRA_FLAGS))
def test_config_flags_are_one_per_field(command):
    got = _flag_dests(_subparsers()[command])
    fields = dataclasses.fields(PipelineConfig)
    derived = {"--config": "config"}
    for f in fields:
        derived["--" + f.name.replace("_", "-")] = f.name
        if f.type == "bool":
            derived["--no-" + f.name.replace("_", "-")] = f.name
    config_flags = {s: d for s, d in got.items() if d in derived.values()}
    assert config_flags == derived
    # and the whole surface is exactly the one the CLI has always had
    want = {"-h": "help", "--help": "help", **CONFIG_FLAG_DESTS}
    want.update(SUBCOMMAND_EXTRA_FLAGS[command])
    assert got == want


# a non-default value for every PipelineConfig field
ALL_FIELDS_CHANGED = PipelineConfig(
    dataset="data/x.csv", format="csv", m=3, cycle_length=15, alpha0=0.03,
    encoding_size=128, hidden=(16, 8), landmarks=600, sparsity=7, metric="cosine",
    metrics=("euclidean", "minkowski:3"), k=4, seed=11, repeats=2, batch_size=64,
    noise_sigma=0.2, momentum=0.5, activation="identity", degree_normalize=True,
    row_normalize=True,
)


def test_flags_and_config_file_give_one_config(tmp_path):
    default = PipelineConfig()
    argv = ["info", "--n", "10"]
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(ALL_FIELDS_CHANGED, f.name)
        assert value != getattr(default, f.name), f.name
        flag = "--" + f.name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag)
        else:
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            argv += [flag, text]
    path = tmp_path / "all.cfg"
    save_config(path, ALL_FIELDS_CHANGED)

    parser = _build_parser()
    from_flags = _merge_config(parser.parse_args(argv))
    from_file = _merge_config(parser.parse_args(["info", "--n", "10", "--config", str(path)]))
    assert from_flags == from_file == ALL_FIELDS_CHANGED
    assert from_flags.fingerprint() == from_file.fingerprint()


SUBCOMMAND_PREFIXES = {
    "train": ["train", "--out", "never-created"],
    "cluster": ["cluster"],
    "baseline": ["baseline", "kmeans"],
    "sweep": ["sweep", "m", "--values", "1"],
    "info": ["info", "--n", "10"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_PREFIXES))
@pytest.mark.parametrize(
    "key,raw,fragment",
    [
        ("m", "abc", "bad value for m: 'abc'"),
        ("hidden", "8,x", "bad integer list for hidden: '8,x'"),
        ("format", "bogus", "format must be one of auto, idx, csv, rawf32"),
        ("activation", "tanh", "activation must be relu or identity"),
    ],
)
def test_bad_flag_value_reports_config_file_error(command, key, raw, fragment, capsys, tmp_path):
    prefix = SUBCOMMAND_PREFIXES[command]
    code, _, flag_err = run_cli([*prefix, "--" + key, raw], capsys)
    assert code == 2
    assert fragment in flag_err
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {raw}\n", encoding="utf-8")
    code, _, file_err = run_cli([*prefix, "--config", str(path)], capsys)
    assert code == 2
    assert file_err == flag_err
    assert not os.path.exists("never-created")
