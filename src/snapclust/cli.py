"""Command line interface.

Subcommands: train, cluster, baseline, sweep, evaluate, synth, info.
Every PipelineConfig field is a flag: config key `a_b` is `--a-b`, its
value parsed by `config.parse_value` exactly as in a config file, and
booleans are `--a-b/--no-a-b`. Configuration precedence: built-in
defaults < --config file < flags.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import PipelineConfig, load_config, parse_value
from .datasets import (
    FORMATS,
    load_dataset,
    load_labels,
    make_blobs,
    make_moons,
    save_labels,
    save_rawf32,
    writing_to,
)
from .errors import ConfigError, SnapclustError
from .evaluation import score
from .pipeline import (
    BASELINES,
    footprint_report,
    run_model,
    sweep,
    train_ensemble,
)
from .trainer import save_snapshot

_FLAG_HELP = {
    "dataset": "input data matrix",
    "format": " | ".join(FORMATS),
    "m": "ensemble size",
    "alpha0": "max learning rate",
    "hidden": "comma list of extra encoder widths",
    "landmarks": "landmark count p",
    "sparsity": "kept nearest landmarks r",
    "metric": "euclidean | cosine | minkowski[:q]",
    "metrics": "comma list of metrics; enables the random-metric variant",
    "k": "cluster count",
    "activation": "relu | identity",
    "degree_normalize": "scale columns by inverse sqrt landmark degree before the SVD",
    "row_normalize": "normalize spectral embedding rows before the final clustering",
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field: key `a_b` is `--a-b`."""
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for f in dataclasses.fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        action = argparse.BooleanOptionalAction if f.type == "bool" else "store"
        p.add_argument(flag, dest=f.name, action=action, help=_FLAG_HELP.get(f.name))


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults < --config file < flags; flag strings parse as config values."""
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(args, f.name)
        if value is None:
            continue
        overrides[f.name] = value if isinstance(value, bool) else parse_value(f.name, value)
    return config.replace(**overrides)


def _require_dataset(config: PipelineConfig) -> np.ndarray:
    if not config.dataset:
        raise ConfigError("a dataset is required: pass --dataset or set it in --config")
    return load_dataset(config.dataset, config.format)


def _maybe_truth(args: argparse.Namespace):
    path = getattr(args, "labels", None)
    return load_labels(path) if path else None


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _cmd_train(args) -> int:
    config = _merge_config(args).validate()
    X = _require_dataset(config)
    with writing_to(args.out):
        os.makedirs(args.out, exist_ok=True)
    snapshots, embeddings = train_ensemble(X, config)
    paths = []
    written: list = []
    with writing_to(args.out, written):
        for i, (snap, emb) in enumerate(zip(snapshots, embeddings.members)):
            weight_path = os.path.join(args.out, f"snapshot_cycle{i + 1}.npz")
            written.append(weight_path)
            save_snapshot(weight_path, snap, embeddings.provenance)
            emb_path = os.path.join(args.out, f"embedding_member{i + 1}.rawf32")
            written.append(emb_path)
            save_rawf32(emb_path, emb)
            paths.append({"snapshot": weight_path, "embedding": emb_path, "loss": snap.train_loss})
    _print_json(
        {
            "config_fingerprint": config.fingerprint(),
            "epochs": config.total_epochs,
            "members": paths,
        }
    )
    return 0


def _cmd_cluster(args) -> int:
    config = _merge_config(args)
    truth = _maybe_truth(args)
    model = args.model or ("ssc_rm" if config.random_metric else "ssc")
    _, report, record = run_model(model, config, None, truth, args.out)
    _print_json(dict(report, model=model, artifacts=record.artifact_paths))
    return 0


def _cmd_sweep(args) -> int:
    kind = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}.get(args.param, "")
    if kind.startswith("tuple"):
        # --values splits on commas, so a list value could only have one element
        raise ConfigError(
            f"cannot sweep list field {args.param!r}: run `snapclust cluster` "
            f"once per --{args.param.replace('_', '-')} value instead"
        )
    config = _merge_config(args)
    truth = _maybe_truth(args)
    raw = [part.strip() for part in args.values.split(",") if part.strip()]
    if not raw and args.values.strip():
        raise ConfigError(f"bad --values list {args.values!r}")
    values = [parse_value(args.param, part) for part in raw]
    records = sweep(config, args.param, values, None, truth, args.out)

    rows = []
    for value, record in zip(values, records):
        mean = record.report.get("nmi")
        std = (record.report.get("std") or {}).get("nmi")
        rows.append({"value": value, "nmi_mean": mean, "nmi_std": std})
    doc = {"param": args.param, "rows": rows}
    if args.param == "m" and all(row["nmi_mean"] is not None for row in rows):
        ordered = sorted(rows, key=lambda row: row["value"])
        means = [row["nmi_mean"] for row in ordered]
        doc["nondecreasing_trend"] = all(b >= a for a, b in zip(means, means[1:]))
    _print_json(doc)

    print(f"\n{args.param:>16}  {'mean NMI':>10}  {'std':>8}", file=sys.stderr)
    for row in rows:
        mean = "-" if row["nmi_mean"] is None else f"{row['nmi_mean']:.4f}"
        std = "-" if row["nmi_std"] is None else f"{row['nmi_std']:.4f}"
        print(f"{str(row['value']):>16}  {mean:>10}  {std:>8}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    truth = load_labels(args.labels)
    pred = load_labels(args.predictions)
    _print_json(score(pred, truth))
    return 0


def _cmd_synth(args) -> int:
    if args.kind == "blobs":
        X, labels = make_blobs(
            args.n, args.d, args.k, args.separation, args.noise_sigma, args.seed
        )
    else:
        X, labels = make_moons(args.n, args.noise_sigma, args.seed)
    written: list = []
    with writing_to(args.out, written):
        os.makedirs(args.out, exist_ok=True)
        if args.data_format == "csv":
            data_path = os.path.join(args.out, "data.csv")
            written.append(data_path)
            np.savetxt(data_path, X, delimiter=",", fmt="%.17g")
        else:
            data_path = os.path.join(args.out, "data.rawf32")
            written.append(data_path)
            save_rawf32(data_path, X)
        labels_path = os.path.join(args.out, "labels.txt")
        written.append(labels_path)
        save_labels(labels_path, labels)
    _print_json(
        {
            "kind": args.kind,
            "n": int(X.shape[0]),
            "d": int(X.shape[1]),
            "data": data_path,
            "labels": labels_path,
        }
    )
    return 0


def _cmd_info(args) -> int:
    config = _merge_config(args).validate()
    _print_json(footprint_report(args.n, config.landmarks, config.sparsity, config.m))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapclust",
        description="Snapshot-ensemble spectral clustering on landmark affinities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the autoencoder, save snapshots + embeddings")
    _add_config_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cluster", help="full ensemble clustering pipeline")
    _add_config_flags(p)
    p.add_argument("--labels", metavar="PATH", help="ground-truth labels for scoring")
    p.add_argument("--out", metavar="DIR", help="artifact directory")
    p.set_defaults(func=_cmd_cluster, model=None)

    p = sub.add_parser("baseline", help="run a reference model")
    p.add_argument("model", choices=BASELINES)
    _add_config_flags(p)
    p.add_argument("--labels", metavar="PATH")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("sweep", help="one aggregated run per hyperparameter value")
    p.add_argument("param", help="config field to vary")
    p.add_argument("--values", required=True, help="comma list of values")
    _add_config_flags(p)
    p.add_argument("--labels", metavar="PATH")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="score predicted labels against ground truth")
    p.add_argument("predictions", metavar="PRED_LABELS")
    p.add_argument("--labels", required=True, metavar="PATH", help="ground truth")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("kind", choices=("blobs", "moons"))
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-format", dest="data_format", choices=("rawf32", "csv"), default="rawf32")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("info", help="memory footprint report for a problem size")
    _add_config_flags(p)
    p.add_argument("--n", type=int, required=True, help="dataset size")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SnapclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
