"""One measured call: set up the inputs, then run `run_model` once.

Run as a child of `run.py`, one process per call, so that the peak
resident memory read at the end belongs to that call alone. The process
prints `ready` once its inputs are written (the parent times set-up up to
that line) and then one JSON line with the call's results:

    python3 perfbench/worker.py WORKLOAD SEED INDEX TRACED

It runs with the run's working directory as its current directory and
refers to its input and output by relative paths, so `report.json`, whose
config fingerprint includes the dataset path, is the same in every run of
the same code and seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import snapclust  # noqa: E402
from perfbench import trace  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, config_seed, make_inputs  # noqa: E402

# Floating-point slack between the report's NMI and the one recomputed here.
NMI_TOL = 1e-9
# A call whose NMI falls below this has produced a wrong clustering; every
# workload's inputs stay well above it (lowest seen: 0.66).
NMI_FLOOR = 0.5


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information over sqrt(H(pred) H(truth)), natural log.

    Written independently of `snapclust.evaluation` so that the benchmark
    checks the program's score instead of repeating it.
    """
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(table, (p, t), 1.0)
    joint = table / table.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    ha = -float(np.sum(pa * np.log(pa)))
    hb = -float(np.sum(pb * np.log(pb)))
    return mi / np.sqrt(ha * hb) if ha > 0 and hb > 0 else 1.0


def check_outputs(out_dir: str, truth: np.ndarray, k: int) -> list[str]:
    """Problems with the artifacts of one run; an empty list means correct."""
    problems = []
    labels = np.loadtxt(os.path.join(out_dir, "labels_rep0.txt"), dtype=np.int64, ndmin=1)
    if labels.shape != truth.shape:
        return [f"labels_rep0.txt holds {labels.size} labels, expected {truth.size}"]
    if labels.min() < 0 or labels.max() >= k:
        problems.append(f"labels outside [0, {k})")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        reported = json.load(fh)["nmi"]
    nmi = reference_nmi(labels, truth)
    if abs(nmi - reported) > NMI_TOL:
        problems.append(f"report.json nmi {reported!r} != recomputed {nmi!r}")
    if nmi < NMI_FLOOR:
        problems.append(f"nmi {nmi:.4f} below the floor {NMI_FLOOR}")
    return problems


def set_up(workload: Workload, seed: int, index: int):
    """Write input `index` of the run as rawf32; return (config, truth)."""
    X, truth = make_inputs(workload, seed, index)
    data_path = f"input_{index}.rawf32"
    snapclust.save_rawf32(data_path, X)
    config = snapclust.PipelineConfig(
        dataset=data_path,
        format="rawf32",
        k=workload.k,
        seed=config_seed(seed, index),
        **workload.config,
    )
    return config, truth


def measure(workload: Workload, config, truth: np.ndarray, index: int, traced: bool) -> dict:
    """One `run_model` call into a fresh directory, with its outputs checked."""
    out_dir = f"out_{index}_{'traced' if traced else 'plain'}_{os.getpid()}"
    result: dict = {"index": index, "traced": traced, "env": environment()}
    tracer = trace.Tracer()
    try:
        with contextlib.ExitStack() as scope:
            if traced:
                scope.enter_context(tracer)
                scope.enter_context(tracer.span(trace.ROOT))
            start = time.perf_counter()
            _, report, _ = snapclust.run_model(workload.model, config, None, truth, out_dir)
            run_s = time.perf_counter() - start
    except snapclust.SnapclustError as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result

    result.update(
        run_s=run_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        nmi=report["nmi"],
        labels_sha256=_sha256(os.path.join(out_dir, "labels_rep0.txt")),
        report_sha256=_sha256(os.path.join(out_dir, "report.json")),
        problems=check_outputs(out_dir, truth, workload.k),
    )
    if traced:
        root_s, stages_s, stages = trace.stage_spans(tracer)
        layers = trace.layer_metrics(tracer)
        if abs(stages_s + layers["pipeline.self_s"] - root_s) > 1e-9 * max(root_s, 1.0):
            result["problems"].append(
                f"stage spans {stages_s} + pipeline.self_s {layers['pipeline.self_s']} "
                f"!= root span {root_s}"
            )
        result.update(
            layers=layers,
            counts={key: layers[key] for key in trace.EXACT_COUNTS},
            stages=stages,
            spans=len(tracer.spans),
            hooks_absent=tracer.absent,
        )
    return result


def main(argv: list[str]) -> int:
    name, seed, index, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name]
    config, truth = set_up(workload, seed, index)
    print("ready", flush=True)
    print(json.dumps(measure(workload, config, truth, index, traced)), flush=True)
    return 0


def environment() -> dict:
    """Versions and thread settings that a measurement depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
