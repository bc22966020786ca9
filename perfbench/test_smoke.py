"""Smoke test of the benchmark at tiny sizes; no wall-clock gate.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload keeps its model, metrics and layer shapes but shrinks n, p,
the ensemble and the epochs, and its calls run in this process instead
of in worker processes.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import run, trace, worker  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

TINY = {
    "ssc-tall": dict(n=1_200, config=dict(landmarks=40, m=2, cycle_length=1)),
    "ssc_rm-wide": dict(n=1_200, config=dict(landmarks=60, m=3, cycle_length=1)),
    "dae_kmeans-image": dict(n=400, config=dict(m=2, cycle_length=1)),
}


def _in_process_call(run_dir, name, seed, index, traced):
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        workload = WORKLOADS[name]
        config, truth = worker.set_up(workload, seed, index)
        call = worker.measure(workload, config, truth, index, traced)
    finally:
        os.chdir(cwd)
    return dict(call, setup_s=0.0, wall_s=0.0)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, change in TINY.items():
        w = WORKLOADS[name]
        config = dict(w.config, **change["config"])
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(w, n=change["n"], config=config))
    monkeypatch.setattr(run, "run_call", _in_process_call)
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    monkeypatch.setattr(run, "DIGESTS", str(tmp_path / "digests.json"))


def _run(name: str, trace_flag: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace_flag)])
    assert code == 0
    *_, record_line, result_line = out.getvalue().splitlines()
    return json.loads(record_line), json.loads(result_line)


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric_and_traced_outputs_match(tiny, name):
    record, result = _run(name, 0)
    _check_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0

    record, result = _run(name, 1)
    _check_metrics(result, BENCHMARK["per_layer"])
    assert result["correct"] and result["failed"] == 0
    plain, traced = record["calls"]
    assert not plain["traced"] and traced["traced"]
    for key in ("labels_sha256", "report_sha256"):
        assert plain[key] == traced[key]
    assert record["hooks_absent"] == []
    assert set(record["counts"]) == set(trace.EXACT_COUNTS)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == trace.LAYER_METRICS


def test_missing_hook_targets_are_reported_absent(monkeypatch):
    hooks = trace.HOOKS + (
        ("gone.method", "snapclust.sparse", "SparseRowMatrix.no_such_method"),
        ("gone.module", "snapclust.no_such_module", "f"),
    )
    monkeypatch.setattr(trace, "HOOKS", hooks)
    # the module: the package exports a function under the same name
    kmeans_module = importlib.import_module("snapclust.kmeans")
    original = kmeans_module.lloyd
    with trace.Tracer() as tracer:
        assert kmeans_module.lloyd is not original
    assert kmeans_module.lloyd is original
    assert tracer.absent == [
        "snapclust.sparse.SparseRowMatrix.no_such_method",
        "snapclust.no_such_module.f",
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ssc-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
