"""snapclust benchmark: time, memory and quality of `run_model` per workload.

    python3 perfbench/run.py --workload ssc-tall --seed 1 --seconds 36 --trace 0

Each call of `run_model` runs in its own process (`worker.py`), which
generates its seeded inputs, writes them as rawf32 and then makes the call
`snapclust cluster` / `snapclust baseline` make. The run keeps starting
calls while the next one is expected to finish within `--seconds`.

--trace 0 makes one call per seeded input, at least the workload's
`inputs` of them, and reports the end-to-end metrics: medians over the
calls, and for NMI over the fixed first `inputs` inputs. --trace 1
alternates untraced and traced calls on one input, at least one pair, and
reports the per-layer metrics of the traced calls (see trace.py).

Every call's outputs are checked: the labels and NMI in `report.json`
against an independent recomputation, traced against untraced artifacts
byte for byte, and label digests and exact counts against earlier runs of
the same code and seed in this checkout. A call that raises a
SnapclustError or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the full record (environment, commit, per-call results, quartiles).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "snapclust")
WORK_ROOT = os.path.join(HERE, ".work")
DIGESTS = os.path.join(WORK_ROOT, "digests.json")

sys.path.insert(0, ROOT)
from perfbench.trace import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# One BLAS thread: at or below nproc on any machine, and the same for the
# parent and the changed commit, so their timings compare.
BLAS_THREADS = "1"
# A single call, set-up included, must end within this or it is killed.
CALL_TIMEOUT_S = 120

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "nmi": "1"}


def source_digest() -> str:
    """sha256 over the package sources and the workload definitions.

    Identifies the code and its inputs without git; outputs of two runs
    are comparable when this and the seed agree.
    """
    paths = [os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py")]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the repository, read from .git; None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_call(run_dir: str, workload: str, seed: int, index: int, traced: bool) -> dict:
    """One worker process: set-up, one `run_model` call, its checked results."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    log_path = os.path.join(run_dir, f"worker_{index}_{int(traced)}.log")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(index)]
    cmd.append("1" if traced else "0")
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip()
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.wait()
        wall_s = time.perf_counter() - start
    call = {"index": index, "traced": traced, "wall_s": wall_s}
    if ready != "ready" or proc.returncode != 0 or not lines:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        call["error"] = f"worker exited with {proc.returncode}: {tail}"
        return call
    call.update(json.loads(lines[-1]), setup_s=setup_s)
    return call


def _load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_digests(store: dict) -> None:
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, sort_keys=True)
    os.replace(tmp, DIGESTS)


def check_repeats(calls: list[dict], store: dict, prefix: str) -> None:
    """Calls on the same input must agree with each other and with earlier runs.

    Compares the label and report digests of every successful call, traced
    or not, and the exact counts of traced calls. A disagreeing call gets
    a problem; the first result seen for an input becomes its reference.
    """
    for call in calls:
        if "error" in call:
            continue
        ref = store.setdefault(f"{prefix}/{call['index']}", {})
        for key in ("labels_sha256", "report_sha256", "counts"):
            if key not in call:
                continue
            if key not in ref:
                ref[key] = call[key]
            elif ref[key] != call[key]:
                call["problems"].append(f"{key} differs from an earlier call on the same input")


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: the snapclust sources are missing ({SRC})", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    traced = bool(args.trace)
    # trace 0: one untraced call per input index, at least the workload's
    # inputs; trace 1: untraced/traced pairs, all on input 0, so the traced
    # artifacts have a byte reference
    group = (False, True) if traced else (False,)
    min_groups = 1 if traced else WORKLOADS[args.workload].inputs
    calls: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            index = 0 if traced else len(calls)
            for t in group:
                calls.append(run_call(run_dir, args.workload, args.seed, index, t))
            elapsed = time.perf_counter() - start
            groups = len(calls) // len(group)
            if groups >= min_groups and elapsed + elapsed / groups > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    src = source_digest()
    store = _load_digests()
    check_repeats(calls, store, f"{src}/{args.workload}/{args.seed}")
    _save_digests(store)

    ok = [c for c in calls if "error" not in c and not c["problems"]]
    failed = len(calls) - len(ok)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": src,
        "env": next((c["env"] for c in calls if "env" in c), None),
        "attempted": len(calls),
        "failed": failed,
        "error_rate": failed / len(calls),
        "calls": [
            {k: v for k, v in c.items() if k not in ("env", "layers")} for c in calls
        ],
    }
    if traced:
        plain = [c["run_s"] for c in ok if not c["traced"]]
        layered = [c for c in ok if c["traced"]]
        if not plain or not layered:
            print(json.dumps(record))
            print("error: no traced/untraced pair succeeded", file=sys.stderr)
            return 1
        values = {
            name: statistics.median(c["layers"][name] for c in layered)
            for name in LAYER_METRICS
            if name != "trace.overhead_frac"
        }
        # exact counts agree between calls (check_repeats); keep them integers
        values.update(layered[0]["counts"])
        traced_s = statistics.median(c["run_s"] for c in layered)
        values["trace.overhead_frac"] = traced_s / statistics.median(plain) - 1.0
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        record["counts"] = {name: values[name] for name in EXACT_COUNTS}
        record["hooks_absent"] = layered[0]["hooks_absent"]
    else:
        fixed = [c["nmi"] for c in ok if c["index"] < min_groups]
        if not fixed:
            print(json.dumps(record))
            print("error: no call on the run's fixed inputs succeeded", file=sys.stderr)
            return 1
        record["quartiles"] = {
            name: quartiles([c[name] for c in ok]) for name in END_TO_END if name != "nmi"
        }
        record["quartiles"]["nmi"] = quartiles(fixed)
        values = {name: record["quartiles"][name]["median"] for name in END_TO_END}
        units = END_TO_END

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls, {failed} failed")
    for name, value in values.items():
        spread = record.get("quartiles", {}).get(name)
        extra = f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']})" if spread else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{extra}")
    print(f"  {'error_rate':34s} {record['error_rate']:14.6g} 1")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
