"""Acceptance gate: eleven numbered criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. Every test is self-contained: it builds its own independent
oracle (closed forms, finite differences, dense SVD, brute-force
enumeration, point-level metric definitions), pins its tolerances
inline, and asserts its own wall-clock budget so a slow regression
fails as loudly as a wrong number.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_array

from snapclust.affinity import AffinityParams, build_affinity
from snapclust.autoencoder import backward, forward, reconstruction_loss
from snapclust.config import PipelineConfig
from snapclust.consensus import left_singular_vectors
from snapclust.datasets import make_blobs, save_labels, save_rawf32
from snapclust.distances import parse_metric
from snapclust.evaluation import accuracy, contingency, score
from snapclust.kmeans import kmeans
from snapclust.landmarks import LandmarkSet
from snapclust.pipeline import footprint_report, run_baseline, run_ssc, run_ssc_rm
from snapclust.rng import SeedStream
from snapclust.trainer import SnapshotSchedule, cosine_lr


# --- criterion 1: cosine annealing schedule identities ---------------------


def test_criterion_01_schedule_identities():
    budget_start = time.perf_counter()
    gen = np.random.default_rng(101)
    for _ in range(50):
        alpha0 = float(10.0 ** gen.uniform(-3, 0))
        M = int(gen.integers(1, 9))
        L = int(gen.integers(1, 41))
        schedule = SnapshotSchedule(alpha0, L * M, M)
        assert schedule.cycle_length == L
        for c in range(M):
            # cycle starts hit the peak rate exactly, bit for bit
            assert cosine_lr(1 + c * L, schedule) == alpha0
            if L % 2 == 0:
                # even cycles hit exactly half the peak at the midpoint
                assert cosine_lr(1 + c * L + L // 2, schedule) == alpha0 / 2
        if M >= 2:
            # the schedule is exactly periodic with period L
            for t in range(1, L + 1):
                assert cosine_lr(t, schedule) == cosine_lr(t + L, schedule)
        for _ in range(10):
            t = int(gen.integers(1, L * M + 1))
            closed = 0.5 * alpha0 * (math.cos(math.pi * (((t - 1) % L) / L)) + 1.0)
            assert cosine_lr(t, schedule) == closed
    # ragged tail: T not a multiple of M uses the ceiling cycle length
    for _ in range(20):
        M = int(gen.integers(1, 9))
        T = int(gen.integers(M, 201))
        schedule = SnapshotSchedule(0.01, T, M)
        L = math.ceil(T / M)
        for _ in range(10):
            t = int(gen.integers(1, T + 1))
            closed = 0.5 * 0.01 * (math.cos(math.pi * (((t - 1) % L) / L)) + 1.0)
            assert cosine_lr(t, schedule) == closed
    assert time.perf_counter() - budget_start < 1.0  # budget: 1 s


# --- criterion 2: backpropagation against finite differences ---------------


def _numeric_gradients(X, target, params, activation, h=1e-6):
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


def _sample_net_off_kinks(gen, activation, max_layers=3, max_units=32):
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


def _flatten(grads):
    return np.concatenate([np.r_[gW.ravel(), gb.ravel()] for gW, gb in grads])


def test_criterion_02_gradients_match_finite_differences():
    budget_start = time.perf_counter()
    gen = np.random.default_rng(202)
    worst = 0.0
    for trial in range(24):  # >= 20 independent networks
        activation = ("relu", "identity")[trial % 2]
        X, target, params = _sample_net_off_kinks(gen, activation)
        loss, analytic = backward(X, target, params, activation)
        assert np.isfinite(loss)
        numeric = _numeric_gradients(X, target, params, activation)
        fa, fn = _flatten(analytic), _flatten(numeric)
        rel = np.linalg.norm(fa - fn) / max(np.linalg.norm(fa), np.linalg.norm(fn), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-5  # relative error across all sampled nets
    assert time.perf_counter() - budget_start < 30.0  # budget: 30 s


# --- criterion 3: sparse affinity row contract ------------------------------


def test_criterion_03_affinity_row_contract():
    budget_start = time.perf_counter()
    gen = np.random.default_rng(303)
    metric_names = ("euclidean", "cosine", "minkowski:3")
    for trial in range(100):
        n = int(gen.integers(20, 201))
        d = int(gen.integers(2, 9))
        p = int(gen.integers(4, 41))
        r = int(gen.integers(1, p))
        Y = gen.normal(size=(n, d)) + 0.5
        landmarks = LandmarkSet(gen.normal(size=(p, d)) * 2.0, seed=trial)
        params = AffinityParams(r, parse_metric(metric_names[trial % 3]))
        aff = build_affinity(Y, landmarks, params)
        dense = aff.matrix.toarray()
        assert np.all((dense > 0).sum(axis=1) == r)  # exactly r per row
        assert aff.matrix.nnz == n * r
        assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-10  # unit rows
        assert aff.density == r / p  # exact, not approximate
        assert dense.max() <= 1.0
    # headline scale: keeping 3 of 350 landmarks stores 0.857% of the columns
    Y = gen.normal(size=(400, 6))
    landmarks = LandmarkSet(gen.normal(size=(350, 6)) * 3.0, seed=999)
    aff = build_affinity(Y, landmarks, AffinityParams(3, parse_metric("euclidean")))
    assert aff.density == 3 / 350
    assert 100.0 * aff.density == pytest.approx(0.857, abs=5e-4)
    assert time.perf_counter() - budget_start < 10.0  # budget: 10 s


# --- criterion 4: sparse SVD against a dense oracle -------------------------


def test_criterion_04_svd_matches_dense_oracle():
    budget_start = time.perf_counter()
    gen = np.random.default_rng(404)
    done = 0
    worst_sigma = 0.0
    worst_projector = 0.0
    while done < 50:
        n = int(gen.integers(10, 201))
        p = int(gen.integers(4, 41))
        r = int(gen.integers(1, min(p, 6)))
        trips = []
        for i in range(n):
            cols = sorted(gen.choice(p, size=r, replace=False).tolist())
            trips.extend((i, int(j), float(gen.uniform(0.05, 1.0))) for j in cols)
        ri, ci, vv = zip(*trips)
        Z = csr_array((vv, (ri, ci)), shape=(n, p))
        U_ref, s_ref, _ = scipy.linalg.svd(Z.toarray(), full_matrices=False)
        k = int(gen.integers(1, min(6, p) + 1))
        # subspace comparison is only well posed with a spectral gap at k
        if s_ref[k - 1] <= 1e-8 * s_ref[0]:
            continue
        if k < len(s_ref) and (s_ref[k - 1] - s_ref[k]) < 1e-5 * s_ref[0]:
            continue
        emb = left_singular_vectors(Z, k)
        worst_sigma = max(
            worst_sigma, float(np.max(np.abs(emb.singular_values - s_ref[:k]) / s_ref[:k]))
        )
        P_impl = emb.U @ emb.U.T
        P_ref = U_ref[:, :k] @ U_ref[:, :k].T
        worst_projector = max(worst_projector, float(np.linalg.norm(P_impl - P_ref)))
        done += 1
    assert worst_sigma <= 1e-10  # singular values, relative
    assert worst_projector <= 1e-8  # subspace projector, Frobenius
    assert time.perf_counter() - budget_start < 30.0  # budget: 30 s


# --- criterion 5: kmeans reaches the enumerated global optimum --------------


def test_criterion_05_kmeans_attains_brute_force_optimum():
    budget_start = time.perf_counter()
    assignments = np.array(list(itertools.product(range(3), repeat=8)), dtype=np.int64)
    onehot = np.eye(3)[assignments]  # (3^8, 8, 3)
    counts = onehot.sum(axis=1)  # fixed across instances
    for instance in range(20):
        X = np.random.default_rng(1000 + instance).normal(size=(8, 2))
        # inertia identity: sum ||x||^2 - sum_c ||cluster sum||^2 / count
        sums = np.einsum("apc,pd->acd", onehot, X)
        reduced = (sums**2).sum(axis=2) / np.maximum(counts, 1.0)
        optimum = float(np.sum(X * X) - reduced.sum(axis=1).max())
        part = kmeans(X, 3, SeedStream(instance), restarts=10)
        assert abs(part.inertia - optimum) <= 1e-9 * max(1.0, optimum)
    assert time.perf_counter() - budget_start < 10.0  # budget: 10 s


# --- criterion 6: clustering metrics against independent oracles ------------


def _partitions_up_to_3_blocks(n):
    """Canonical labelings (restricted growth strings) of n points, <= 3 blocks."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(list(prefix))
            return
        for v in range(min(used + 1, 3)):
            grow(prefix + [v], max(used, v + 1))

    grow([0], 1)
    return np.array(out, dtype=np.int64)


def _oracle_nmi(pred, truth):
    n = len(pred)

    def entropy(labels):
        _, c = np.unique(labels, return_counts=True)
        prob = c / n
        return float(-np.sum(prob * np.log(prob)))

    hu, hv = entropy(pred), entropy(truth)
    if hu == 0.0 or hv == 0.0:
        return 0.0
    mi = 0.0
    for a in np.unique(pred):
        for b in np.unique(truth):
            pab = float(np.mean((pred == a) & (truth == b)))
            if pab > 0.0:
                pa = float(np.mean(pred == a))
                pb = float(np.mean(truth == b))
                mi += pab * math.log(pab / (pa * pb))
    return mi / math.sqrt(hu * hv)


def _oracle_ari(pred, truth):
    n = len(pred)
    same_p = same_t = same_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            same_p += sp
            same_t += st
            same_both += sp and st
    pairs = n * (n - 1) // 2
    expected = same_p * same_t / pairs
    maximum = 0.5 * (same_p + same_t)
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def _oracle_accuracy(pred, truth):
    width = int(max(pred.max(), truth.max())) + 1
    best = 0
    for perm in itertools.permutations(range(width)):
        mapped = np.asarray(perm)[pred]
        best = max(best, int(np.sum(mapped == truth)))
    return best / len(pred)


def test_criterion_06_metrics_match_oracles_exhaustively():
    budget_start = time.perf_counter()
    total_pairs = 0
    for n in range(2, 9):
        parts = _partitions_up_to_3_blocks(n)
        cnt = len(parts)
        onehot = np.zeros((cnt, n, 3), dtype=np.float32)
        onehot[np.arange(cnt)[:, None], np.arange(n)[None, :], parts] = 1.0
        # oracle contingency tables for every ordered (pred, truth) pair
        tables = np.einsum("ipd,jpe->ijde", onehot, onehot).astype(np.int16)
        total_pairs += cnt * cnt
        # the three metrics are functions of the table alone, so running the
        # real label-level path once per distinct table covers every pair
        flat = tables.reshape(cnt * cnt, 9)
        uniq, rep = np.unique(flat, axis=0, return_index=True)
        for flat_table, pair_index in zip(uniq, rep):
            i, j = divmod(int(pair_index), cnt)
            pred, truth = parts[i], parts[j]
            impl_table = contingency(pred, truth)
            padded = np.zeros((3, 3), dtype=np.int64)
            padded[: impl_table.shape[0], : impl_table.shape[1]] = impl_table
            assert np.array_equal(padded.ravel(), flat_table.astype(np.int64))
            impl = score(pred, truth)
            assert abs(impl["nmi"] - _oracle_nmi(pred, truth)) <= 1e-10
            assert abs(impl["ari"] - _oracle_ari(pred, truth)) <= 1e-10
            assert abs(impl["acc"] - _oracle_accuracy(pred, truth)) <= 1e-10
        # table building itself is checked pair by pair where that stays cheap
        if n <= 6:
            for i in range(cnt):
                ti = contingency  # local alias, hot loop
                for j in range(cnt):
                    impl_table = ti(parts[i], parts[j])
                    padded = np.zeros((3, 3), dtype=np.int64)
                    padded[: impl_table.shape[0], : impl_table.shape[1]] = impl_table
                    assert np.array_equal(padded, tables[i, j].astype(np.int64))
    assert total_pairs == 1_346_851  # 2..8 points, up to 3 blocks, ordered pairs
    # accuracy on wider tables: random 5-cluster problems against the full
    # 120-permutation enumeration
    gen = np.random.default_rng(606)
    for _ in range(20):
        pred = gen.integers(0, 5, size=60)
        truth = gen.integers(0, 5, size=60)
        pred[:5] = np.arange(5)  # keep all five labels present on both sides
        truth[-5:] = np.arange(5)
        assert abs(accuracy(pred, truth) - _oracle_accuracy(pred, truth)) <= 1e-12
    assert time.perf_counter() - budget_start < 30.0  # budget: 30 s


# --- criterion 7: full pipeline recovers well separated blobs ---------------


def test_criterion_07_pipeline_recovers_blobs():
    budget_start = time.perf_counter()
    X, y = make_blobs(600, 10, 3, separation=5.0, noise_sigma=0.3, seed=42)
    config = PipelineConfig(
        m=3,
        cycle_length=6,
        alpha0=0.001,
        encoding_size=3,
        hidden=(32,),
        landmarks=30,
        sparsity=3,
        k=3,
        seed=0,
        repeats=5,
        batch_size=128,
        activation="identity",
    )
    _, report, _ = run_ssc(config, X, y)
    assert report["nmi"] >= 0.95  # mean over 5 repeats
    rm_config = config.replace(metrics=("euclidean", "cosine", "minkowski"))
    _, rm_report, _ = run_ssc_rm(rm_config, X, y)
    assert rm_report["nmi"] >= 0.95  # mean over 5 repeats
    assert time.perf_counter() - budget_start < 120.0  # budget: 2 min


# --- criterion 8: ensembling helps on noisy data ----------------------------


def test_criterion_08_ensemble_beats_single_snapshot():
    budget_start = time.perf_counter()
    X, y = make_blobs(600, 10, 3, separation=2.0, noise_sigma=1.2, seed=7)
    base = PipelineConfig(
        cycle_length=6,  # identical per-member budget for every ensemble size
        alpha0=0.001,
        encoding_size=3,
        hidden=(32,),
        landmarks=30,
        sparsity=3,
        k=3,
        repeats=1,
        batch_size=128,
        activation="identity",
    )
    means = {}
    for m in (1, 4):
        scores = []
        for seed in range(5):
            _, report, _ = run_ssc(base.replace(m=m, seed=seed), X, y)
            scores.append(report["nmi"])
        means[m] = float(np.mean(scores))
    assert means[1] < 0.9  # single member struggles on this noise level
    assert means[4] > means[1]  # the ensemble improves the mean over 5 seeds
    assert time.perf_counter() - budget_start < 300.0  # budget: 5 min


# --- criterion 9: structural degeneracies are exact equivalences ------------


def test_criterion_09_degeneracy_equivalences(tmp_path):
    budget_start = time.perf_counter()
    X, y = make_blobs(300, 8, 3, separation=4.0, noise_sigma=0.5, seed=21)
    config = PipelineConfig(
        m=1,
        cycle_length=4,
        alpha0=0.001,
        encoding_size=3,
        hidden=(16,),
        landmarks=20,
        sparsity=3,
        k=3,
        seed=5,
        repeats=2,
        batch_size=128,
        activation="identity",
    )
    # a single-member ensemble IS the trained spectral baseline
    dir_a, dir_b = tmp_path / "ssc_m1", tmp_path / "dae_lsc"
    _, report_a, _ = run_ssc(config, X, y, out_dir=dir_a)
    _, report_b, _ = run_baseline("dae_lsc", config, X, y, out_dir=dir_b)
    for i in range(config.repeats):
        name = f"labels_rep{i}.txt"
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    assert report_a["runs"] == report_b["runs"]
    # a length-1 metric list degenerates to the single-metric pipeline
    multi = config.replace(m=3)
    dir_c, dir_d = tmp_path / "rm_single", tmp_path / "ssc_plain"
    _, report_c, _ = run_ssc_rm(multi.replace(metrics=("euclidean",)), X, y, out_dir=dir_c)
    _, report_d, _ = run_ssc(multi, X, y, out_dir=dir_d)
    for i in range(config.repeats):
        name = f"labels_rep{i}.txt"
        assert (dir_c / name).read_bytes() == (dir_d / name).read_bytes()
    assert report_c["runs"] == report_d["runs"]
    assert time.perf_counter() - budget_start < 60.0  # budget: 1 min


# --- criterion 10: memory footprint anchors ---------------------------------


def test_criterion_10_footprint_anchors():
    budget_start = time.perf_counter()
    fp = footprint_report(70000, 350, 3, 6)
    member_mib = fp["member_affinity_bytes"] / 2**20
    assert 1.0 <= member_mib <= 4.0  # within a factor of 2 of the 2 MiB anchor
    dense_gib = fp["dense_equivalent_bytes"] / 2**30
    assert abs(dense_gib - 36.5) <= 3.65  # within 10% of the dense anchor
    assert fp["fused_nnz"] == 1_260_000
    assert fp["density"] == pytest.approx(3 / 350)
    assert time.perf_counter() - budget_start < 1.0  # budget: 1 s


# --- criterion 11: bit-for-bit determinism, thread count included -----------


def test_criterion_11_determinism_across_thread_counts(tmp_path):
    budget_start = time.perf_counter()
    X, y = make_blobs(300, 8, 3, separation=4.0, noise_sigma=0.5, seed=13)
    data = tmp_path / "data.rawf32"
    truth = tmp_path / "labels.txt"
    save_rawf32(data, X)
    save_labels(truth, y)
    args = [
        "cluster",
        "--dataset", str(data),
        "--labels", str(truth),
        "--m", "2",
        "--cycle-length", "4",
        "--alpha0", "0.001",
        "--encoding-size", "3",
        "--hidden", "16",
        "--landmarks", "20",
        "--sparsity", "3",
        "--k", "3",
        "--seed", "9",
        "--repeats", "2",
        "--batch-size", "128",
        "--activation", "identity",
    ]
    out_dirs = []
    for name, threads in (("threads1", "1"), ("threads4", "4"), ("rerun1", "1")):
        out = tmp_path / name
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "snapclust.cli", *args, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        out_dirs.append(out)
    reference_report = json.loads((out_dirs[0] / "report.json").read_text())
    assert reference_report["repeats"] == 2
    for name in ("labels_rep0.txt", "labels_rep1.txt", "report.json"):
        reference = (out_dirs[0] / name).read_bytes()
        assert (out_dirs[1] / name).read_bytes() == reference  # 4 threads == 1
        assert (out_dirs[2] / name).read_bytes() == reference  # rerun == first
    assert time.perf_counter() - budget_start < 120.0  # budget: 2 min
