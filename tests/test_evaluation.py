"""Clustering metrics against independent brute-force oracles."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from snapclust.errors import DataError
from snapclust.evaluation import (
    METRIC_KEYS,
    accuracy,
    accuracy_table,
    aggregate,
    ari,
    ari_table,
    contingency,
    nmi,
    nmi_table,
    score,
)


def oracle_contingency(pred, truth):
    """Naive double-loop counting oracle."""
    pv = sorted(set(pred))
    tv = sorted(set(truth))
    table = np.zeros((len(pv), len(tv)), dtype=np.int64)
    for a, b in zip(pred, truth):
        table[pv.index(a), tv.index(b)] += 1
    return table


def oracle_nmi(pred, truth):
    """Direct probability/entropy formulation in natural log."""
    n = len(pred)
    pv, tv = sorted(set(pred)), sorted(set(truth))
    mi = 0.0
    for a in pv:
        for b in tv:
            nij = sum(1 for x, y in zip(pred, truth) if x == a and y == b)
            if nij:
                pi = sum(1 for x in pred if x == a) / n
                pj = sum(1 for y in truth if y == b) / n
                mi += (nij / n) * math.log((nij / n) / (pi * pj))
    def entropy(labels, vals):
        h = 0.0
        for v in vals:
            p = sum(1 for x in labels if x == v) / n
            if p > 0:
                h -= p * math.log(p)
        return h
    hp, ht = entropy(pred, pv), entropy(truth, tv)
    if hp == 0.0 or ht == 0.0:
        return 0.0
    return mi / math.sqrt(hp * ht)


def oracle_ari(pred, truth):
    """All point-pair enumeration, O(n^2)."""
    n = len(pred)
    same_both = same_pred = same_truth = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            same_pred += sp
            same_truth += st
            same_both += sp and st
    expected = same_pred * same_truth / pairs if pairs else 0.0
    maximum = 0.5 * (same_pred + same_truth)
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def oracle_accuracy(pred, truth):
    """Exhaustive max over label injections of pred values into truth values."""
    n = len(pred)
    pv, tv = sorted(set(pred)), sorted(set(truth))
    width = max(len(pv), len(tv))
    best = 0
    for perm in itertools.permutations(range(width), len(pv)):
        hits = 0
        for x, y in zip(pred, truth):
            m = perm[pv.index(x)]
            if m < len(tv) and tv[m] == y:
                hits += 1
        best = max(best, hits)
    return best / n


def test_contingency_examples():
    assert np.array_equal(contingency([0, 0, 1], [0, 0, 1]), [[2, 0], [0, 1]])
    assert np.array_equal(contingency([0, 0, 0, 0], [0, 1, 0, 1]), [[2, 2]])


def test_contingency_matches_oracle():
    gen = np.random.default_rng(0)
    for _ in range(30):
        n = int(gen.integers(1, 25))
        pred = gen.integers(0, 4, size=n)
        truth = gen.integers(0, 3, size=n)
        got = contingency(pred, truth)
        assert np.array_equal(got, oracle_contingency(pred.tolist(), truth.tolist()))
        assert got.sum() == n


def test_contingency_length_mismatch():
    with pytest.raises(DataError):
        contingency([0, 1], [0, 1, 2])


def test_nmi_identical_partitions():
    assert nmi([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(1.0)


def test_nmi_independent_partitions():
    # uniform product table has zero mutual information
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_hand_entropy_example():
    table = np.array([[5, 1], [1, 5]])
    n = 12
    mi = 0.0
    for i in range(2):
        for j in range(2):
            pij = table[i, j] / n
            mi += pij * math.log(pij / (0.5 * 0.5))
    h = -2 * 0.5 * math.log(0.5)
    assert nmi_table(table) == pytest.approx(mi / h, abs=1e-12)


def test_nmi_zero_entropy_convention():
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [5, 5, 5]) == 0.0


def test_ari_identical_and_expected():
    assert ari([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(1.0)
    # single-cluster pred vs balanced truth sits exactly at the expected index
    assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_ari_requires_two_points():
    with pytest.raises(DataError):
        ari([0], [0])


def test_ari_matches_pair_oracle():
    gen = np.random.default_rng(1)
    for _ in range(30):
        n = int(gen.integers(2, 14))
        pred = gen.integers(0, 3, size=n).tolist()
        truth = gen.integers(0, 3, size=n).tolist()
        assert ari(pred, truth) == pytest.approx(oracle_ari(pred, truth), abs=1e-12)


def test_accuracy_permutation_relabeling():
    truth = np.random.default_rng(2).integers(0, 3, size=30)
    perm = np.array([2, 0, 1])
    assert accuracy(perm[truth], truth) == pytest.approx(1.0)


def test_accuracy_diagonal_example():
    assert accuracy_table(np.array([[3, 1], [1, 3]])) == pytest.approx(0.75)


def test_accuracy_matches_permutation_enumeration():
    gen = np.random.default_rng(3)
    for _ in range(20):
        n = int(gen.integers(4, 20))
        pred = gen.integers(0, 4, size=n).tolist()
        truth = gen.integers(0, 4, size=n).tolist()
        assert accuracy(pred, truth) == pytest.approx(
            oracle_accuracy(pred, truth), abs=1e-12
        )


def test_accuracy_random_5x5_tables():
    gen = np.random.default_rng(4)
    for _ in range(10):
        table = gen.integers(0, 9, size=(5, 5))
        if table.sum() == 0:
            continue
        best = max(
            sum(table[i, p[i]] for i in range(5))
            for p in itertools.permutations(range(5))
        )
        assert accuracy_table(table) == pytest.approx(best / table.sum(), abs=1e-12)


def test_accuracy_at_least_identity_assignment():
    gen = np.random.default_rng(5)
    for _ in range(20):
        table = gen.integers(0, 6, size=(3, 3))
        if table.sum() == 0:
            continue
        assert accuracy_table(table) >= np.trace(table) / table.sum() - 1e-12


def test_accuracy_beyond_64_classes():
    # 100 classes: a permuted relabeling is a perfect match
    gen = np.random.default_rng(9)
    truth = np.repeat(np.arange(100), 3)
    perm = gen.permutation(100)
    assert accuracy(perm[truth], truth) == 1.0
    # every row's maximum (5) sits on a permutation, so matching it is optimal:
    # no matching can beat the sum of row maxima
    table = gen.integers(0, 3, size=(100, 100))
    table[np.arange(100), perm] = 5
    assert accuracy_table(table) == pytest.approx(500 / table.sum(), rel=1e-15)


def test_metrics_invariant_under_relabeling():
    gen = np.random.default_rng(6)
    for _ in range(15):
        n = int(gen.integers(3, 20))
        pred = gen.integers(0, 3, size=n)
        truth = gen.integers(0, 3, size=n)
        perm = gen.permutation(3)
        for fn in (nmi, ari, accuracy):
            assert fn(pred, truth) == pytest.approx(fn(perm[pred], truth), abs=1e-12)
            assert fn(pred, truth) == pytest.approx(fn(pred, perm[truth]), abs=1e-12)


def test_nmi_symmetric():
    gen = np.random.default_rng(7)
    for _ in range(15):
        n = int(gen.integers(2, 20))
        a = gen.integers(0, 3, size=n)
        b = gen.integers(0, 4, size=n)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_score_keys():
    out = score([0, 1], [0, 1])
    assert tuple(out.keys()) == METRIC_KEYS


def test_score_equals_the_single_metric_functions():
    gen = np.random.default_rng(21)
    for _ in range(10):
        n = int(gen.integers(2, 40))
        pred = gen.integers(0, 5, size=n) * 7 - 3  # arbitrary, non-contiguous ids
        truth = gen.integers(0, 4, size=n)
        want = {"nmi": nmi(pred, truth), "ari": ari(pred, truth), "acc": accuracy(pred, truth)}
        assert score(pred, truth) == want


def test_score_takes_float_labels_that_hold_whole_numbers():
    pred = np.array([2.0, 0.0, 2.0, 1.0, 1.0])
    truth = [1, 0, 1, 2, 2]
    assert score(pred, truth) == score(pred.astype(np.int64), truth)
    with pytest.raises(DataError, match="^labels must be integers$"):
        score(np.array([0.0, 0.5]), [0, 1])


def test_aggregate_mean_and_sample_std():
    runs = [{"nmi": 0.5, "ari": 0.4}, {"nmi": 0.7, "ari": 0.6}]
    agg = aggregate(runs)
    assert agg["nmi"]["mean"] == pytest.approx(0.6)
    assert agg["nmi"]["std"] == pytest.approx(np.std([0.5, 0.7], ddof=1))
    assert agg["ari"]["values"] == [0.4, 0.6]
    single = aggregate([{"nmi": 0.9}])
    assert single["nmi"]["std"] == 0.0
    with pytest.raises(DataError):
        aggregate([])


def test_import_leaves_scipy_optimize_out():
    # the matching uses scipy.sparse.csgraph; scipy.optimize costs every run
    # memory and start-up time
    code = "import sys, snapclust, snapclust.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
