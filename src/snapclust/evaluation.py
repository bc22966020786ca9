"""Clustering agreement metrics: NMI, ARI and Hungarian-matched accuracy.

All three are permutation invariant and computed from a contingency
table. Label arrays may use arbitrary integer ids; they are compressed
to contiguous ranges when the table is built.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import DataError

METRIC_KEYS = ("nmi", "ari", "acc")


def _as_labels(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("labels must be a nonempty 1-D array")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise DataError("labels must be integers")
        arr = cast
    return arr.astype(np.int64)


def contingency(pred, truth) -> np.ndarray:
    """Cross-tabulation: counts[i, j] = |{x : pred(x)=i and truth(x)=j}|."""
    pred, truth = _as_labels(pred), _as_labels(truth)
    if pred.shape != truth.shape:
        raise DataError(f"label arrays disagree in length: {pred.shape} vs {truth.shape}")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _check_table(table) -> np.ndarray:
    t = np.asarray(table)
    if t.ndim != 2 or t.size == 0 or np.any(t < 0) or t.sum() < 1:
        raise DataError("contingency table must be 2-D, nonnegative, nonempty")
    return t.astype(np.int64)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi_table(table) -> float:
    """NMI with sqrt normalization from a precomputed table, natural log.

    Returns 0 when either marginal has zero entropy (a single cluster),
    where the normalization is undefined.
    """
    table = _check_table(table)
    n = table.sum()
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    h_row, h_col = _entropy(row), _entropy(col)
    if h_row == 0.0 or h_col == 0.0:
        return 0.0
    nz = table > 0
    nij = table[nz].astype(np.float64)
    outer = np.outer(row, col)[nz].astype(np.float64)
    mi = float(np.sum((nij / n) * np.log(nij * n / outer)))
    value = mi / np.sqrt(h_row * h_col)
    return float(min(1.0, max(0.0, value)))


def ari_table(table) -> float:
    """Adjusted Rand index by pair counting.

    When the adjustment denominator vanishes (both marginals trivial, so
    there is no pairwise structure to disagree on) the score is 1.
    """
    table = _check_table(table).astype(np.float64)
    n = table.sum()
    if n < 2:
        raise DataError("ari needs at least two points")
    sum_ij = np.sum(table * (table - 1)) / 2.0
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    sum_a = np.sum(a * (a - 1)) / 2.0
    sum_b = np.sum(b * (b - 1)) / 2.0
    total = n * (n - 1) / 2.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    denom = max_index - expected
    if denom == 0.0:
        return 1.0
    return float((sum_ij - expected) / denom)


def accuracy_table(table) -> float:
    """Best accuracy over one-to-one cluster-to-class matchings.

    Solved exactly on the contingency table; when the cluster counts
    differ, the surplus clusters map to nothing. Each count is shifted by
    1 so that every pair is an edge, which adds min(table.shape) to every
    full matching. (scipy.optimize would do, but importing it costs every
    run memory and start-up time.)
    """
    table = _check_table(table)
    rows, cols = min_weight_full_bipartite_matching(csr_array(table + 1), maximize=True)
    matched = table[rows, cols].sum()
    return float(matched / table.sum())


def nmi(pred, truth) -> float:
    return nmi_table(contingency(pred, truth))


def ari(pred, truth) -> float:
    return ari_table(contingency(pred, truth))


def accuracy(pred, truth) -> float:
    return accuracy_table(contingency(pred, truth))


def score(pred, truth) -> dict:
    """NMI, ARI and accuracy, keyed in METRIC_KEYS order, from one contingency table."""
    table = contingency(pred, truth)
    return {"nmi": nmi_table(table), "ari": ari_table(table), "acc": accuracy_table(table)}


def aggregate(runs: list[dict]) -> dict:
    """Mean and sample standard deviation per metric across repeat runs.

    A single run reports std 0. Per-run values are kept in the output so
    reports stay auditable.
    """
    if not runs:
        raise DataError("aggregate: no runs")
    out = {}
    for key in runs[0]:
        values = [float(r[key]) for r in runs]
        arr = np.asarray(values)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        out[key] = {"mean": float(arr.mean()), "std": std, "values": values}
    return out
