"""Distance metrics: euclidean, cosine and minkowski q-norm.

Cosine distance is 1 - cosine similarity and rejects zero-norm vectors
instead of silently returning 0. Minkowski defaults to q=3 so it is a
genuinely different metric from euclidean. All accumulation is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

METRIC_NAMES = ("euclidean", "cosine", "minkowski")

DEFAULT_MINKOWSKI_Q = 3.0

# minkowski chunk size: 2**15 float64 entries (256 KiB) per buffer stays in L2
_CHUNK_ENTRIES = 2**15


@dataclass(frozen=True)
class Metric:
    """A distance metric selector. `q` is only meaningful for minkowski."""

    name: str
    q: float = DEFAULT_MINKOWSKI_Q

    def __post_init__(self):
        if self.name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.name!r}; expected one of {METRIC_NAMES}")
        if self.name == "minkowski" and not self.q > 0:
            raise ConfigError(f"minkowski exponent must be > 0, got {self.q}")

    def label(self) -> str:
        if self.name == "minkowski":
            return f"minkowski(q={self.q:g})"
        return self.name


EUCLIDEAN = Metric("euclidean")
COSINE = Metric("cosine")
MINKOWSKI3 = Metric("minkowski", 3.0)


def parse_metric(text: str, q: float = DEFAULT_MINKOWSKI_Q) -> Metric:
    """Parse a metric name, optionally 'minkowski:Q' with an inline exponent."""
    text = text.strip().lower()
    if text.startswith("minkowski:"):
        try:
            q = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad minkowski exponent in {text!r}") from None
        return Metric("minkowski", q)
    if text == "minkowski":
        return Metric("minkowski", q)
    return Metric(text)


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DataError("distance expects 1-D vectors")
    if a.shape[0] != b.shape[0]:
        raise DataError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def distance(a: np.ndarray, b: np.ndarray, metric: Metric) -> float:
    """Distance between two vectors under `metric`. Always >= 0."""
    a, b = _check_pair(a, b)
    if metric.name == "euclidean":
        d = a - b
        return float(np.sqrt(np.dot(d, d)))
    if metric.name == "minkowski":
        d = np.abs(a - b)
        return float(np.sum(d**metric.q) ** (1.0 / metric.q))
    # cosine
    na = float(np.sqrt(np.dot(a, a)))
    nb = float(np.sqrt(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine distance undefined for zero-norm vector")
    sim = float(np.dot(a, b)) / (na * nb)
    sim = min(1.0, max(-1.0, sim))
    return 1.0 - sim


def pairwise_distance(A: np.ndarray, B: np.ndarray, metric: Metric) -> np.ndarray:
    """All-pairs distances between rows of A (n x d) and rows of B (p x d).

    Euclidean uses the Gram expansion (one GEMM), cosine normalizes rows
    once, and minkowski accumulates |a_j - b_j|^q one coordinate j at a
    time into the n x p output before taking the 1/q root, working through
    row chunks of _CHUNK_ENTRIES // p rows with two chunk-sized scratch
    buffers and no n x p x d one.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DataError(f"pairwise shapes incompatible: {A.shape} vs {B.shape}")

    if metric.name == "euclidean":
        sq = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq)

    if metric.name == "minkowski":
        q = metric.q
        out = np.zeros((A.shape[0], B.shape[0]), dtype=np.float64)
        rows = max(1, _CHUNK_ENTRIES // max(1, B.shape[0]))
        diff = np.empty((min(rows, A.shape[0]), B.shape[0]), dtype=np.float64)
        term = np.empty_like(diff)
        BT = np.ascontiguousarray(B.T)
        for start in range(0, A.shape[0], rows):
            acc = out[start : start + rows]
            d, t = diff[: acc.shape[0]], term[: acc.shape[0]]
            for a, b in zip(A[start : start + rows].T, BT):
                np.subtract.outer(a, b, out=d)
                np.abs(d, out=d)
                if q == 3.0:
                    # libm pow(x, 3.0) is slow on exact zeros, which ReLU codes make many of
                    np.multiply(d, d, out=t)
                    t *= d
                else:
                    np.power(d, q, out=t)
                acc += t
        return np.power(out, 1.0 / q, out=out)

    # cosine
    na = np.sqrt(np.sum(A * A, axis=1))
    nb = np.sqrt(np.sum(B * B, axis=1))
    if np.any(na == 0.0):
        raise DataError(f"cosine distance undefined: zero-norm row {int(np.argmin(na))} of A")
    if np.any(nb == 0.0):
        raise DataError(f"cosine distance undefined: zero-norm row {int(np.argmin(nb))} of B")
    sim = (A / na[:, None]) @ (B / nb[:, None]).T
    np.clip(sim, -1.0, 1.0, out=sim)
    return 1.0 - sim
