"""Distance metrics: euclidean, cosine and minkowski q-norm.

Cosine distance is 1 - cosine similarity and rejects zero-norm vectors
instead of silently returning 0. Minkowski defaults to q=3 so it is a
genuinely different metric from euclidean. All accumulation is float64.

Squared euclidean distances have one kernel, `_sq_euclidean_chunks`,
shared by euclidean `pairwise_distance` and by `nearest_centers` (landmark
assignment, Lloyd and k-means++). It forms the Gram product in one GEMM
over all rows, then evaluates (||a||^2 + ||b||^2) - 2 a.b, clamped at 0,
in row chunks of _CHUNK_ENTRIES // p rows, so every elementwise pass runs
over an L2-sized buffer. Chunking changes no rounding: the result equals
the unchunked formulation bit for bit, whatever the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

METRIC_NAMES = ("euclidean", "cosine", "minkowski")

DEFAULT_MINKOWSKI_Q = 3.0

# row chunk size for elementwise passes: 2**15 float64 entries (256 KiB)
# per buffer stays in L2
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


def _sq_euclidean_chunks(A: np.ndarray, B: np.ndarray, aa: np.ndarray, gram: np.ndarray):
    """Squared euclidean distances between rows of A (n x d) and B (p x d).

    Yields (rows, sq) per row chunk of _CHUNK_ENTRIES // p rows: `sq`
    holds (aa + bb) - 2 A B^T for A[rows], clamped at 0, in a chunk-sized
    scratch buffer that the next chunk overwrites. `aa` holds the row
    norms sum(A * A, axis=1), which callers may compute once and index;
    `gram` is an (n, p) buffer that receives A B^T in one GEMM and is left
    doubled. The GEMM is never split, so the values do not depend on the
    chunk size.
    """
    np.matmul(A, B.T, out=gram)
    bb = np.sum(B * B, axis=1)
    step = max(1, _CHUNK_ENTRIES // max(1, B.shape[0]))
    scratch = np.empty((min(step, A.shape[0]), B.shape[0]), dtype=np.float64)
    for start in range(0, A.shape[0], step):
        rows = slice(start, start + step)
        g = gram[rows]
        sq = scratch[: g.shape[0]]
        # bb + aa, the same sum as aa + bb; filling rows with bb first
        # avoids NumPy's slower two-way broadcast add
        sq[:] = bb
        sq += aa[rows, None]
        g *= 2.0
        sq -= g
        np.maximum(sq, 0.0, out=sq)
        yield rows, sq


def nearest_centers(
    X: np.ndarray, C: np.ndarray, xx: np.ndarray, gram: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, squared distance) of each row of X to its nearest row of C.

    Ties go to the lower center index. `xx` holds sum(X * X, axis=1);
    `gram` is an optional (n, k) buffer reused across calls. With one
    center (k-means++) the distances are the clamped column itself: a
    row-wise argmin over one column would cost one call per row.
    """
    n, k = X.shape[0], C.shape[0]
    if gram is None:
        gram = np.empty((n, k), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64)
    mind = np.empty(n, dtype=np.float64)
    for rows, sq in _sq_euclidean_chunks(X, C, xx, gram):
        if k == 1:
            mind[rows] = sq[:, 0]
        else:
            lab = np.argmin(sq, axis=1, out=labels[rows])
            mind[rows] = sq[np.arange(sq.shape[0]), lab]
    return labels, mind


def pairwise_distance(A: np.ndarray, B: np.ndarray, metric: Metric) -> np.ndarray:
    """All-pairs distances between rows of A (n x d) and rows of B (p x d).

    Euclidean writes the square root of each `_sq_euclidean_chunks` chunk
    back into the rows of its Gram buffer, cosine normalizes rows once,
    and minkowski accumulates |a_j - b_j|^q one coordinate j at a time
    into the n x p output before taking the 1/q root, working through
    row chunks of _CHUNK_ENTRIES // p rows with two chunk-sized scratch
    buffers and no n x p x d one.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DataError(f"pairwise shapes incompatible: {A.shape} vs {B.shape}")

    if metric.name == "euclidean":
        out = np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
        for rows, sq in _sq_euclidean_chunks(A, B, np.sum(A * A, axis=1), out):
            np.sqrt(sq, out=out[rows])
        return out

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
