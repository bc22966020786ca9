"""Distance metrics: euclidean, cosine and minkowski q-norm.

Cosine distance is 1 - cosine similarity. It is defined on zero-norm
vectors too: d(0, b) = 1 for b != 0, as for orthogonal vectors, and
d(0, 0) = 0, which keeps d(x, x) = 0. Minkowski defaults to q=3 so it is a
genuinely different metric from euclidean.

`nearest_rows` is the package's one nearest-row kernel: landmark
assignment, the affinity's euclidean and cosine picks and Lloyd all
call it. The nearest rows c of C to a row a are the smallest entries of
||c||^2 - 2 a.c, to which ||a||^2 adds nothing: one product of [a, 1]
and [-2 C^T; ||C||^2] per block of _CHUNK_ENTRIES // p rows, reduced to
its r smallest entries while it is in L2. The block sizes depend on p
alone, and no n x p matrix is written. The product runs in C's dtype:
the ensemble members pick in float32, Lloyd in float64. Row norms are
each row's squares summed in float64 and rounded once to the working
dtype (`sq_norms`).

`exact_distances` is the package's one exact definition of each metric:
float64 distances from each row to the rows it names, as the affinity's
kernel weights take them. `distance` is its one-row case.

`pairwise_distance` is the dense all-pairs form, in float32 for float32
inputs and float64 otherwise. Minkowski sets each chunk of differences
to -b_j and adds a_j with a rank-1 BLAS update, `ger` with alpha 1 and a
vector of ones, on the chunk's F-contiguous transpose, in place: about
twice as fast as NumPy's broadcast add, and a product with 1 is exact,
so each entry is a_j - b_j rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .errors import ConfigError, DataError

METRIC_NAMES = ("euclidean", "cosine", "minkowski")

DEFAULT_MINKOWSKI_Q = 3.0

# row chunk size for elementwise passes: 2**15 entries (256 KiB in
# float64, half that in float32) per buffer stays in L2
_CHUNK_ENTRIES = 2**15


@dataclass(frozen=True)
class Metric:
    """A distance metric selector. `q` is only meaningful for minkowski."""

    name: str
    q: float = DEFAULT_MINKOWSKI_Q

    def __post_init__(self):
        if self.name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {self.name!r}; expected one of {METRIC_NAMES}")
        if self.name == "minkowski" and not 0 < self.q < math.inf:
            raise ConfigError(f"minkowski exponent must be finite and > 0, got {self.q}")

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


def distance(a: np.ndarray, b: np.ndarray, metric: Metric) -> float:
    """Distance between two vectors under `metric`: `exact_distances` of one row."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DataError("distance expects 1-D vectors")
    if a.shape[0] != b.shape[0]:
        raise DataError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(exact_distances(a[None], b[None], np.zeros((1, 1), np.intp), metric)[0, 0])


def as_float(A) -> np.ndarray:
    """A as a C-contiguous array: float32 if it is float32, else float64."""
    A = np.asarray(A)
    return np.ascontiguousarray(A, dtype=np.float32 if A.dtype == np.float32 else np.float64)


def sq_norms(A: np.ndarray, dtype=None) -> np.ndarray:
    """sum(A * A, axis=1) of A cast to `dtype` (A's own by default), in `dtype`.

    Each chunk of _CHUNK_ENTRIES // d rows is cast to `dtype`, then widened
    to float64, where a float32 entry's square is exact, and its squares are
    summed; each sum is rounded to `dtype` once. For a float64 A this is
    np.sum(A * A, axis=1) bit for bit, and no n x d temporary is made.
    """
    dtype = A.dtype if dtype is None else np.dtype(dtype)
    out = np.empty(A.shape[0], dtype)
    step = max(1, _CHUNK_ENTRIES // max(1, A.shape[1]))
    for start in range(0, A.shape[0], step):
        rows = A[start : start + step].astype(dtype, copy=False).astype(np.float64, copy=False)
        out[start : start + step] = np.sum(rows * rows, axis=1)
    return out


def unit_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A's rows scaled to unit norm, which rows are zero), in A's dtype.

    Each norm is taken in float64 and rounded once to A's dtype. A zero
    row is divided by 1 instead and stays zero. A norm is zero exactly
    when its row is: it is at least the row's largest entry, which its
    rounding cannot go below.
    """
    norms, zero = row_norms(A)
    return A / norms.astype(A.dtype, copy=False)[:, None], zero


def row_norms(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A's float64 row norms with each zero set to 1, which rows are zero)."""
    norms = np.sqrt(sq_norms(A, np.float64))
    zero = norms == 0.0
    norms[zero] = 1.0
    return norms, zero


def _power(x: np.ndarray, q: float, out: np.ndarray | None = None) -> np.ndarray:
    """x**q, into `out` if given, which must not be x."""
    if q != 3.0:
        return np.power(x, q, out=out)
    # libm pow(x, 3.0) is slow on exact zeros, which ReLU codes make many of
    square = np.multiply(x, x, out=out)
    return np.multiply(square, x, out=square)


def exact_distances(
    Y: np.ndarray, centers: np.ndarray, nearest: np.ndarray, metric: Metric
) -> np.ndarray:
    """float64 (n, r) distances from each row of Y to the rows of `centers` it names in `nearest`.

    Computed from the float64 widening of each row and the float64
    centers, a chunk of _CHUNK_ENTRIES // (r * d) rows at a time: euclidean
    and minkowski from the differences row - center, cosine from the unit
    vectors, with the conventions of `pairwise_distance` for zero rows. A
    row's values do not depend on the chunk it falls in.
    """
    n, r = nearest.shape
    out = np.empty((n, r))
    if metric.name == "cosine":
        units, zero_c = unit_rows(centers)
    step = max(1, _CHUNK_ENTRIES // max(1, r * centers.shape[1]))
    for start in range(0, n, step):
        rows = Y[start : start + step].astype(np.float64, copy=False)
        picks = nearest[start : start + step]
        dist = out[start : start + step]
        if metric.name == "cosine":
            unit, zero = unit_rows(rows)
            sim = np.sum(units[picks] * unit[:, None], axis=2)
            np.clip(sim, -1.0, 1.0, out=sim)
            np.subtract(1.0, sim, out=dist)
            dist[zero[:, None] & zero_c[picks]] = 0.0
            continue
        diff = centers[picks]
        diff -= rows[:, None]
        if metric.name == "euclidean":
            diff *= diff
            np.sqrt(np.sum(diff, axis=2), out=dist)
            continue
        np.abs(diff, out=diff)
        np.power(np.sum(_power(diff, metric.q), axis=2), 1.0 / metric.q, out=dist)
    return out


def _smallest(block: np.ndarray, index: np.ndarray, value: np.ndarray | None = None) -> None:
    """The columns of each row's r smallest entries of `block` into `index`, (n, r).

    Ordered by (entry, column), as a stable argsort's first r columns are,
    with the entries into `value` if it is given. With r = 1 this is a
    plain argmin. Otherwise it takes r successive row-wise argmins, each
    pick masked with +inf in the C-contiguous `block`, which is
    overwritten; argmin breaks ties to the lower column, as the stable
    sort does. A row whose picks include NaN or +-inf, where masking is
    no longer exact, is restored and sorted in full instead.
    """
    n, p = block.shape
    r = index.shape[1]
    if r == 1:
        np.argmin(block, axis=1, out=index[:, 0])
        if value is not None:
            value[:] = np.take_along_axis(block, index, axis=1)
        return
    picked = np.empty((n, r), dtype=block.dtype) if value is None else value
    # picks are read and masked through the flat view: half the cost of
    # block[np.arange(n), columns]
    flat = block.reshape(-1)
    starts = np.arange(0, n * p, p)
    for i in range(r):
        np.argmin(block, axis=1, out=index[:, i])
        at = index[:, i] + starts
        picked[:, i] = flat[at]
        flat[at] = np.inf
    if not np.isfinite(picked).all():
        bad = np.flatnonzero(~np.all(np.isfinite(picked), axis=1))
        # reverse order: a masked entry picked again holds +inf, the first pick the value
        for i in reversed(range(r)):
            block[bad, index[bad, i]] = picked[bad, i]
        index[bad] = np.argsort(block[bad], axis=1, kind="stable")[:, :r]
        picked[bad] = np.take_along_axis(block[bad], index[bad], axis=1)


def nearest_rows(
    X: np.ndarray,
    C: np.ndarray,
    r: int = 1,
    shift: np.ndarray | None = None,
    scale: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    value: np.ndarray | None = None,
) -> np.ndarray:
    """The indices, (n, r), of the r rows of C nearest to each row a of X / scale - shift.

    Each row's picks are ordered by (bias_j - 2 a.c_j, j), so ties go to
    the lower index; with the default bias, `sq_norms(C)`, that is the
    squared distance less ||a||^2. If `value` is given, an (n, r) array of
    C's dtype, it receives those entries. The product runs in C's dtype,
    float32 or float64. Each block of _CHUNK_ENTRIES // p rows of X is
    divided by its float64 `scale` entries and less the float64 `shift`,
    in float64, rounded once into [a, 1] and multiplied by
    [-2 C^T; bias]; `_smallest` then takes its r smallest entries. No
    n x (d + 1) copy and no n x p matrix is made.
    """
    n, d = X.shape
    p = C.shape[0]
    C1 = np.empty((d + 1, p), dtype=C.dtype)
    np.multiply(C.T, -2.0, out=C1[:d])
    C1[d] = sq_norms(C) if bias is None else bias
    step = max(1, _CHUNK_ENTRIES // p)
    A1 = np.empty((min(n, step), d + 1), dtype=C.dtype)
    A1[:, d] = 1.0
    G = np.empty((A1.shape[0], p), dtype=C.dtype)
    index = np.empty((n, r), dtype=np.intp)
    for start in range(0, n, step):
        stop = min(n, start + step)
        a, g = A1[: stop - start], G[: stop - start]
        rows = X[start:stop]
        if scale is not None:
            rows = rows / scale[start:stop, None]
        if shift is None:
            a[:, :d] = rows
        else:
            np.subtract(rows, shift, out=a[:, :d])
        np.matmul(a, C1, out=g)
        _smallest(g, index[start:stop], None if value is None else value[start:stop])
    return index


def pairwise_distance(A: np.ndarray, B: np.ndarray, metric: Metric) -> np.ndarray:
    """All-pairs distances between rows of A (n x d) and rows of B (p x d).

    Runs in and returns float32 when A and B are both float32, and
    float64 when neither is; a float32 operand with a float64 one is a
    DataError. Euclidean is (aa + bb) - 2 (A @ B.T) clamped at 0 and
    rooted; cosine normalizes nonzero rows once; and minkowski
    accumulates |a_j - b_j|^q one coordinate j at a time into the n x p
    output before taking the 1/q root, working through row chunks of
    _CHUNK_ENTRIES // p rows with two chunk-sized scratch buffers and no
    n x p x d one. Each chunk of differences is set to -b_j and a_j is
    added by the rank-1 update, which rounds exactly as a_j - b_j.
    """
    A, B = as_float(A), as_float(B)
    dtype = A.dtype
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DataError(f"pairwise shapes incompatible: {A.shape} vs {B.shape}")
    if B.dtype != dtype:
        raise DataError(f"pairwise dtypes differ: {A.dtype} vs {B.dtype}")

    if metric.name == "euclidean":
        out = np.add.outer(sq_norms(A), sq_norms(B))
        out -= 2.0 * (A @ B.T)
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)

    if metric.name == "minkowski":
        q = metric.q
        (ger,) = get_blas_funcs(("ger",), (A,))
        out = np.zeros((A.shape[0], B.shape[0]), dtype=dtype)
        rows = max(1, _CHUNK_ENTRIES // max(1, B.shape[0]))
        diff = np.empty((min(rows, A.shape[0]), B.shape[0]), dtype=dtype)
        term = np.empty_like(diff)
        negBT = -np.ascontiguousarray(B.T)
        ones = np.ones(B.shape[0], dtype)
        for start in range(0, A.shape[0], rows):
            acc = out[start : start + rows]
            d, t = diff[: acc.shape[0]], term[: acc.shape[0]]
            for a, negb in zip(A[start : start + rows].T, negBT):
                d[:] = negb
                ger(1.0, ones, a, a=d.T, overwrite_a=1)
                np.abs(d, out=d)
                acc += _power(d, q, out=t)
        return np.power(out, 1.0 / q, out=out)

    # cosine; a zero row stays zero and so has similarity 0 (distance 1) to
    # every row; zero against zero is set to 0
    ua, zero_a = unit_rows(A)
    ub, zero_b = unit_rows(B)
    sim = ua @ ub.T
    np.clip(sim, -1.0, 1.0, out=sim)
    dist = 1.0 - sim
    dist[np.ix_(zero_a, zero_b)] = 0.0
    return dist
