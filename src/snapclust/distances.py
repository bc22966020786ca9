"""Distance metrics: euclidean, cosine and minkowski q-norm.

Cosine distance is 1 - cosine similarity. It is defined on zero-norm
vectors too: d(0, b) = 1 for b != 0, as for orthogonal vectors, and
d(0, 0) = 0, which keeps d(x, x) = 0. Minkowski defaults to q=3 so it is a
genuinely different metric from euclidean.

The kernels are dtype-generic: `pairwise_distance` and `nearest_centers`
work in float32 when their inputs are float32 and in float64 otherwise,
with their buffers in that dtype and their BLAS routines (`sgemm`/`sger`
or `dgemm`/`dger`) chosen for it. Row norms are the one exception: each
row's squares are summed in float64 and rounded once to the working dtype
(`sq_norms`). The ensemble members pick landmarks in float32; Lloyd
and the final k-means call `nearest_centers` in float64.

Squared euclidean distances have one kernel, `_sq_euclidean`, shared by
euclidean `pairwise_distance` and by `nearest_centers` (Lloyd). It
prefills the (n, p) output with ||a||^2 + ||b||^2 in row chunks of
_CHUNK_ENTRIES // p rows, so those passes run over an L2-sized block,
and then subtracts 2 a.b with one unsplit gemm into the
same buffer (C <- -2 A B^T + C). The gemm kernel accumulates each dot
product in the working precision and then adds alpha times it to C, and
scaling by -2 is exact in either precision, so the values equal
(||a||^2 + ||b||^2) - 2 (A @ B.T) bit for bit, whatever the chunk size,
in float32 as in float64. Shapes where one gemm would round differently
(a GEMV in NumPy, or an inner sum that BLAS splits) run that two-pass
form itself. `nearest_centers` takes the argmin of the unclamped values
and clamps only rows whose minimum is negative; euclidean
`pairwise_distance` clamps at 0 and takes the square root in place,
chunk by chunk.

Two passes add a row vector and a column vector without NumPy's
broadcast add, which runs at about half the speed of a contiguous pass:
the prefill sets each chunk to ||b||^2 and adds ||a||^2, and minkowski
sets each chunk of differences to -b_j and adds a_j. The addition is a
rank-1 BLAS update, `ger` with alpha 1 and a vector of ones, on the
chunk's F-contiguous transpose, in place. A product with 1 is exact with
or without FMA, in either precision, so each entry is the one rounded sum
of the same two operands, bit for bit what the broadcast add or
`np.subtract.outer` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .errors import ConfigError, DataError

METRIC_NAMES = ("euclidean", "cosine", "minkowski")

DEFAULT_MINKOWSKI_Q = 3.0

# row chunk size for elementwise passes: 2**15 entries (256 KiB in
# float64, half that in float32) per buffer stays in L2
_CHUNK_ENTRIES = 2**15

# widest d for which one gemm rounds like the two-pass form: OpenBLAS
# splits the inner sum into blocks and updates C after each one. dgemm's
# blocks are 128 (generic x86-64 kernels), 256 (Nehalem to Zen) or 384
# (Skylake-X) long. sgemm's are sized for entries half as wide, so they
# are no shorter (448 against dgemm's 384 with the Skylake-X kernels of
# OpenBLAS 0.3.31), and 128 bounds both precisions
_FUSED_MAX_DIMS = 128


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
        return 0.0 if na == nb else 1.0
    sim = float(np.dot(a, b)) / (na * nb)
    sim = min(1.0, max(-1.0, sim))
    return 1.0 - sim


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
    norms = np.sqrt(sq_norms(A, np.float64)).astype(A.dtype, copy=False)
    zero = norms == 0.0
    norms[zero] = 1.0
    return A / norms[:, None], zero


def _sq_euclidean(A: np.ndarray, B: np.ndarray, aa: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unclamped (aa + bb) - 2 A B^T into the C-contiguous (n, p) `out`.

    A, B, `aa` and `out` share one dtype, float32 or float64, which picks
    the BLAS routines. `aa` holds `sq_norms(A)`, which callers may compute
    once and index. `out` is prefilled with bb + aa (the same sum as
    aa + bb) in row chunks: each chunk is set to bb, then aa is added by
    the rank-1 update rows^T <- 1 * ones aa^T + rows^T (see the module
    docstring). Then one unsplit gemm computes out <- -2 A B^T + out. GEMV
    shapes (n == 1 or p == 1) and widths d past _FUSED_MAX_DIMS would
    round differently there, so they subtract 2 (A @ B.T) instead.
    """
    if not out.flags.c_contiguous:
        # ger and gemm would update a copy and leave `out` unfilled
        raise ValueError("_sq_euclidean needs a C-contiguous output buffer")
    gemm, ger = get_blas_funcs(("gemm", "ger"), (out,))
    n, p = out.shape
    bb = sq_norms(B)
    ones = np.ones(p, out.dtype)
    step = max(1, _CHUNK_ENTRIES // max(1, p))
    for start in range(0, n, step):
        rows = out[start : start + step]
        rows[:] = bb
        ger(1.0, ones, aa[start : start + step], a=rows.T, overwrite_a=1)
    if n > 1 and p > 1 and A.shape[1] <= _FUSED_MAX_DIMS:
        gemm(-2.0, B.T, A.T, 1.0, out.T, trans_a=1, overwrite_c=1)
    else:
        gram = A @ B.T
        gram *= 2.0
        out -= gram
    return out


def nearest_centers(
    X: np.ndarray, C: np.ndarray, xx: np.ndarray, gram: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, squared distance) of each row of X to its nearest row of C.

    Equals the argmin and minimum of the distances clamped at 0, ties to
    the lower center index. X, C and `xx`, which holds `sq_norms(X)`,
    share one dtype, float32 or float64, the kernel's; `gram` is an
    optional C-contiguous (n, k) buffer of that dtype reused across calls.
    The argmin runs on the unclamped values; only a row whose minimum is
    negative is then fixed up: clamping would make every entry <= 0 of it
    a tie at 0, so its label becomes the first such index.
    """
    n, k = X.shape[0], C.shape[0]
    if gram is None:
        gram = np.empty((n, k), dtype=X.dtype)
    sq = _sq_euclidean(X, C, xx, gram)
    labels = np.argmin(sq, axis=1)
    # each row's minimum, read from the flattened buffer: half the cost of
    # sq[np.arange(n), labels]
    mind = np.take(sq, labels + np.arange(0, n * k, k))
    neg = np.flatnonzero(mind < 0.0)
    if neg.size:
        labels[neg] = np.argmax(sq[neg] <= 0.0, axis=1)
        mind[neg] = np.maximum(sq[neg, labels[neg]], 0.0)
    return labels, mind


def pairwise_distance(A: np.ndarray, B: np.ndarray, metric: Metric) -> np.ndarray:
    """All-pairs distances between rows of A (n x d) and rows of B (p x d).

    Runs in and returns float32 when A and B are both float32, and
    float64 when neither is; a float32 operand with a float64 one is a
    DataError. Euclidean clamps the `_sq_euclidean` output at 0 and takes
    its square root in place, chunk by chunk; cosine normalizes nonzero
    rows once; and minkowski accumulates |a_j - b_j|^q one
    coordinate j at a time into the n x p output before taking the 1/q
    root, working through row chunks of _CHUNK_ENTRIES // p rows with two
    chunk-sized scratch buffers and no n x p x d one. Each chunk of
    differences is set to -b_j and a_j is added by the rank-1 update,
    which rounds exactly as a_j - b_j.
    """
    A, B = as_float(A), as_float(B)
    dtype = A.dtype
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DataError(f"pairwise shapes incompatible: {A.shape} vs {B.shape}")
    if B.dtype != dtype:
        raise DataError(f"pairwise dtypes differ: {A.dtype} vs {B.dtype}")

    if metric.name == "euclidean":
        out = np.empty((A.shape[0], B.shape[0]), dtype=dtype)
        _sq_euclidean(A, B, sq_norms(A), out)
        step = max(1, _CHUNK_ENTRIES // max(1, B.shape[0]))
        for start in range(0, A.shape[0], step):
            rows = out[start : start + step]
            np.maximum(rows, 0.0, out=rows)
            np.sqrt(rows, out=rows)
        return out

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
                if q == 3.0:
                    # libm pow(x, 3.0) is slow on exact zeros, which ReLU codes make many of
                    np.multiply(d, d, out=t)
                    t *= d
                else:
                    np.power(d, q, out=t)
                acc += t
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
