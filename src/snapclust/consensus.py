"""Member fusion and the spectral embedding of the fused affinity.

Fusion concatenates the m member affinities column-wise and scales by
1/sqrt(m), so the fused Gram matrix is the average of the member Grams.
Every fused row holds m*r entries, so `fuse` writes each member into
one preallocated `csr_array` (int32 indices unless int64 is needed) as
it arrives, with no stacked or scaled copy. The k leading left singular
vectors come from the top k+1 eigenpairs of G = Z^T Z and a single
sparse back-multiply Z @ V, never from densifying the n x m*p matrix. G
itself is formed, as (Z^T Z).toarray(), only when it is tiny (at most
max(2k+3, 20) columns, where ARPACK's Lanczos basis would fill the whole
space). Otherwise ARPACK's Lanczos solver (scipy eigsh) applies
v -> Z^T (Z v) at O(nnz) per step from a fixed start vector.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .affinity import index_dtype
from .errors import ConfigError, DataError, NumericalError
from .rng import STAGE_SPECTRAL, SeedStream

RANK_TOL = 1e-10
FUSED_ROW_SUM_TOL = 1e-9


@dataclass
class FusedAffinity:
    """Column-concatenated member affinities, scaled by 1/sqrt(m).

    Every row sums to sqrt(m): each member row contributes 1/sqrt(m) * 1.
    member_boundaries[i] is the first column of member i's block, with a
    closing entry at the total width, so members may differ in p.
    """

    matrix: csr_array
    member_count: int
    member_boundaries: tuple[int, ...]

    def __post_init__(self):
        if self.member_count < 1:
            raise DataError("fusion needs at least one member")
        b = self.member_boundaries
        if (
            len(b) != self.member_count + 1
            or b[0] != 0
            or b[-1] != self.matrix.shape[1]
            or any(b[i] >= b[i + 1] for i in range(len(b) - 1))
        ):
            raise DataError("member boundaries must partition the fused columns")
        target = math.sqrt(self.member_count)
        sums = self.matrix.sum(axis=1)
        if np.any(np.abs(sums - target) > FUSED_ROW_SUM_TOL * max(1.0, target)):
            raise DataError(f"fused rows must sum to sqrt(m) = {target:.6g}")

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


def fuse(members, m: int | None = None, stage=contextlib.nullcontext) -> FusedAffinity:
    """Fuse m `SparseAffinity` members, in order, into one row-scaled block matrix.

    The bytes of hstack(members) * (1/sqrt(m)), without either copy: each
    member is written into its columns of the preallocated fused arrays
    inside `stage()`, and fuse drops it before asking for the next one.
    `members` may be a generator; m defaults to len(members).
    """
    m = len(members) if m is None else m
    if m < 1:
        raise DataError("fuse: empty member list")
    bounds = [0]
    for member in members:
        with stage():
            j, (rows, p), r = len(bounds) - 1, member.matrix.shape, member.params.r
            if j == m:
                raise DataError(f"fuse: expected m={m} members, got more")
            if j == 0:
                n, r0 = rows, r
                data = np.empty((n, m * r))
                indices = np.empty((n, m * r), dtype=index_dtype(n * m * r, p))
            if (rows, r) != (n, r0):
                raise DataError(
                    f"fuse: members disagree on row count or r: member {j} has {rows} "
                    f"rows and r={r}, member 0 {n} rows and r={r0}"
                )
            # a no-op unless this member takes the width past int32
            indices = indices.astype(index_dtype(indices.size, bounds[-1] + p), copy=False)
            block = np.s_[:, j * r : (j + 1) * r]
            np.multiply(member.matrix.data.reshape(n, r), 1.0 / math.sqrt(m), out=data[block])
            np.add(member.matrix.indices.reshape(n, r), bounds[-1], out=indices[block])
            bounds.append(bounds[-1] + p)
        del member
    if len(bounds) != m + 1:
        raise DataError(f"fuse: expected m={m} members, got {len(bounds) - 1}")
    with stage():
        indptr = np.arange(n + 1, dtype=indices.dtype) * (m * r)
        matrix = csr_array((data.ravel(), indices.ravel(), indptr), shape=(n, bounds[-1]))
        return FusedAffinity(matrix, m, tuple(bounds))


@dataclass
class SpectralEmbedding:
    """Rows of U are the spectral coordinates fed to the final clustering."""

    U: np.ndarray
    singular_values: np.ndarray
    degree_normalized: bool = False
    row_normalized: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.U = np.ascontiguousarray(self.U, dtype=np.float64)
        self.singular_values = np.ascontiguousarray(self.singular_values, dtype=np.float64)
        if self.U.ndim != 2 or self.singular_values.shape != (self.U.shape[1],):
            raise DataError("embedding shape mismatch between U and singular values")
        if not np.all(np.isfinite(self.U)):
            raise DataError("spectral embedding must be finite")
        if np.any(self.singular_values < 0) or np.any(np.diff(self.singular_values) > 0):
            raise DataError("singular values must be nonnegative and nonincreasing")
        if not self.row_normalized:
            # row normalization deliberately trades orthonormality for unit rows
            G = self.U.T @ self.U
            if np.max(np.abs(G - np.eye(self.k))) > 1e-8:
                raise DataError("embedding columns must be orthonormal within 1e-8")

    @property
    def k(self) -> int:
        return self.U.shape[1]


def _degree_scale(M: csr_array) -> csr_array:
    # scale column j by 1/sqrt(column sum); all-zero columns stay zero
    colsums = M.sum(axis=0)
    scale = np.where(colsums > 0, 1.0 / np.sqrt(np.where(colsums > 0, colsums, 1.0)), 0.0)
    return csr_array((M.data * scale[M.indices], M.indices, M.indptr), shape=M.shape)


def _top_eigenpairs(Z: csr_array, k: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Largest min(k+1, width) eigenpairs of Z^T Z, largest first, plus solver facts."""
    width = Z.shape[1]
    count = min(k + 1, width)
    # ARPACK's Lanczos basis holds max(2*count + 1, 20) vectors (scipy's
    # default ncv). When that reaches the width, ARPACK either cannot run
    # (count >= width) or spans the whole space, so solve the small G exactly.
    if width <= max(2 * count + 1, 20):
        w, V = np.linalg.eigh((Z.T @ Z).toarray())
        # eigh orders ascending
        meta = {"solver": "eigh", "operator_applications": 0}
        return w[::-1][:count], V[:, ::-1][:, :count], meta

    applications = 0

    def apply_gram(v):
        nonlocal applications
        applications += 1
        return Z.T @ (Z @ v)

    op = LinearOperator((width, width), matvec=apply_gram, dtype=np.float64)
    v0 = SeedStream(0).child(STAGE_SPECTRAL).generator().uniform(-1.0, 1.0, width)
    try:
        w, V = eigsh(op, k=count, which="LA", tol=0, v0=v0)
    except ArpackNoConvergence:
        raise NumericalError(
            f"Lanczos eigensolver did not converge on the fused Gram (width {width}, "
            f"k={k}); use a smaller k, or check the fused affinity for a "
            "degenerate spectrum"
        ) from None
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order], {"solver": "eigsh", "operator_applications": applications}


def left_singular_vectors(
    fused: FusedAffinity | csr_array,
    k: int,
    degree_normalize: bool = False,
    row_normalize: bool = False,
) -> SpectralEmbedding:
    """Top-k left singular vectors of the fused matrix Z, via its Gram matrix.

    The top k+1 eigenpairs (s_i^2, v_i) of G = Z^T Z come from ARPACK
    applied to v -> Z^T (Z v), or from a dense eigh of G when Z has at
    most max(2k+3, 20) columns, too few for ARPACK's Lanczos basis. Then
    u_i = Z v_i / s_i costs O(nnz * k), against an O(n * (mp)^2) dense
    SVD. Raises when the requested rank is not numerically supported
    (s_k <= 1e-10 * s_1), and when ARPACK does not converge. Column signs
    are fixed so the entry of largest magnitude in each vector is positive.
    `meta` records the solver branch, the operator-application count, the
    top k singular values and the eigengap s_k/s_{k+1} (None when s_{k+1}
    is zero or beyond the width).
    """
    M = fused.matrix if isinstance(fused, FusedAffinity) else fused
    n, width = M.shape
    if not 1 <= k <= min(n, width):
        raise ConfigError(f"k must satisfy 1 <= k <= min(n, m*p), got k={k} for {n}x{width}")
    if degree_normalize:
        M = _degree_scale(M)

    w, V, meta = _top_eigenpairs(M, k)
    s_all = np.sqrt(np.maximum(w, 0.0))
    s, V = s_all[:k], V[:, :k]
    if s[0] <= 0.0 or s[k - 1] <= RANK_TOL * s[0]:
        raise NumericalError(
            f"fused affinity is rank deficient: s_{k}={s[k - 1]:.3e} vs s_1={s[0]:.3e}"
        )
    U = M @ V
    U /= s

    # deterministic sign: largest-magnitude entry of each column positive
    for column in U.T:
        if column[np.argmax(np.abs(column))] < 0:
            column *= -1.0

    if row_normalize:
        norms = np.linalg.norm(U, axis=1, keepdims=True)
        U /= np.where(norms > 0, norms, 1.0)

    gap = float(s[k - 1] / s_all[k]) if s_all.size > k and s_all[k] > 0 else None
    meta.update(singular_values=s.tolist(), eigengap=gap)
    return SpectralEmbedding(
        U,
        s,
        degree_normalized=bool(degree_normalize),
        row_normalized=bool(row_normalize),
        meta=meta,
    )
