"""Fusion and both spectral branches (dense eigh, matrix-free eigsh) against dense oracles."""

import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import block_diag, csr_array, hstack
from scipy.sparse.linalg import ArpackNoConvergence

import snapclust.consensus as consensus
from snapclust.affinity import AffinityParams, SparseAffinity, build_affinity, index_dtype
from snapclust.consensus import (
    FusedAffinity,
    SpectralEmbedding,
    fuse,
    left_singular_vectors,
)
from snapclust.errors import ConfigError, DataError, NumericalError
from snapclust.landmarks import LandmarkSet


def random_affinity(gen, n, p, r):
    Y = gen.normal(size=(n, 3))
    lm = LandmarkSet(gen.normal(size=(p, 3)), seed=0)
    return build_affinity(Y, lm, AffinityParams(r=r))


def csr_from_triplets(rows, cols, trips):
    i, j, v = zip(*trips) if trips else ((), (), ())
    return csr_array((np.array(v, dtype=np.float64), (i, j)), shape=(rows, cols))


def random_sparse(gen, n, p, r):
    trips = []
    for i in range(n):
        cols = sorted(gen.choice(p, size=r, replace=False).tolist())
        trips.extend((i, int(j), float(gen.uniform(0.05, 1.0))) for j in cols)
    return csr_from_triplets(n, p, trips)


def test_fuse_single_member_is_identity():
    gen = np.random.default_rng(0)
    aff = random_affinity(gen, 12, 5, 2)
    fused = fuse([aff])
    assert fused.member_count == 1
    assert fused.member_boundaries == (0, 5)
    assert np.array_equal(fused.matrix.toarray(), aff.matrix.toarray())


def test_fuse_four_members_halves_values():
    gen = np.random.default_rng(1)
    members = [random_affinity(gen, 10, 4, 2) for _ in range(4)]
    fused = fuse(members)
    block = fused.matrix.toarray()[:, :4]
    assert np.allclose(block, members[0].matrix.toarray() * 0.5)
    assert fused.matrix.nnz == 4 * 10 * 2


def test_fused_row_sums_sqrt_m():
    gen = np.random.default_rng(2)
    for m in (1, 2, 3, 6):
        members = [random_affinity(gen, 15, 6, 3) for _ in range(m)]
        fused = fuse(members)
        assert np.allclose(fused.matrix.sum(axis=1), np.sqrt(m), atol=1e-9)


def test_fuse_mixed_widths_records_boundaries():
    gen = np.random.default_rng(3)
    a = random_affinity(gen, 10, 4, 2)
    b = random_affinity(gen, 10, 7, 2)
    fused = fuse([a, b])
    assert fused.member_boundaries == (0, 4, 11)
    assert fused.matrix.shape[1] == 11


def test_fuse_matches_dense():
    gen = np.random.default_rng(16)
    members = [random_affinity(gen, 6, int(p), 2) for p in gen.integers(3, 8, size=3)]
    fused = fuse(members)
    ref = np.hstack([a.matrix.toarray() for a in members]) * (1.0 / np.sqrt(3))
    assert np.array_equal(fused.matrix.toarray(), ref)
    assert fused.matrix.shape == (6, sum(a.matrix.shape[1] for a in members))


def test_fuse_rejects_row_mismatch():
    gen = np.random.default_rng(4)
    a = random_affinity(gen, 10, 4, 2)
    b = random_affinity(gen, 11, 4, 2)
    with pytest.raises(DataError):
        fuse([a, b])
    with pytest.raises(DataError):
        fuse([])


def _members(gen, n, widths, r=2):
    return [random_affinity(gen, n, int(p), r) for p in widths]


@pytest.mark.parametrize(
    "n, widths",
    [(12, [5]), (10, [4, 7, 3]), (0, [4, 6]), (9, [3, 8, 5, 4, 7, 6])],
    ids=["single", "mixed-widths", "zero-rows", "m6"],
)
def test_fuse_is_bit_identical_to_scaled_hstack(n, widths):
    gen = np.random.default_rng(len(widths) * 100 + n)
    if n:
        members = _members(gen, n, widths)
    else:
        params = AffinityParams(r=2, sigma=1.0)
        members = [SparseAffinity(csr_array((0, p)), params, bandwidth=1.0) for p in widths]
    oracle = hstack([a.matrix for a in members], format="csr") * (1.0 / math.sqrt(len(members)))
    # fed one at a time, from a generator
    fused = fuse((a for a in members), len(members)).matrix
    assert fused.shape == oracle.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(fused, name), getattr(oracle, name)), name
    # both index arrays are int32, as the members'
    assert fused.indices.dtype == np.int32 and fused.indptr.dtype == np.int32
    if n:
        assert members[0].matrix.indices.dtype == np.int32
        assert members[0].matrix.indptr.dtype == np.int32


def test_index_dtype_from_sizes_alone():
    limit = np.iinfo(np.int32).max
    assert index_dtype(0, 0) == np.int32
    assert index_dtype(limit, limit) == np.int32
    assert index_dtype(limit + 1, 5) == np.int64
    assert index_dtype(5, limit + 1) == np.int64


def test_fuse_releases_each_member_before_requesting_the_next():
    gen = np.random.default_rng(7)
    refs = []

    def members():
        for j in range(4):
            assert all(ref() is None for ref in refs), f"member {j - 1} still held"
            member = random_affinity(gen, 10, 5, 2)
            refs.append(weakref.ref(member))
            yield member
            del member

    fused = fuse(members(), 4)
    assert fused.member_count == 4 and len(refs) == 4


def test_fuse_names_the_mismatching_member():
    gen = np.random.default_rng(8)
    good = _members(gen, 10, [4, 5])
    with pytest.raises(DataError, match="member 2 has 11 rows and r=2, member 0 10 rows and r=2"):
        fuse([*good, random_affinity(gen, 11, 4, 2)])
    with pytest.raises(DataError, match="member 2 has 10 rows and r=3, member 0 10 rows and r=2"):
        fuse([*good, random_affinity(gen, 10, 6, 3)])
    with pytest.raises(DataError, match="expected m=3 members, got 2"):
        fuse(iter(good), 3)
    with pytest.raises(DataError, match="expected m=2 members, got more"):
        fuse(iter([*good, good[0]]), 2)


def test_identity_matrix_embedding():
    Z = csr_from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    emb = left_singular_vectors(Z, 2)
    assert np.allclose(emb.singular_values, [1.0, 1.0])
    # columns of U span a 2-D coordinate subspace; each is a standard basis vector
    for col in emb.U.T:
        assert np.isclose(np.abs(col).max(), 1.0)
        assert np.isclose(np.linalg.norm(col), 1.0)


def test_rank_one_example():
    a = np.array([3.0, 0.0, 4.0])
    b = np.array([1.0, 2.0])
    trips = [(i, j, a[i] * b[j]) for i in range(3) for j in range(2) if a[i] * b[j] != 0]
    Z = csr_from_triplets(3, 2, trips)
    emb = left_singular_vectors(Z, 1)
    assert emb.singular_values[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
    u = emb.U[:, 0]
    assert np.allclose(np.abs(u), np.abs(a) / np.linalg.norm(a), atol=1e-12)


def test_matches_dense_svd_oracle():
    gen = np.random.default_rng(5)
    done = 0
    while done < 25:
        n = int(gen.integers(10, 120))
        p = int(gen.integers(4, 30))
        r = int(gen.integers(1, min(p, 5)))
        Z = random_sparse(gen, n, p, r)
        U_ref, s_ref, _ = scipy.linalg.svd(Z.toarray(), full_matrices=False)
        k = int(gen.integers(1, min(5, p) + 1))
        # subspace comparison needs a spectral gap at k
        if s_ref[0] <= 0 or s_ref[k - 1] <= 1e-8 * s_ref[0]:
            continue
        if k < len(s_ref) and (s_ref[k - 1] - s_ref[k]) < 1e-5 * s_ref[0]:
            continue
        emb = left_singular_vectors(Z, k)
        assert np.max(np.abs(emb.singular_values - s_ref[:k]) / s_ref[:k]) <= 1e-10
        P_impl = emb.U @ emb.U.T
        P_ref = U_ref[:, :k] @ U_ref[:, :k].T
        assert np.linalg.norm(P_impl - P_ref) <= 1e-8
        done += 1


def test_orthonormal_columns():
    gen = np.random.default_rng(6)
    for _ in range(10):
        Z = random_sparse(gen, 40, 8, 3)
        emb = left_singular_vectors(Z, 3)
        G = emb.U.T @ emb.U
        assert np.max(np.abs(G - np.eye(3))) <= 1e-8
        assert np.all(np.diff(emb.singular_values) <= 1e-12)


def test_sign_fix_deterministic():
    gen = np.random.default_rng(7)
    Z = random_sparse(gen, 30, 6, 2)
    a = left_singular_vectors(Z, 3)
    b = left_singular_vectors(Z, 3)
    assert np.array_equal(a.U, b.U)
    # largest-magnitude entry of each column is positive
    for col in a.U.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_rank_deficiency_rejected():
    # rank-1 matrix cannot support k=2
    trips = [(i, j, 1.0) for i in range(4) for j in range(2)]
    Z = csr_from_triplets(4, 2, trips)
    with pytest.raises(NumericalError, match="rank"):
        left_singular_vectors(Z, 2)


def test_k_bounds():
    Z = csr_from_triplets(3, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(ConfigError):
        left_singular_vectors(Z, 0)
    with pytest.raises(ConfigError):
        left_singular_vectors(Z, 3)  # k > cols


def test_fused_affinity_accepts_valid_only():
    gen = np.random.default_rng(8)
    aff = random_affinity(gen, 10, 4, 2)
    scaled = aff.matrix.copy()
    FusedAffinity(scaled, 1, (0, 4))
    with pytest.raises(DataError):
        FusedAffinity(scaled, 4, (0, 4))  # row sums inconsistent with m=4
    with pytest.raises(DataError):
        FusedAffinity(scaled, 1, (0, 3))  # boundary mismatch


@pytest.mark.parametrize("p", [6, 300])
@pytest.mark.parametrize("row_normalize", [False, True])
def test_embedding_bytes_match_the_out_of_place_formula(p, row_normalize):
    # in-place scaling and per-column signs round exactly as the n x k temporaries did
    gen = np.random.default_rng(p)
    Z = random_sparse(gen, 500, p, 3)
    k = 4
    w, V, _ = consensus._top_eigenpairs(Z, k)
    s = np.sqrt(np.maximum(w, 0.0))[:k]
    U = (Z @ V[:, :k]) / s[None, :]
    anchor = np.argmax(np.abs(U), axis=0)
    U *= np.where(U[anchor, np.arange(k)] < 0, -1.0, 1.0)[None, :]
    if row_normalize:
        norms = np.linalg.norm(U, axis=1, keepdims=True)
        U = U / np.where(norms > 0, norms, 1.0)
    emb = left_singular_vectors(Z, k, row_normalize=row_normalize)
    assert np.array_equal(emb.U, U)


def test_row_normalize_flag():
    gen = np.random.default_rng(9)
    Z = random_sparse(gen, 25, 6, 3)
    emb = left_singular_vectors(Z, 2, row_normalize=True)
    norms = np.linalg.norm(emb.U, axis=1)
    assert np.allclose(norms[norms > 1e-12], 1.0, atol=1e-9)
    assert emb.row_normalized


def test_degree_normalize_flag_changes_embedding():
    gen = np.random.default_rng(10)
    Z = random_sparse(gen, 25, 6, 3)
    plain = left_singular_vectors(Z, 2)
    deg = left_singular_vectors(Z, 2, degree_normalize=True)
    assert deg.degree_normalized and not plain.degree_normalized
    assert not np.allclose(plain.U, deg.U)


def test_spectral_embedding_validation():
    with pytest.raises(DataError):
        SpectralEmbedding(np.ones((4, 2)), np.array([2.0, 1.0]))  # not orthonormal


def assert_matches_svd(Z, k, emb):
    """Dense-SVD oracle: sigma within 1e-10 relative, projector within 1e-8."""
    U_ref, s_ref, _ = scipy.linalg.svd(Z.toarray(), full_matrices=False)
    assert np.max(np.abs(emb.singular_values - s_ref[:k]) / s_ref[:k]) <= 1e-10
    P_ref = U_ref[:, :k] @ U_ref[:, :k].T
    assert np.linalg.norm(emb.U @ emb.U.T - P_ref) <= 1e-8
    return s_ref


def test_matrix_free_branch_matches_dense_svd_oracle():
    gen = np.random.default_rng(11)
    done = 0
    while done < 10:
        n = int(gen.integers(300, 900))
        p = int(gen.integers(257, 701))
        r = int(gen.integers(1, 6))
        Z = random_sparse(gen, n, p, r)
        s_ref = scipy.linalg.svdvals(Z.toarray())
        k = int(gen.integers(1, 7))
        # subspace comparison needs a spectral gap at k
        if s_ref[k - 1] <= 1e-8 * s_ref[0] or (s_ref[k - 1] - s_ref[k]) < 1e-5 * s_ref[0]:
            continue
        emb = left_singular_vectors(Z, k)
        assert emb.meta["solver"] == "eigsh"
        assert emb.meta["operator_applications"] > 0
        assert_matches_svd(Z, k, emb)
        done += 1


@pytest.mark.parametrize("copies", [2, 3, 4])
def test_matrix_free_branch_recovers_repeated_top_singular_values(copies):
    # identical diagonal blocks: every singular value of the block repeats
    # `copies` times, so the top k = copies are exactly equal
    gen = np.random.default_rng(12 + copies)
    block = random_sparse(gen, 160, 130, 3)
    Z = block_diag([block] * copies, format="csr")
    for k in (copies, 2 * copies):
        emb = left_singular_vectors(Z, k)
        assert emb.meta["solver"] == "eigsh"
        s_ref = assert_matches_svd(Z, k, emb)
        assert s_ref[0] == pytest.approx(s_ref[copies - 1], rel=1e-12)


def test_matrix_free_branch_rejects_rank_deficiency():
    # 300 columns but only two distinct row patterns: rank 2 cannot carry k=3
    rows = [[(j, 1.0) for j in range(0, 150, 3)], [(j, 1.0) for j in range(151, 300, 2)]]
    triplets = [(i, j, v) for i in range(40) for j, v in rows[i % 2]]
    Z = csr_from_triplets(40, 300, triplets)
    assert left_singular_vectors(Z, 2).meta["solver"] == "eigsh"
    with pytest.raises(NumericalError, match="rank"):
        left_singular_vectors(Z, 3)


def test_width_beyond_former_gram_cap_embeds():
    # wider than the 16384-column dense Gram cap the spectral step used to
    # enforce; three row groups, each tied together by one shared hub column
    gen = np.random.default_rng(13)
    n, width, r, groups = 6000, 17000, 4, 3
    group = np.arange(n) % groups
    span = width // groups
    offsets = np.stack([1 + gen.choice(span - 1, size=r - 1, replace=False) for _ in range(n)])
    cols = np.sort(np.concatenate([np.zeros((n, 1), np.int64), offsets], axis=1), axis=1)
    cols += (group * span)[:, None]
    values = np.where(cols % span == 0, 1.0, gen.uniform(0.05, 0.5, size=(n, r)))
    Z = csr_array((values.ravel(), cols.ravel(), np.arange(0, n * r + 1, r)), shape=(n, width))
    emb = left_singular_vectors(Z, groups)
    assert emb.meta["solver"] == "eigsh"
    assert emb.U.shape == (n, groups)
    # each group's rows load on a coordinate of its own
    owner = np.argmax(np.abs(emb.U), axis=1)
    assert sorted({int(owner[group == g][0]) for g in range(groups)}) == [0, 1, 2]
    for g in range(groups):
        assert np.all(owner[group == g] == owner[group == g][0])


def test_arpack_no_convergence_is_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(consensus, "eigsh", no_convergence)
    gen = np.random.default_rng(14)
    Z = random_sparse(gen, 300, 400, 3)
    with pytest.raises(NumericalError, match=r"width 400, k=2.*smaller k"):
        left_singular_vectors(Z, 2)


def test_spectrum_meta_on_both_branches():
    gen = np.random.default_rng(15)
    # k=4: dense eigh up to width max(2 * 5 + 1, 20) = 20, ARPACK's basis size
    for p, solver in ((5, "eigh"), (20, "eigh"), (21, "eigsh"), (300, "eigsh")):
        Z = random_sparse(gen, 400, p, 3)
        emb = left_singular_vectors(Z, 4)
        s = scipy.linalg.svdvals(Z.toarray())
        assert emb.meta["solver"] == solver
        assert (emb.meta["operator_applications"] > 0) == (solver == "eigsh")
        assert emb.meta["singular_values"] == emb.singular_values.tolist()
        assert emb.meta["eigengap"] == pytest.approx(s[3] / s[4], rel=1e-10)


@pytest.mark.parametrize("p", [8, 300])
def test_back_multiply_matches_dense(monkeypatch, p):
    # U = Z V / s against the dense product, on the eigh (p=8) and eigsh branches
    eigenpairs = []

    def spy(*args):
        eigenpairs.append(top_eigenpairs(*args))
        return eigenpairs[-1]

    top_eigenpairs = consensus._top_eigenpairs
    monkeypatch.setattr(consensus, "_top_eigenpairs", spy)
    gen = np.random.default_rng(17)
    Z = random_sparse(gen, 400, p, 3)
    emb = left_singular_vectors(Z, 3)
    w, V, _ = eigenpairs[0]
    ref = Z.toarray() @ V[:, :3] / np.sqrt(w[:3])
    signs = np.sign(np.sum(emb.U * ref, axis=0))
    assert np.allclose(emb.U, ref * signs, rtol=0, atol=1e-12)
