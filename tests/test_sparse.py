"""CSR affinity matrices (scipy csr_array): the row contract, fusion, degree
scaling and the dense-branch Gram, each against a dense oracle."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_array

from snapclust import consensus
from snapclust.affinity import AffinityParams, SparseAffinity, build_affinity
from snapclust.consensus import FusedAffinity, fuse, left_singular_vectors
from snapclust.errors import DataError
from snapclust.landmarks import LandmarkSet
from snapclust.pipeline import _stage, csr_footprint_bytes


def csr_from_triplets(rows, cols, trips):
    i, j, v = zip(*trips) if trips else ((), (), ())
    return csr_array((np.array(v, dtype=np.float64), (i, j)), shape=(rows, cols))


def csr_from_rows(cols, row_cols, row_vals):
    """CSR from per-row column and value lists, kept in the given order."""
    indptr = np.cumsum([0] + [len(c) for c in row_cols])
    indices = np.array([j for c in row_cols for j in c], dtype=np.int64)
    data = np.array([v for vals in row_vals for v in vals], dtype=np.float64)
    return csr_array((data, indices, indptr), shape=(len(row_cols), cols))


def affinity(matrix, r):
    return SparseAffinity(matrix, AffinityParams(r=r, sigma=1.0), bandwidth=1.0)


def random_affinity_matrix(gen, n, p, r):
    cols = np.sort(np.stack([gen.choice(p, size=r, replace=False) for _ in range(n)]), axis=1)
    vals = gen.uniform(0.05, 1.0, size=(n, r))
    vals /= vals.sum(axis=1, keepdims=True)
    return csr_array((vals.ravel(), cols.ravel(), np.arange(n + 1) * r), shape=(n, p))


def random_dense(gen, rows, cols, density):
    return np.where(gen.random((rows, cols)) < density, gen.uniform(0.1, 2.0, (rows, cols)), 0.0)


@pytest.fixture
def grams(monkeypatch):
    """Every matrix the spectral step hands to the dense eigensolver."""
    seen = []
    eigh = np.linalg.eigh

    def spy(G):
        seen.append(G)
        return eigh(G)

    monkeypatch.setattr(consensus.np.linalg, "eigh", spy)
    return seen


def test_identity_from_triplets():
    Z = csr_from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    assert np.array_equal(fuse([affinity(Z, 1)]).matrix.toarray(), np.eye(2))


def test_empty_matrix():
    with pytest.raises(DataError, match="exactly r=1 nonzeros"):
        affinity(csr_array((1, 3)), 1)


def test_hand_constructed_offsets():
    # 1-D landmarks at 0, 1, 2, 10; the point at 9 picks landmark 3 before 2
    centers = np.array([[0.0], [1.0], [2.0], [10.0]])
    Y = np.array([[0.9], [9.0], [0.1]])
    Z = build_affinity(Y, LandmarkSet(centers, seed=0), AffinityParams(r=2, sigma=1.0)).matrix
    assert isinstance(Z, csr_array)
    assert Z.indptr.tolist() == [0, 2, 4, 6]
    assert Z.indices.tolist() == [0, 1, 2, 3, 0, 1]
    assert Z.has_canonical_format


def test_triplet_round_trip():
    # fused (i, j, v) triplets are the members' triplets shifted and scaled
    gen = np.random.default_rng(0)
    for m in (1, 2, 3, 6):
        members = [
            affinity(random_affinity_matrix(gen, 9, int(p), 2), 2)
            for p in gen.integers(3, 8, size=m)
        ]
        fused = fuse(members)
        scale = 1.0 / math.sqrt(m)
        want = []
        for start, a in zip(fused.member_boundaries, members):
            coo = a.matrix.tocoo()
            want += [(i, start + j, v * scale) for i, j, v in zip(coo.row, coo.col, coo.data)]
        coo = fused.matrix.tocoo()
        assert sorted(zip(coo.row, coo.col, coo.data)) == sorted(want)


def test_duplicate_triplets_rejected():
    # column 1 twice in row 0; counts, sums and values are all valid
    Z = csr_from_rows(3, [[1, 1], [0, 2]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(DataError, match="sorted and unique"):
        affinity(Z, 2)


def test_out_of_range_rejected():
    for row in ([0, 3], [-1, 0]):
        Z = csr_from_rows(3, [row, [0, 1]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DataError, match="in range"):
            affinity(Z, 2)
    fused = fuse([affinity(csr_from_rows(3, [[0, 1]], [[0.5, 0.5]]), 2)])
    with pytest.raises(DataError, match="partition"):
        FusedAffinity(fused.matrix, 1, (0, 4))


def test_invariants_enforced():
    cases = [
        ([[0, 1], [0, 1]], [[1.5, -0.5], [0.5, 0.5]], "values"),  # negative value
        ([[0, 1], [0, 1]], [[np.nan, 0.5], [0.5, 0.5]], "values"),  # non-finite value
        ([[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], "sorted"),  # unsorted columns
    ]
    for row_cols, row_vals, match in cases:
        with pytest.raises(DataError, match=match):
            affinity(csr_from_rows(2, row_cols, row_vals), 2)


def test_row_sums_and_counts():
    gen = np.random.default_rng(1)
    members = [affinity(random_affinity_matrix(gen, 8, 5, 2), 2) for _ in range(3)]
    fused = fuse(members)
    D = fused.matrix.toarray()
    assert np.allclose(fused.matrix.sum(axis=1), D.sum(axis=1), atol=1e-15)
    assert np.array_equal(np.diff(fused.matrix.indptr), (D != 0).sum(axis=1))
    with pytest.raises(DataError, match="exactly r=2"):
        affinity(csr_from_rows(3, [[0, 1], [0, 1, 2]], [[0.5, 0.5], [0.2, 0.3, 0.5]]), 2)
    with pytest.raises(DataError, match="sum to 1"):
        affinity(csr_from_rows(3, [[0, 1], [0, 2]], [[0.5, 0.4], [0.5, 0.5]]), 2)
    with pytest.raises(DataError, match="sqrt"):
        FusedAffinity(fused.matrix * 1.01, 3, fused.member_boundaries)


def test_scaled():
    # degree scaling divides column j by sqrt(column sum); empty columns stay zero
    gen = np.random.default_rng(2)
    for _ in range(10):
        D = random_dense(gen, 12, 7, 0.3)
        D[:, 3] = 0.0
        Z = csr_array(D)
        colsums = D.sum(axis=0)
        ref = D / np.sqrt(np.where(colsums > 0, colsums, 1.0))
        S = consensus._degree_scale(Z)
        assert isinstance(S, csr_array)
        assert np.allclose(S.toarray(), ref, rtol=1e-14, atol=0)
        assert np.array_equal(S.indices, Z.indices)


def test_gram_identity(grams):
    left_singular_vectors(csr_array(np.eye(3)), 2)
    assert len(grams) == 1
    assert np.array_equal(grams[0], np.eye(3))


def test_gram_column_of_ones(grams):
    emb = left_singular_vectors(csr_from_triplets(4, 1, [(i, 0, 1.0) for i in range(4)]), 1)
    assert np.array_equal(grams[0], np.array([[4.0]]))
    assert emb.singular_values.tolist() == [2.0]


def test_gram_matches_dense_oracle(grams):
    gen = np.random.default_rng(3)
    for _ in range(20):
        D = random_dense(gen, int(gen.integers(1, 100)), int(gen.integers(1, 50)), 0.2)
        Z = csr_array(D)
        # asking for every eigenpair keeps the spectral step on its dense branch
        consensus._top_eigenpairs(Z, Z.shape[1])
        G = grams[-1]
        ref = D.T @ D
        assert np.linalg.norm(G - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)
        assert np.array_equal(G, G.T)


def test_gram_cap(grams):
    # k=4: the Gram is densified up to width max(2 * 5 + 1, 20) = 20, never beyond
    gen = np.random.default_rng(4)
    for width, dense in ((20, True), (21, False), (300, False)):
        grams.clear()
        left_singular_vectors(random_affinity_matrix(gen, 400, width, 3), 4)
        assert [G.shape for G in grams] == ([(width, width)] if dense else [])


def test_footprint_formula():
    # 12 bytes per stored entry plus 4 per row offset
    assert csr_footprint_bytes(3, 2) == 2 * 12 + 4 * 4


def test_hstack_row_mismatch():
    gen = np.random.default_rng(5)
    a = affinity(random_affinity_matrix(gen, 2, 3, 1), 1)
    b = affinity(random_affinity_matrix(gen, 3, 3, 1), 1)
    # a DataError, not scipy's ValueError, so the pipeline names the stage
    with pytest.raises(DataError, match="fuse stage: fuse: members disagree on row count"):
        with _stage({}, "fuse"):
            fuse([a, b])


def test_shape_validation():
    a = affinity(csr_from_rows(3, [[0, 2]], [[0.5, 0.5]]), 2)
    fused = fuse([a, a])
    assert fused.matrix.shape == (1, 6) and fused.member_boundaries == (0, 3, 6)
    for count, bounds in ((0, (0,)), (2, (0, 6)), (2, (0, 3, 5)), (2, (0, 6, 6))):
        with pytest.raises(DataError):
            FusedAffinity(fused.matrix, count, bounds)
    # zero rows is a legal (empty) affinity and fuses to an empty matrix
    empty = affinity(csr_array((0, 3)), 2)
    assert fuse([empty, empty]).matrix.shape == (0, 6)


def test_trailing_empty_rows():
    Z = csr_array((np.ones(2), np.array([0, 2]), np.array([0, 1, 2, 2, 2])), shape=(4, 3))
    with pytest.raises(DataError, match="exactly r=1"):
        affinity(Z, 1)
    with pytest.raises(DataError, match="sqrt"):
        FusedAffinity(Z, 1, (0, 3))
