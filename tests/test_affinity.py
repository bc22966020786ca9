"""Affinity construction: Scott bandwidth, kernel weights, sparsity contract."""

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

from snapclust import affinity, distances
from snapclust.affinity import (
    AffinityParams,
    SparseAffinity,
    _nearest_landmark_rows,
    build_affinity,
    scott_bandwidth,
)
from snapclust.distances import COSINE, EUCLIDEAN, MINKOWSKI3, Metric, pairwise_distance
from snapclust.errors import ConfigError, DataError, NumericalError
from snapclust.landmarks import LandmarkSet
from snapclust.rng import SeedStream


def test_scott_two_point_formula():
    # single dimension, two points with sample std s: sigma = s * 2^(-1/(d+4))
    Y = np.array([[3.0], [7.0]])
    s = np.std([3.0, 7.0], ddof=1)
    assert scott_bandwidth(Y) == pytest.approx(s * 2.0 ** (-1.0 / (1 + 4)), rel=1e-12)
    # extra flat dimensions enter the mean per-dimension std
    Y2 = np.array([[1.0, 3.0], [1.0, 7.0]])
    want = ((0.0 + s) / 2.0) * 2.0 ** (-1.0 / (2 + 4))
    assert scott_bandwidth(Y2) == pytest.approx(want, rel=1e-12)


def test_scott_unit_gaussian_example():
    # n=1000, d=4 unit-variance sample: sigma ~ 1000^(-1/8) ~ 0.4217
    gen = np.random.default_rng(0)
    Y = gen.normal(size=(1000, 4))
    sigma = scott_bandwidth(Y)
    assert sigma == pytest.approx(1000.0 ** (-1.0 / 8.0), rel=0.05)
    assert sigma == pytest.approx(0.4217, rel=0.05)


def test_scott_constant_matrix_rejected():
    with pytest.raises(DataError):
        scott_bandwidth(np.ones((5, 3)))
    with pytest.raises(DataError):
        scott_bandwidth(np.ones((1, 3)))  # needs >= 2 rows


def test_params_validation():
    AffinityParams(r=1)
    with pytest.raises(ConfigError):
        AffinityParams(r=0)
    with pytest.raises(ConfigError):
        AffinityParams(r=2, sigma=0.0)


def landmarks_from(arr, seed=0):
    return LandmarkSet(np.asarray(arr, dtype=np.float64), seed=seed)


def nearest_to_point(x, lm, r, metric):
    """The r nearest landmarks of the single point x."""
    return _nearest_landmark_rows(x[None, :], lm.centers, r, metric)[0]


def test_nearest_landmarks_matches_sort_oracle():
    gen = np.random.default_rng(1)
    for metric in (EUCLIDEAN, COSINE, MINKOWSKI3):
        for _ in range(20):
            lm = landmarks_from(gen.normal(size=(10, 3)) + 0.1)
            x = gen.normal(size=3)
            if metric is COSINE and np.linalg.norm(x) == 0:
                continue
            r = int(gen.integers(1, 10))
            got = nearest_to_point(x, lm, r, metric)
            d = np.array(
                [np.linalg.norm(x - c) for c in lm.centers]
                if metric is EUCLIDEAN
                else [
                    1 - x @ c / (np.linalg.norm(x) * np.linalg.norm(c))
                    if metric is COSINE
                    else np.sum(np.abs(x - c) ** 3) ** (1 / 3)
                    for c in lm.centers
                ]
            )
            want = np.argsort(d, kind="stable")[:r]
            assert list(got) == list(want)


def test_nearest_landmarks_tie_lower_index():
    lm = landmarks_from([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    got = nearest_to_point(np.zeros(2), lm, 1, EUCLIDEAN)
    assert list(got) == [0]


def test_nearest_landmarks_complement():
    lm = landmarks_from([[0.0], [1.0], [2.0], [9.0]])
    got = nearest_to_point(np.array([0.5]), lm, 3, EUCLIDEAN)
    assert set(got) == {0, 1, 2}  # all but the single farthest


def test_nearest_landmarks_r_bounds():
    lm = landmarks_from([[0.0], [1.0]])
    with pytest.raises(ConfigError):
        build_affinity(np.zeros((1, 1)), lm, AffinityParams(r=2))  # r < p required


def test_hand_kernel_example():
    # x at origin; kernels e^(-1/2) and e^(-2); third landmark dropped
    lm = landmarks_from([[1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    aff = build_affinity(
        np.zeros((1, 2)), lm, AffinityParams(r=2, metric=EUCLIDEAN, sigma=1.0)
    )
    dense = aff.matrix.toarray()
    k1, k2 = np.exp(-0.5), np.exp(-2.0)
    assert dense[0, 0] == pytest.approx(k1 / (k1 + k2), rel=1e-12)
    assert dense[0, 1] == pytest.approx(k2 / (k1 + k2), rel=1e-12)
    assert dense[0, 2] == 0.0
    assert dense[0, 0] == pytest.approx(0.8176, abs=5e-5)
    assert dense[0, 1] == pytest.approx(0.1824, abs=5e-5)


def test_r1_rows_are_indicator():
    gen = np.random.default_rng(2)
    Y = gen.normal(size=(40, 3))
    lm = landmarks_from(gen.normal(size=(6, 3)))
    aff = build_affinity(Y, lm, AffinityParams(r=1))
    dense = aff.matrix.toarray()
    assert np.all(dense.max(axis=1) == 1.0)
    assert np.array_equal(dense.sum(axis=1), np.ones(40))


def test_equidistant_pair_splits_half():
    lm = landmarks_from([[1.0, 0.0], [-1.0, 0.0], [9.0, 9.0]])
    aff = build_affinity(np.zeros((1, 2)), lm, AffinityParams(r=2, sigma=0.7))
    dense = aff.matrix.toarray()
    assert dense[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert dense[0, 1] == pytest.approx(0.5, rel=1e-12)


def test_row_contract_randomized():
    gen = np.random.default_rng(3)
    for _ in range(30):
        n = int(gen.integers(5, 60))
        p = int(gen.integers(3, 20))
        r = int(gen.integers(1, p))
        d = int(gen.integers(2, 6))
        Y = gen.normal(size=(n, d))
        lm = landmarks_from(gen.normal(size=(p, d)))
        metric = (EUCLIDEAN, MINKOWSKI3)[int(gen.integers(2))]
        aff = build_affinity(Y, lm, AffinityParams(r=r, metric=metric))
        assert np.array_equal(np.diff(aff.matrix.indptr), np.full(n, r))
        assert np.allclose(aff.matrix.sum(axis=1), 1.0, atol=1e-10)
        assert aff.density == pytest.approx(r / p)
        assert aff.matrix.nnz == n * r
        assert 0.0 < aff.matrix.data.min() and aff.matrix.data.max() <= 1.0


def test_kernel_monotone_within_row():
    gen = np.random.default_rng(4)
    Y = gen.normal(size=(25, 3))
    lm = landmarks_from(gen.normal(size=(8, 3)))
    aff = build_affinity(Y, lm, AffinityParams(r=4))
    dense = aff.matrix.toarray()
    for i in range(25):
        d = np.linalg.norm(Y[i] - lm.centers, axis=1)
        kept = np.nonzero(dense[i])[0]
        order = kept[np.argsort(d[kept])]
        w = dense[i][order]
        assert np.all(np.diff(w) <= 1e-12)  # nearer landmark never lighter


def test_selection_scale_equivariance():
    gen = np.random.default_rng(5)
    Y = gen.normal(size=(20, 3))
    C = gen.normal(size=(7, 3))
    for metric in (EUCLIDEAN, MINKOWSKI3):
        a = build_affinity(Y, landmarks_from(C), AffinityParams(r=3, metric=metric))
        b = build_affinity(
            2.0 * Y, landmarks_from(2.0 * C), AffinityParams(r=3, metric=metric)
        )
        assert np.array_equal(a.matrix.indices, b.matrix.indices)


def test_bandwidth_auto_uses_scott():
    gen = np.random.default_rng(6)
    Y = gen.normal(size=(50, 4))
    lm = landmarks_from(gen.normal(size=(6, 4)))
    auto = build_affinity(Y, lm, AffinityParams(r=2))
    fixed = build_affinity(Y, lm, AffinityParams(r=2, sigma=scott_bandwidth(Y)))
    assert np.array_equal(auto.matrix.data, fixed.matrix.data)
    assert auto.bandwidth == pytest.approx(scott_bandwidth(Y))


def test_underflow_reports_row_and_remedy():
    # second-nearest kernel underflows at tiny sigma; must fail loudly
    lm = landmarks_from([[0.0, 0.0], [60.0, 0.0], [100.0, 0.0]])
    Y = np.array([[1.0, 0.0]])
    with pytest.raises(NumericalError, match="row 0"):
        build_affinity(Y, lm, AffinityParams(r=2, sigma=1e-3))


def test_r_must_stay_below_p():
    lm = landmarks_from([[0.0], [1.0], [2.0]])
    with pytest.raises(ConfigError):
        build_affinity(np.zeros((2, 1)), lm, AffinityParams(r=3))


def test_determinism():
    gen = np.random.default_rng(7)
    Y = gen.normal(size=(30, 3))
    lm = landmarks_from(gen.normal(size=(9, 3)), seed=4)
    a = build_affinity(Y, lm, AffinityParams(r=3))
    b = build_affinity(Y, lm, AffinityParams(r=3))
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)


def test_sparse_affinity_validates_row_sums():
    bad = csr_array(np.array([[0.5, 0.4, 0.0], [0.6, 0.0, 0.4]]))
    with pytest.raises(DataError):
        SparseAffinity(bad, AffinityParams(r=2, sigma=1.0), bandwidth=1.0)


def test_cosine_zero_point_takes_smallest_norm_landmarks(monkeypatch):
    # a zero code is at cosine distance 1 from every landmark: it takes the
    # r of smallest norm (ties in index order), not the first r by index
    lm = landmarks_from([[3.0, 0.0], [0.0, 2.0], [1.0, 1.0], [0.5, 0.0], [0.0, 0.5]])
    Y = np.ones((7, 2))
    Y[[2, 5]] = 0.0
    params = AffinityParams(r=3, metric=COSINE)
    aff = build_affinity(Y, lm, params)
    dense = aff.matrix.toarray()
    for i in (2, 5):
        assert np.array_equal(np.nonzero(dense[i])[0], [2, 3, 4])
        assert np.all(dense[i][[2, 3, 4]] == 1.0 / 3.0)
    assert np.array_equal(nearest_to_point(np.zeros(2), lm, 3, COSINE), [3, 4, 2])
    # the nonzero rows are as without the zero ones
    nonzero = [0, 1, 3, 4, 6]
    rest = build_affinity(Y[nonzero], lm, AffinityParams(r=3, metric=COSINE, sigma=aff.bandwidth))
    assert np.array_equal(dense[nonzero], rest.matrix.toarray())
    monkeypatch.setattr(distances, "_CHUNK_ENTRIES", 2 * lm.p)  # 2-row blocks
    assert np.array_equal(build_affinity(Y, lm, params).matrix.toarray(), dense)


def stable_oracle(d, r):
    return np.argsort(d, axis=1, kind="stable")[:, :r]


def test_blocked_build_matches_one_block(monkeypatch):
    gen = np.random.default_rng(9)
    n, p, r = 23, 7, 3
    Y = np.abs(gen.normal(size=(n, 4))) + 0.1
    lm = landmarks_from(np.abs(gen.normal(size=(p, 4))) + 0.1)
    for metric in (EUCLIDEAN, COSINE, MINKOWSKI3):
        params = AffinityParams(r=r, metric=metric)
        whole = build_affinity(Y, lm, params)
        assert n <= distances._CHUNK_ENTRIES // p  # the default is one block here
        for entries in (3 * p, 5 * p, 1):  # 3- and 5-row blocks, then 1-row blocks
            monkeypatch.setattr(distances, "_CHUNK_ENTRIES", entries)
            monkeypatch.setattr(affinity, "BLOCK_ENTRIES", entries)
            blocked = build_affinity(Y, lm, params)
            monkeypatch.undo()
            assert np.array_equal(blocked.matrix.indices, whole.matrix.indices)
            assert np.array_equal(blocked.matrix.indptr, whole.matrix.indptr)
            assert np.allclose(blocked.matrix.data, whole.matrix.data, rtol=0, atol=1e-12)
            assert blocked.bandwidth == whole.bandwidth


def test_cosine_zero_landmark():
    # a zero landmark is at distance 1 from every nonzero point, like an
    # orthogonal one, and at distance 0 from a zero point, which takes it first
    lm = landmarks_from([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    Y = np.array([[1.0, 0.1], [0.0, 0.0], [0.1, 1.0]])
    aff = build_affinity(Y, lm, AffinityParams(r=2, metric=COSINE, sigma=1.0))
    dense = aff.matrix.toarray()
    assert np.array_equal(np.nonzero(dense[0])[0], [0, 3])
    assert np.array_equal(np.nonzero(dense[2])[0], [2, 3])
    assert np.array_equal(np.nonzero(dense[1])[0], [0, 1])
    assert dense[1, 1] > dense[1, 0]  # distance 0 weighs more than distance 1
    assert np.array_equal(nearest_to_point(np.zeros(2), lm, 2, COSINE), [1, 0])


def oracle_picked_weights(Y, centers, nearest, metric, sigma):
    """float64 kernel weights over the given picks, one point and one landmark at a time."""
    weights = np.empty(nearest.shape)
    for i, y in enumerate(Y.astype(np.float64)):
        dist = np.empty(nearest.shape[1])
        for j, c in enumerate(centers[nearest[i]]):
            if metric is COSINE:
                sim = np.sum((c / np.sqrt(np.sum(c * c))) * (y / np.sqrt(np.sum(y * y))))
                dist[j] = 1.0 - np.clip(sim, -1.0, 1.0)
            elif metric is EUCLIDEAN:
                dist[j] = np.sqrt(np.sum((c - y) * (c - y)))
            else:
                a = np.abs(c - y)
                dist[j] = np.sum(a * a * a if metric.q == 3.0 else np.power(a, metric.q))
        if metric.name == "minkowski":
            # one array call: NumPy's vectorized pow can round unlike the scalar one
            dist = np.power(dist, 1.0 / metric.q)
        sq = dist**2
        w = np.exp(-(sq - sq.min()) / (2.0 * sigma * sigma))
        weights[i] = w / w.sum()
    return weights


def separated_code(seed, n=400, d=16, k=5):
    """A float32 ReLU code of k well-separated blobs and p = 24 landmarks among its rows."""
    gen = np.random.default_rng(seed)
    means = 6.0 * np.abs(gen.normal(size=(k, d)))
    Y = np.maximum(means[gen.integers(k, size=n)] + gen.normal(size=(n, d)), 0.0)
    Y[:, 0] += 0.5  # no zero rows, so cosine is defined everywhere
    Y32 = Y.astype(np.float32)
    return Y32, landmarks_from(Y32[gen.choice(n, size=24, replace=False)] + 0.25)


@pytest.mark.parametrize(
    "metric",
    [EUCLIDEAN, COSINE, MINKOWSKI3, Metric("minkowski", 1.0), Metric("minkowski", 2.5)],
    ids=["euclidean", "cosine", "minkowski", "minkowski-q1", "minkowski-q2.5"],
)
def test_float32_code_picks_like_float64_and_weighs_in_float64(metric):
    Y32, lm = separated_code(11)
    r = 5
    aff = build_affinity(Y32, lm, AffinityParams(r=r, metric=metric))
    assert aff.matrix.data.dtype == np.float64
    assert aff.bandwidth == scott_bandwidth(Y32)
    # the picks equal float64's: a stable sort of float64 distances
    kwargs = {"p": metric.q} if metric.name == "minkowski" else {}
    d64 = cdist(Y32.astype(np.float64), lm.centers, metric.name, **kwargs)
    nearest = np.argsort(d64, axis=1, kind="stable")[:, :r]
    order = np.argsort(nearest, axis=1)
    assert np.array_equal(
        aff.matrix.indices.reshape(-1, r), np.take_along_axis(nearest, order, axis=1)
    )
    # and the weights are a float64 kernel's over them, bit for bit
    want = oracle_picked_weights(Y32, lm.centers, nearest, metric, aff.bandwidth)
    got = aff.matrix.data.reshape(-1, r)
    assert got.tobytes() == np.take_along_axis(want, order, axis=1).tobytes()
    # the float64 widening of the code gives the same matrix
    wide = build_affinity(Y32.astype(np.float64), lm, AffinityParams(r=r, metric=metric))
    assert wide.bandwidth == aff.bandwidth
    assert np.array_equal(wide.matrix.indices, aff.matrix.indices)
    assert wide.matrix.data.tobytes() == aff.matrix.data.tobytes()


@pytest.mark.parametrize("metric", [EUCLIDEAN, COSINE, MINKOWSKI3], ids=lambda m: m.name)
def test_data_far_from_the_origin_picks_like_float64(metric):
    # at 1e3 from the origin with unit spread, ||a||^2 is about 1.6e7: a
    # float32 expansion of the raw rows rounds by 1-2 against squared
    # distances of about 32, and a float32 1 - u.v by about 1e-7 against
    # cosine distances of about 1e-5, while the offsets from the
    # landmarks' mean (of unit vectors under cosine) round like the spread
    gen = np.random.default_rng(13)
    n, d, r = 2000, 16, 5
    Y32 = (1e3 + gen.normal(size=(n, d))).astype(np.float32)
    lm = landmarks_from(Y32[gen.choice(n, size=40, replace=False)] + 0.25)
    aff = build_affinity(Y32, lm, AffinityParams(r=r, metric=metric))
    kwargs = {"p": 3.0} if metric is MINKOWSKI3 else {}
    d64 = cdist(Y32.astype(np.float64), lm.centers, metric.name, **kwargs)
    nearest = np.argsort(d64, axis=1, kind="stable")[:, :r]
    order = np.argsort(nearest, axis=1)
    assert np.array_equal(
        aff.matrix.indices.reshape(-1, r), np.take_along_axis(nearest, order, axis=1)
    )
    want = oracle_picked_weights(Y32, lm.centers, nearest, metric, aff.bandwidth)
    got = aff.matrix.data.reshape(-1, r)
    assert got.tobytes() == np.take_along_axis(want, order, axis=1).tobytes()
    if metric is not MINKOWSKI3:
        # float32 distances of the raw rows pick otherwise: the case has teeth
        raw = stable_oracle(pairwise_distance(Y32, lm.centers.astype(np.float32), metric), r)
        assert not np.array_equal(raw, nearest)


def test_scott_bandwidth_of_float32_sums_in_float64():
    Y32 = separated_code(12)[0]
    Y64 = Y32.astype(np.float64)
    # the widening is exact, so both inputs give one bandwidth, which
    # agrees with NumPy's float64 std to rounding
    assert scott_bandwidth(Y32) == scott_bandwidth(Y64)
    n, d = Y64.shape
    want = np.mean(np.std(Y64, axis=0, ddof=1)) * n ** (-1.0 / (d + 4))
    assert scott_bandwidth(Y32) == pytest.approx(want, rel=1e-13)
