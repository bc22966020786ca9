"""Metric primitives against direct formula and scipy oracles."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from snapclust import distances
from snapclust.distances import (
    COSINE,
    EUCLIDEAN,
    MINKOWSKI3,
    Metric,
    distance,
    nearest_centers,
    pairwise_distance,
    parse_metric,
)
from snapclust.errors import ConfigError, DataError


def test_euclidean_pythagorean():
    assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]), EUCLIDEAN) == 5.0


def test_cosine_orthogonal():
    assert distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), COSINE) == pytest.approx(1.0)


def test_minkowski_cube_example():
    # (3^3 + 4^3 + 5^3)^(1/3) = 216^(1/3) = 6
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 6.0, 8.0])
    assert distance(a, b, MINKOWSKI3) == pytest.approx(6.0, abs=1e-12)


def test_parse_metric():
    assert parse_metric("euclidean") == EUCLIDEAN
    assert parse_metric("cosine") == COSINE
    m = parse_metric("minkowski:4")
    assert m.name == "minkowski" and m.q == 4.0
    assert parse_metric("minkowski").q == 3.0
    with pytest.raises(ConfigError):
        parse_metric("manhattan")
    with pytest.raises(ConfigError):
        parse_metric("minkowski:0")


def test_metric_labels():
    assert EUCLIDEAN.label() == "euclidean"
    assert MINKOWSKI3.label() == "minkowski(q=3)"


def test_dimension_mismatch():
    with pytest.raises(DataError):
        distance(np.zeros(3), np.zeros(4), EUCLIDEAN)


def test_cosine_zero_norm_rows_are_defined():
    # d(0, b) = 1 for b != 0, d(0, 0) = 0, so d(x, x) = 0 holds for every x
    assert distance(np.zeros(3), np.ones(3), COSINE) == 1.0
    assert distance(np.ones(3), np.zeros(3), COSINE) == 1.0
    assert distance(np.zeros(3), np.zeros(3), COSINE) == 0.0
    gen = np.random.default_rng(2)
    A = np.maximum(gen.normal(size=(6, 4)), 0.0)
    A[[1, 4]] = 0.0
    B = np.concatenate([A, np.maximum(gen.normal(size=(3, 4)), 0.0) + 0.1])
    got = pairwise_distance(A, B, COSINE)
    want = np.array([[distance(a, b, COSINE) for b in B] for a in A])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.all(got[[1, 4]][:, [1, 4]] == 0.0)
    assert np.all(np.delete(got[[1, 4]], [1, 4], axis=1) == 1.0)
    assert np.all(np.diag(got) <= 1e-12)
    nonzero = [0, 2, 3, 5]
    assert np.array_equal(
        got[nonzero], pairwise_distance(A[nonzero], B, COSINE)
    )  # zero rows leave the others' bits alone


def test_symmetry_and_identity():
    gen = np.random.default_rng(3)
    for _ in range(50):
        d = int(gen.integers(1, 8))
        a = gen.normal(size=d)
        b = gen.normal(size=d)
        for metric in (EUCLIDEAN, MINKOWSKI3, Metric("minkowski", q=1.5)):
            assert distance(a, b, metric) == pytest.approx(distance(b, a, metric))
            assert distance(a, a, metric) == pytest.approx(0.0, abs=1e-12)
        if np.linalg.norm(a) > 0 and np.linalg.norm(b) > 0:
            assert distance(a, b, COSINE) == pytest.approx(distance(b, a, COSINE))


def test_triangle_inequality():
    gen = np.random.default_rng(4)
    for _ in range(100):
        d = int(gen.integers(1, 6))
        a, b, c = gen.normal(size=(3, d))
        for metric in (EUCLIDEAN, MINKOWSKI3):
            ab = distance(a, b, metric)
            bc = distance(b, c, metric)
            ac = distance(a, c, metric)
            assert ac <= ab + bc + 1e-10


def test_pairwise_matches_scipy():
    gen = np.random.default_rng(5)
    for _ in range(20):
        n, m, d = (int(gen.integers(1, 12)) for _ in range(3))
        A = gen.normal(size=(n, d))
        B = gen.normal(size=(m, d))
        got = pairwise_distance(A, B, EUCLIDEAN)
        assert np.allclose(got, cdist(A, B, "euclidean"), atol=1e-10)
        got = pairwise_distance(A, B, MINKOWSKI3)
        assert np.allclose(got, cdist(A, B, "minkowski", p=3.0), atol=1e-10)
        got = pairwise_distance(A, B, COSINE)
        assert np.allclose(got, cdist(A, B, "cosine"), atol=1e-10)


def test_pairwise_matches_scalar_loop():
    gen = np.random.default_rng(6)
    A = gen.normal(size=(7, 4))
    B = gen.normal(size=(5, 4))
    for metric in (EUCLIDEAN, COSINE, MINKOWSKI3):
        got = pairwise_distance(A, B, metric)
        want = np.array([[distance(a, b, metric) for b in B] for a in A])
        assert np.allclose(got, want, atol=1e-10)


def test_minkowski_pairwise_matches_scalar_on_relu_codes(monkeypatch):
    # ReLU codes: many coordinates where both points are exactly zero
    gen = np.random.default_rng(7)
    for n, m, d in ((40, 25, 16), (1, 25, 16), (40, 25, 1)):
        A = np.maximum(gen.normal(size=(n, d)), 0.0)
        B = np.maximum(gen.normal(size=(m, d)), 0.0)
        B[0] = A[0]  # an exactly zero distance
        for q in (3.0, 1.5, 1.0, 0.5):
            metric = Metric("minkowski", q)
            got = pairwise_distance(A, B, metric)
            want = np.array([[distance(a, b, metric) for b in B] for a in A])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            # 3-row chunks, the last one short, give the same bits as one chunk
            monkeypatch.setattr(distances, "_CHUNK_ENTRIES", 3 * m)
            assert np.array_equal(pairwise_distance(A, B, metric), got)
            monkeypatch.undo()


def test_pairwise_nonnegative_under_cancellation():
    # Gram expansion of ||a-b||^2 can go slightly negative; must be clamped
    x = np.full((3, 8), 1e8)
    got = pairwise_distance(x, x + 1e-8, EUCLIDEAN)
    assert np.all(got >= 0.0)


# --- the chunked squared-euclidean kernel against the unchunked formulation -


def oracle_norms(X):
    """Row sums of squares, summed in float64 and rounded once to X's dtype."""
    return np.sum(np.square(X, dtype=np.float64), axis=1).astype(X.dtype)


def oracle_raw_sq_dists(X, C):
    """Unclamped squared distances in X's dtype, by the two-pass formula."""
    return (oracle_norms(X)[:, None] + oracle_norms(C)[None, :]) - 2.0 * (X @ C.T)


def oracle_sq_dists(X, C):
    sq = oracle_raw_sq_dists(X, C)
    np.maximum(sq, 0.0, out=sq)
    return sq


def assert_kernel_matches_oracle(X, C):
    want = oracle_sq_dists(X, C)
    labels, mind = nearest_centers(X, C, oracle_norms(X))
    assert np.array_equal(labels, np.argmin(want, axis=1))
    assert np.array_equal(mind, want[np.arange(X.shape[0]), labels])
    assert np.array_equal(pairwise_distance(X, C, EUCLIDEAN), np.sqrt(want))
    return want


def test_kernel_clamp_ties_on_duplicates_and_points_on_centers():
    gen = np.random.default_rng(20)
    C = gen.normal(size=(6, 4)) + 10.0
    # every point repeats and sits on a center; centers 0 and 6 coincide
    X = np.concatenate([C, C[::-1], np.repeat(C[:1], 5, axis=0)])
    C = np.concatenate([C, C[:1]])
    want = assert_kernel_matches_oracle(X, C)
    raw = np.sum(X * X, axis=1)[:, None] + np.sum(C * C, axis=1)[None, :] - 2.0 * (X @ C.T)
    assert np.any(raw < 0.0)  # the clamp ran and made more ties at 0
    assert np.count_nonzero(want == 0.0) > np.count_nonzero(raw == 0.0)
    labels, _ = nearest_centers(X, C, np.sum(X * X, axis=1))
    assert not np.any(labels == 6)  # ties go to the lower index


def test_kernel_single_center():
    gen = np.random.default_rng(21)
    X = gen.normal(size=(500, 3))
    labels, mind = nearest_centers(X, X[7:8], np.sum(X * X, axis=1))
    assert np.array_equal(labels, np.zeros(500, dtype=np.int64))
    assert np.array_equal(mind, oracle_sq_dists(X, X[7:8])[:, 0])


@pytest.mark.parametrize("n", [1, 50, 93, 2995])
def test_kernel_row_counts_around_the_chunk(n):
    # p = 350 gives 93-row chunks: n below, at and off a multiple of one chunk
    gen = np.random.default_rng(n)
    X = np.maximum(gen.normal(size=(n, 16)), 0.0)
    C = np.maximum(gen.normal(size=(350, 16)), 0.0)
    assert_kernel_matches_oracle(X, C)


def test_kernel_one_row_per_chunk_when_p_exceeds_chunk():
    gen = np.random.default_rng(22)
    C = gen.normal(size=(2**15 + 5, 3))
    X = np.concatenate([gen.normal(size=(4, 3)), C[-2:]])
    assert_kernel_matches_oracle(X, C)


DTYPES = [np.float64, np.float32]


def test_sq_norms_sum_in_float64_and_round_once():
    gen = np.random.default_rng(24)
    X = gen.normal(size=(3000, 40))
    assert distances.sq_norms(X).tobytes() == np.sum(X * X, axis=1).tobytes()
    X32 = X.astype(np.float32)
    want = oracle_norms(X32)
    assert distances.sq_norms(X32).tobytes() == want.tobytes()
    assert distances.sq_norms(X, np.float32).tobytes() == want.tobytes()
    # a float32 sum of float32 squares rounds at every step
    assert not np.array_equal(want, np.sum(X32 * X32, axis=1))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("entries", [1, 7, 100, 2**20])
def test_kernel_bits_do_not_depend_on_chunk_size(entries, dtype, monkeypatch):
    gen = np.random.default_rng(23)
    X = gen.normal(size=(301, 8)).astype(dtype)
    C = np.concatenate([gen.normal(size=(11, 8)).astype(dtype), X[:2]])
    xx = oracle_norms(X)
    want = nearest_centers(X, C, xx), pairwise_distance(X, C, EUCLIDEAN)
    monkeypatch.setattr(distances, "_CHUNK_ENTRIES", entries)
    (labels, mind), dist = nearest_centers(X, C, xx), pairwise_distance(X, C, EUCLIDEAN)
    assert np.array_equal(labels, want[0][0]) and np.array_equal(mind, want[0][1])
    assert np.array_equal(dist, want[1])
    assert mind.dtype == dist.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "n, p, d, dups",
    [(1024, 600, 16, 60), (1024, 350, 16, 35), (20000, 10, 10, 5), (300, 40, 520, 4)],
)
def test_kernel_bit_identical_at_benchmark_shapes(n, p, d, dups, dtype):
    # landmark-pick shapes on ReLU codes, a Lloyd shape on spectral rows
    # and a code wider than any OpenBLAS inner block; `dups` centers appear
    # twice and every center is also a point, so some rows hold several
    # slightly negative raw entries that the clamp ties
    gen = np.random.default_rng(n + p)
    relu = d != 10
    if relu:
        C = 4.0 * np.maximum(gen.normal(size=(p, d)), 0.0)
    else:
        C = gen.normal(size=(p, d)) + 8.0
    C[p - dups :] = C[:dups]
    X = np.concatenate([C, C[0] + 0.5 * gen.standard_normal(size=(n - p, d))])
    if relu:
        X = np.maximum(X, 0.0)
    X, C = X.astype(dtype), C.astype(dtype)
    raw = oracle_raw_sq_dists(X, C)
    assert np.count_nonzero(np.count_nonzero(raw < 0.0, axis=1) >= 2) > 0
    want = oracle_sq_dists(X, C)
    labels, mind = nearest_centers(X, C, oracle_norms(X))
    assert np.array_equal(labels, np.argmin(want, axis=1))
    assert mind.tobytes() == want[np.arange(n), labels].tobytes()
    assert pairwise_distance(X, C, EUCLIDEAN).tobytes() == np.sqrt(want).tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n, p, d", [(1, 600, 16), (1024, 1, 16), (1, 1, 16), (300, 40, 520)])
def test_prefill_gemv_and_two_pass_shapes_match_oracle_bytes(n, p, d, dtype):
    # n = 1 or p = 1 is a GEMV and d = 520 is past the fused width: both
    # subtract 2 A B^T from the rank-1 prefill in a second pass
    gen = np.random.default_rng(n + p + d)
    C = np.maximum(gen.normal(size=(p, d)), 0.0).astype(dtype)
    X = np.maximum(gen.normal(size=(n, d)), 0.0).astype(dtype)
    X[0] = C[0]  # a point on a center
    raw = oracle_raw_sq_dists(X, C)
    out = distances._sq_euclidean(X, C, oracle_norms(X), np.empty((n, p), dtype))
    assert out.tobytes() == raw.tobytes()
    want = oracle_sq_dists(X, C)
    labels, mind = nearest_centers(X, C, oracle_norms(X))
    assert mind.tobytes() == want[np.arange(n), labels].tobytes()
    assert pairwise_distance(X, C, EUCLIDEAN).tobytes() == np.sqrt(want).tobytes()


def test_prefill_refuses_a_buffer_it_cannot_update_in_place():
    X, C = np.ones((4, 3)), np.ones((5, 3))
    with pytest.raises(ValueError, match="C-contiguous"):
        distances._sq_euclidean(X, C, np.sum(X * X, axis=1), np.empty((5, 4)).T)


def oracle_minkowski(A, B, q):
    # one coordinate at a time from a zero sum, as the kernel accumulates
    acc = np.zeros((A.shape[0], B.shape[0]), A.dtype)
    for j in range(A.shape[1]):
        t = np.abs(np.subtract.outer(A[:, j], B[:, j]))
        acc += t * t * t if q == 3.0 else t**q
    return acc ** (1.0 / q)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n, p, d", [(1747, 600, 16), (1, 5, 3), (40, 1, 16)])
def test_minkowski_pairwise_bit_identical_to_per_coordinate_oracle(n, p, d, dtype):
    # ReLU codes, as members see them, with a first point that is not all
    # zero and, when there are several points, one point on a landmark
    gen = np.random.default_rng(n * p + d)
    A = np.maximum(gen.normal(size=(n, d)), 0.0)
    B = np.maximum(gen.normal(size=(p, d)), 0.0)
    A[0, 0] += 1.0
    if n > 1:
        A[-1] = B[0]
    A, B = A.astype(dtype), B.astype(dtype)
    for q in (3.0, 1.5, 1.0, 0.5):
        got = pairwise_distance(A, B, Metric("minkowski", q))
        assert got.dtype == dtype
        assert got.tobytes() == oracle_minkowski(A, B, q).tobytes()
        assert n == 1 or got[-1, 0] == 0.0


@pytest.mark.parametrize("metric", [EUCLIDEAN, COSINE, MINKOWSKI3], ids=Metric.label)
def test_float32_pairwise_is_float32_and_close_to_float64(metric):
    gen = np.random.default_rng(25)
    A = np.maximum(gen.normal(size=(300, 16)), 0.0).astype(np.float32)
    B = np.maximum(gen.normal(size=(40, 16)), 0.0).astype(np.float32)
    A[:3] = 0.0  # zero rows: cosine takes its conventions in float32 too
    B[0] = 0.0
    got = pairwise_distance(A, B, metric)
    assert got.dtype == np.float32
    want = pairwise_distance(A.astype(np.float64), B.astype(np.float64), metric)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * want.max())
    if metric is COSINE:
        assert np.array_equal(got[:3, 0], np.zeros(3)) and np.all(got[:3, 1:] == 1.0)
    with pytest.raises(DataError, match="dtypes differ"):
        pairwise_distance(A, B.astype(np.float64), metric)
