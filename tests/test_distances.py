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
    nearest_rows,
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


# --- the nearest-row kernel against its buffer-free formulation -------------


def oracle_norms(X):
    """Row sums of squares, summed in float64 and rounded once to X's dtype."""
    return np.sum(np.square(X, dtype=np.float64), axis=1).astype(X.dtype)


def oracle_sq_dists(X, C):
    """Squared distances in X's dtype, by the two-pass formula, clamped at 0."""
    sq = (oracle_norms(X)[:, None] + oracle_norms(C)[None, :]) - 2.0 * (X @ C.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def oracle_nearest_rows(X, C, r, shift=None, scale=None, bias=None):
    """`nearest_rows` by its arithmetic, without its buffers or masked argmins.

    Fresh products of [X / scale - shift, 1], computed in float64 and
    rounded once to C's dtype, and [-2 C^T; bias] on the kernel's row
    blocks of _CHUNK_ENTRIES // p rows, then a stable sort of each row.
    """
    dtype = C.dtype
    X = X.astype(np.float64)
    if scale is not None:
        X = X / scale[:, None]
    if shift is not None:
        X = X - shift
    X1 = np.hstack([X.astype(dtype), np.ones((len(X), 1), dtype)])
    # C-contiguous as the kernel's: a one-row product is a GEMV, whose
    # summation order follows the layout
    C1 = np.ascontiguousarray(np.vstack([-2.0 * C.T, oracle_norms(C) if bias is None else bias]))
    assert X1.dtype == C1.dtype == dtype
    step = max(1, distances._CHUNK_ENTRIES // len(C))
    G = np.concatenate([X1[start : start + step] @ C1 for start in range(0, len(X), step)])
    index = np.argsort(G, axis=1, kind="stable")[:, :r]
    return index, np.take_along_axis(G, index, axis=1)


def with_values(X, C, r, **kwargs):
    """`nearest_rows`' picks and the entries it writes into `value`."""
    value = np.empty((len(X), r), dtype=C.dtype)
    return nearest_rows(X, C, r, value=value, **kwargs), value


def assert_matches_oracle(X, C, r, **kwargs):
    index, value = with_values(X, C, r, **kwargs)
    want = oracle_nearest_rows(X, C, r, **kwargs)
    assert np.array_equal(index, want[0]) and np.array_equal(nearest_rows(X, C, r, **kwargs), index)
    assert value.tobytes() == want[1].tobytes()
    return index, value


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


def test_kernel_single_center():
    gen = np.random.default_rng(21)
    X = gen.normal(size=(500, 3))
    index, value = assert_matches_oracle(X, X[7:8], 1)
    assert np.array_equal(index, np.zeros((500, 1), dtype=np.intp))
    np.testing.assert_allclose(
        value[:, 0] + np.sum(X * X, axis=1), oracle_sq_dists(X, X[7:8])[:, 0], atol=1e-12
    )


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("n", [1, 50, 93, 2995])
def test_kernel_row_counts_around_the_block(n, r):
    # p = 350 gives 93-row blocks: n below, at and off a multiple of one block
    gen = np.random.default_rng(n)
    X = np.maximum(gen.normal(size=(n, 16)), 0.0).astype(np.float32)
    C = np.maximum(gen.normal(size=(350, 16)), 0.0).astype(np.float32)
    assert_matches_oracle(X, C, r)


def test_kernel_one_row_per_block_when_p_exceeds_the_chunk():
    gen = np.random.default_rng(22)
    C = gen.normal(size=(2**15 + 5, 3))
    X = np.concatenate([gen.normal(size=(4, 3)), C[-2:]])
    index, _ = assert_matches_oracle(X, C, 2)
    assert np.array_equal(index[4:, 0], [2**15 + 3, 2**15 + 4])  # points on centers


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("entries", [1, 7, 100, 2**20])
def test_kernel_matches_oracle_at_every_block_size(entries, dtype, monkeypatch):
    gen = np.random.default_rng(23)
    X = gen.normal(size=(301, 8))
    C = np.concatenate([gen.normal(size=(11, 8)), X[:2]]).astype(dtype)
    shift = C.mean(axis=0, dtype=np.float64)
    monkeypatch.setattr(distances, "_CHUNK_ENTRIES", entries)
    for r in (1, 4):
        assert_matches_oracle(X.astype(dtype), C, r)
        assert_matches_oracle(X, C, r, shift=shift)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "n, p, d, dups",
    [
        (1024, 600, 16, 60),
        (1024, 350, 16, 35),
        (20000, 10, 10, 5),
        (300, 40, 520, 4),
        (1, 600, 16, 0),
        (1024, 1, 16, 0),
        (1, 1, 16, 0),
    ],
)
def test_kernel_bit_identical_at_benchmark_shapes(n, p, d, dups, dtype):
    # landmark-pick shapes on ReLU codes, a Lloyd shape on spectral rows, a
    # code wider than any OpenBLAS inner block, and one-row and one-center
    # products; `dups` centers appear twice and every center is also a
    # point, so exact ties occur
    gen = np.random.default_rng(n + p + d)
    relu = d != 10
    if relu:
        C = 4.0 * np.maximum(gen.normal(size=(p, d)), 0.0)
    else:
        C = gen.normal(size=(p, d)) + 8.0
    C[p - dups :] = C[:dups]
    X = np.concatenate([C, C[0] + 0.5 * gen.standard_normal(size=(max(0, n - p), d))])[:n]
    if relu:
        X = np.maximum(X, 0.0)
    X, C = X.astype(dtype), C.astype(dtype)
    r = min(p, 1 if d == 10 else 7)
    index, _ = assert_matches_oracle(X, C, r)
    if dups:
        # on a row that sits on a center with a second copy, the two tie
        # exactly and the lower index comes first
        rows = np.arange(dups)
        pair = np.stack([rows, rows + p - dups], axis=1)
        assert np.array_equal(index[rows, :2], pair[:, :r])
    # the dense euclidean form is the plain clamped and rooted expansion
    assert pairwise_distance(X, C, EUCLIDEAN).tobytes() == np.sqrt(oracle_sq_dists(X, C)).tobytes()


def assert_within_float32_rounding(A, C, index):
    """Each pick's float64 squared distance is within the bound of the true one.

    With u = 2**-24, the float32 value ||c||^2 - 2 a.c, a sum of d + 1
    products, is off by at most E = gamma_(d+1) (2 |a|.|c| + ||c||^2) plus
    u ||c||^2 for rounding the norm, gamma_m = m u / (1 - m u). Among the
    true j nearest centers one at least is not among the first j - 1
    picks, so the j-th pick's squared distance exceeds the true j-th
    smallest by at most its own E plus the largest E among the true j
    nearest, to which the float64 evaluation below adds a relative
    d 2**-52.
    """
    A64, C64 = A.astype(np.float64), C.astype(np.float64)
    d = A.shape[1]
    sq = np.square(A64[:, None, :] - C64[None, :, :]).sum(axis=2)
    u = 2.0**-24
    gamma = (d + 1) * u / (1 - (d + 1) * u)
    cc = np.sum(C64 * C64, axis=1)
    err = gamma * (2.0 * np.abs(A64) @ np.abs(C64).T + cc) + u * cc
    best = np.argsort(sq, axis=1, kind="stable")[:, : index.shape[1]]
    excess = np.take_along_axis(sq, index, axis=1) - np.take_along_axis(sq, best, axis=1)
    near = np.maximum.accumulate(np.take_along_axis(err, best, axis=1), axis=1)
    bound = np.take_along_axis(err, index, axis=1) + near + d * 2.0**-52 * sq.max(axis=1)[:, None]
    assert np.all(excess <= bound)
    # the picks are distinct columns
    assert np.all(np.diff(np.sort(index, axis=1), axis=1) > 0)
    return excess, bound


@pytest.mark.parametrize("r", [1, 7])
def test_nearest_rows_within_float32_rounding_of_float64(r):
    gen = np.random.default_rng(21)
    # p = 600 > the 54 rows of a block, 1 000 rows leaving a short last block
    A = gen.normal(size=(1000, 16)).astype(np.float32)
    C = gen.normal(size=(600, 16)).astype(np.float32)
    index = nearest_rows(A, C, r)
    excess, bound = assert_within_float32_rounding(A, C, index)
    # unit spread: the bound is far below the gaps between centers, and
    # most picks are float64's own
    assert bound.max() < 1e-3
    assert np.mean(excess == 0.0) > 0.99
    # p past _CHUNK_ENTRIES: blocks of one row
    C = gen.normal(size=(distances._CHUNK_ENTRIES + 1, 2)).astype(np.float32)
    assert_within_float32_rounding(A[:20, :2], C, nearest_rows(A[:20, :2], C, r))


@pytest.mark.parametrize("r", [1, 7])
def test_nearest_rows_far_from_the_origin_rounds_with_the_norms(r):
    # raw points 1e3 from the origin: the bound grows with ||a|| ||c||,
    # the rounding the offsets avoid, yet still holds
    gen = np.random.default_rng(22)
    A = (1e3 + gen.normal(size=(700, 16))).astype(np.float32)
    C = (1e3 + gen.normal(size=(40, 16))).astype(np.float32)
    excess, bound = assert_within_float32_rounding(A, C, nearest_rows(A, C, r))
    assert bound.min() > 1.0
    # the same rows as offsets from the centers' mean round like the spread
    shift = C.mean(axis=0, dtype=np.float64)
    A0, C0 = (A - shift).astype(np.float32), (C - shift).astype(np.float32)
    index, value = with_values(A0, C0, r)
    excess, bound = assert_within_float32_rounding(A0, C0, index)
    assert bound.max() < 1e-3
    # and the kernel narrows them itself, bit for bit, when given the shift
    got = with_values(A, C0, r, shift=shift)
    assert np.array_equal(got[0], index) and got[1].tobytes() == value.tobytes()


@pytest.mark.parametrize("r", [1, 7])
def test_nearest_rows_duplicates_and_exact_ties(r):
    gen = np.random.default_rng(23)
    A = np.repeat(gen.normal(size=(150, 8)).astype(np.float32), 3, axis=0)
    C = gen.normal(size=(300, 8)).astype(np.float32)
    index = nearest_rows(A, C, r)
    # duplicate points, in the same block or not, get the same picks
    assert np.all(index.reshape(-1, 3, r) == index[::3, None])
    assert_within_float32_rounding(A, C, index)
    # a duplicate center ties exactly with its first copy and follows it
    twice = nearest_rows(A, np.vstack([C, C]), r)
    base = nearest_rows(A, C, (r + 1) // 2)
    assert np.array_equal(twice[:, ::2], base)
    assert np.array_equal(twice[:, 1::2], base[:, : r // 2] + 300)
    copies = nearest_rows(A, np.repeat(C[:1], r + 2, axis=0), r)
    assert np.all(copies == np.arange(r))
    # 0 is as far from (1, 0) as from (-1, 0), in either order
    C2 = np.array([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0]], np.float32)
    origin = np.zeros((4, 2), np.float32)
    k = min(r, 3)
    assert np.all(nearest_rows(origin, C2, k) == [0, 1, 2][:k])
    assert np.all(nearest_rows(origin, C2[::-1].copy(), k) == [1, 2, 0][:k])


def test_cosine_zero_landmark_bias_and_zero_rows():
    # the affinity's cosine picks: unit rows and unit landmarks as float32
    # offsets from the landmarks' mean; 1 added to a zero landmark's bias
    # entry puts it at squared distance 2 from every unit row
    gen = np.random.default_rng(26)
    Y = np.maximum(gen.normal(size=(300, 8)), 0.0).astype(np.float32)
    Y[:3] = 0.0
    centers = np.maximum(gen.normal(size=(20, 8)), 0.0)
    centers[[4, 11]] = 0.0
    units, zero_c = distances.unit_rows(centers)
    norms = np.sqrt(distances.sq_norms(Y, np.float64))
    zero = norms == 0.0
    norms[zero] = 1.0
    shift = units.mean(axis=0)
    offsets = (units - shift).astype(np.float32)
    bias = distances.sq_norms(offsets) + zero_c
    index, value = assert_matches_oracle(Y, offsets, 20, shift=shift, scale=norms, bias=bias)
    rows = (Y / norms[:, None]).astype(np.float64)
    full = value + np.sum(np.square(rows - shift), axis=1)[:, None]
    unit_sq = np.square(rows[:, None, :] - units[None, :, :]).sum(axis=2)
    unit_sq[:, zero_c] = 2.0
    want = np.take_along_axis(unit_sq, index, axis=1)
    np.testing.assert_allclose(full[~zero], want[~zero], rtol=0, atol=1e-5)
    # a zero row is divided by 1 and ranks from -shift: finite, distinct picks
    assert np.all(np.isfinite(value[zero]))
    assert np.all(np.diff(np.sort(index[zero], axis=1), axis=1) > 0)
    # in float64 every unit row puts the zero landmarks at exactly sqrt(2)
    d64 = pairwise_distance(rows[~zero], units, COSINE)
    assert np.array_equal(d64[:, zero_c], np.ones((len(d64), 2)))


def stable_oracle(d, r):
    return np.argsort(d, axis=1, kind="stable")[:, :r]


def smallest(d, r):
    """`_smallest` on a copy of d: (index, value)."""
    index = np.empty((d.shape[0], r), dtype=np.intp)
    value = np.empty((d.shape[0], r), dtype=d.dtype)
    distances._smallest(d.copy(), index, value)
    return index, value


def test_smallest_equals_stable_argsort_on_ties():
    gen = np.random.default_rng(8)
    for p in (2, 3, 5, 9, 16):
        cases = [
            gen.integers(0, 3, size=(40, p)).astype(np.float64),  # small integers
            np.full((6, p), 2.5),  # all-equal rows
            gen.normal(size=(40, p)),  # no ties
        ]
        for r in range(1, p):
            # ties straddling the r-th position: r-1 clear winners, then a tied run
            straddle = np.full((8, p), 7.0)
            straddle[:, : r - 1] = np.arange(r - 1)
            for row in straddle:
                gen.shuffle(row)
            for d in (*cases, straddle):
                index, value = smallest(d, r)
                assert np.array_equal(index, stable_oracle(d, r)), (p, r)
                assert np.array_equal(value, np.take_along_axis(d, index, axis=1))


def test_smallest_sorts_non_finite_rows_in_full_past_one_pick():
    gen = np.random.default_rng(10)
    p = 9
    d = gen.integers(0, 4, size=(40, p)).astype(np.float64)
    d[0, 3] = np.nan
    d[1, [2, 5]] = np.nan
    d[2] = np.inf
    d[2, 4] = 1.0  # one finite entry, then more than r +infs
    d[3, [1, 6]] = -np.inf
    d[4] = np.inf
    d[5, [0, 3, 8]] = [np.inf, np.nan, -np.inf]
    scatter = gen.random(size=(34, p))
    d[6:][scatter < 0.1] = np.nan
    d[6:][(scatter >= 0.1) & (scatter < 0.2)] = np.inf
    d[6:][(scatter >= 0.2) & (scatter < 0.25)] = -np.inf
    for r in range(1, p):
        index, value = smallest(d, r)
        # r = 1 is a plain argmin: a row holding NaN takes its first NaN,
        # which a stable sort would put last
        want = np.argmin(d, axis=1)[:, None] if r == 1 else stable_oracle(d, r)
        assert np.array_equal(index, want), r
        assert np.array_equal(value, np.take_along_axis(d, index, axis=1), equal_nan=True), r


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
