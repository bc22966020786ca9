"""Landmark selection: fixed points, blob recovery, objective quality."""

import itertools
import tracemalloc

import numpy as np
import pytest

from snapclust.affinity import AffinityParams, build_affinity
from snapclust.distances import _CHUNK_ENTRIES, COSINE, EUCLIDEAN, MINKOWSKI3
from snapclust.errors import ConfigError, DataError
from snapclust.landmarks import LandmarkSet, _nearest_rows, minibatch_kmeans
from snapclust.kmeans import kmeans_pp_init
from snapclust.rng import STAGE_BATCH, STAGE_INIT, SeedStream


def test_landmark_set_validation():
    LandmarkSet(np.zeros((2, 3)), seed=0)
    with pytest.raises(DataError):
        LandmarkSet(np.zeros((1, 3)), seed=0)  # p >= 2
    with pytest.raises(DataError):
        LandmarkSet(np.full((3, 2), np.nan), seed=0)


def test_p_distinct_points_is_fixed_point():
    # p clusters of zero radius: centers must land on the points themselves
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    Y = np.repeat(pts, 50, axis=0)
    lm = minibatch_kmeans(Y, 4, SeedStream(0))
    got = sorted(map(tuple, lm.centers.tolist()))
    assert got == sorted(map(tuple, pts.tolist()))


def test_two_blob_centers_near_means():
    gen = np.random.default_rng(1)
    sigma = 0.4
    a = gen.normal((-5.0, 0.0), sigma, size=(300, 2))
    b = gen.normal((5.0, 0.0), sigma, size=(300, 2))
    Y = np.vstack([a, b])
    lm = minibatch_kmeans(Y, 2, SeedStream(7))
    centers = lm.centers[np.argsort(lm.centers[:, 0])]
    assert np.linalg.norm(centers[0] - a.mean(axis=0)) < 3 * sigma
    assert np.linalg.norm(centers[1] - b.mean(axis=0)) < 3 * sigma


def test_centers_stay_in_bounding_box():
    gen = np.random.default_rng(2)
    Y = gen.uniform(-3, 7, size=(500, 4))
    lm = minibatch_kmeans(Y, 25, SeedStream(3))
    assert np.all(lm.centers >= Y.min(axis=0) - 1e-12)
    assert np.all(lm.centers <= Y.max(axis=0) + 1e-12)
    assert lm.p == 25 and lm.centers.shape[1] == 4


def test_p_bounds_enforced():
    Y = np.random.default_rng(3).normal(size=(10, 2))
    with pytest.raises(ConfigError):
        minibatch_kmeans(Y, 10, SeedStream(0))  # p < n required
    with pytest.raises(ConfigError):
        minibatch_kmeans(Y, 1, SeedStream(0))  # p >= 2


def test_deterministic_for_fixed_seed():
    Y = np.random.default_rng(4).normal(size=(400, 3))
    a = minibatch_kmeans(Y, 12, SeedStream(5))
    b = minibatch_kmeans(Y, 12, SeedStream(5))
    assert np.array_equal(a.centers, b.centers)
    c = minibatch_kmeans(Y, 12, SeedStream(6))
    assert not np.array_equal(a.centers, c.centers)


def quantization_error(Y, centers):
    d2 = ((Y[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    return float(d2.min(axis=1).mean())


def test_beats_uniform_landmarks():
    # converged centers should quantize no worse than p uniform draws
    gen = np.random.default_rng(5)
    for seed in range(5):
        Y = np.vstack(
            [gen.normal(c, 0.5, size=(120, 3)) for c in ((0, 0, 0), (6, 0, 0), (0, 6, 0))]
        )
        p = 9
        lm = minibatch_kmeans(Y, p, SeedStream(seed))
        uniform_idx = SeedStream(seed).generator().choice(len(Y), size=p, replace=False)
        assert quantization_error(Y, lm.centers) <= quantization_error(Y, Y[uniform_idx]) + 1e-12


def oracle_assign(X, C, dtype=np.float32):
    """Each row of X's nearest row of C by the kernel's arithmetic.

    The argmin of ||c||^2 - 2 x.c, read from fresh products of the
    augmented [X, 1] and [-2 C^T; ||C||^2] cast to `dtype`, with the norms
    summed in float64 and rounded once, on row blocks of
    _CHUNK_ENTRIES // p rows.
    """
    X, C = X.astype(dtype), C.astype(dtype)
    cc = np.sum(np.square(C, dtype=np.float64), axis=1).astype(dtype)
    X1 = np.hstack([X, np.ones((len(X), 1), dtype)])
    C1 = np.vstack([-2.0 * C.T, cc])
    assert X1.dtype == C1.dtype == dtype
    step = max(1, _CHUNK_ENTRIES // len(C))
    blocks = [X1[start : start + step] @ C1 for start in range(0, len(X), step)]
    return np.concatenate([np.argmin(block, axis=1) for block in blocks])


def oracle_minibatch(Y, p, rng, batch_size, max_iters=100, dtype=np.float32):
    """Buffer-free formulation: fresh products, np.add.at center sums.

    Float64 centers, each batch assigned to them in `dtype` as offsets
    from the mean of the k-means++ seeds. Returns the centers and how many
    batch points each center absorbed.
    """
    n = Y.shape[0]
    init_gen = rng.child(STAGE_INIT).generator()
    subset = init_gen.choice(n, size=min(n, max(10 * p, 2048)), replace=False)
    centers = kmeans_pp_init(Y[subset].astype(np.float64), p, init_gen)
    shift = centers.mean(axis=0)
    counts = np.zeros(p, dtype=np.int64)
    batch_gen = rng.child(STAGE_BATCH).generator()
    bsz = min(batch_size, n)
    for _ in range(max_iters):
        idx = batch_gen.choice(n, size=bsz, replace=False)
        B = Y[idx]
        assign = oracle_assign(B - shift, centers - shift, dtype)
        batch_counts = np.bincount(assign, minlength=p)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, B.astype(np.float64))
        touched = batch_counts > 0
        new_total = counts + batch_counts
        centers[touched] = (
            counts[touched, None] * centers[touched] + sums[touched]
        ) / new_total[touched, None]
        counts = new_total
    return centers, counts


def test_minibatch_bit_identical_to_oracle():
    gen = np.random.default_rng(7)
    cases = (
        (gen.normal(size=(2000, 16)), 120, 1024),  # benchmark-like shape
        # more centers than batch points: some centers stay empty for many batches
        (gen.normal(size=(600, 4)), 200, 32),
        # two tight blobs: centers barely move after the first batch
        (np.repeat([[0.0, 0.0], [5.0, 5.0]], 200, axis=0) + 1e-9 * gen.normal(size=(400, 2)), 2, 64),
        # far from the origin
        (1e3 + gen.normal(size=(1500, 8)), 40, 256),
        # a tight blob far from a loose one: within the tight blob, float32
        # rounding of the offsets from the seeds' mean decides assignments
        (np.vstack([1e-3 * gen.normal(size=(750, 8)), 1e3 + gen.normal(size=(750, 8))]), 40, 256),
    )
    for Y64, p, bsz in cases:
        # a float32 Y is used as it is; a float64 one is narrowed per batch
        # for the assignment, but its centers move with its own values
        for Y, seed in itertools.product((Y64, Y64.astype(np.float32)), (0, 1)):
            lm = minibatch_kmeans(Y, p, SeedStream(seed), batch_size=bsz)
            centers, counts = oracle_minibatch(Y, p, SeedStream(seed), bsz)
            assert lm.centers.dtype == np.float64
            assert np.array_equal(lm.centers, centers)
            assert lm.meta["empty"] == np.count_nonzero(counts == 0)
            assert lm.meta["occupancy"] == {
                "min": int(counts.min()),
                "median": float(np.median(counts)),
                "max": int(counts.max()),
            }
    # a float64-assignment oracle disagrees on the last case, so the cases
    # tell float32 assignment from float64
    Y, p, bsz = cases[-1]
    assert Y.dtype == np.float64
    lm = minibatch_kmeans(Y, p, SeedStream(0), batch_size=bsz)
    centers64, _ = oracle_minibatch(Y, p, SeedStream(0), bsz, dtype=np.float64)
    assert not np.array_equal(lm.centers, centers64)


def test_unreached_centers_keep_their_kmeans_pp_seed():
    # one batch, p close to n: most centers get no point and must stay put
    Y = np.random.default_rng(8).normal(size=(300, 3))
    p, bsz = 250, 64
    lm = minibatch_kmeans(Y, p, SeedStream(2), batch_size=bsz, max_iters=1)
    init_gen = SeedStream(2).child(STAGE_INIT).generator()
    subset = init_gen.choice(len(Y), size=len(Y), replace=False)
    seeds = kmeans_pp_init(Y[subset], p, init_gen)
    idx = SeedStream(2).child(STAGE_BATCH).generator().choice(len(Y), size=bsz, replace=False)
    reached = np.zeros(p, dtype=bool)
    shift = seeds.mean(axis=0)
    reached[oracle_assign(Y[idx] - shift, seeds - shift)] = True
    assert lm.meta["empty"] == np.count_nonzero(~reached) > 0
    assert np.array_equal(lm.centers[~reached], seeds[~reached])


def test_data_far_from_the_origin_is_assigned_as_in_float64():
    # at 1e3 from the origin with unit spread, ||a||^2 is about 1.6e7, so
    # a float32 expansion of the raw points would round by 1-2 against
    # squared distances of about 32; the offsets from the seeds' mean
    # round like the spread, and every assignment is float64's
    gen = np.random.default_rng(12)
    Y64 = 1e3 + gen.normal(size=(3000, 16))
    for Y, seed in itertools.product((Y64, Y64.astype(np.float32)), (0, 1)):
        lm = minibatch_kmeans(Y, 60, SeedStream(seed), batch_size=512)
        centers64, counts64 = oracle_minibatch(Y, 60, SeedStream(seed), 512, dtype=np.float64)
        assert np.array_equal(lm.centers, centers64)
        assert lm.meta["occupancy"]["max"] == counts64.max()


def nearest_rows(A, C):
    """`_nearest_rows` on float32 A and C, with its operands built here."""
    n, p = len(A), len(C)
    A1 = np.hstack([A, np.ones((n, 1), np.float32)])
    C1 = np.vstack([-2.0 * C.T, np.sum(np.square(C, dtype=np.float64), axis=1)])
    G = np.empty((min(n, max(1, _CHUNK_ENTRIES // p)), p), np.float32)
    return _nearest_rows(A1, C1.astype(np.float32), G, np.empty(n, np.intp))


def assert_within_float32_rounding(A, C, labels):
    """The chosen center's float64 squared distance is within the bound.

    With u = 2**-24, the float32 value ||c||^2 - 2 a.c, a sum of d + 1
    products, is off by at most E = gamma_(d+1) (2 |a|.|c| + ||c||^2) plus
    u ||c||^2 for rounding the norm, gamma_m = m u / (1 - m u). So the
    chosen center's squared distance exceeds the minimum by at most the
    chosen center's E plus the nearest one's, to which the float64
    evaluation below adds a relative d 2**-52.
    """
    A64, C64 = A.astype(np.float64), C.astype(np.float64)
    d = A.shape[1]
    sq = np.square(A64[:, None, :] - C64[None, :, :]).sum(axis=2)
    u = 2.0**-24
    gamma = (d + 1) * u / (1 - (d + 1) * u)
    cc = np.sum(C64 * C64, axis=1)
    err = gamma * (2.0 * np.abs(A64) @ np.abs(C64).T + cc) + u * cc
    rows = np.arange(len(A))
    best = np.argmin(sq, axis=1)
    excess = sq[rows, labels] - sq[rows, best]
    bound = err[rows, labels] + err[rows, best] + d * 2.0**-52 * sq.max(axis=1)
    assert np.all(excess <= bound)
    return excess, bound


def test_nearest_rows_within_float32_rounding_of_float64():
    gen = np.random.default_rng(21)
    # p = 600 > the 54 rows of a block, 1 000 rows leaving a short last block
    A = gen.normal(size=(1000, 16)).astype(np.float32)
    C = gen.normal(size=(600, 16)).astype(np.float32)
    labels = nearest_rows(A, C)
    excess, bound = assert_within_float32_rounding(A, C, labels)
    # unit spread: the bound is far below the gaps between centers, and
    # most rows get float64's own nearest center
    assert bound.max() < 1e-3
    assert np.mean(excess == 0.0) > 0.99
    # p past _CHUNK_ENTRIES: blocks of one row
    C = gen.normal(size=(_CHUNK_ENTRIES + 1, 2)).astype(np.float32)
    labels = nearest_rows(A[:20, :2], C)
    assert_within_float32_rounding(A[:20, :2], C, labels)


def test_nearest_rows_far_from_the_origin_rounds_with_the_norms():
    # raw points 1e3 from the origin: the bound grows with ||a|| ||c||,
    # the rounding the landmark loop's offsets avoid, yet still holds
    gen = np.random.default_rng(22)
    A = (1e3 + gen.normal(size=(700, 16))).astype(np.float32)
    C = (1e3 + gen.normal(size=(40, 16))).astype(np.float32)
    excess, bound = assert_within_float32_rounding(A, C, nearest_rows(A, C))
    assert bound.min() > 1.0
    # the same rows as offsets from the centers' mean round like the spread
    shift = C.mean(axis=0, dtype=np.float64)
    A0, C0 = (A - shift).astype(np.float32), (C - shift).astype(np.float32)
    excess, bound = assert_within_float32_rounding(A0, C0, nearest_rows(A0, C0))
    assert bound.max() < 1e-3


def test_nearest_rows_duplicates_and_exact_ties():
    gen = np.random.default_rng(23)
    A = np.repeat(gen.normal(size=(150, 8)).astype(np.float32), 3, axis=0)
    C = gen.normal(size=(300, 8)).astype(np.float32)
    labels = nearest_rows(A, C)
    # duplicate points, in the same block or not, get the same center
    assert np.all(labels.reshape(-1, 3) == labels[::3, None])
    assert_within_float32_rounding(A, C, labels)
    # a duplicate center ties exactly with its first copy: the lower index wins
    twice = np.vstack([C, C])
    assert np.array_equal(nearest_rows(A, twice), labels)
    assert np.all(nearest_rows(A, np.repeat(C[:1], 5, axis=0)) == 0)
    # 0 is as far from (1, 0) as from (-1, 0), in either order
    C2 = np.array([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0]], np.float32)
    origin = np.zeros((4, 2), np.float32)
    assert np.all(nearest_rows(origin, C2) == 0)
    assert np.all(nearest_rows(origin, C2[::-1].copy()) == 1)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_landmark_selection_holds_no_n_by_d_temporary():
    Y = np.random.default_rng(4).normal(size=(20_000, 64))
    # the row norms are summed a block of rows at a time, not from Y * Y,
    # and a float64 Y is narrowed a batch at a time
    assert traced_peak(minibatch_kmeans, Y, 50, SeedStream(2)) < 0.5 * Y.nbytes
    # nor does either stage hold a float64 copy of a float32 code, which
    # alone would take 2 * Y32.nbytes; the affinity's O(n * r) arrays, its
    # one 20 000 x 10 distance block and that block's narrowed float32
    # rows take about 1.5 * Y32.nbytes here
    Y32 = Y.astype(np.float32)
    assert traced_peak(minibatch_kmeans, Y32, 50, SeedStream(2)) < 0.5 * Y32.nbytes
    lm = minibatch_kmeans(Y32, 10, SeedStream(2))
    for metric in (EUCLIDEAN, COSINE, MINKOWSKI3):
        assert traced_peak(build_affinity, Y32, lm, AffinityParams(3, metric)) < 2 * Y32.nbytes
