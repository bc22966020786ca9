"""Landmark selection: fixed points, blob recovery, objective quality."""

import itertools
import tracemalloc

import numpy as np
import pytest

from snapclust.affinity import AffinityParams, build_affinity
from snapclust.distances import _CHUNK_ENTRIES, COSINE, EUCLIDEAN, MINKOWSKI3
from snapclust.errors import ConfigError, DataError
from snapclust.landmarks import LandmarkSet, minibatch_kmeans
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


def test_empty_batches_rejected():
    Y = np.random.default_rng(3).normal(size=(50, 2))
    with pytest.raises(ConfigError, match="batch_size"):
        minibatch_kmeans(Y, 5, SeedStream(0), batch_size=0)


def test_zero_batch_count_rejected():
    # no batch would run, and every center would come back unreached
    Y = np.random.default_rng(3).normal(size=(50, 2))
    with pytest.raises(ConfigError, match="max_iters"):
        minibatch_kmeans(Y, 5, SeedStream(0), max_iters=0)


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
