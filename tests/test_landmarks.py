"""Landmark selection: fixed points, blob recovery, objective quality."""

import tracemalloc

import numpy as np
import pytest

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


def oracle_sq_dists(X, C):
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(C * C, axis=1)[None, :]
        - 2.0 * (X @ C.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def oracle_minibatch(Y, p, rng, batch_size, max_iters=100):
    """Buffer-free formulation: fresh distance arrays, np.add.at center sums."""
    n = Y.shape[0]
    init_gen = rng.child(STAGE_INIT).generator()
    subset = init_gen.choice(n, size=min(n, max(10 * p, 2048)), replace=False)
    centers = kmeans_pp_init(Y[subset], p, init_gen)
    counts = np.zeros(p, dtype=np.int64)
    batch_gen = rng.child(STAGE_BATCH).generator()
    bsz = min(batch_size, n)
    for _ in range(max_iters):
        idx = batch_gen.choice(n, size=bsz, replace=False)
        B = Y[idx]
        assign = np.argmin(oracle_sq_dists(B, centers), axis=1)
        batch_counts = np.bincount(assign, minlength=p)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, B)
        touched = batch_counts > 0
        new_total = counts + batch_counts
        centers[touched] = (
            counts[touched, None] * centers[touched] + sums[touched]
        ) / new_total[touched, None]
        counts = new_total
    return centers, int(np.sum(counts == 0))


def test_minibatch_bit_identical_to_oracle():
    gen = np.random.default_rng(7)
    cases = (
        (gen.normal(size=(2000, 16)), 120, 1024),  # benchmark-like shape
        # more centers than batch points: some centers stay empty for many batches
        (gen.normal(size=(600, 4)), 200, 32),
        # two tight blobs: centers barely move after the first batch
        (np.repeat([[0.0, 0.0], [5.0, 5.0]], 200, axis=0) + 1e-9 * gen.normal(size=(400, 2)), 2, 64),
    )
    for Y, p, bsz in cases:
        for seed in (0, 1):
            lm = minibatch_kmeans(Y, p, SeedStream(seed), batch_size=bsz)
            centers, empty = oracle_minibatch(Y, p, SeedStream(seed), bsz)
            assert np.array_equal(lm.centers, centers)
            assert lm.meta["empty"] == empty


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
    reached[np.argmin(oracle_sq_dists(Y[idx], seeds), axis=1)] = True
    assert lm.meta["empty"] == np.count_nonzero(~reached) > 0
    assert np.array_equal(lm.centers[~reached], seeds[~reached])


def test_landmark_selection_holds_no_n_by_d_temporary():
    Y = np.random.default_rng(4).normal(size=(20_000, 64))
    tracemalloc.start()
    try:
        minibatch_kmeans(Y, 50, SeedStream(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row norms are summed a block of rows at a time, not from Y * Y
    assert peak < 0.5 * Y.nbytes
