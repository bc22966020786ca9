"""KMeans: seeding, Lloyd convergence, brute-force optimality on tiny instances."""

import importlib
import itertools

import numpy as np
import pytest

from snapclust.distances import _CHUNK_ENTRIES
from snapclust.errors import ConfigError, DataError
from snapclust.kmeans import (
    DEFAULT_RESTARTS,
    SAMPLE_ROWS,
    Partition,
    kmeans,
    kmeans_pp_init,
    lloyd,
)
from snapclust.rng import STAGE_RESTART, STAGE_SAMPLE, SeedStream

# the package exports the function kmeans under the module's name
kmeans_module = importlib.import_module("snapclust.kmeans")


def brute_force_inertia(X, k):
    """Exhaustive minimum over all k^n assignments (empty clusters allowed)."""
    n = X.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        a = np.array(assign)
        total = 0.0
        for c in range(k):
            pts = X[a == c]
            if len(pts):
                total += float(((pts - pts.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


def test_partition_validation():
    Partition(np.array([0, 1, 0]), inertia=1.0, k=2)
    with pytest.raises(DataError):
        Partition(np.array([0, 2]), inertia=1.0, k=2)  # label out of range
    with pytest.raises(DataError):
        Partition(np.array([0, 1]), inertia=-1.0, k=2)  # negative inertia


def test_pp_init_k1_is_uniform_point():
    X = np.arange(10, dtype=np.float64).reshape(10, 1)
    centers = kmeans_pp_init(X, 1, SeedStream(0).generator())
    assert centers.shape == (1, 1)
    assert centers[0, 0] in X[:, 0]


def test_pp_init_k_distinct_values():
    # duplicate-heavy data with exactly k distinct points: zero-distance mass
    # forces every later center onto a new distinct value
    X = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [9.0]])
    centers = kmeans_pp_init(X, 3, SeedStream(1).generator())
    assert sorted(centers[:, 0].tolist()) == [0.0, 5.0, 9.0]


def test_pp_init_fewer_distinct_than_k():
    X = np.zeros((5, 2))
    with pytest.raises(DataError):
        kmeans_pp_init(X, 2, SeedStream(0).generator())


def test_pp_init_golden_sequence():
    # frozen seeded draw on a fixed 10-point set; guards the seeding protocol
    X = np.arange(20, dtype=np.float64).reshape(10, 2)
    c1 = kmeans_pp_init(X, 4, SeedStream(123).generator())
    c2 = kmeans_pp_init(X, 4, SeedStream(123).generator())
    assert np.array_equal(c1, c2)
    rows = [int(np.nonzero((X == c).all(axis=1))[0][0]) for c in c1]
    assert len(set(rows)) == 4  # distinct data points chosen


def test_lloyd_monotone_inertia():
    gen = np.random.default_rng(2)
    for _ in range(20):
        X = gen.normal(size=(30, 3))
        init = kmeans_pp_init(X, 4, SeedStream(int(gen.integers(1 << 30))).generator())
        _, _, history = lloyd(X, init)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_lloyd_empty_cluster_repair():
    # both centers start on the same point; repair must keep k clusters
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels, inertia, _ = lloyd(X, np.array([[0.0], [0.0]]))
    assert len(np.unique(labels)) == 2
    assert inertia == pytest.approx(0.01)


def test_kmeans_k_equals_n():
    X = np.random.default_rng(3).normal(size=(6, 2))
    part = kmeans(X, 6, SeedStream(0))
    assert part.inertia == pytest.approx(0.0, abs=1e-12)
    assert len(np.unique(part.labels)) == 6


def test_kmeans_splits_separated_line():
    gen = np.random.default_rng(4)
    X = np.concatenate([gen.normal(-10, 0.01, 20), gen.normal(10, 0.01, 20)]).reshape(-1, 1)
    part = kmeans(X, 2, SeedStream(1))
    left = part.labels[:20]
    right = part.labels[20:]
    assert len(np.unique(left)) == 1
    assert len(np.unique(right)) == 1
    assert left[0] != right[0]


def test_kmeans_k_exceeds_n():
    with pytest.raises(ConfigError):
        kmeans(np.zeros((3, 1)), 4, SeedStream(0))


def test_kmeans_rejects_zero_lloyd_iterations():
    X = np.random.default_rng(3).normal(size=(20, 2))
    with pytest.raises(ConfigError, match="max_iters"):
        kmeans(X, 3, SeedStream(0), max_iters=0)


def test_kmeans_rejects_nonfinite():
    X = np.array([[0.0], [np.nan]])
    with pytest.raises(DataError):
        kmeans(X, 1, SeedStream(0))


def test_kmeans_deterministic():
    X = np.random.default_rng(5).normal(size=(40, 3))
    p1 = kmeans(X, 4, SeedStream(42))
    p2 = kmeans(X, 4, SeedStream(42))
    assert np.array_equal(p1.labels, p2.labels)
    assert p1.inertia == p2.inertia


def test_kmeans_matches_brute_force():
    gen = np.random.default_rng(6)
    for inst in range(8):
        X = gen.normal(size=(8, 2))
        part = kmeans(X, 3, SeedStream(inst))
        best = brute_force_inertia(X, 3)
        assert part.inertia == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_kmeans_sign_flip_invariance():
    # flipping the sign of an embedding column cannot change the geometry
    X = np.random.default_rng(7).normal(size=(30, 3))
    p1 = kmeans(X, 3, SeedStream(9))
    Xf = X.copy()
    Xf[:, 1] *= -1.0
    p2 = kmeans(Xf, 3, SeedStream(9))
    assert p1.inertia == pytest.approx(p2.inertia, rel=1e-9)


def test_kmeans_restart_count_improves_or_ties():
    X = np.random.default_rng(8).normal(size=(50, 2))
    worst = kmeans(X, 5, SeedStream(1), restarts=1)
    best = kmeans(X, 5, SeedStream(1), restarts=10)
    assert best.inertia <= worst.inertia + 1e-12


def test_kmeans_keeps_every_restart_inertia_and_iterations():
    X = np.random.default_rng(9).normal(size=(60, 2))
    part = kmeans(X, 4, SeedStream(2), restarts=5)
    assert len(part.restarts) == 5
    assert min(r["inertia"] for r in part.restarts) == part.inertia
    assert all(1 <= r["lloyd_iters"] <= 300 for r in part.restarts)


def test_kmeans_result_does_not_depend_on_the_restart_order():
    # duplicated blobs give tied inertias: the lowest tied restart must win
    X = np.repeat(np.random.default_rng(10).normal(size=(20, 2)), 2, axis=0)
    rng = SeedStream(4)
    part = kmeans(X, 3, rng, restarts=6)
    tied = [i for i, r in enumerate(part.restarts) if r["inertia"] == part.inertia]
    assert len(tied) >= 2

    def restart(i):
        return lloyd(X, kmeans_pp_init(X, 3, rng.child(STAGE_RESTART, i).generator()))[0]

    assert np.array_equal(part.labels, restart(tied[0]))
    assert not np.array_equal(part.labels, restart(tied[-1]))


def blobs(n, k, seed):
    gen = np.random.default_rng(seed)
    truth = np.arange(n) % k
    return 10.0 * gen.normal(size=(k, 4))[truth] + gen.normal(size=(n, 4)), truth


def test_sampled_restarts_are_deterministic():
    X, _ = blobs(3 * SAMPLE_ROWS, 5, 15)
    p1 = kmeans(X, 5, SeedStream(7))
    p2 = kmeans(X, 5, SeedStream(7))
    assert p1.sample["rows"] == SAMPLE_ROWS
    assert np.array_equal(p1.labels, p2.labels)
    assert p1.inertia == p2.inertia
    assert p1.restarts == p2.restarts and p1.sample == p2.sample


def test_sampled_restarts_recover_blobs_as_the_full_path_does(monkeypatch):
    X, truth = blobs(3 * SAMPLE_ROWS, 5, 16)
    sampled = kmeans(X, 5, SeedStream(8))
    monkeypatch.setattr(kmeans_module, "SAMPLE_ROWS", X.shape[0])
    full = kmeans(X, 5, SeedStream(8))
    assert sampled.sample and not full.sample
    for part in (sampled, full):
        # each true blob is one cluster, whatever its label
        pairs = set(zip(truth.tolist(), part.labels.tolist()))
        assert len(pairs) == len({label for _, label in pairs}) == 5
    assert sampled.inertia == pytest.approx(full.inertia, rel=1e-12)


def test_sampled_restarts_log_the_sample_and_the_full_lloyd():
    X, _ = blobs(3 * SAMPLE_ROWS, 5, 17)
    rng = SeedStream(9)
    part = kmeans(X, 5, rng)
    # the documented steps: restarts on the seeded sample, whose size lets
    # kmeans run them on every row it is given, then one Lloyd on all rows
    gen = rng.child(STAGE_SAMPLE).generator()
    sample = X[np.sort(gen.choice(X.shape[0], SAMPLE_ROWS, replace=False))]
    on_sample = kmeans(sample, 5, rng)
    assert part.restarts == on_sample.restarts
    assert len(part.restarts) == DEFAULT_RESTARTS
    centers = np.stack([sample[on_sample.labels == c].mean(axis=0) for c in range(5)])
    labels, inertia, history = lloyd(X, centers)
    assert np.array_equal(part.labels, labels)
    assert part.inertia == pytest.approx(inertia, rel=1e-12)
    assert part.sample == {"rows": SAMPLE_ROWS, "lloyd_iters": len(history)}


def test_a_sample_with_fewer_than_k_distinct_rows_falls_back_to_every_row():
    # two lone points among copies of one: a sample of the rows misses one
    X = np.zeros((15 * SAMPLE_ROWS, 2))
    X[[1234, 23456]] = [[5.0, 0.0], [0.0, 5.0]]
    part = kmeans(X, 3, SeedStream(0))
    assert part.sample == {}
    assert part.inertia == 0.0
    assert len(np.unique(part.labels[[0, 1234, 23456]])) == 3


def test_more_clusters_than_the_sample_holds_restart_on_every_row(monkeypatch):
    monkeypatch.setattr(kmeans_module, "SAMPLE_ROWS", 5)
    X = np.random.default_rng(18).normal(size=(40, 2))
    part = kmeans(X, 6, SeedStream(1))
    assert part.sample == {}
    assert len(np.unique(part.labels)) == 6


# --- bit-identity against the buffer-free formulation -----------------------


def oracle_sq_dists(X, C):
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(C * C, axis=1)[None, :]
        - 2.0 * (X @ C.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def oracle_pp_init(X, k, gen):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(gen.integers(n))
    centers[0] = X[first]
    if k == 1:
        return centers
    d2 = oracle_sq_dists(X, centers[:1])[:, 0]
    for i in range(1, k):
        total = float(d2.sum())
        nxt = int(gen.choice(n, p=d2 / total))
        centers[i] = X[nxt]
        d2 = np.minimum(d2, oracle_sq_dists(X, centers[i : i + 1])[:, 0])
    return centers


def oracle_nearest(X, C):
    """(labels, squared distance) of each row of X by the kernel's arithmetic.

    The argmin and minimum of ||c||^2 - 2 x.c, read from fresh products
    of the augmented [X, 1] and [-2 C^T; ||C||^2] on row blocks of
    _CHUNK_ENTRIES // k rows, plus ||x||^2, clamped at 0.
    """
    X1 = np.hstack([X, np.ones((len(X), 1))])
    C1 = np.ascontiguousarray(np.vstack([-2.0 * C.T, np.sum(C * C, axis=1)]))
    step = max(1, _CHUNK_ENTRIES // len(C))
    G = np.concatenate([X1[start : start + step] @ C1 for start in range(0, len(X), step)])
    labels = np.argmin(G, axis=1)
    mind = np.maximum(np.sum(X * X, axis=1) + G[np.arange(len(X)), labels], 0.0)
    return labels, mind


def oracle_lloyd(X, centers, max_iters=300):
    k = centers.shape[0]
    centers = centers.copy()
    prev_labels = None
    labels = None
    inertia = float("inf")
    history = []
    for _ in range(max_iters):
        labels, mind = oracle_nearest(X, centers)
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            taken = set()
            for c in np.nonzero(counts == 0)[0]:
                order = np.argsort(mind, kind="stable")[::-1]
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                centers[c] = X[far]
                labels[far] = c
                mind[far] = 0.0
            counts = np.bincount(labels, minlength=k)
        inertia = float(mind.sum())
        history.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, X)
        centers = sums / counts[:, None]
    return labels, inertia, history


def test_pp_init_bit_identical_to_oracle():
    gen = np.random.default_rng(10)
    cases = [
        (gen.normal(size=(n, d)) * gen.uniform(0.1, 10.0, size=d), k)
        for n, d, k in ((300, 5, 8), (2048, 16, 60), (50, 3, 1))
    ]
    # benchmark-like: ReLU codes, every row twice, so the D^2 weight of each
    # picked row's twin (and of many repeats later) is exactly 0
    codes = np.maximum(gen.normal(size=(2500, 16)), 0.0)
    relu = np.concatenate([codes, codes[::-1]])
    cases.append((relu, 600))
    for X, k in cases:
        for seed in range(3):
            got = kmeans_pp_init(X, k, SeedStream(seed).generator())
            want = oracle_pp_init(X, k, SeedStream(seed).generator())
            assert np.array_equal(got, want)
    assert np.count_nonzero(oracle_sq_dists(relu, got).min(axis=1) == 0.0) >= 600


def test_lloyd_bit_identical_to_oracle():
    gen = np.random.default_rng(11)
    # 7 000 rows at k = 10 make two full 3 276-row blocks and a short one
    for n, d, k in ((400, 6, 10), (1500, 10, 10), (60, 2, 5), (7000, 4, 10)):
        X = gen.normal(size=(n, d)) + gen.integers(0, 4, size=(n, 1))
        init = oracle_pp_init(X, k, SeedStream(n).generator())
        got = lloyd(X, init)
        want = oracle_lloyd(X, init)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]


def test_lloyd_empty_cluster_repair_bit_identical():
    # three of five centers start on one point: two clusters open empty
    gen = np.random.default_rng(12)
    X = gen.normal(size=(80, 3))
    init = X[[0, 0, 0, 7, 9]].copy()
    got = lloyd(X, init)
    want = oracle_lloyd(X, init)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]
    # the repair did run: a plain assignment of the initial centers leaves gaps
    assert np.bincount(np.argmin(oracle_sq_dists(X, init), axis=1), minlength=5).min() == 0


@pytest.mark.parametrize("seed", range(4))
def test_lloyd_repairs_several_empty_clusters_among_ties_like_oracle(seed):
    # grid points repeat, so the farthest-point distances tie; four of seven
    # centers start on one point, leaving at least three clusters empty
    gen = np.random.default_rng(seed)
    X = gen.integers(0, 4, size=(60, 2)).astype(np.float64)
    init = X[[0, 0, 0, 0, 5, 9, 17]].copy()
    counts = np.bincount(np.argmin(oracle_sq_dists(X, init), axis=1), minlength=7)
    assert np.count_nonzero(counts == 0) >= 3
    got = lloyd(X, init)
    want = oracle_lloyd(X, init)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]


def test_float32_points_cluster_as_their_float64_widening():
    # a float32 code reaches the final k-means (dae_kmeans), which widens it
    # exactly, so its labels and inertia are those of the float64 widening
    gen = np.random.default_rng(14)
    X32 = np.maximum(
        np.repeat(4.0 * gen.normal(size=(4, 16)), 250, axis=0) + gen.normal(size=(1000, 16)), 0.0
    ).astype(np.float32)
    got = kmeans(X32, 4, SeedStream(3), restarts=3)
    want = kmeans(X32.astype(np.float64), 4, SeedStream(3), restarts=3)
    assert np.array_equal(got.labels, want.labels)
    assert got.inertia == want.inertia and got.restarts == want.restarts
