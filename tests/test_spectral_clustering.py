"""Tests for embedding, K-means, and the exact SpectralClustering estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral import KMeans, SpectralClustering, kmeans_plus_plus_init, row_normalize, spectral_embedding
from repro.kernels import GaussianKernel
from repro.metrics import clustering_accuracy


class TestRowNormalize:
    def test_unit_rows(self, rng):
        Y = row_normalize(rng.standard_normal((20, 4)))
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        Y = row_normalize(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.allclose(Y[0], 0.0)
        assert np.allclose(Y[1], [0.6, 0.8])


class TestSpectralEmbedding:
    def test_block_diagonal_affinity_separates(self):
        # Two disconnected cliques: embedding rows within a clique coincide.
        S = np.zeros((6, 6))
        S[:3, :3] = 1.0
        S[3:, 3:] = 1.0
        np.fill_diagonal(S, 0.0)
        Y = spectral_embedding(S, 2)
        within_a = np.linalg.norm(Y[0] - Y[1])
        across = np.linalg.norm(Y[0] - Y[4])
        assert within_a < 1e-8
        assert across > 0.5

    def test_shape(self, rng):
        S = rng.uniform(0, 1, (10, 10))
        S = (S + S.T) / 2
        assert spectral_embedding(S, 3).shape == (10, 3)


class TestKMeansPlusPlus:
    def test_centers_are_data_points(self, rng):
        X = rng.uniform(0, 1, (30, 3))
        centers = kmeans_plus_plus_init(X, 5, rng)
        for c in centers:
            assert any(np.allclose(c, x) for x in X)

    def test_spreads_over_separated_clusters(self, blobs_small, rng):
        X, y = blobs_small
        centers = kmeans_plus_plus_init(X, 4, rng)
        # Each chosen center should be near a distinct true cluster.
        from repro.kernels.matrix import pairwise_sq_distances
        d2 = pairwise_sq_distances(centers, centers)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() > 0.01  # no two centers from the same tight blob

    def test_duplicate_points_handled(self):
        X = np.ones((10, 2))
        centers = kmeans_plus_plus_init(X, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.ones((3, 2)), 4, rng)


class TestKMeans:
    def test_recovers_separated_blobs(self, blobs_small):
        X, y = blobs_small
        labels = KMeans(4, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.99

    def test_exact_cluster_count(self, blobs_small):
        X, _ = blobs_small
        labels = KMeans(4, seed=1).fit_predict(X)
        assert len(np.unique(labels)) == 4

    def test_inertia_consistent_with_labels(self, blobs_small):
        X, _ = blobs_small
        km = KMeans(4, seed=2).fit(X)
        manual = sum(
            ((X[km.labels_ == c] - km.cluster_centers_[c]) ** 2).sum() for c in range(4)
        )
        assert km.inertia_ == pytest.approx(manual)

    def test_more_restarts_never_worse(self, rng):
        X = rng.uniform(0, 1, (120, 6))
        one = KMeans(6, n_init=1, seed=5).fit(X).inertia_
        many = KMeans(6, n_init=8, seed=5).fit(X).inertia_
        assert many <= one + 1e-9

    def test_predict_matches_fit_labels(self, blobs_small):
        X, _ = blobs_small
        km = KMeans(4, seed=3).fit(X)
        assert np.array_equal(km.predict(X), km.labels_)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.ones((3, 2)))

    def test_two_simultaneous_empty_clusters_reseed_distinct_points(self, monkeypatch):
        # Regression: when >=2 clusters go empty in the same Lloyd iteration,
        # each must be re-seeded on a *different* worst-served point. The old
        # code took argmax over the same stale distance vector for every
        # empty cluster, handing them all the same point — the later writes
        # overwrote the earlier labels and a cluster stayed empty.
        import repro.spectral.kmeans as km_mod

        X = np.array(
            [[0.0, 0.0], [0.0, 1.0], [100.0, 100.0], [101.0, 100.0], [50.0, 0.0], [0.0, 50.0]]
        )
        # Crafted init: clusters 2 and 3 are far from every point, so both
        # are empty after the first assignment step; the two worst-served
        # points ([50,0] and [0,50]) are the distinct re-seed targets.
        crafted = np.array([[0.0, 0.5], [100.5, 100.0], [-1000.0, 0.0], [0.0, -1000.0]])
        monkeypatch.setattr(
            km_mod, "kmeans_plus_plus_init", lambda X_, k, rng: crafted.copy()
        )
        km = KMeans(4, n_init=1, max_iter=1, seed=0).fit(X)
        assert len(np.unique(km.labels_)) == 4

    def test_k_equals_n(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        labels = KMeans(4, seed=0).fit_predict(X)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            KMeans(5).fit(np.ones((3, 2)))

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_labels_always_in_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (40, 3))
        k = int(rng.integers(1, 6))
        labels = KMeans(k, seed=seed, n_init=1, max_iter=20).fit_predict(X)
        assert labels.min() >= 0 and labels.max() < k
        assert labels.shape == (40,)

    def test_seed_reproducibility(self, blobs_small):
        X, _ = blobs_small
        a = KMeans(4, seed=9).fit_predict(X)
        b = KMeans(4, seed=9).fit_predict(X)
        assert np.array_equal(a, b)


class TestSpectralClustering:
    def test_recovers_blobs(self, blobs_small):
        X, y = blobs_small
        labels = SpectralClustering(4, sigma=0.3, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.99

    def test_memory_accounting_is_full_matrix(self, blobs_small):
        X, _ = blobs_small
        sc = SpectralClustering(4, sigma=0.3, seed=0).fit(X)
        assert sc.memory_.total == 4 * X.shape[0] ** 2

    def test_stage_times_recorded(self, blobs_small):
        X, _ = blobs_small
        sc = SpectralClustering(4, sigma=0.3, seed=0).fit(X)
        assert {"gram", "eigen", "kmeans"} <= set(sc.stopwatch_.laps)

    def test_custom_kernel(self, blobs_small):
        X, y = blobs_small
        labels = SpectralClustering(4, kernel=GaussianKernel(0.3), seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.99

    @pytest.mark.parametrize("backend", ["dense", "lanczos", "arpack"])
    def test_eig_backends_all_work(self, blobs_small, backend):
        X, y = blobs_small
        labels = SpectralClustering(4, sigma=0.3, eig_backend=backend, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.95

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            SpectralClustering(5).fit(np.ones((3, 2)))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SpectralClustering(0)


# -- reference Lloyd loop ------------------------------------------------------
# The k-means++ seeding and Lloyd loop as they were written with the
# validating ``pairwise_sq_distances`` and the unbuffered ``np.add.at``.
# ``KMeans`` must reproduce them bit for bit: its loop adds the same numbers
# in the same order, only without re-validating or re-computing row norms.


def _reference_kmeans_pp(X, n_clusters, rng):
    from repro.kernels.matrix import pairwise_sq_distances

    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest_sq = pairwise_sq_distances(X, centers[:1]).ravel()
    for c in range(1, n_clusters):
        total = closest_sq.sum()
        if total == 0:
            centers[c:] = X[rng.integers(n, size=n_clusters - c)]
            break
        idx = int(rng.choice(n, p=closest_sq / total))
        centers[c] = X[idx]
        closest_sq = np.minimum(closest_sq, pairwise_sq_distances(X, centers[c : c + 1]).ravel())
    return centers


def _reference_lloyd(X, n_clusters, max_iter, tol, rng):
    from repro.kernels.matrix import pairwise_sq_distances

    centers = _reference_kmeans_pp(X, n_clusters, rng)
    n_iter, reseeded = 0, False
    for n_iter in range(1, max_iter + 1):
        d2 = pairwise_sq_distances(X, centers)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=n_clusters)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, X)
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.nonzero(~nonempty)[0]
        if empty.size:
            reseeded = True
            farthest = d2[np.arange(X.shape[0]), labels].astype(np.float64)
            for c in empty:
                worst = int(np.argmax(farthest))
                new_centers[c] = X[worst]
                labels[worst] = c
                farthest[worst] = -np.inf
        shift = np.linalg.norm(new_centers - centers)
        centers = new_centers
        if shift / (np.linalg.norm(centers) or 1.0) < tol:
            break
    d2 = pairwise_sq_distances(X, centers)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(X.shape[0]), labels].sum())
    return centers, labels, inertia, n_iter, reseeded


def _reference_kmeans(X, n_clusters, *, n_init, max_iter, tol, seed):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        run = _reference_lloyd(X, n_clusters, max_iter, tol, rng)
        if best is None or run[2] < best[2]:
            best = run
    return best


def _assert_kmeans_equals_reference(X, k, n_init, seed):
    km = KMeans(k, n_init=n_init, max_iter=30, seed=seed).fit(X)
    centers, labels, inertia, n_iter, reseeded = _reference_kmeans(
        X, k, n_init=n_init, max_iter=30, tol=km.tol, seed=seed
    )
    assert np.array_equal(km.cluster_centers_, centers)
    assert np.array_equal(km.labels_, labels)
    assert km.inertia_ == inertia
    assert km.n_iter_ == n_iter
    return reseeded


@st.composite
def _kmeans_cases(draw):
    """Rows drawn with repetition from a pool of distinct points. A pool
    smaller than K leaves k-means++ short of distinct centres, so clusters
    go empty and are re-seeded (about a fifth of the cases)."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(st.floats(-2, 2), min_size=d, max_size=d),
                         min_size=1, max_size=n, unique_by=tuple))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    X = np.array([pool[i] for i in picks])
    return X, draw(st.integers(1, min(n, 7))), draw(st.integers(1, 3)), draw(st.integers(0, 2**31 - 1))


class TestKMeansMatchesReferenceLoop:
    @given(_kmeans_cases())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical(self, case):
        _assert_kmeans_equals_reference(*case)

    def test_bit_identical_through_empty_cluster_reseeding(self):
        # Five copies of one point and two of another, K = 4: k-means++
        # runs out of distinct points, so two centres coincide and the
        # clusters left empty are re-seeded.
        X = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 2)
        assert _assert_kmeans_equals_reference(X, 4, 2, 0)

    def test_bit_identical_on_an_embedding(self, blobs_small):
        X, _ = blobs_small
        Y = spectral_embedding(GaussianKernel(0.5)(X), 4, seed=0)
        _assert_kmeans_equals_reference(Y, 4, 4, 11)
