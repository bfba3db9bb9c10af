"""K-means clustering (Lloyd's algorithm with k-means++ seeding), from scratch.

The final step of the NJW pipeline (Hartigan & Wong reference in the paper).
Fully vectorized: the assignment step is one pairwise-distance computation,
the update step one segmented mean. Empty clusters are re-seeded on the
point farthest from its centroid, so the algorithm always returns exactly
``n_clusters`` non-empty clusters when ``n >= n_clusters`` distinct points
exist.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.matrix import _row_sq_norms, _sq_distances, pairwise_sq_distances
from repro.utils.rng import as_rng
from repro.utils.validation import check_2d

__all__ = ["kmeans_plus_plus_init", "KMeans"]


def kmeans_plus_plus_init(X: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: centers drawn with probability ∝ squared distance."""
    X = check_2d(X)
    n = X.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    x_sq = _row_sq_norms(X)
    centers = np.empty((n_clusters, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest_sq = _sq_distances(X, x_sq, centers[:1]).ravel()
    for c in range(1, n_clusters):
        total = closest_sq.sum()
        if total == 0:
            # All points coincide with chosen centers; fill with random picks.
            centers[c:] = X[rng.integers(n, size=n_clusters - c)]
            break
        probs = closest_sq / total
        idx = int(rng.choice(n, p=probs))
        centers[c] = X[idx]
        closest_sq = np.minimum(closest_sq, _sq_distances(X, x_sq, centers[c : c + 1]).ravel())
    return centers


class KMeans:
    """Lloyd's algorithm with k-means++ restarts.

    Parameters
    ----------
    n_clusters:
        Number of clusters K.
    n_init:
        Independent restarts; the lowest-inertia run wins.
    max_iter:
        Lloyd iterations per restart.
    tol:
        Relative center-shift convergence tolerance.
    seed:
        Randomness for seeding.

    Attributes (after :meth:`fit`)
    ------------------------------
    cluster_centers_ : (K, d) final centroids
    labels_ : (n,) assignment of the training data
    inertia_ : float, sum of squared distances to assigned centroids
    n_iter_ : iterations used by the winning restart
    """

    def __init__(self, n_clusters: int, *, n_init: int = 4, max_iter: int = 100, tol: float = 1e-6, seed=None):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.seed = seed
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int | None = None

    def fit(self, X) -> "KMeans":
        """Cluster ``X``; keeps the best of ``n_init`` restarts."""
        X = check_2d(X)
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_samples={X.shape[0]} < n_clusters={self.n_clusters}"
            )
        rng = as_rng(self.seed)
        best = None
        for _ in range(self.n_init):
            centers, labels, inertia, n_iter = self._lloyd(X, rng)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia, n_iter)
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the training labels."""
        return self.fit(X).labels_

    def predict(self, X) -> np.ndarray:
        """Assign new points to the fitted centroids."""
        if self.cluster_centers_ is None:
            raise RuntimeError("KMeans is not fitted; call fit() first")
        X = check_2d(X)
        return np.argmin(pairwise_sq_distances(X, self.cluster_centers_), axis=1)

    # -- internals ----------------------------------------------------------

    def _lloyd(self, X: np.ndarray, rng: np.random.Generator):
        # X was checked by fit() and the centres are rows of X or means of
        # them, so the loop measures distances without re-validating.
        centers = kmeans_plus_plus_init(X, self.n_clusters, rng)
        x_sq = _row_sq_norms(X)
        labels = np.zeros(X.shape[0], dtype=np.int64)
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            d2 = _sq_distances(X, x_sq, centers)
            labels = np.argmin(d2, axis=1)
            new_centers = centers.copy()
            counts = np.bincount(labels, minlength=self.n_clusters)
            # One buffered bincount per column adds each cluster's rows in
            # index order, the same order as the unbuffered np.add.at.
            sums = np.empty_like(centers)
            for j in range(X.shape[1]):
                sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=self.n_clusters)
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            # Re-seed empty clusters on the worst-served points. The
            # distance-to-assigned-center vector is masked after every pick:
            # argmax over the same stale vector would hand two empty
            # clusters the *same* point (the second overwriting the first's
            # label and leaving a cluster empty after all).
            empty = np.nonzero(~nonempty)[0]
            if empty.size:
                farthest = d2[np.arange(X.shape[0]), labels].astype(np.float64)
                for c in empty:
                    worst = int(np.argmax(farthest))
                    new_centers[c] = X[worst]
                    labels[worst] = c
                    farthest[worst] = -np.inf
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            scale = np.linalg.norm(centers) or 1.0
            if shift / scale < self.tol:
                break
        d2 = _sq_distances(X, x_sq, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(X.shape[0]), labels].sum())
        return centers, labels, inertia, n_iter
