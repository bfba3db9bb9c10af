"""The top-k eigensolve against a full-spectrum oracle, and its failure modes.

``top_eigenvectors``'s dense backend asks LAPACK for the top ``k`` pairs
only. These tests hold it to ``np.linalg.eigh`` over the whole spectrum:
eigenvalues to 1e-12, eigenvectors up to sign (or, inside a repeated
eigenvalue, the spanned subspace), and identical end-to-end labels.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.spectral.eigen as eigen_mod
import repro.spectral.embedding as embedding_mod
from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.data import make_blobs
from repro.observability import Tracer, use_tracer
from repro.spectral import normalized_laplacian, top_eigenvectors


def full_eigh_top(L, k, *, backend="dense", seed=0):
    """Oracle: every eigenpair from ``np.linalg.eigh``, the ``k`` largest kept."""
    dense = L.toarray() if sp.issparse(L) else np.asarray(L, dtype=np.float64)
    vals, vecs = np.linalg.eigh(dense)
    order = np.argsort(vals)[::-1][: min(k, dense.shape[0])]
    return vals[order], vecs[:, order]


def random_affinity(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0, 1, (n, n))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 0.0)
    return S


def assert_matches_oracle(L, k):
    vals, vecs = top_eigenvectors(L, k)
    ref_vals, ref_vecs = full_eigh_top(L, k)
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-12)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose(np.abs(vecs.T @ ref_vecs), np.eye(len(vals)), rtol=0, atol=1e-8)


class TestAgainstFullSolve:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_normalized_affinity(self, seed, k):
        assert_matches_oracle(normalized_laplacian(random_affinity(seed, 40)), k)

    def test_k_equals_n(self):
        assert_matches_oracle(normalized_laplacian(random_affinity(1, 7)), 7)

    def test_k_above_n_is_clipped(self):
        vals, vecs = top_eigenvectors(normalized_laplacian(random_affinity(2, 5)), 12)
        assert vals.shape == (5,) and vecs.shape == (5, 5)

    def test_n_equals_one(self):
        vals, vecs = top_eigenvectors(np.array([[0.25]]), 3)
        assert vals.tolist() == [0.25]
        assert np.abs(vecs).tolist() == [[1.0]]

    @pytest.mark.parametrize("k", [1, 2])
    def test_n_equals_two(self, k):
        assert_matches_oracle(np.array([[0.0, 0.6], [0.6, 0.2]]), k)

    @pytest.mark.parametrize("backend", ["dense", "lanczos", "arpack"])
    def test_sparse_input(self, backend):
        S = sp.random(60, 60, density=0.2, random_state=3, format="csr")
        L = normalized_laplacian(((S + S.T) / 2).tocsr())
        if backend == "dense":
            assert_matches_oracle(L, 3)
        else:
            vals, _ = top_eigenvectors(L, 3, backend=backend, seed=0)
            np.testing.assert_allclose(vals, full_eigh_top(L, 3)[0], rtol=0, atol=1e-8)

    def test_repeated_top_eigenvalue_inside_k(self):
        # Three disconnected cliques of different sizes: eigenvalue 1 with
        # multiplicity 3, then the distinct largest non-trivial eigenvalue.
        # With k = 4 the repeated eigenvalue sits inside the top k, where
        # eigenvectors are not unique; the spanned subspaces must agree.
        rng = np.random.default_rng(5)
        sizes = [6, 9, 12]
        S = np.zeros((sum(sizes), sum(sizes)))
        start = 0
        for m in sizes:
            block = rng.uniform(0.2, 1.0, (m, m))
            S[start : start + m, start : start + m] = (block + block.T) / 2
            start += m
        np.fill_diagonal(S, 0.0)
        L = normalized_laplacian(S)
        vals, vecs = top_eigenvectors(L, 4)
        ref_vals, ref_vecs = full_eigh_top(L, 4)
        np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vals[:3], 1.0, rtol=0, atol=1e-12)
        assert vals[3] < 1.0 - 1e-3
        np.testing.assert_allclose(vecs @ vecs.T, ref_vecs @ ref_vecs.T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), rtol=0, atol=1e-12)
        np.testing.assert_allclose(abs(vecs[:, 3] @ ref_vecs[:, 3]), 1.0, rtol=0, atol=1e-8)


class TestNonFiniteInput:
    """A NaN or infinite entry is a ``ValueError`` on every backend, never a
    silent NaN eigenpair (the full ``np.linalg.eigh`` returned NaN)."""

    @pytest.mark.parametrize("backend", ["dense", "lanczos", "arpack"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dense_matrix(self, backend, bad):
        L = normalized_laplacian(random_affinity(0, 12))
        L[3, 4] = L[4, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            top_eigenvectors(L, 2, backend=backend)

    @pytest.mark.parametrize("backend", ["dense", "lanczos", "arpack"])
    def test_sparse_matrix(self, backend):
        L = sp.csr_matrix(normalized_laplacian(random_affinity(0, 12)))
        L.data[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            top_eigenvectors(L, 2, backend=backend)


class TestLanczosFallback:
    """When Lanczos cannot deliver ``k`` finite pairs the dense solve takes
    over, and says so with an ``eigen.fallback`` event and counter."""

    @staticmethod
    def _lanczos_exception(matvec, n, k, **kw):
        raise RuntimeError("tridiagonal QL hit its sweep cap")

    @staticmethod
    def _lanczos_short(matvec, n, k, **kw):
        return np.ones(k - 1), np.zeros((n, k - 1))

    @staticmethod
    def _lanczos_non_finite(matvec, n, k, **kw):
        vals = np.ones(k)
        vals[0] = np.nan
        return vals, np.zeros((n, k))

    @pytest.mark.parametrize("reason", ["exception", "short", "non_finite"])
    def test_each_reason_is_traced_and_counted(self, monkeypatch, reason):
        monkeypatch.setattr(eigen_mod, "lanczos_top_eigenpairs", getattr(self, f"_lanczos_{reason}"))
        L = normalized_laplacian(random_affinity(4, 20))
        tracer = Tracer()
        with use_tracer(tracer):
            vals, vecs = top_eigenvectors(L, 3, backend="lanczos", seed=0)
        events = [r for r in tracer.sink.records if r.get("name") == "eigen.fallback"]
        assert [e["attributes"] for e in events] == [{"n": 20, "k": 3, "reason": reason}]
        assert tracer.metrics.counter("eigen.fallbacks").value == 1
        dense_vals, dense_vecs = top_eigenvectors(L, 3, backend="dense")
        assert np.array_equal(vals, dense_vals) and np.array_equal(vecs, dense_vecs)

    def test_converged_lanczos_emits_nothing(self):
        L = normalized_laplacian(random_affinity(4, 20))
        tracer = Tracer()
        with use_tracer(tracer):
            top_eigenvectors(L, 3, backend="lanczos", seed=0)
        assert not [r for r in tracer.sink.records if r.get("name") == "eigen.fallback"]
        assert tracer.metrics.counter("eigen.fallbacks").value == 0


class TestEndToEndLabels:
    @pytest.mark.parametrize("data_plane", ["batched", "record"])
    def test_fine_bucket_run_matches_full_solve(self, monkeypatch, data_plane):
        # Many small buckets, most with k_i >= 2, through both stage-2
        # reducers. Serial execution, so the patched oracle runs in-process.
        X, _ = make_blobs(1500, n_clusters=24, n_features=8, cluster_std=0.02, seed=7)

        def run():
            config = DASCConfig(n_clusters=48, n_bits=8, min_shared_bits=8, seed=3)
            dasc = DistributedDASC(n_nodes=4, config=config, n_jobs=1, data_plane=data_plane)
            return dasc.run(X).labels

        top_k = run()
        monkeypatch.setattr(embedding_mod, "top_eigenvectors", full_eigh_top)
        oracle = run()
        assert len(np.unique(top_k)) > 24
        assert np.array_equal(top_k, oracle)
