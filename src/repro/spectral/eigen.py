"""Unified eigensolver front-end for the spectral pipeline.

Three interchangeable backends compute the ``k`` *largest* eigenpairs of a
symmetric (normalized-affinity) matrix:

* ``"lanczos"`` — the paper's route: from-scratch Lanczos tridiagonalization
  (:mod:`repro.spectral.lanczos`) + implicit-shift QL
  (:mod:`repro.spectral.tridiagonal`), a Ritz-pair extraction.
* ``"dense"`` — LAPACK ``syevr`` (:func:`scipy.linalg.eigh` with an index
  range) computing only the top ``k`` eigenpairs; still exact, and the
  reference the other backends are checked against.
* ``"arpack"`` — :func:`scipy.sparse.linalg.eigsh`, the implicitly restarted
  Lanczos the PSC baseline's PARPACK dependency corresponds to.

Every backend rejects a matrix with a NaN or infinite entry with a
``ValueError``, instead of returning NaN eigenpairs. When the Lanczos
backend cannot deliver ``k`` finite pairs it falls back to ``dense`` and
says so: an ``eigen.fallback`` trace event (``n``, ``k`` and a ``reason``
of ``"exception"``, ``"short"`` or ``"non_finite"``) and one increment of
the ``eigen.fallbacks`` counter.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.observability import get_tracer
from repro.spectral.lanczos import lanczos_top_eigenpairs
from repro.spectral.tridiagonal import tridiagonal_eigh  # noqa: F401 (re-exported)

__all__ = ["top_eigenvectors"]

_BACKENDS = ("dense", "lanczos", "arpack")


def top_eigenvectors(L, k: int, *, backend: str = "dense", seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``k`` largest eigenvalues (descending) and their eigenvectors.

    Parameters
    ----------
    L:
        Symmetric matrix, dense or sparse, with finite entries.
    k:
        Number of eigenpairs; clipped to the matrix dimension.
    backend:
        One of ``"dense"``, ``"lanczos"``, ``"arpack"``.
    seed:
        Start-vector randomness for the iterative backends.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as columns.

    Raises
    ------
    ValueError
        ``L`` is not square, holds a non-finite entry, ``k < 1`` or the
        backend is unknown.
    """
    n = L.shape[0]
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"matrix must be square, got {L.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {_BACKENDS}")
    if not np.isfinite(L.data if sp.issparse(L) else L).all():
        raise ValueError("matrix holds non-finite entries")

    if backend == "arpack" and k < n - 1 and n > 2:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        vals, vecs = spla.eigsh(L, k=k, which="LA", v0=v0)
        order = np.argsort(vals)[::-1]
        return vals[order], vecs[:, order]

    if backend == "lanczos" and n > 2:
        # Restarted Lanczos: handles degenerate eigenvalues (disconnected
        # affinity graphs) by deflated restarts after early breakdowns.
        L = _densify(L)
        try:
            vals, vecs = lanczos_top_eigenpairs(lambda v: L @ v, n, k, seed=seed)
        except (RuntimeError, np.linalg.LinAlgError):
            # Non-convergence, e.g. the tridiagonal QL hit its sweep cap.
            reason = "exception"
        else:
            if vals.shape[0] != k:
                reason = "short"  # Krylov space exhausted early (tiny matrices)
            elif not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
                reason = "non_finite"
            else:
                return vals, vecs
        tracer = get_tracer()
        tracer.event("eigen.fallback", n=n, k=k, reason=reason)
        tracer.metrics.counter("eigen.fallbacks").inc()

    # Dense solve (also the small-n path and the fallback of the iterative
    # backends): LAPACK syevr restricted to the index range of the top k.
    vals, vecs = la.eigh(
        _densify(L), subset_by_index=[n - k, n - 1], driver="evr", check_finite=False
    )
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def _densify(L) -> np.ndarray:
    if sp.issparse(L):
        return L.toarray()
    return np.asarray(L, dtype=np.float64)
