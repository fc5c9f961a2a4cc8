"""Dense real linear algebra over plain and weighted inner-product spaces.

Everything in this package reduces to small dense problems (n below ~1000).
The one decomposition is LAPACK's symmetric eigensolver, through
``numpy.linalg``: :func:`eigh_symmetric` factors each system once and every
solve is a spectral filter of that factor.  Norm measurement takes no SVD:
:func:`spectral_norm` is one ``eigvalsh`` of the matrix or of its smaller
Gram matrix.  The functions here add the contracts the rest of the package
relies on: validated input, non-increasing ordering, and
:class:`NumericalError` for matrices that break their preconditions.

A :class:`WeightedSpace` carries the inner product of the discrete data
space: a diagonal metric of quadrature weights, or a dense SPD Gram matrix
when the basis is not orthogonal.  Systems are symmetrized through
``M^(1/2) A M^(-1/2)`` so that the numerical spectrum is the spectrum of the
operator in that inner product.
"""

from __future__ import annotations

import numpy as np

from .validation import as_matrix, as_vector

__all__ = [
    "NumericalError",
    "WeightedSpace",
    "eigh_symmetric",
    "spectral_norm",
]


class NumericalError(RuntimeError):
    """A matrix violated its contract (asymmetry, indefiniteness, zero operator)."""


# ---------------------------------------------------------------------------
# Inner-product spaces


class WeightedSpace:
    """Finite-dimensional real inner-product space ``<u, v> = u^T M v``.

    Parameters
    ----------
    weights : array_like, optional
        Strictly positive diagonal metric (quadrature weights).
    matrix : array_like, optional
        Dense symmetric positive definite Gram metric, for bases that are
        not orthogonal.  Exactly one of ``weights``/``matrix`` must be given.

    The square-root factors are computed eagerly so instances are immutable
    after construction and safe for concurrent reads; the arrays a Gram
    metric owns are read-only, so one instance can be shared.
    """

    def __init__(self, weights=None, matrix=None):
        if (weights is None) == (matrix is None):
            raise ValueError("provide exactly one of weights= or matrix=")
        if weights is not None:
            w = as_vector(weights, "weights")
            if w.size == 0 or np.any(w <= 0.0):
                raise ValueError("weights must be strictly positive")
            self.weights = w
            self.matrix = None
            self._sqrt = np.sqrt(w)
            self._isqrt = 1.0 / self._sqrt
            self.dim = w.size
        else:
            m = as_matrix(matrix, "metric")
            if m.shape[0] != m.shape[1]:
                raise ValueError("metric matrix must be square")
            if np.max(np.abs(m - m.T)) > 1e-12 * (1.0 + np.max(np.abs(m))):
                raise ValueError("metric matrix must be symmetric")
            vals, vecs = eigh_symmetric(0.5 * (m + m.T))
            if vals[-1] <= 1e-14 * vals[0]:
                raise ValueError("metric matrix must be positive definite")
            self.weights = None
            self.matrix = 0.5 * (m + m.T)
            self._sqrt = (vecs * np.sqrt(vals)) @ vecs.T
            self._isqrt = (vecs / np.sqrt(vals)) @ vecs.T
            for owned in (self.matrix, self._sqrt, self._isqrt):
                owned.flags.writeable = False
            self.dim = m.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.weights is not None

    def apply_metric(self, v: np.ndarray) -> np.ndarray:
        """Return ``M v``."""
        if self.is_diagonal:
            return self.weights * v
        return self.matrix @ v

    def metric_dense(self) -> np.ndarray:
        if self.is_diagonal:
            return np.diag(self.weights)
        return self.matrix.copy()

    def inner(self, u, v) -> float:
        u = as_vector(u, "u")
        v = as_vector(v, "v")
        return float(u @ self.apply_metric(v))

    def norm(self, v) -> float:
        v = as_vector(v, "v")
        return float(np.sqrt(max(v @ self.apply_metric(v), 0.0)))

    def sqrt_apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``M^(1/2) v`` (columns of a matrix are handled too)."""
        if self.is_diagonal:
            return (self._sqrt * v.T).T
        return self._sqrt @ v

    def isqrt_apply(self, v: np.ndarray) -> np.ndarray:
        if self.is_diagonal:
            return (self._isqrt * v.T).T
        return self._isqrt @ v

    def symmetrize(self, a: np.ndarray) -> np.ndarray:
        """Return ``M^(1/2) A M^(-1/2)``, symmetric when A is self-adjoint."""
        a = as_matrix(a, "A")
        if self.is_diagonal:
            return (self._sqrt[:, None] * a) * self._isqrt[None, :]
        return self._sqrt @ a @ self._isqrt

    def __repr__(self):  # pragma: no cover
        kind = "diag" if self.is_diagonal else "gram"
        return f"WeightedSpace(dim={self.dim}, kind={kind})"


# ---------------------------------------------------------------------------
# Decompositions


def eigh_symmetric(a):
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Returns ``(values, vectors)`` with eigenvalues sorted non-increasing
    (signed) and eigenvectors column-wise; ``A = vectors @ diag(values)
    @ vectors.T``.
    """
    a = as_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigh_symmetric expects a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-10 * (1.0 + np.max(np.abs(a))):
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def spectral_norm(a) -> float:
    """Largest singular value of ``A``, from one ``eigvalsh`` and no SVD.

    Exactly symmetric input takes the largest eigenvalue modulus; anything
    else the square root of the largest eigenvalue of its smaller Gram
    matrix (``A^T A`` or ``A A^T``, which BLAS forms exactly symmetric).
    Either way the result is accurate to a few units of rounding relative
    to the norm itself.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    a = as_matrix(a, "A")
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))

