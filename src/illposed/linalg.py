"""Dense real linear algebra over plain and weighted inner-product spaces.

Everything in this package reduces to small dense problems (n below ~1000).
The one decomposition is LAPACK's symmetric eigensolver, through
``numpy.linalg``: :func:`eigh_symmetric` factors each system once and every
solve is a spectral filter of that factor.  Norm measurement needs one
eigenvalue, not all of them: :func:`symmetric_norm` runs Lanczos on a
symmetric operator given only by its product ``x -> apply(x)``, so a
product of matrices is never formed, and takes the dense ``eigvalsh`` of
``apply(I)`` only when Lanczos does not converge; :func:`spectral_norm`
applies it to an arbitrary matrix.  The functions here add the contracts
the rest of the package relies on: validated input, non-increasing
ordering, and :class:`NumericalError` for matrices that break their
preconditions.

A :class:`WeightedSpace` carries the inner product of the discrete data
space, a diagonal or a dense SPD Gram metric, and is the only code that knows
which.  It applies M, and it factors a system: :meth:`WeightedSpace.eigh`
symmetrizes through ``M^(1/2) A M^(-1/2)``, so that the numerical spectrum is
the spectrum of the operator in that inner product, and returns the
eigenvectors as ``R = M^(-1/2) Q``; a solve then needs M alone, beside the
factor the system stores.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .validation import as_matrix, as_vector

__all__ = [
    "NumericalError",
    "WeightedSpace",
    "eigh_symmetric",
    "spectral_norm",
    "symmetric_norm",
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

    M, ``M^(1/2)`` and ``M^(-1/2)`` are computed eagerly and kept read-only
    (diagonals, or matrices for a Gram metric), so one instance can be
    shared.  M is applied to a vector or a block of ``dim`` rows and returns
    a C-ordered array; the dense metric is ``apply_metric(np.eye(dim))``.
    The roots are read only by :meth:`symmetrize` and :meth:`eigh`.
    """

    def __init__(self, weights=None, matrix=None):
        if (weights is None) == (matrix is None):
            raise ValueError("provide exactly one of weights= or matrix=")
        if weights is not None:
            w = as_vector(weights, "weights")
            if w.size == 0 or np.any(w <= 0.0):
                raise ValueError("weights must be strictly positive")
            factors = (w.copy(), np.sqrt(w), 1.0 / np.sqrt(w))
            top, bottom = float(w.max()), float(w.min())
        else:
            m = as_matrix(matrix, "metric")
            if m.shape[0] != m.shape[1]:
                raise ValueError("metric matrix must be square")
            if np.max(np.abs(m - m.T)) > 1e-12 * (1.0 + np.max(np.abs(m))):
                raise ValueError("metric matrix must be symmetric")
            vals, vecs = eigh_symmetric(0.5 * (m + m.T))
            if vals[-1] <= 1e-14 * vals[0]:
                raise ValueError("metric matrix must be positive definite")
            factors = (0.5 * (m + m.T), (vecs * np.sqrt(vals)) @ vecs.T,
                       (vecs / np.sqrt(vals)) @ vecs.T)
            top, bottom = float(vals[0]), float(vals[-1])
        for owned in factors:
            owned.flags.writeable = False
        self._metric, self._root, self._iroot = factors
        # M v of a vector, bit for bit as apply_metric forms it, unchecked
        self._metric_vec = functools.partial(np.dot if matrix is not None else np.multiply,
                                             factors[0])
        self.dim = factors[0].shape[0]
        # max(1, ||M||) max(1, ||M^(1/2)||) max(1, ||M^(-1/2)||), from M's
        # extreme eigenvalues: the growth of a solve's products beyond ||y|| g
        self._filter_growth = (max(1.0, top) * max(1.0, math.sqrt(top))
                               * max(1.0, 1.0 / math.sqrt(bottom)))

    def apply_metric(self, v) -> np.ndarray:
        """Return ``M v`` for a vector or a block of ``dim`` rows."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got shape {v.shape}")
        return _left(self._metric, v)

    def norm(self, v) -> float:
        v = as_vector(v, "v")
        # vdot is the BLAS dot of ``@``, bit for bit, but reports no overflow
        # as a RuntimeWarning: an overflow is inf, which callers reject
        return math.sqrt(max(np.vdot(v, self.apply_metric(v)), 0.0))

    def symmetrize(self, a) -> np.ndarray:
        """Return ``M^(1/2) A M^(-1/2)``, symmetric when A is self-adjoint."""
        if np.shape(a) != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got shape {np.shape(a)}")
        a = _left(self._root, as_matrix(a, "A"))
        return a @ self._iroot if self._iroot.ndim == 2 else a * self._iroot

    def eigh(self, a) -> tuple[np.ndarray, np.ndarray]:
        """Factor A, self-adjoint in the metric: ``(lambda, R)``.

        :func:`eigh_symmetric` factors the exactly symmetric part of
        :meth:`symmetrize`'s ``M^(1/2) A M^(-1/2) = Q diag(lambda) Q^T``, and
        ``R = M^(-1/2) Q`` holds the eigenvectors of A, orthonormal in the
        metric (``R^T M R = I``), C-ordered.
        """
        sym = self.symmetrize(a)
        vals, vecs = eigh_symmetric(0.5 * (sym + sym.T))
        return vals, _left(self._iroot, vecs)

    def __repr__(self):  # pragma: no cover
        kind = "diag" if self._metric.ndim == 1 else "gram"
        return f"WeightedSpace(dim={self.dim}, kind={kind})"


def _left(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``F v`` for a metric factor F kept as a matrix or as its diagonal, and
    a vector or a block of rows."""
    if factor.ndim == 2:
        return factor @ v
    return factor * v if v.ndim == 1 else factor[:, None] * v


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


# Lanczos steps before a norm falls back to the dense eigensolver, the rows
# its basis grows by, and the relative residual of the extreme Ritz pair
# that counts as converged
_LANCZOS_STEPS = 64
_LANCZOS_BLOCK = 16
_LANCZOS_TOL = 1e-8


@functools.lru_cache(maxsize=64)
def _start_vector(dim: int) -> np.ndarray:
    """Fixed unit start vector with generic components in every direction.

    The fractional parts of ``i * golden ratio`` are equidistributed and not
    symmetric about the centre, so the odd eigenvectors of a matrix on a
    symmetric grid are seen as well as the even ones (an all-ones start
    never sees them).  No random stream: the value is the same everywhere.
    """
    v = np.modf(np.arange(1, dim + 1) * 0.6180339887498949)[0] + 0.5
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _lanczos(apply, dim: int, count: int = 1) -> list[float]:
    """Largest eigenvalue moduli of ``count`` symmetric operators on ``R^dim``.

    Lanczos with full reorthogonalization, one run per operator, in
    lockstep: ``apply(block, runs)`` takes a sequence of vectors and returns
    one whose j-th vector is operator ``runs[j]`` applied to ``block[j]``,
    one call for every run still going.  Each run keeps its own basis, Ritz
    tridiagonal and arithmetic, and stops when its Ritz pair of largest
    modulus has residual ``|beta_k s_k| <= _LANCZOS_TOL * |theta|`` (a
    breakdown, beta = 0, is exact) or its Krylov space fills the whole
    space; one still going after ``_LANCZOS_STEPS`` steps takes the dense
    ``eigvalsh`` of its operator, the transpose of ``apply(I, (run,) * dim)``.
    """
    steps = min(dim, _LANCZOS_STEPS)
    bases = [np.empty((min(steps, _LANCZOS_BLOCK), dim)) for _ in range(count)]
    # the Ritz tridiagonals, grown in place by one row and column per step
    ritz = [np.zeros((steps + 1, steps + 1)) for _ in range(count)]
    tops, runs, block = [None] * count, list(range(count)), [_start_vector(dim)] * count
    for k in range(steps):
        going = []
        for v, w, run in zip(block, apply(block, runs), runs):
            basis = bases[run]
            if k == basis.shape[0]:
                basis = bases[run] = np.concatenate(
                    (basis, np.empty((min(steps - k, _LANCZOS_BLOCK), dim))))
            basis[k] = v
            t = ritz[run]
            t[k, k] = v @ w
            # classical Gram-Schmidt twice: orthogonal to rounding
            for _ in range(2):
                w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
            beta = np.linalg.norm(w)
            thetas, vecs = np.linalg.eigh(t[: k + 1, : k + 1])
            top = int(np.argmax(np.abs(thetas)))
            theta = abs(thetas[top])
            if k + 1 == dim or beta * abs(vecs[k, top]) <= _LANCZOS_TOL * theta:
                tops[run] = float(theta)
            else:
                t[k, k + 1] = t[k + 1, k] = beta
                going.append(w / beta)
        runs, block = [run for run in runs if tops[run] is None], going
        if not runs:
            return tops
    for run in runs:
        dense = apply(np.eye(dim), (run,) * dim).T
        tops[run] = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
    return tops


def symmetric_norm(apply, dim: int) -> float:
    """Largest eigenvalue modulus of a symmetric operator on ``R^dim``.

    The operator is given by its product ``x -> apply(x)`` alone; nothing
    checks that it is symmetric.  This is :func:`_lanczos` with one run:
    Lanczos stops at a relative Ritz residual of 1e-8, which bounds the
    result's relative error (the error is of order residual^2 / gap); if it
    has not converged after ``_LANCZOS_STEPS`` steps the norm is the dense
    ``eigvalsh`` of ``apply(I)`` instead.
    """
    if dim == 0:
        return 0.0
    # a Lanczos vector goes in as a vector, the fallback's rows as columns
    return _lanczos(lambda x, runs: [apply(x[0])] if len(runs) == 1
                    else apply(np.ascontiguousarray(x.T)).T, dim)[0]


def spectral_norm(a) -> float:
    """Largest singular value of ``A``, by :func:`symmetric_norm`.

    Exactly symmetric input takes its largest eigenvalue modulus on
    ``x -> A x``; anything else the square root of the largest eigenvalue
    of ``A^T A`` (or ``A A^T``, on the smaller side) on ``x -> A^T (A x)``,
    with no Gram matrix formed.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    a = as_matrix(a, "A")
    rows, cols = a.shape
    if rows == cols and np.array_equal(a, a.T):
        return symmetric_norm(lambda x: a @ x, rows)
    tall = a if rows >= cols else a.T
    return float(np.sqrt(symmetric_norm(lambda x: tall.T @ (tall @ x), tall.shape[1])))
