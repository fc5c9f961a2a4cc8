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
which: the package applies M and its square roots through its products, and
every discrete solve is one :meth:`WeightedSpace.filter`.
Systems are symmetrized through ``M^(1/2) A M^(-1/2)`` so that the numerical
spectrum is the spectrum of the operator in that inner product.
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

    M, ``M^(1/2)`` and ``M^(-1/2)`` are one table of eagerly computed,
    read-only factors (diagonals, or matrices for a Gram metric), so one
    instance can be shared.  Each product takes a vector or a block of
    ``dim`` rows and returns a C-ordered array; the dense metric is
    ``apply_metric(np.eye(dim))``.
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
        self._factors = dict(zip((1.0, 0.5, -0.5), factors))  # M^power by power
        self.dim = factors[0].shape[0]
        # max(1, ||M^(-1/2)||) * max(1, ||M||) from the extreme eigenvalues
        # of M: how much the products of filter after M^(1/2) y can grow
        self._filter_growth = max(1.0, 1.0 / math.sqrt(bottom)) * max(1.0, top)

    def _left(self, power: float, v) -> np.ndarray:
        """``M^power v`` for a vector or a block of ``dim`` rows."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got shape {v.shape}")
        return self._product(power, v)

    def _product(self, power: float, v: np.ndarray) -> np.ndarray:
        """:meth:`_left` of an array the package formed, unchecked."""
        f = self._factors[power]
        if f.ndim == 2:
            return f @ v
        return f * v if v.ndim == 1 else f[:, None] * v

    def _right(self, a: np.ndarray, power: float) -> np.ndarray:
        """``A M^power`` for a block ``A`` of ``dim`` columns."""
        f = self._factors[power]
        return a @ f if f.ndim == 2 else a * f

    def apply_metric(self, v) -> np.ndarray:
        """Return ``M v``."""
        return self._left(1.0, v)

    def norm(self, v) -> float:
        return self._norm(as_vector(v, "v"))

    def _norm(self, v: np.ndarray) -> float:
        """:meth:`norm` of a finite vector the package formed, unchecked."""
        # vdot is the BLAS dot of ``@``, bit for bit, but reports no overflow
        # as a RuntimeWarning (np.errstate costs more than the product at the
        # sizes solved here): an overflow is inf, which callers reject
        return math.sqrt(max(np.vdot(v, self.apply_metric(v)), 0.0))

    def sqrt_apply(self, v) -> np.ndarray:
        """Return ``M^(1/2) v``."""
        return self._left(0.5, v)

    def isqrt_apply(self, v) -> np.ndarray:
        """Return ``M^(-1/2) v``."""
        return self._left(-0.5, v)

    def filter(self, basis: np.ndarray, gains: np.ndarray, peak_gain: float,
               y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spectral filter ``v = M^(-1/2) Q diag(gains) Q^T M^(1/2) y`` and ``M v``.

        ``basis`` is the orthogonal Q, ``peak_gain`` the largest ``|gains|``
        and ``y`` a vector of ``dim`` entries; none is checked again.  The
        products are those of :meth:`sqrt_apply`, :meth:`isqrt_apply` and
        :meth:`apply_metric`, bit for bit.  Every product after ``M^(1/2) y``
        is bounded by ``||M^(1/2) y|| * peak_gain * max(1, ||M^(-1/2)||) *
        max(1, ||M||)``; when that bound is not finite (a NaN or Inf in
        ``y`` makes it so), :class:`NumericalError` is raised before the
        gains are applied, so none of those products overflows.
        """
        sy = self._product(0.5, y)
        # vdot is silent on overflow; squares beyond the float range are
        # summed again scaled by the largest entry
        size = math.sqrt(np.vdot(sy, sy))
        if size == math.inf:
            top = float(np.abs(sy).max())
            if top < math.inf:
                size = top * math.sqrt(np.vdot(sy / top, sy / top))
        # a Python product of floats gives inf (or nan), not a warning
        if not math.isfinite(size * peak_gain * self._filter_growth):
            raise NumericalError(
                f"non-finite bound on the filtered solution: ||M^(1/2) y|| {size:.3e} "
                f"x largest gain {peak_gain:.3e} x metric growth {self._filter_growth:.3e}")
        v = self._product(-0.5, basis @ (gains * (basis.T @ sy)))
        return v, self._product(1.0, v)

    def symmetrize(self, a) -> np.ndarray:
        """Return ``M^(1/2) A M^(-1/2)``, symmetric when A is self-adjoint."""
        if np.shape(a) != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got shape {np.shape(a)}")
        return self._right(self.sqrt_apply(as_matrix(a, "A")), -0.5)

    def __repr__(self):  # pragma: no cover
        kind = "diag" if self._factors[1.0].ndim == 1 else "gram"
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


def _lanczos(apply, dim: int):
    """Largest eigenvalue modulus of the symmetric operator ``apply``.

    Lanczos with full reorthogonalization on matrix-vector products only.
    It stops when the Ritz pair of largest modulus has residual
    ``|beta_k s_k| <= _LANCZOS_TOL * |theta|`` (a breakdown, beta = 0, is
    exact) or when the Krylov space fills the whole space; after
    ``_LANCZOS_STEPS`` steps without either it returns ``None``.
    """
    steps = min(dim, _LANCZOS_STEPS)
    basis = np.empty((min(steps, _LANCZOS_BLOCK), dim))
    # the Ritz tridiagonal, grown in place by one row and column per step
    ritz = np.zeros((steps + 1, steps + 1))
    v = _start_vector(dim)
    for k in range(steps):
        if k == basis.shape[0]:
            basis = np.concatenate((basis, np.empty((min(steps - k, _LANCZOS_BLOCK), dim))))
        basis[k] = v
        w = apply(v)
        ritz[k, k] = v @ w
        # classical Gram-Schmidt twice: orthogonal to rounding
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta = np.linalg.norm(w)
        thetas, vecs = np.linalg.eigh(ritz[: k + 1, : k + 1])
        top = int(np.argmax(np.abs(thetas)))
        theta = abs(thetas[top])
        if k + 1 == dim or beta * abs(vecs[k, top]) <= _LANCZOS_TOL * theta:
            return float(theta)
        ritz[k, k + 1] = ritz[k + 1, k] = beta
        v = w / beta
    return None


def symmetric_norm(apply, dim: int) -> float:
    """Largest eigenvalue modulus of a symmetric operator on ``R^dim``.

    The operator is given by its product ``x -> apply(x)`` alone; nothing
    checks that it is symmetric.  Lanczos stops at a relative Ritz residual
    of 1e-8, which bounds the result's relative error (the error is of order
    residual^2 / gap); if it has not converged after ``_LANCZOS_STEPS``
    steps the norm is the dense ``eigvalsh`` of ``apply(I)`` instead.
    """
    if dim == 0:
        return 0.0
    top = _lanczos(apply, dim)
    if top is None:
        top = float(np.max(np.abs(np.linalg.eigvalsh(apply(np.eye(dim))))))
    return top


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
