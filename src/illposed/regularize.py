"""Solvers for the discretized equation and their continuous reference.

The discrete pipeline: project the data, solve the normal system on the data
space (pseudo-inverse for exact data, a shifted solve for noisy data), then
map coordinates back to a function through the adjoint.  Both solves are
spectral filters of the eigendecomposition the system stores for its
metric-symmetrized matrix, so truncation and shifts act on the singular
values of the discretized operator in the correct inner product.  The
factor also carries the spectra the filters read (the minimum-norm gains
and the clipped eigenvalues), so a solve checks the shape of its data once
and runs one :meth:`~illposed.linalg.WeightedSpace.filter`: two
matrix-vector products with the eigenvectors, three with the metric
factors, and the ``M v`` its reconstruction reuses.

The continuous Tikhonov solution is the yardstick the error bounds compare
against.  Problems carrying a closed-form singular expansion use the spectral
filter formula directly; otherwise the regularized normal equation is solved
densely on the reference grid, with ``T*T`` and ``T*y`` integrated on one
rule whose panels break at every grid node.  Both paths are exposed so they
can be checked against each other.

The source condition ``x = phi(T*T) u`` the rate bounds assume is the power
family ``phi(t) = t^nu``; it lives on
:class:`~illposed.problems.SourceRepresentation`, which evaluates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSystem, _reconstruction
from .linalg import NumericalError, WeightedSpace, eigh_symmetric
from .problems import REFERENCE_POINTS, TestProblem, reference_rule
from .quadrature import QuadratureRule, aligned_rule
from .validation import as_vector, check_finite, check_positive

__all__ = [
    "InconsistentDataError",
    "Reconstruction",
    "NoiseSpec",
    "choose_alpha",
    "min_norm_solution",
    "tikhonov_discrete",
    "tikhonov_spectral_reference",
    "dense_reference_solver",
    "tikhonov_continuous_reference",
    "add_noise",
]

class InconsistentDataError(NumericalError):
    """Discrete data falls outside the numerical range of the operator."""


def choose_alpha(eps_n: float) -> float:
    """A-priori rule: the shift equals the operator-level error bound."""
    return check_positive(eps_n, "eps_n")


# ---------------------------------------------------------------------------
# Discrete solves


@dataclass(frozen=True)
class Reconstruction:
    """Coordinate solution plus its function-space realization.

    ``function`` is exactly the adjoint applied to ``coordinates``.
    """

    coordinates: np.ndarray
    function: object


def min_norm_solution(system: DiscreteSystem, y_n, *,
                      residual_allowance: float = 0.0) -> Reconstruction:
    """Minimum-norm solution of the discretized equation.

    Solves the normal system through the metric-symmetrized pseudo-inverse,
    the filter :attr:`DiscreteSystem.pinv_gains` (``1 / lambda`` on the
    eigenvalues above the system's own ``rel_tol * max|lambda|``, the one
    truncation threshold, fixed when the system is built), and reconstructs
    ``x = T_n* v``.
    Raises :class:`InconsistentDataError` when the residual exceeds
    ``rel_tol * ||y_n|| + residual_allowance`` in the data norm, i.e. the
    data is numerically outside the operator's range.  For noisy data pass
    the noise level as the allowance: components outside the range up to
    that size are expected and are simply not seen by the reconstruction.
    The allowance must be finite and non-negative.
    """
    if not 0.0 <= float(residual_allowance) < math.inf:
        raise ValueError(f"residual_allowance must be finite and >= 0, got {residual_allowance!r}")
    y_n = _data(system, y_n, "y_n")
    space = system.space
    v, mv = _filter(system, system.pinv_gains, system.pinv_peak, y_n, "y_n")
    residual = space._norm(system.matrix @ v - y_n)
    threshold = system.rel_tol * space._norm(y_n) + residual_allowance
    if residual > threshold:
        raise InconsistentDataError(
            f"inconsistent discrete data: residual {residual:.3e} exceeds "
            f"{threshold:.3e}"
        )
    return Reconstruction(coordinates=v, function=_reconstruction(system, mv))


def tikhonov_discrete(system: DiscreteSystem, y_tilde_n, alpha: float) -> Reconstruction:
    """Shifted solve of the discrete normal system (noise-robust path).

    Filters :attr:`DiscreteSystem.clipped_eigvals` by ``1 / (max(lambda,
    0) + alpha)``: negative eigenvalues are rounding of a system already
    certified PSD, and clipping them keeps shifts below that rounding floor
    solvable.
    """
    alpha = check_positive(alpha, "alpha")
    y_tilde_n = _data(system, y_tilde_n, "y_tilde_n")
    clipped = system.clipped_eigvals
    # the largest gain, in the arithmetic of the gains below (the spectrum
    # is non-increasing); only a subnormal alpha overflows it
    peak = 1.0 / (float(clipped[-1]) + alpha)
    if not math.isfinite(peak):
        raise NumericalError(f"non-finite Tikhonov gain 1/alpha at alpha {alpha!r}")
    v, mv = _filter(system, 1.0 / (clipped + alpha), peak, y_tilde_n, "y_tilde_n")
    return Reconstruction(coordinates=v, function=_reconstruction(system, mv))


def _data(system: DiscreteSystem, y, name: str) -> np.ndarray:
    """The caller's data as a float vector of the system's length; whether
    it is finite, :func:`_filter` finds out."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {y.shape}")
    if y.size != system.n:
        raise ValueError(f"data has length {y.size}, expected {system.n}")
    return y


def _filter(system: DiscreteSystem, gains: np.ndarray, peak: float, y: np.ndarray,
            name: str) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`WeightedSpace.filter` of the caller's data ``y`` by the stored
    factor.  A NaN or Inf in ``y`` makes the filter's bound non-finite, so
    the data is checked only when the filter refuses it: a non-finite entry
    is the caller's ``ValueError``, anything else a ``NumericalError``."""
    try:
        return system.space.filter(system.eigvecs, gains, peak, y)
    except NumericalError:
        check_finite(y, name)
        raise


# ---------------------------------------------------------------------------
# Continuous Tikhonov reference


def tikhonov_spectral_reference(problem: TestProblem, ref_rule: QuadratureRule,
                                alpha: float):
    """Spectral-filter Tikhonov solution for problems with a known expansion.

    ``<y, v_j>`` is integrated on ``ref_rule``, or, below ``REFERENCE_POINTS``
    points (too few for 64 modes), on the rule the modes were checked on.
    """
    alpha = check_positive(alpha, "alpha")
    if problem.svd is None:
        raise ValueError("problem carries no singular expansion")
    exp = problem.svd
    if ref_rule.n_points < REFERENCE_POINTS:
        ref_rule = reference_rule(exp.domain)
    coeffs = exp.coefficients(problem.y, ref_rule, side="v")
    factors = exp.sigmas / (exp.sigmas**2 + alpha)
    return exp.synthesize(coeffs * factors, side="u")


def dense_reference_solver(problem: TestProblem, ref_rule: QuadratureRule):
    """Grid Tikhonov solver: factor once, solve for many shifts.

    With ``t`` the reference nodes, ``s`` is integrated on the composite
    Gauss rule (weights ``W``) of ``4 (m + 1)`` points whose panels break at
    ``a``, every ``t`` and ``b``, so each column ``k(., t_l)`` is smooth on
    every panel and kinked kernels are integrated to machine accuracy.  One
    kernel sample ``K = k(s, t)`` gives the weighted normal matrix
    ``(K sqrt(rho))^T W (K sqrt(rho))`` and ``T*y = K^T (W y(s))`` on that
    rule.  Returns ``solve(alpha) -> function``; the returned function
    interpolates the grid solution piecewise-linearly off the grid.
    """
    dom = problem.kernel.domain
    nodes = ref_rule.nodes
    sqrt_rho = np.sqrt(ref_rule.weights)
    s_rule = aligned_rule(np.concatenate(([dom.a], nodes, [dom.b])), 4 * (nodes.size + 1))
    sqrt_w = np.sqrt(s_rule.weights)
    # sqrt(W) K sqrt(rho): its Gram matrix is the weighted normal matrix
    k_w = sqrt_w[:, None] * problem.kernel(s_rule.nodes[:, None], nodes[None, :])
    k_w *= sqrt_rho
    vals, vecs = eigh_symmetric(k_w.T @ k_w)
    # the grid normal matrix is a Gram matrix: negative eigenvalues are
    # rounding and are clipped, as in tikhonov_discrete
    vals = np.maximum(vals, 0.0)
    coeffs = vecs.T @ (k_w.T @ (sqrt_w * np.asarray(problem.y(s_rule.nodes), dtype=float)))

    def solve(alpha: float):
        alpha = check_positive(alpha, "alpha")
        z = vecs @ (coeffs / (vals + alpha))
        x_vals = z / sqrt_rho

        def handle(s):
            vals = np.interp(np.asarray(s, dtype=float), nodes, x_vals)
            return vals if np.ndim(s) else float(vals)

        return handle

    return solve


def tikhonov_continuous_reference(problem: TestProblem, ref_rule: QuadratureRule,
                                  alpha: float):
    """Continuous Tikhonov solution on the reference grid.

    Uses the spectral filter when the problem carries its expansion (exact up
    to the expansion truncation), otherwise the dense grid solve.
    """
    if problem.svd is not None:
        return tikhonov_spectral_reference(problem, ref_rule, alpha)
    return dense_reference_solver(problem, ref_rule)(alpha)


# ---------------------------------------------------------------------------
# Noise model


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level in the data-space norm plus the generator seed."""

    delta_n: float
    seed: int

    def __post_init__(self):
        if not np.isfinite(self.delta_n) or self.delta_n < 0.0:
            raise ValueError(f"delta_n must be >= 0, got {self.delta_n!r}")


def add_noise(y_n, space: WeightedSpace, spec: NoiseSpec) -> np.ndarray:
    """Perturb discrete data to an exactly prescribed distance.

    Draws a pseudo-random direction from the seed and scales it so that
    ``||y~ - y|| = delta_n`` holds exactly in the data norm.  Deterministic
    for a given seed; a zero draw (probability ~0) is redrawn internally.
    """
    y_n = as_vector(y_n, "y_n")
    if space.dim != y_n.size:
        raise ValueError("space dimension does not match the data")
    if spec.delta_n == 0.0:
        return y_n.copy()
    rng = np.random.default_rng(spec.seed)
    while True:
        direction = rng.standard_normal(y_n.size)
        norm = space.norm(direction)
        if norm > 0.0:
            break
    return y_n + direction * (spec.delta_n / norm)
