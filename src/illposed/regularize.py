"""Solvers for the discretized equation and their continuous reference.

The discrete pipeline: project the data, solve the normal system on the data
space (pseudo-inverse for exact data, a shifted solve for noisy data), then
map coordinates back to a function through the adjoint.  Both solves are
spectral filters of the eigendecomposition the system stores for its
metric-symmetrized matrix, so truncation and shifts act on the singular
values of the discretized operator in the correct inner product.  The
factor is stored as ``R = M^(-1/2) Q`` beside the spectra the filters read
(the minimum-norm gains and the clipped eigenvalues), so a solve checks the
shape of its data once and runs :func:`_filter`: ``z = R^T (M y)``,
``v = R (g z)`` and the ``M v`` its reconstruction reuses, two
matrix-vector products with R and two with the metric (elementwise for a
diagonal one), after one bound on them all.  The minimum-norm range test
reads ``||y||`` and the residual off z, whose components on the cut
eigenvalues are exactly the part of y outside the numerical range.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .discretize import RANK_RTOL, DiscreteSystem, _reconstruct
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


@dataclass(frozen=True, init=False)
class Reconstruction:
    """Coordinate solution plus its function-space realization.

    ``function`` is exactly the adjoint applied to ``coordinates``.
    """

    coordinates: np.ndarray
    function: object

    def __init__(self, coordinates, function):
        # one per solve: two dict stores cost less than the generated frozen
        # __init__'s object.__setattr__ per field
        fields = self.__dict__
        fields["coordinates"], fields["function"] = coordinates, function


def min_norm_solution(system: DiscreteSystem, y_n, *,
                      residual_allowance: float = 0.0) -> Reconstruction:
    """Minimum-norm solution of the discretized equation.

    Solves the normal system through the metric-symmetrized pseudo-inverse,
    the filter :attr:`DiscreteSystem.pinv_gains` (``1 / lambda`` on the
    eigenvalues above ``RANK_RTOL * max|lambda|``, the package's one
    truncation threshold), and reconstructs ``x = T_n* v``.
    Raises :class:`InconsistentDataError` when the residual ``||A v - y_n||``
    exceeds ``RANK_RTOL * ||y_n|| + residual_allowance`` in the data norm,
    i.e. the data is numerically outside the operator's range.  Both norms
    are read off the solve's own ``z = R^T M y_n``, the data in the
    metric-orthonormal eigenvectors of A: ``||y_n|| = ||z||``, and the
    residual is z on the cut eigenvalues, free of the solve's rounding.
    For noisy data pass the noise level as the allowance: components outside the range up to
    that size are expected and are simply not seen by the reconstruction.
    The allowance must be finite and non-negative.
    """
    if not 0.0 <= float(residual_allowance) < math.inf:
        raise ValueError(f"residual_allowance must be finite and >= 0, got {residual_allowance!r}")
    z, v, mv = _filter(system, y_n, "y_n", system.pinv_peak, system.pinv_gains)
    residual = _norm2(z[system.pinv_gains == 0.0])
    threshold = RANK_RTOL * _norm2(z) + residual_allowance
    if residual > threshold:
        raise InconsistentDataError(
            f"inconsistent discrete data: residual {residual:.3e} exceeds "
            f"{threshold:.3e}"
        )
    return Reconstruction(v, functools.partial(_reconstruct, system, mv))


def tikhonov_discrete(system: DiscreteSystem, y_tilde_n, alpha: float) -> Reconstruction:
    """Shifted solve of the discrete normal system (noise-robust path).

    Filters :attr:`DiscreteSystem.clipped_eigvals` by ``1 / (max(lambda,
    0) + alpha)``, a division by the shifted spectrum: negative eigenvalues
    are rounding of a system already certified PSD, and clipping them keeps
    shifts below that rounding floor solvable.
    """
    alpha = check_positive(alpha, "alpha")
    # the largest gain (the spectrum is non-increasing); a subnormal alpha overflows it
    peak = 1.0 / (float(system.clipped_eigvals[-1]) + alpha)
    if not math.isfinite(peak):
        raise NumericalError(f"non-finite Tikhonov gain 1/alpha at alpha {alpha!r}")
    _, v, mv = _filter(system, y_tilde_n, "y_tilde_n", peak, None, alpha)
    return Reconstruction(v, functools.partial(_reconstruct, system, mv))


def _filter(system: DiscreteSystem, y, name: str, peak: float, gains=None,
            shift: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one solve path, ``v = M^(-1/2) Q diag(g) Q^T M^(1/2) y = R (g
    R^T M y)`` by the stored ``R``: ``z = R^T M y``, v and ``M v``.  ``g``
    is ``gains``, which leaves z as it is, or else an in-place division of z
    by ``clipped_eigvals + shift``; ``peak`` is its largest modulus.

    In 2-norms, with ``||R|| = ||M^(-1/2)||`` (Q is orthogonal) and ``z =
    Q^T M^(1/2) y``, each product and its partial sums are bounded: ``M y``
    by ``||M|| ||y||``, ``(M y)^T R`` by ``||M|| ||M^(-1/2)|| ||y||``, ``g
    z`` by ``peak ||M^(1/2)|| ||y||``, ``R (g z)`` by ``||M^(-1/2)||`` times
    that and ``M v`` by ``||M||`` times that again: each by ``||y|| max(1,
    peak)`` times the metric's ``_filter_growth``, the product of ``max(1,
    .)`` over the three norms.  If that is not finite no product is formed:
    a NaN or Inf in ``y`` is the caller's ``ValueError``, else a
    ``NumericalError``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {y.shape}")
    if y.size != system.n:
        raise ValueError(f"data has length {y.size}, expected {system.n}")
    space, r = system.space, system.metric_eigvecs
    size = _norm2(y)
    # a Python product of floats gives inf (or nan), not a warning
    if not math.isfinite(size * max(1.0, peak) * space._filter_growth):
        check_finite(y, name)
        raise NumericalError(
            f"non-finite bound on the filtered solution: ||y|| {size:.3e} x largest "
            f"gain {peak:.3e} x metric growth {space._filter_growth:.3e}")
    metric = space._metric_vec
    z = np.dot(metric(y), r)  # R^T (M y), as the row vector (M y)^T R
    if gains is None:
        z /= system.clipped_eigvals + shift
        v = np.dot(r, z)
    else:
        v = np.dot(r, z * gains)
    return z, v, metric(v)


def _norm2(x: np.ndarray) -> float:
    """``||x||_2`` by ``vdot``, silent on overflow: squares beyond the float
    range are summed again scaled by the largest entry, else vdot's bits."""
    size = math.sqrt(np.vdot(x, x))
    if size == math.inf:
        top = float(np.abs(x).max())
        if top < math.inf:
            size = top * math.sqrt(np.vdot(x / top, x / top))
    return size


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
