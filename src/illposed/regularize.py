"""Solvers for the discretized equation and their continuous reference.

The discrete pipeline: project the data, solve the normal system on the data
space (pseudo-inverse for exact data, a shifted solve for noisy data), then
map coordinates back to a function through the adjoint.  Both solves are
spectral filters of the eigendecomposition the system stores for its
metric-symmetrized matrix, so truncation and shifts act on the singular
values of the discretized operator in the correct inner product, and each
solve costs two matrix-vector products.

The continuous Tikhonov solution is the yardstick the error bounds compare
against.  Problems carrying a closed-form singular expansion use the spectral
filter formula directly; otherwise the regularized normal equation is solved
densely on the reference grid, with ``T*T`` and ``T*y`` integrated on one
rule whose panels break at every grid node.  Both paths are exposed so they
can be checked against each other.

The source function of a smoothness certificate is of power type,
``phi(t) = t^nu``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSystem, apply_adjoint
from .linalg import NumericalError, WeightedSpace, eigh_symmetric
from .problems import SourceRepresentation, TestProblem
from .quadrature import QuadratureRule, aligned_rule
from .validation import as_vector, check_positive

__all__ = [
    "InconsistentDataError",
    "SourcePhi",
    "Reconstruction",
    "NoiseSpec",
    "power_phi",
    "phi_from_source",
    "phi_eval",
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


# ---------------------------------------------------------------------------
# Source functions


@dataclass(frozen=True)
class SourcePhi:
    """Index function ``phi`` of a source condition, with its sup constant.

    ``kind`` is ``"power"`` (``phi(t) = t^nu``, ``nu = param`` in (0, 1]);
    ``c0`` is a constant for which
    ``sup_t alpha phi(t) / (t + alpha) <= c0 phi(alpha)`` holds.
    """

    kind: str
    param: float
    c0: float


def power_phi(nu: float) -> SourcePhi:
    """Power-type index function; the sup constant one is exact here."""
    nu = float(nu)
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"power exponent must lie in (0, 1], got {nu!r}")
    return SourcePhi(kind="power", param=nu, c0=1.0)


def phi_from_source(source: SourceRepresentation) -> SourcePhi:
    if source.kind == "power":
        return power_phi(source.param)
    raise ValueError(f"unknown source kind {source.kind!r}")


def phi_eval(phi: SourcePhi, lam: float) -> float:
    """Evaluate the index function at ``lam > 0``."""
    lam = check_positive(lam, "lambda")
    return float(lam ** phi.param)


def choose_alpha(eps_n: float) -> float:
    """A-priori rule: the shift equals the operator-level error bound."""
    return check_positive(eps_n, "eps_n")


# ---------------------------------------------------------------------------
# Discrete solves


@dataclass(frozen=True)
class Reconstruction:
    """Coordinate solution plus its function-space realization.

    ``function`` is exactly the adjoint applied to ``coordinates``;
    ``alpha_used`` is zero on the pseudo-inverse path.
    """

    coordinates: np.ndarray
    function: object
    alpha_used: float
    system: DiscreteSystem


def min_norm_solution(system: DiscreteSystem, y_n, *,
                      residual_allowance: float = 0.0) -> Reconstruction:
    """Minimum-norm solution of the discretized equation.

    Solves the normal system through the metric-symmetrized pseudo-inverse,
    keeping the eigenvalues of :meth:`DiscreteSystem.kept` (those above the
    system's own ``rel_tol * max|lambda|``, the one truncation threshold,
    fixed when the system is built), and reconstructs ``x = T_n* v``.
    Raises :class:`InconsistentDataError` when the residual exceeds
    ``rel_tol * ||y_n|| + residual_allowance`` in the data norm, i.e. the
    data is numerically outside the operator's range.  For noisy data pass
    the noise level as the allowance: components outside the range up to
    that size are expected and are simply not seen by the reconstruction.
    """
    y_n = as_vector(y_n, "y_n")
    if y_n.size != system.n:
        raise ValueError(f"data has length {y_n.size}, expected {system.n}")
    space = system.space
    keep = system.kept()
    gains = np.zeros(system.n)
    gains[keep] = 1.0 / system.eigvals[keep]
    v = _filter(system, gains, y_n)
    residual = space.norm(system.matrix @ v - y_n)
    threshold = system.rel_tol * space.norm(y_n) + residual_allowance
    if residual > threshold:
        raise InconsistentDataError(
            f"inconsistent discrete data: residual {residual:.3e} exceeds "
            f"{threshold:.3e}"
        )
    return Reconstruction(coordinates=v, function=apply_adjoint(system, v),
                          alpha_used=0.0, system=system)


def tikhonov_discrete(system: DiscreteSystem, y_tilde_n, alpha: float) -> Reconstruction:
    """Shifted solve of the discrete normal system (noise-robust path).

    Filters by ``1 / (max(lambda, 0) + alpha)``: negative eigenvalues are
    rounding of a system already certified PSD, and clipping them keeps
    shifts below that rounding floor solvable.
    """
    alpha = check_positive(alpha, "alpha")
    y_tilde_n = as_vector(y_tilde_n, "y_tilde_n")
    if y_tilde_n.size != system.n:
        raise ValueError(f"data has length {y_tilde_n.size}, expected {system.n}")
    v = _filter(system, 1.0 / (np.maximum(system.eigvals, 0.0) + alpha), y_tilde_n)
    return Reconstruction(coordinates=v, function=apply_adjoint(system, v),
                          alpha_used=alpha, system=system)


def _filter(system: DiscreteSystem, gains: np.ndarray, y_n: np.ndarray) -> np.ndarray:
    """Coordinates ``M^(-1/2) Q diag(gains) Q^T M^(1/2) y`` from the stored factor."""
    q = system.eigvecs
    z = q @ (gains * (q.T @ system.space.sqrt_apply(y_n)))
    return system.space.isqrt_apply(z)


# ---------------------------------------------------------------------------
# Continuous Tikhonov reference


def tikhonov_spectral_reference(problem: TestProblem, ref_rule: QuadratureRule,
                                alpha: float):
    """Spectral-filter Tikhonov solution for problems with a known expansion."""
    alpha = check_positive(alpha, "alpha")
    if problem.svd is None:
        raise ValueError("problem carries no singular expansion")
    exp = problem.svd
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
