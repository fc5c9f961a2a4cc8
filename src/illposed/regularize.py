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
densely on the reference grid.  Both paths are exposed so they can be checked
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSystem, apply_adjoint
from .linalg import NumericalError, WeightedSpace, eigh_symmetric
from .problems import Kernel, SourceRepresentation, TestProblem
from .quadrature import QuadratureRule, segment_gauss
from .validation import as_vector, check_positive

__all__ = [
    "InconsistentDataError",
    "SourcePhi",
    "Reconstruction",
    "NoiseSpec",
    "power_phi",
    "log_phi",
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

# Validity window used to calibrate the log source function numerically;
# the log filter is only meaningful for spectra well below one.
_LOG_REGIME_TOP = 1e-1


class InconsistentDataError(NumericalError):
    """Discrete data falls outside the numerical range of the operator."""


# ---------------------------------------------------------------------------
# Source functions


@dataclass(frozen=True)
class SourcePhi:
    """Index function ``phi`` of a source condition, with its sup constant.

    ``kind`` is ``"power"`` (``phi(t) = t^nu``, ``nu`` in (0, 1]) or
    ``"log"`` (``phi(t) = log(1/t)^-p``, ``p > 0``); ``c0`` is a constant for
    which ``sup_t alpha phi(t) / (t + alpha) <= c0 phi(alpha)`` holds on the
    calibration grid.
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


def log_phi(p: float) -> SourcePhi:
    """Logarithmic index function, calibrated numerically on its regime."""
    p = check_positive(p, "p")
    lam = np.geomspace(1e-12, _LOG_REGIME_TOP, 200)
    alphas = np.geomspace(1e-12, _LOG_REGIME_TOP, 60)
    phi_lam = np.log(1.0 / lam) ** (-p)
    ratios = [
        np.max(alpha * phi_lam / (lam + alpha)) / (np.log(1.0 / alpha) ** (-p))
        for alpha in alphas
    ]
    return SourcePhi(kind="log", param=p, c0=float(np.max(ratios)))


def phi_from_source(source: SourceRepresentation) -> SourcePhi:
    if source.kind == "power":
        return power_phi(source.param)
    if source.kind == "log":
        return log_phi(source.param)
    raise ValueError(f"unknown source kind {source.kind!r}")


def phi_eval(phi: SourcePhi, lam: float) -> float:
    """Evaluate the index function at ``lam > 0``.

    The log kind is restricted to ``lam < 1``; outside that regime the
    formula is meaningless and an error is raised rather than a garbage
    value returned.
    """
    lam = check_positive(lam, "lambda")
    if phi.kind == "power":
        return float(lam ** phi.param)
    if lam >= 1.0:
        raise ValueError(f"log index function is outside the asymptotic regime at {lam!r}")
    return float(np.log(1.0 / lam) ** (-phi.param))


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

    The continuous normal operator is represented on the reference grid with
    entries ``integral k(s, t_l) k(s, t_m) ds`` computed by a per-entry
    quadrature split at the kernel's diagonal, so kinked kernels are
    assembled to machine accuracy.  Returns ``solve(alpha) -> function``;
    the returned function interpolates the grid solution piecewise-linearly
    off the grid.
    """
    kernel = problem.kernel
    nodes = ref_rule.nodes
    rho = ref_rule.weights
    sqrt_rho = np.sqrt(rho)
    normal = _normal_matrix_split(kernel, nodes)
    tsty = _adjoint_data_values(kernel, problem.y, nodes)
    sym = (normal * np.outer(sqrt_rho, sqrt_rho))
    vals, vecs = eigh_symmetric(0.5 * (sym + sym.T))
    # the grid normal matrix is a Gram matrix: negative eigenvalues are
    # rounding and are clipped, as in tikhonov_discrete
    vals = np.maximum(vals, 0.0)
    coeffs = vecs.T @ (sqrt_rho * tsty)

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


def _normal_matrix_split(kernel: Kernel, t_nodes: np.ndarray,
                         points_per_segment: int = 12) -> np.ndarray:
    """Entries ``integral k(s, t_l) k(s, t_m) ds`` with splits at t_l, t_m."""
    m = t_nodes.size
    a, b = kernel.domain.a, kernel.domain.b
    iu, ju = np.triu_indices(m)
    t_lo = np.minimum(t_nodes[iu], t_nodes[ju])
    t_hi = np.maximum(t_nodes[iu], t_nodes[ju])
    acc = np.zeros(iu.size)
    for lo, hi in ((np.full_like(t_lo, a), t_lo), (t_lo, t_hi),
                   (t_hi, np.full_like(t_hi, b))):
        s, w = segment_gauss(lo, hi, points_per_segment)
        vals = kernel(s, t_nodes[iu][:, None]) * kernel(s, t_nodes[ju][:, None])
        acc += np.einsum("ij,ij->i", vals, w)
    normal = np.zeros((m, m))
    normal[iu, ju] = acc
    normal[ju, iu] = acc
    return normal


def _adjoint_data_values(kernel: Kernel, y, t_nodes: np.ndarray,
                         points_per_segment: int = 32) -> np.ndarray:
    """Values ``(T* y)(t_l) = integral k(s, t_l) y(s) ds`` split at t_l."""
    a, b = kernel.domain.a, kernel.domain.b
    out = np.zeros(t_nodes.size)
    for lo, hi in ((np.full_like(t_nodes, a), t_nodes),
                   (t_nodes, np.full_like(t_nodes, b))):
        s, w = segment_gauss(lo, hi, points_per_segment)
        out += np.einsum("ij,ij->i", kernel(s, t_nodes[:, None]) * np.asarray(y(s)), w)
    return out


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
