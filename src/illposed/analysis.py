"""Measurement and verification of the error bounds.

Every inequality the solvers are supposed to satisfy is turned into a
:class:`BoundReport`: measured left side, measured right side, an explicit
tolerance absorbing quadrature/measurement error, and a pass flag.  Reports
whose hypothesis fails (noise too large for the consistency precondition,
missing source representation) are emitted as skipped with a reason, never
silently dropped: hypothesis violations are experimental signal.

The tolerance policy is one global formula, ``1e-6 * (1 + rhs)``, so that
reports across problems, schemes and sizes stay comparable.  The one
exception is the squared-projection estimate, whose tolerance is pinned to
an absolute 1e-8 because the two sides coincide up to rounding for an
orthogonal projection scheme.  Every verifier reads ``eps_n`` from
``system.epsilon_n`` and measures every L2 error on ``system.reference_rule``,
the rule ``eps_n`` is measured on, so both sides of a bound share one L2.
The projection-defect norms, ``||T||`` among them, share the cell's aligned
grid instead.  Only noise terms depend on the noise level, so the verifiers
take the list of levels and measure everything else once per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discretize import DiscreteSystem, SchemeKind, project_data
from .linalg import NumericalError, spectral_norm, symmetric_norm
from .problems import TestProblem
from .quadrature import QuadratureRule, aligned_rule
from .regularize import (
    InconsistentDataError,
    NoiseSpec,
    add_noise,
    choose_alpha,
    min_norm_solution,
    tikhonov_continuous_reference,
    tikhonov_discrete,
)

__all__ = [
    "ReportContext",
    "BoundReport",
    "ConvergenceRow",
    "l2_error",
    "default_tolerance",
    "verify_th1",
    "verify_th3",
    "verify_th5",
    "verify_special",
    "measure_cell",
    "reports_to_csv",
    "rows_to_csv",
]

SQUARED_ESTIMATE_TOL = 1e-8


@dataclass(frozen=True)
class ReportContext:
    problem: str
    scheme: str
    n: int
    alpha: float | None = None
    delta: float | None = None
    note: str = ""

    def sort_key(self):
        return (
            self.problem,
            self.scheme,
            self.n,
            -1.0 if self.alpha is None else self.alpha,
            -1.0 if self.delta is None else self.delta,
            self.note,
        )


@dataclass(frozen=True)
class BoundReport:
    """Measured left/right sides of one inequality plus the verdict."""

    bound_id: str
    lhs: float
    rhs: float
    tol: float
    context: ReportContext
    skipped: bool = False
    reason: str = ""

    def __post_init__(self):
        if not self.skipped and not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise NumericalError(f"bound report holds a non-finite side: {self}")

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return (not self.skipped) and (self.lhs <= self.rhs + self.tol)


def skipped_report(bound_id: str, context: ReportContext, reason: str) -> BoundReport:
    return BoundReport(bound_id=bound_id, lhs=math.nan, rhs=math.nan, tol=0.0,
                       context=context, skipped=True, reason=reason)


@dataclass(frozen=True)
class ConvergenceRow:
    """Measured quantities of one discretization size."""

    n: int
    eps_n: float
    sigma_min: float
    err_min_norm: float
    err_tikh: float
    err_noisy: float | None = None

    def __post_init__(self):
        values = [self.eps_n, self.sigma_min, self.err_min_norm, self.err_tikh]
        if self.err_noisy is not None:
            values.append(self.err_noisy)
        if any((not np.isfinite(v)) or v < 0.0 for v in values):
            raise NumericalError(f"convergence row holds a non-finite or negative entry: {self}")


def default_tolerance(rhs: float) -> float:
    """Global measurement tolerance absorbing quadrature error."""
    return 1e-6 * (1.0 + rhs)


def l2_error(f, g, ref_rule: QuadratureRule) -> float:
    """Weighted L2 distance of two functions sampled on the rule's nodes."""
    fv = np.asarray(f(ref_rule.nodes), dtype=float)
    gv = np.asarray(g(ref_rule.nodes), dtype=float)
    return ref_rule.norm(fv - gv)


def _measured_report(bound_id, lhs, rhs, context, tol=None) -> BoundReport:
    if tol is None:
        tol = default_tolerance(rhs)
    return BoundReport(bound_id=bound_id, lhs=float(lhs), rhs=float(rhs),
                       tol=float(tol), context=context)


def _context(problem, system, alpha=None, delta=None, note="") -> ReportContext:
    return ReportContext(problem=problem.problem_id, scheme=system.scheme.value,
                         n=system.n, alpha=alpha, delta=delta, note=note)


def _tikhonov_error(problem: TestProblem, ref_rule: QuadratureRule, alpha: float) -> float:
    """``||x - x_alpha||`` on a system's reference rule, integrated once per
    problem, rule and shift.

    The rule is the Gauss rule of its point count on the problem's domain,
    so the problem keeps the value by that count and ``alpha``; every cell
    and verifier of the problem reads it from there.
    """
    key = (ref_rule.n_points, alpha)
    memo = problem._reference_errors
    if key not in memo:
        x_alpha = tikhonov_continuous_reference(problem, ref_rule, alpha)
        memo[key] = l2_error(problem.x_dagger, x_alpha, ref_rule)
    return memo[key]


# ---------------------------------------------------------------------------
# Convergence of the minimum-norm solution (exact data)


def verify_th1(problem: TestProblem, system: DiscreteSystem, alphas=()) -> list[BoundReport]:
    """Error of the minimum-norm solution against the shifted-reference bound.

    For each shift ``alpha`` the measured ``||x - x_n||`` is compared with
    ``(1 + eps_n / alpha) ||x - x_alpha||``; the a-priori choice
    ``alpha = eps_n`` makes the factor two and is always included.  Every
    report is skipped, with the solver's message as the reason, when the
    projected data falls outside the numerical range (data that is pure
    rounding, say a mode that vanishes at every node).
    """
    eps = system.epsilon_n
    ref_rule = system.reference_rule
    checks = [("Th-1", a) for a in alphas] + [("Th-1-factor2", eps)]
    y_n = project_data(system, problem.y)
    try:
        rec = min_norm_solution(system, y_n)
    except InconsistentDataError as exc:
        return [skipped_report(bound_id, _context(problem, system, alpha=alpha), str(exc))
                for bound_id, alpha in checks]
    lhs = l2_error(problem.x_dagger, rec.function, ref_rule)

    reports = []
    for bound_id, alpha in checks:
        rhs = (1.0 + eps / alpha) * _tikhonov_error(problem, ref_rule, alpha)
        ctx = _context(problem, system, alpha=alpha, note="eps_source=measured")
        reports.append(_measured_report(bound_id, lhs, rhs, ctx))
    return reports


# ---------------------------------------------------------------------------
# Stability of the unregularized solve under noise


def verify_th3(problem: TestProblem, system: DiscreteSystem, deltas,
               seed: int = 0) -> list[BoundReport]:
    """Noise amplification of the pseudo-inverse path, per level in ``deltas``.

    The first report checks ``||x_n - x~_n|| <= delta / sigma_min``; it is
    skipped when the noisy data leaves the numerical range of the operator
    (rank-deficient systems reject generic noise).  The second checks the
    combined bound ``||x - x~_n|| <= 2 ||x - x_eps|| + delta / sigma`` under
    its hypothesis ``delta <= sigma phi(eps)``; ``||x - x_eps||`` is
    integrated at most once per problem.  When the exact data itself is
    rejected (pure rounding), every report is skipped with the solver's
    message.
    """
    ref_rule = system.reference_rule
    y_n = project_data(system, problem.y)
    sigma = system.sigma_min
    contexts = [_context(problem, system, delta=level) for level in deltas]
    try:
        rec = min_norm_solution(system, y_n)
    except InconsistentDataError as exc:
        return [skipped_report(bound_id, ctx, str(exc)) for ctx in contexts
                for bound_id in ("Th-3-stability", "Th-3-combined")]

    reports = []
    for ctx in contexts:
        y_tilde = add_noise(y_n, system.space, NoiseSpec(delta_n=ctx.delta, seed=seed))
        delta = system.space.norm(y_tilde - y_n)
        if not math.isfinite(delta):  # overflowed noise: nothing to measure, no allowance
            raise NumericalError(f"non-finite noise norm {delta!r} at delta {ctx.delta!r}")
        try:
            # range components of the noise up to delta are expected; anything
            # beyond that means the data is genuinely outside the range
            rec_noisy = min_norm_solution(system, y_tilde,
                                          residual_allowance=delta * (1.0 + 1e-9))
        except InconsistentDataError as exc:
            reports += [skipped_report("Th-3-stability", ctx, str(exc)),
                        skipped_report("Th-3-combined", ctx,
                                       "noisy data outside the numerical range")]
            continue
        lhs = l2_error(rec.function, rec_noisy.function, ref_rule)
        reports.append(_measured_report("Th-3-stability", lhs, delta / sigma, ctx))
        if problem.source_repr is None:
            reports.append(skipped_report("Th-3-combined", ctx, "no source representation"))
            continue
        threshold = sigma * problem.source_repr.phi(system.epsilon_n)
        if delta > threshold:
            reports.append(skipped_report(
                "Th-3-combined", ctx,
                f"hypothesis fails: delta {delta:.3e} > sigma*phi(eps) {threshold:.3e}",
            ))
            continue
        tik_err = _tikhonov_error(problem, ref_rule, system.epsilon_n)
        rhs = 2.0 * tik_err + delta / sigma
        lhs2 = l2_error(problem.x_dagger, rec_noisy.function, ref_rule)
        reports.append(_measured_report("Th-3-combined", lhs2, rhs,
                                        replace(ctx, note="eps_source=measured")))
    return reports


# ---------------------------------------------------------------------------
# The regularized discrete solve


def verify_th5(problem: TestProblem, system: DiscreteSystem, alphas, deltas,
               seed: int = 0) -> list[BoundReport]:
    """Bounds for the shifted discrete solve, with and without noise.

    Per level in ``deltas`` and shift: the noiseless bound ``(1 + eps/alpha)
    ||x - x_alpha||``, the noisy bound with the extra ``delta / sqrt(alpha)``
    term, and the pure stability estimate between the two discrete
    solutions; only the noisy solve is per level.  The a-priori shift
    ``alpha = eps_n`` is appended, and each level ends with the rate report
    at the noise level ``sqrt(eps) phi(eps)``, whose constant is recorded
    rather than asserted.
    """
    eps = system.epsilon_n
    ref_rule = system.reference_rule
    x_dagger = problem.x_dagger
    y_n = project_data(system, problem.y)
    shifts = []  # (suffix, alpha, noiseless bound, noiseless solve, its error)
    for bound_suffix, alpha in [("", a) for a in alphas] + [("-eps", eps)]:
        base_rhs = (1.0 + eps / alpha) * _tikhonov_error(problem, ref_rule, alpha)
        rec = tikhonov_discrete(system, y_n, alpha)
        shifts.append((bound_suffix, alpha, base_rhs, rec,
                       l2_error(x_dagger, rec.function, ref_rule)))

    rate = None
    if problem.source_repr is not None:
        phi_eps = problem.source_repr.phi(eps)
        rate_delta = float(np.sqrt(eps) * phi_eps)
        y_rate = add_noise(y_n, system.space, NoiseSpec(delta_n=rate_delta, seed=seed))
        lhs_rate = l2_error(x_dagger, tikhonov_discrete(system, y_rate, eps).function, ref_rule)
        rate = BoundReport(
            bound_id="Th-5-rate", lhs=lhs_rate, rhs=lhs_rate, tol=0.0,
            context=_context(problem, system, alpha=eps, delta=rate_delta,
                             note=f"recorded_c={lhs_rate / phi_eps:.6e}"),
        )

    reports = []
    for level in deltas:
        y_tilde = add_noise(y_n, system.space, NoiseSpec(delta_n=level, seed=seed))
        delta = system.space.norm(y_tilde - y_n)
        for bound_suffix, alpha, base_rhs, rec, err in shifts:
            rec_noisy = tikhonov_discrete(system, y_tilde, alpha)
            noise_term = delta / np.sqrt(alpha)
            ctx = _context(problem, system, alpha=alpha, delta=level,
                           note="eps_source=measured")
            reports += [
                _measured_report("Th-5" + bound_suffix, err, base_rhs, ctx),
                _measured_report("Th-5-noise" + bound_suffix,
                                 l2_error(x_dagger, rec_noisy.function, ref_rule),
                                 base_rhs + noise_term, ctx),
                _measured_report("Th-5-stability" + bound_suffix,
                                 l2_error(rec.function, rec_noisy.function, ref_rule),
                                 noise_term, ctx),
            ]
        # repeated per level until the row layout changes (ROADMAP item 1)
        reports.append(rate or skipped_report(
            "Th-5-rate", _context(problem, system, alpha=eps, delta=level),
            "no source representation"))
    return reports


# ---------------------------------------------------------------------------
# Projection-defect estimates for the operator-level error


def _special_norms(system: DiscreteSystem):
    """The four operator norms of :func:`verify_special`.

    Returns ``(lhs, defect, norm_t, norm_tn)``: ``||T*T - T_n*T_n||``,
    ``||(I - pi_n) T||``, ``||T||`` and ``||T_n||``, all four on one
    composite rule of ``ref_points`` points aligned with the system's
    breakpoints, which keeps basis-function products and kinked kernels
    exactly integrable; lhs and defect share it because the squared
    estimate compares them at an absolute 1e-8.  Each is the 2-norm of a
    matrix in the weighted forms ``k_w = D K D``, ``b_w = D B`` and ``c_w =
    C D`` (``D`` the square roots of the grid weights, ``B`` the basis and
    ``C`` the coordinate map on the grid): ``||T||`` is that of ``k_w``;
    with ``L`` the Cholesky factor of ``b_w^T b_w``, ``b_w = Q L^T`` for
    orthonormal ``Q``, so ``T_n`` on the grid is ``Q r`` with the rank-n
    ``r = L^T c_w`` and ``T_n*T_n`` is ``r^T r``.  For collocation ``B`` is
    the piecewise-linear embedding, so ``||T_n||`` is the embedded-basis
    quantity, not a norm of the stored factor.  No norm needs an SVD, and
    none forms an m x m product: Lanczos runs on ``x -> k_w^T (k_w x) - r^T
    (r x)`` for lhs and, for the square of the defect, on ``x -> E^T (E
    x)`` with ``E x = k_w x - b_w (c_w x)``.

    Raises
    ------
    NumericalError
        If the basis Gram matrix on the grid is not positive definite.
    """
    rule = aligned_rule(system.grid_knots(), system.ref_points)
    nodes, rho = rule.nodes, rule.weights
    sqrt_rho = np.sqrt(rho)

    kmat = system.kernel(nodes[:, None], nodes[None, :])
    basis = system.basis_values(nodes)  # (m, n)
    if system.scheme is SchemeKind.ORTHO_PC:
        # ref-grid cell averages: keeps the matrix identity with the grid
        # projector exact, so the squared estimate is checkable at 1e-8;
        # the cell rule's weights are the cell measures h
        coords_map = (basis * rho[:, None]).T @ kmat / system.rule.weights[:, None]
    else:
        coords_map = system.slice_values(nodes)  # rows k(t_i, .)

    k_w = kmat * np.outer(sqrt_rho, sqrt_rho)
    b_w = sqrt_rho[:, None] * basis
    c_w = coords_map * sqrt_rho
    try:
        chol = np.linalg.cholesky(b_w.T @ b_w)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"basis Gram matrix of the {system.scheme.value} n={system.n} system "
            f"is not positive definite on the reference grid"
        ) from None
    r = chol.T @ c_w
    m = nodes.size
    lhs = symmetric_norm(lambda x: k_w.T @ (k_w @ x) - r.T @ (r @ x), m)

    def defect_sq(x):
        d = k_w @ x - b_w @ (c_w @ x)
        return k_w.T @ d - c_w.T @ (b_w.T @ d)

    defect = float(np.sqrt(symmetric_norm(defect_sq, m)))
    return lhs, defect, spectral_norm(k_w), spectral_norm(r)


def verify_special(problem: TestProblem, system: DiscreteSystem) -> list[BoundReport]:
    """Operator-norm estimates relating the normal-operator error to the
    projection defect.

    Both sides come from :func:`_special_norms`, on the cell's aligned
    grid.  For the subspace schemes (interpolation, cell averages) the first
    report instantiates the general bound ``(||T|| + ||T_n||) ||(I - pi_n)
    T||``; collocation has no function-space data space, so its row is
    measured through the piecewise-linear embedding of nodal values (noted
    in the context).  The squared estimate holds for the orthogonal
    projection scheme only and gets its own report.
    """
    lhs, defect, norm_t, norm_tn = _special_norms(system)
    embedded = system.scheme is SchemeKind.COLLOCATION
    note = "embedded piecewise-linear data space" if embedded else ""
    ctx = _context(problem, system, note=note)
    rhs1 = (norm_t + norm_tn) * defect
    reports = [_measured_report("Th-special-1", lhs, rhs1, ctx)]
    if system.scheme is SchemeKind.ORTHO_PC:
        reports.append(_measured_report("Remark-squared", lhs, defect**2, ctx,
                                        tol=SQUARED_ESTIMATE_TOL))
    return reports


# ---------------------------------------------------------------------------
# Per-cell measurement


def measure_cell(problem: TestProblem, system: DiscreteSystem, alpha="eps",
                 spec: NoiseSpec | None = None):
    """Solve one cell and measure its errors against ``x_dagger`` (on
    ``system.reference_rule``).

    Projects the exact data, solves min-norm and Tikhonov at ``alpha`` (a
    positive float, or ``"eps"`` for the a-priori shift ``eps_n``) and, for
    a positive noise level in ``spec``, Tikhonov on the noisy data.  Returns
    the :class:`ConvergenceRow` and the reconstruction to report: the noisy
    one when there is noise, the exact-data Tikhonov one otherwise.
    """
    eps = system.epsilon_n
    ref_rule = system.reference_rule
    alpha = choose_alpha(eps) if alpha == "eps" else float(alpha)
    y_n = project_data(system, problem.y)
    err_min = l2_error(problem.x_dagger, min_norm_solution(system, y_n).function, ref_rule)
    rec = tikhonov_discrete(system, y_n, alpha)
    err_tikh = l2_error(problem.x_dagger, rec.function, ref_rule)
    err_noisy = None
    if spec is not None and spec.delta_n > 0.0:
        rec = tikhonov_discrete(system, add_noise(y_n, system.space, spec), alpha)
        err_noisy = l2_error(problem.x_dagger, rec.function, ref_rule)
    row = ConvergenceRow(n=system.n, eps_n=eps, sigma_min=system.sigma_min,
                         err_min_norm=err_min, err_tikh=err_tikh, err_noisy=err_noisy)
    return row, rec


# ---------------------------------------------------------------------------
# CSV serialization


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def reports_to_csv(reports) -> str:
    """Render bound reports as CSV, sorted by context key for determinism."""
    header = "bound_id,problem,scheme,n,alpha,delta,lhs,rhs,slack,passed"
    lines = [header]
    ordered = sorted(reports, key=lambda r: (r.bound_id,) + r.context.sort_key())
    for rep in ordered:
        ctx = rep.context
        passed = "skipped" if rep.skipped else _fmt(rep.passed)
        slack = math.nan if rep.skipped else rep.slack
        lines.append(",".join([
            rep.bound_id, ctx.problem, ctx.scheme, str(ctx.n),
            _fmt(ctx.alpha), _fmt(ctx.delta),
            _fmt(rep.lhs), _fmt(rep.rhs), _fmt(slack), passed,
        ]))
    return "\n".join(lines) + "\n"


def rows_to_csv(rows) -> str:
    """Render convergence rows as CSV in the given order."""
    header = "n,eps_n,sigma_min,err_min_norm,err_tikh,err_noisy"
    lines = [header]
    for row in rows:
        lines.append(",".join([
            str(row.n), _fmt(row.eps_n), _fmt(row.sigma_min),
            _fmt(row.err_min_norm), _fmt(row.err_tikh), _fmt(row.err_noisy),
        ]))
    return "\n".join(lines) + "\n"
