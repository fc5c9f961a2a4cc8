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
orthogonal projection scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discretize import (
    DiscreteSystem,
    SchemeKind,
    build_system,
    estimate_epsilon,
    project_data,
)
from .linalg import NumericalError, spectral_norm
from .problems import REFERENCE_POINTS, TestProblem, reference_rule
from .quadrature import QuadratureRule, aligned_rule
from .regularize import (
    InconsistentDataError,
    NoiseSpec,
    add_noise,
    choose_alpha,
    min_norm_solution,
    phi_eval,
    phi_from_source,
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
    "build_cell",
    "measure_cell",
    "convergence_study",
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


def _require_epsilon(system: DiscreteSystem) -> float:
    if system.epsilon_n is None:
        raise ValueError("system has no cached epsilon; run estimate_epsilon first")
    return system.epsilon_n


def _context(problem, system, alpha=None, delta=None, note="") -> ReportContext:
    return ReportContext(problem=problem.problem_id, scheme=system.scheme.value,
                         n=system.n, alpha=alpha, delta=delta, note=note)


# ---------------------------------------------------------------------------
# Convergence of the minimum-norm solution (exact data)


def verify_th1(problem: TestProblem, system: DiscreteSystem, alphas=(),
               ref_rule: QuadratureRule | None = None) -> list[BoundReport]:
    """Error of the minimum-norm solution against the shifted-reference bound.

    For each shift ``alpha`` the measured ``||x - x_n||`` is compared with
    ``(1 + eps_n / alpha) ||x - x_alpha||``; the a-priori choice
    ``alpha = eps_n`` makes the factor two and is always included.  Every
    report is skipped, with the solver's message as the reason, when the
    projected data falls outside the numerical range (data that is pure
    rounding, say a mode that vanishes at every node).
    """
    eps = _require_epsilon(system)
    if ref_rule is None:
        ref_rule = reference_rule(problem.kernel.domain)
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
        x_alpha = tikhonov_continuous_reference(problem, ref_rule, alpha)
        tik_err = l2_error(problem.x_dagger, x_alpha, ref_rule)
        rhs = (1.0 + eps / alpha) * tik_err
        ctx = _context(problem, system, alpha=alpha, note="eps_source=measured")
        reports.append(_measured_report(bound_id, lhs, rhs, ctx))
    return reports


# ---------------------------------------------------------------------------
# Stability of the unregularized solve under noise


def verify_th3(problem: TestProblem, system: DiscreteSystem, spec: NoiseSpec,
               ref_rule: QuadratureRule | None = None) -> list[BoundReport]:
    """Noise amplification of the pseudo-inverse path.

    The first report checks ``||x_n - x~_n|| <= delta / sigma_min``; it is
    skipped when the noisy data leaves the numerical range of the operator
    (rank-deficient systems reject generic noise).  The second checks the
    combined bound ``||x - x~_n|| <= 2 ||x - x_eps|| + delta / sigma`` under
    its hypothesis ``delta <= sigma phi(eps)``.
    """
    if ref_rule is None:
        ref_rule = reference_rule(problem.kernel.domain)
    y_n = project_data(system, problem.y)
    y_tilde = add_noise(y_n, system.space, spec)
    delta = system.space.norm(y_tilde - y_n)
    sigma = system.sigma_min

    reports = []
    ctx = _context(problem, system, delta=spec.delta_n)
    try:
        rec = min_norm_solution(system, y_n)
        # range components of the noise up to delta are expected; anything
        # beyond that means the data is genuinely outside the range
        rec_noisy = min_norm_solution(system, y_tilde,
                                      residual_allowance=delta * (1.0 + 1e-9))
    except InconsistentDataError as exc:
        reports.append(skipped_report("Th-3-stability", ctx, str(exc)))
        reports.append(skipped_report("Th-3-combined", ctx,
                                      "noisy data outside the numerical range"))
        return reports

    lhs = l2_error(rec.function, rec_noisy.function, ref_rule)
    reports.append(_measured_report("Th-3-stability", lhs, delta / sigma, ctx))

    if problem.source_repr is None:
        reports.append(skipped_report("Th-3-combined", ctx, "no source representation"))
        return reports
    eps = _require_epsilon(system)
    phi = phi_from_source(problem.source_repr)
    threshold = sigma * phi_eval(phi, eps)
    if delta > threshold:
        reports.append(skipped_report(
            "Th-3-combined", ctx,
            f"hypothesis fails: delta {delta:.3e} > sigma*phi(eps) {threshold:.3e}",
        ))
        return reports
    x_eps = tikhonov_continuous_reference(problem, ref_rule, eps)
    rhs = 2.0 * l2_error(problem.x_dagger, x_eps, ref_rule) + delta / sigma
    lhs2 = l2_error(problem.x_dagger, rec_noisy.function, ref_rule)
    reports.append(_measured_report("Th-3-combined", lhs2, rhs,
                                    replace(ctx, note="eps_source=measured")))
    return reports


# ---------------------------------------------------------------------------
# The regularized discrete solve


def verify_th5(problem: TestProblem, system: DiscreteSystem, alphas, spec: NoiseSpec,
               ref_rule: QuadratureRule | None = None) -> list[BoundReport]:
    """Bounds for the shifted discrete solve, with and without noise.

    Per shift: the noiseless bound ``(1 + eps/alpha) ||x - x_alpha||``, the
    noisy bound with the extra ``delta / sqrt(alpha)`` term, and the pure
    stability estimate between the two discrete solutions.  The a-priori
    shift ``alpha = eps_n`` is appended, as is the rate report at the noise
    level ``sqrt(eps) phi(eps)``, whose constant is recorded rather than
    asserted.
    """
    eps = _require_epsilon(system)
    if ref_rule is None:
        ref_rule = reference_rule(problem.kernel.domain)
    y_n = project_data(system, problem.y)
    y_tilde = add_noise(y_n, system.space, spec)
    delta = system.space.norm(y_tilde - y_n)

    reports = []
    for bound_suffix, alpha in [("", a) for a in alphas] + [("-eps", eps)]:
        x_alpha = tikhonov_continuous_reference(problem, ref_rule, alpha)
        tik_err = l2_error(problem.x_dagger, x_alpha, ref_rule)
        rec = tikhonov_discrete(system, y_n, alpha)
        rec_noisy = tikhonov_discrete(system, y_tilde, alpha)
        base_rhs = (1.0 + eps / alpha) * tik_err
        noise_term = delta / np.sqrt(alpha)
        ctx = _context(problem, system, alpha=alpha, delta=spec.delta_n,
                       note="eps_source=measured")
        reports.append(_measured_report(
            "Th-5" + bound_suffix,
            l2_error(problem.x_dagger, rec.function, ref_rule), base_rhs, ctx))
        reports.append(_measured_report(
            "Th-5-noise" + bound_suffix,
            l2_error(problem.x_dagger, rec_noisy.function, ref_rule),
            base_rhs + noise_term, ctx))
        reports.append(_measured_report(
            "Th-5-stability" + bound_suffix,
            l2_error(rec.function, rec_noisy.function, ref_rule), noise_term, ctx))

    ctx = _context(problem, system, alpha=eps, delta=spec.delta_n)
    if problem.source_repr is None:
        reports.append(skipped_report("Th-5-rate", ctx, "no source representation"))
        return reports
    phi = phi_from_source(problem.source_repr)
    phi_eps = phi_eval(phi, eps)
    rate_spec = NoiseSpec(delta_n=float(np.sqrt(eps) * phi_eps), seed=spec.seed)
    y_rate = add_noise(y_n, system.space, rate_spec)
    rec_rate = tikhonov_discrete(system, y_rate, eps)
    lhs_rate = l2_error(problem.x_dagger, rec_rate.function, ref_rule)
    constant = lhs_rate / phi_eps
    reports.append(BoundReport(
        bound_id="Th-5-rate", lhs=lhs_rate, rhs=lhs_rate, tol=0.0,
        context=replace(ctx, delta=rate_spec.delta_n, note=f"recorded_c={constant:.6e}"),
    ))
    return reports


# ---------------------------------------------------------------------------
# Projection-defect estimates for the operator-level error


def _special_norms(system: DiscreteSystem, ref_points: int = REFERENCE_POINTS):
    """The four operator norms of :func:`verify_special`.

    Returns ``(lhs, defect, norm_t, norm_tn)``: ``||T*T - T_n*T_n||``,
    ``||(I - pi_n) T||``, ``||T||`` and ``||T_n||``.  ``||T||`` belongs to
    the operator, not to the cell: it is :meth:`Kernel.operator_norm` on the
    rule ``eps_n`` was measured on, one eigenvalue problem per kernel and
    rule, kept with the continuous half ``estimate_epsilon`` formed there.

    The other three depend on the cell and are measured on a composite rule
    aligned with the system's breakpoints, which keeps basis-function
    products and kinked kernels exactly integrable; lhs and defect share it
    because the squared estimate compares them at an absolute 1e-8.  Each
    is the 2-norm of a matrix in the weighted forms ``k_w = D K D``,
    ``b_w = D B`` and ``c_w = C D`` (``D`` the square roots of the grid
    weights, ``B`` the basis and ``C`` the coordinate map on the grid):
    with ``L`` the Cholesky factor of ``b_w^T b_w``, ``b_w = Q L^T`` for
    orthonormal ``Q``, so ``T_n`` on the grid is ``Q r`` with the rank-n
    ``r = L^T c_w`` and ``T_n*T_n`` is ``r^T r``.  For collocation ``B`` is
    the piecewise-linear embedding, so ``||T_n||`` is the embedded-basis
    quantity, not a norm of the stored factor.  No norm needs an SVD.

    Raises
    ------
    NumericalError
        If the basis Gram matrix on the grid is not positive definite.
    """
    rule = aligned_rule(system.grid_knots(), ref_points)
    nodes, rho = rule.nodes, rule.weights
    sqrt_rho = np.sqrt(rho)

    kmat = system.kernel(nodes[:, None], nodes[None, :])
    basis = system.basis_values(nodes)  # (m, n)
    if system.scheme is SchemeKind.ORTHO_PC:
        # ref-grid cell averages: keeps the matrix identity with the grid
        # projector exact, so the squared estimate is checkable at 1e-8
        weights_cell = system.space.weights
        coords_map = (basis * rho[:, None]).T @ kmat / weights_cell[:, None]
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
    lhs = spectral_norm(k_w.T @ k_w - r.T @ r)
    defect = spectral_norm(k_w - b_w @ c_w)
    norm_t = system.kernel.operator_norm(system.epsilon_rule(ref_points))
    return lhs, defect, norm_t, spectral_norm(r)


def verify_special(problem: TestProblem, system: DiscreteSystem,
                   ref_points: int = REFERENCE_POINTS) -> list[BoundReport]:
    """Operator-norm estimates relating the normal-operator error to the
    projection defect.

    Both sides come from :func:`_special_norms`: ``||T||`` from the kernel's
    norm on the ``eps_n`` rule (measured once per kernel), the cell's norms
    on its aligned grid.  For the subspace schemes
    (interpolation, cell averages) the first report instantiates the general
    bound ``(||T|| + ||T_n||) ||(I - pi_n) T||``; collocation has no
    function-space data space, so its row is measured through the
    piecewise-linear embedding of nodal values (noted in the context).  The
    squared estimate holds for the orthogonal projection scheme only and
    gets its own report.
    """
    lhs, defect, norm_t, norm_tn = _special_norms(system, ref_points)
    note = "embedded piecewise-linear data space" if system.embedded_basis else ""
    ctx = _context(problem, system, note=note)
    rhs1 = (norm_t + norm_tn) * defect
    reports = [_measured_report("Th-special-1", lhs, rhs1, ctx)]
    if system.scheme is SchemeKind.ORTHO_PC:
        reports.append(_measured_report("Remark-squared", lhs, defect**2, ctx,
                                        tol=SQUARED_ESTIMATE_TOL))
    return reports


# ---------------------------------------------------------------------------
# Structural identities and studies


def build_cell(problem: TestProblem, scheme, n: int, ref_points: int, inner_factor: int,
               matrix=None) -> DiscreteSystem:
    """Build the system of one (problem, scheme, n) cell and measure eps_n.

    ``matrix`` replays a dumped normal matrix in place of the assembly;
    :func:`build_system` validates and factors it like an assembled one.
    ``eps_n`` is measured by :func:`estimate_epsilon` at ``ref_points`` and
    cached on the system.
    """
    system = build_system(problem.kernel, scheme, n, inner_factor=inner_factor,
                          matrix=matrix)
    estimate_epsilon(system, ref_points)
    return system


def measure_cell(problem: TestProblem, system: DiscreteSystem, ref_rule: QuadratureRule,
                 alpha="eps", spec: NoiseSpec | None = None):
    """Solve one cell and measure its errors against ``x_dagger``.

    Projects the exact data, solves min-norm and Tikhonov at ``alpha`` (a
    positive float, or ``"eps"`` for the a-priori shift ``eps_n``) and, for
    a positive noise level in ``spec``, Tikhonov on the noisy data.  Returns
    the :class:`ConvergenceRow` and the reconstruction to report: the noisy
    one when there is noise, the exact-data Tikhonov one otherwise.
    """
    eps = _require_epsilon(system)
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


def convergence_study(problem: TestProblem, scheme, n_list, spec: NoiseSpec | None = None,
                      ref_points: int = REFERENCE_POINTS, inner_factor: int = 4, alpha="eps",
                      matrix=None) -> list[ConvergenceRow]:
    """Measured error quantities over a ladder of discretization sizes: one
    :func:`build_cell` and one :func:`measure_cell` per size."""
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be nonempty and increasing")
    ref_rule = reference_rule(problem.kernel.domain, ref_points)
    rows = []
    for n in n_list:
        system = build_cell(problem, scheme, n, ref_points, inner_factor, matrix)
        rows.append(measure_cell(problem, system, ref_rule, alpha, spec)[0])
    return rows


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
