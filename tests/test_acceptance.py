"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``)
and asserts the criterion.  The shared grid of discretizations comes from
the session fixtures in ``conftest.py``.
"""

import numpy as np
import pytest

from illposed.analysis import (
    SQUARED_ESTIMATE_TOL,
    l2_error,
    measure_cell,
    verify_special,
    verify_th1,
    verify_th3,
    verify_th5,
)
from illposed.cli import EXIT_OK, main
from illposed.discretize import RANK_RTOL, apply_adjoint, build_system
from illposed.problems import get_problem, reference_rule
from illposed.quadrature import aligned_rule
from tests.conftest import GRID_N, SCHEMES, metric_roots

REF = reference_rule(get_problem("rank1-sine").kernel.domain)


def report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_finite_rank_oracle(catalog, grid_systems):
    # closed-form generalized inverse of the rank-3 operator, computed in
    # the test from the expansion, against the discrete minimum-norm solve
    from illposed.regularize import min_norm_solution
    from illposed.discretize import project_data

    prob = catalog["rank3-decay"]
    system = grid_systems["rank3-decay", "collocation", 32]
    coeffs = prob.svd.coefficients(prob.y, REF, side="v")
    oracle = prob.svd.synthesize(coeffs / prob.svd.sigmas, side="u")
    rec = min_norm_solution(system, project_data(system, prob.y))
    err = l2_error(oracle, rec.function, REF)
    failures = [] if err <= 1e-6 else [f"L2 gap {err:.3e}"]
    report(1, f"finite-rank oracle equivalence (gap {err:.2e} <= 1e-6)", failures)


def test_criterion_2_factor_two_bound(catalog, grid_systems):
    failures = []
    for (pid, scheme, n), system in grid_systems.items():
        prob = catalog[pid]
        rep = verify_th1(prob, system)[-1]
        assert rep.bound_id == "Th-1-factor2"
        if not rep.passed:
            failures.append((pid, scheme, n, rep.lhs, rep.rhs))
    report(2, "factor-two bound, 3 problems x 3 schemes x n in {8,16,32}", failures)


def test_criterion_3_noise_stability_pseudo_inverse(catalog, grid_systems):
    failures = []
    skipped = []
    for (pid, scheme, n), system in grid_systems.items():
        for rep in verify_th3(catalog[pid], system, (1e-6, 1e-4)):
            if rep.skipped:
                skipped.append((pid, scheme, n, rep.bound_id))
                if not rep.reason:
                    failures.append((pid, scheme, n, "skip without reason"))
            elif not rep.passed:
                failures.append((pid, scheme, n, rep.bound_id, rep.lhs, rep.rhs))
    # stability rows must actually run on every cell of this grid
    stability_runs = 2 * len(grid_systems)
    if sum(1 for s in skipped if s[3] == "Th-3-stability"):
        failures.append("stability row skipped on the default grid")
    report(3, f"pseudo-inverse noise bound ({stability_runs} runs, "
              f"{len(skipped)} hypothesis skips reported)", failures)


def test_criterion_4_shifted_noise_bound(catalog, grid_systems):
    failures = []
    for (pid, scheme, n), system in grid_systems.items():
        for rep in verify_th5(catalog[pid], system, (1e-2, 1e-4), (1e-2, 1e-4)):
            if rep.bound_id.startswith("Th-5-stability") and not rep.passed:
                failures.append((pid, scheme, n, rep.context.alpha, rep.context.delta))
            if not rep.skipped and not rep.passed:
                failures.append((pid, scheme, n, rep.bound_id))
    report(4, "shifted-solve noise bound, alpha x delta in {1e-2,1e-4}^2", failures)


def test_criterion_5_projection_defect_estimates(catalog, grid_systems):
    failures = []
    for pid, prob in catalog.items():
        for scheme in SCHEMES:
            for n in (4, 8, 16):
                system = (grid_systems.get((pid, scheme, n))
                          or build_system(prob.kernel, scheme, n))
                for rep in verify_special(prob, system):
                    if rep.bound_id == "Remark-squared":
                        if rep.lhs > rep.rhs + SQUARED_ESTIMATE_TOL:
                            failures.append(("squared", pid, n, rep.lhs, rep.rhs))
                    elif not rep.passed:
                        failures.append(("special-1", pid, scheme, n))
    report(5, "squared estimate (ortho) and general defect bound (all schemes)",
           failures)


def test_criterion_6_convergence_green(catalog):
    prob = catalog["green-m1"]
    rows = [measure_cell(prob, build_system(prob.kernel, "collocation", n))[0]
            for n in (8, 16, 32, 64)]
    eps = [row.eps_n for row in rows]
    err = [row.err_min_norm for row in rows]
    failures = []
    if not all(b < a for a, b in zip(eps, eps[1:])):
        failures.append(f"eps not strictly decreasing: {eps}")
    if not all(b < a for a, b in zip(err, err[1:])):
        failures.append(f"error not strictly decreasing: {err}")
    if err[-1] > 1e-3:
        failures.append(f"final error {err[-1]:.3e} > 1e-3")
    report(6, f"convergence on green-m1 (final error {err[-1]:.2e})", failures)


def test_criterion_7_source_condition_machinery(catalog):
    failures = []
    lam = np.geomspace(1e-12, 1e2, 200)
    for nu in (0.25, 0.5, 1.0):
        for alpha in np.geomspace(1e-5, 1e-1, 20):
            ratio = np.max(alpha * lam**nu / (lam + alpha)) / alpha**nu
            if ratio > 1.0 + 1e-12:
                failures.append(("sup", nu, alpha, ratio))
    prob = catalog["green-m1"]
    source = prob.source_repr
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        from illposed.regularize import tikhonov_continuous_reference

        lhs = l2_error(prob.x_dagger,
                       tikhonov_continuous_reference(prob, REF, alpha), REF)
        rhs = source.u_norm * source.phi(alpha)  # c0 = 1
        if lhs > rhs + 1e-6 * (1.0 + rhs):
            failures.append(("tikh-bound", alpha, lhs, rhs))
    report(7, "source-condition sup check (c0=1) and smoothness error bound",
           failures)


def test_criterion_8_structural_identities(catalog, grid_systems):
    rng = np.random.default_rng(17)
    failures = []
    for (pid, scheme, n), system in grid_systems.items():
        # generalized-inverse norm identity
        # the symmetrized matrix, rebuilt independently of the stored factor;
        # its symmetric part, since the hermitian solvers read one triangle
        sym = system.space.symmetrize(system.matrix)
        sym = 0.5 * (sym + sym.T)
        pinv = np.linalg.pinv(sym, rcond=RANK_RTOL, hermitian=True)
        product = np.sqrt(np.linalg.norm(pinv, 2)) * system.sigma_min
        if abs(product - 1.0) > 1e-10:
            failures.append(("pinv", pid, scheme, n, product))
        # metric symmetry and positive semidefiniteness of the assembly
        metric_a = system.space.apply_metric(system.matrix)
        if np.max(np.abs(metric_a - metric_a.T)) > 1e-8 * np.max(np.abs(metric_a)):
            failures.append(("symmetry", pid, scheme, n))
        eigs = np.linalg.eigvalsh(sym)
        if eigs[0] < -1e-8 * max(eigs[-1], 1e-300):
            failures.append(("psd", pid, scheme, n, eigs[0]))
        # adjoint identity under the scheme-aligned measurement rule
        coeffs = rng.standard_normal(6)
        poly = lambda t: np.polynomial.polynomial.polyval(np.asarray(t), coeffs)
        v = rng.standard_normal(n)
        inner = aligned_rule(system.knots, 4 * n, min_per_panel=8)
        tnx = system.slice_values(inner.nodes) @ (inner.weights * poly(inner.nodes))
        lhs = tnx @ system.space.apply_metric(v)
        ref = aligned_rule(system.knots, 256)
        rhs = float(np.sum(ref.weights * poly(ref.nodes)
                           * apply_adjoint(system, v)(ref.nodes)))
        if abs(lhs - rhs) > 1e-8 * (1.0 + abs(lhs)):
            failures.append(("adjoint", pid, scheme, n, abs(lhs - rhs)))
        # the one factorization every solve filters: orthonormal eigenvectors
        # that reproduce the symmetrized matrix
        q = metric_roots(system.space)[0] @ system.metric_eigvecs
        if np.max(np.abs(q.T @ q - np.eye(n))) > 1e-10:
            failures.append(("factor-orthonormal", pid, scheme, n))
        if np.max(np.abs((q * system.eigvals) @ q.T - sym)) > 1e-12 * np.max(np.abs(sym)):
            failures.append(("factor-recon", pid, scheme, n))
    report(8, "structural identities (pinv norm, adjointness, symmetry/PSD, factor)",
           failures)


def test_criterion_9_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["verify", "--out", str(out1)])
    rc2 = main(["verify", "--out", str(out2)])
    failures = []
    if rc1 != EXIT_OK or rc2 != EXIT_OK:
        failures.append(f"exit codes {rc1}, {rc2}")
    elif (out1 / "bounds.csv").read_bytes() != (out2 / "bounds.csv").read_bytes():
        failures.append("bounds.csv differs between identical runs")
    report(9, "verify command: exit 0 and bytewise-identical outputs", failures)
