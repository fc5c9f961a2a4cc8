import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed import analysis, linalg
from illposed.analysis import (
    BoundReport,
    ReportContext,
    default_tolerance,
    l2_error,
    measure_cell,
    reports_to_csv,
    rows_to_csv,
    verify_special,
    verify_th1,
    verify_th3,
    verify_th5,
    _special_norms,
)
from illposed.discretize import SchemeKind, build_system
from illposed.linalg import NumericalError, symmetric_norm
from illposed.problems import (
    REFERENCE_POINTS,
    Domain,
    SeparableExpansion,
    get_problem,
    green_problem,
    make_separable_problem,
    reference_rule,
)
from illposed.quadrature import aligned_rule
from illposed.regularize import NoiseSpec

UNIT = Domain(0.0, 1.0)
REF = reference_rule(UNIT)


def sine_mode(j):
    return lambda t: np.sqrt(2.0) * np.sin(j * np.pi * np.asarray(t))


@pytest.fixture(scope="module")
def zero_problem():
    exp = SeparableExpansion([1.0, 0.5], [sine_mode(1), sine_mode(2)],
                             [sine_mode(1), sine_mode(2)], UNIT)
    prob = make_separable_problem(exp, [0.0, 0.0], problem_id="zero-data")
    return prob, build_system(prob.kernel, "collocation", 8)


def test_l2_error_basics():
    assert l2_error(lambda t: np.asarray(t), lambda t: np.asarray(t), REF) == 0.0
    one = lambda t: np.ones_like(np.asarray(t))
    zero = lambda t: np.zeros_like(np.asarray(t))
    assert l2_error(one, zero, REF) == pytest.approx(1.0, abs=1e-13)
    assert l2_error(sine_mode(1), zero, REF) == pytest.approx(1.0, abs=1e-12)


def test_bound_report_semantics():
    ctx = ReportContext("p", "s", 4)
    good = BoundReport("X", lhs=1.0, rhs=1.1, tol=0.0, context=ctx)
    tight = BoundReport("X", lhs=1.0, rhs=1.0 - 1e-9, tol=1e-6, context=ctx)
    bad = BoundReport("X", lhs=2.0, rhs=1.0, tol=1e-6, context=ctx)
    skip = BoundReport("X", lhs=math.nan, rhs=math.nan, tol=0.0, context=ctx,
                       skipped=True, reason="because")
    assert good.passed and good.slack == pytest.approx(0.1)
    assert tight.passed
    assert not bad.passed
    assert not skip.passed and skip.skipped
    assert default_tolerance(3.0) == pytest.approx(4e-6)


# ---------------------------------------------------------------------------
# the three theorem verifiers


def test_verify_th1_rank1(grid_systems, catalog):
    prob = catalog["rank1-sine"]
    reports = verify_th1(prob, grid_systems["rank1-sine", "collocation", 16],
                         alphas=(1e-2,))
    assert [r.bound_id for r in reports] == ["Th-1", "Th-1-factor2"]
    assert all(r.passed for r in reports)
    assert all(r.context.note == "eps_source=measured" for r in reports)
    assert reports[0].slack > 0.0
    # at n=8 the measured epsilon is well above the floating floor, so the
    # factor-two specialization has strictly positive slack as well
    reports8 = verify_th1(prob, grid_systems["rank1-sine", "collocation", 8])
    assert reports8[-1].bound_id == "Th-1-factor2" and reports8[-1].slack > 0.0


def test_verify_th1_zero_data(zero_problem):
    prob, system = zero_problem
    reports = verify_th1(prob, system)
    (rep,) = [r for r in reports if r.bound_id == "Th-1-factor2"]
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_verify_th1_skips_data_that_is_rounding():
    # sin(3 pi t) vanishes at every interpolation node at n = 4, so the
    # projected data is rounding (~7e-18) outside the numerical range
    prob = green_problem(3)
    system = build_system(prob.kernel, "interpolatory", 4)
    reports = verify_th1(prob, system, alphas=(1e-2,))
    assert [r.bound_id for r in reports] == ["Th-1", "Th-1-factor2"]
    assert [r.context.alpha for r in reports] == [1e-2, system.epsilon_n]
    assert all(r.skipped and "inconsistent discrete data" in r.reason for r in reports)


def test_verify_th3_names_the_rejected_exact_data():
    # the same cell: the exact data is rejected (residual ~1.8e-18), so both
    # rows carry that solver message and neither blames the noise
    prob = green_problem(3)
    system = build_system(prob.kernel, "interpolatory", 4)
    reports = verify_th3(prob, system, [1e-4])
    assert [r.bound_id for r in reports] == ["Th-3-stability", "Th-3-combined"]
    assert all(r.skipped and "inconsistent discrete data" in r.reason for r in reports)
    assert reports[0].reason == reports[1].reason


def test_verify_th1_green_error_decreases(grid_systems, catalog):
    prob = catalog["green-m1"]
    errors = []
    for n in (8, 16, 32):
        reports = verify_th1(prob, grid_systems["green-m1", "collocation", n])
        assert all(r.passed for r in reports)
        errors.append(reports[-1].lhs)
    assert errors[0] > errors[1] > errors[2]


def test_verify_th3_zero_noise(grid_systems, catalog):
    prob = catalog["rank1-sine"]
    system = grid_systems["rank1-sine", "collocation", 8]
    reports = verify_th3(prob, system, [0.0])
    stability = next(r for r in reports if r.bound_id == "Th-3-stability")
    assert stability.passed and stability.lhs == pytest.approx(0.0, abs=1e-14)


def test_verify_th3_small_noise_rank1(grid_systems, catalog):
    prob = catalog["rank1-sine"]
    system = grid_systems["rank1-sine", "collocation", 8]
    reports = verify_th3(prob, system, [1e-6])
    stability = next(r for r in reports if r.bound_id == "Th-3-stability")
    assert stability.passed and not stability.skipped


def test_verify_th3_green(grid_systems, catalog):
    prob = catalog["green-m1"]
    system = grid_systems["green-m1", "collocation", 8]
    reports = verify_th3(prob, system, [1e-3], seed=1)
    stability = next(r for r in reports if r.bound_id == "Th-3-stability")
    assert stability.passed
    assert stability.slack > 0.0


def test_verify_th3_hypothesis_skip(grid_systems, catalog):
    # a noise level far above sigma*phi(eps) must produce a skipped report
    # with the reason recorded, never a silent drop
    prob = catalog["green-m1"]
    system = grid_systems["green-m1", "collocation", 8]
    reports = verify_th3(prob, system, [1e-2])
    combined = next(r for r in reports if r.bound_id == "Th-3-combined")
    assert combined.skipped
    assert "hypothesis fails" in combined.reason


def test_verify_th5_zero_noise_reduces(grid_systems, catalog):
    prob = catalog["rank1-sine"]
    system = grid_systems["rank1-sine", "collocation", 8]
    reports = verify_th5(prob, system, (1e-2,), [0.0])
    plain = next(r for r in reports if r.bound_id == "Th-5")
    noisy = next(r for r in reports if r.bound_id == "Th-5-noise")
    assert noisy.lhs == pytest.approx(plain.lhs, abs=1e-14)
    assert noisy.rhs == pytest.approx(plain.rhs, abs=1e-14)


def test_verify_th5_passes_under_hypothesis(grid_systems, catalog):
    prob = catalog["rank1-sine"]
    system = grid_systems["rank1-sine", "collocation", 16]
    reports = verify_th5(prob, system, (1e-2, 1e-4), [1e-4], seed=5)
    assert all(r.passed for r in reports if not r.skipped)
    assert any(r.bound_id == "Th-5-eps" for r in reports)


def test_verify_th5_rate_constant_stable(grid_systems, catalog):
    prob = catalog["green-m1"]
    constants = []
    for n in (8, 16, 32):
        reports = verify_th5(prob, grid_systems["green-m1", "collocation", n],
                             (), [1e-4], seed=5)
        rate = next(r for r in reports if r.bound_id == "Th-5-rate")
        constants.append(float(rate.context.note.split("=")[1]))
    assert max(constants) / min(constants) <= 10.0


def test_verify_special_reports(grid_systems, catalog):
    for scheme in ("collocation", "interpolatory", "ortho-pc"):
        system = grid_systems["green-m1", scheme, 8]
        reports = verify_special(catalog["green-m1"], system)
        assert all(r.passed for r in reports)
        has_squared = any(r.bound_id == "Remark-squared" for r in reports)
        assert has_squared == (scheme == "ortho-pc")
        if scheme == "collocation":
            assert "embedded" in reports[0].context.note


# ---------------------------------------------------------------------------
# structural identities


def test_sigma_relation(grid_systems):
    # sigma_min squared is the smallest positive eigenvalue of the
    # symmetrized matrix (LAPACK oracle)
    for key in [("rank3-decay", "interpolatory", 16), ("green-m1", "ortho-pc", 8)]:
        system = grid_systems[key]
        eigs = np.linalg.eigvalsh(system.space.symmetrize(system.matrix))
        positive = eigs[eigs > 1e-10 * eigs[-1]]
        assert system.sigma_min**2 == pytest.approx(positive[0], rel=1e-8)


def test_pinverse_norm_identity(grid_systems):
    for key in [("rank1-sine", "collocation", 8), ("green-m1", "interpolatory", 16)]:
        system = grid_systems[key]
        pinv = np.linalg.pinv(system.space.symmetrize(system.matrix),
                              rcond=system.rel_tol, hermitian=True)
        assert np.sqrt(np.linalg.norm(pinv, 2)) * system.sigma_min == pytest.approx(
            1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# convergence studies


def convergence_rows(problem, scheme, n_list, spec=None):
    """One measured row per size: the cells ``illposed study`` runs."""
    return [measure_cell(problem, build_system(problem.kernel, scheme, n), spec=spec)[0]
            for n in n_list]


def test_convergence_rank1():
    prob = get_problem("rank1-sine")
    rows = convergence_rows(prob, "collocation", [4, 8, 16])
    assert rows[-1].err_min_norm <= 1e-6
    for a, b in zip(rows, rows[1:]):
        assert b.err_min_norm <= a.err_min_norm + 1e-12


def test_convergence_zero_data(zero_problem):
    prob, _ = zero_problem
    rows = convergence_rows(prob, "collocation", [4, 8])
    for row in rows:
        assert row.err_min_norm == pytest.approx(0.0, abs=1e-13)
        assert row.err_tikh == pytest.approx(0.0, abs=1e-13)


def test_convergence_green_with_noise():
    prob = get_problem("green-m1")
    rows = convergence_rows(prob, "collocation", [8, 16, 32], NoiseSpec(1e-4, 2))
    eps = [row.eps_n for row in rows]
    tikh = [row.err_tikh for row in rows]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert all(b < a for a, b in zip(tikh, tikh[1:]))
    assert all(row.err_noisy is not None for row in rows)


# ---------------------------------------------------------------------------
# CSV rendering


def test_reports_to_csv_layout(grid_systems, catalog):
    prob = catalog["rank1-sine"]
    system = grid_systems["rank1-sine", "collocation", 8]
    reports = verify_th1(prob, system) + verify_th3(prob, system, [1e-2])
    text = reports_to_csv(reports)
    lines = text.splitlines()
    assert lines[0] == "bound_id,problem,scheme,n,alpha,delta,lhs,rhs,slack,passed"
    assert len(lines) == len(reports) + 1
    assert text == reports_to_csv(list(reports))  # deterministic
    statuses = {line.split(",")[-1] for line in lines[1:]}
    assert statuses <= {"true", "false", "skipped"}
    skipped_lines = [line for line in lines[1:] if line.endswith("skipped")]
    for line in skipped_lines:
        assert ",nan," in line


def test_rows_to_csv_layout():
    prob = get_problem("rank1-sine")
    rows = convergence_rows(prob, "collocation", [4, 8])
    lines = rows_to_csv(rows).splitlines()
    assert lines[0] == "n,eps_n,sigma_min,err_min_norm,err_tikh,err_noisy"
    assert len(lines) == 3
    assert lines[1].startswith("4,")
    assert lines[1].endswith(",")  # err_noisy empty when no noise


def _dense_kernel(system, rule):
    nodes, rho = rule.nodes, rule.weights
    return system.kernel(nodes[:, None], nodes[None, :]), np.outer(np.sqrt(rho), np.sqrt(rho))


def _dense_special_norms(system):
    # the dense formulas on the full m x m grid matrices, SVD for the
    # non-symmetric ones: the oracle for the rank-n Gram forms and for
    # ||T||, all four on the cell's aligned rule
    def top(a):
        return np.linalg.svd(a, compute_uv=False)[0]

    rule = aligned_rule(system.grid_knots(), REFERENCE_POINTS)
    nodes, rho = rule.nodes, rule.weights
    kmat, weight = _dense_kernel(system, rule)
    basis = system.basis_values(nodes)
    if system.scheme is SchemeKind.ORTHO_PC:
        cells = system.space.apply_metric(np.ones(system.n))  # the cell measures h
        coords_map = (basis * rho[:, None]).T @ kmat / cells[:, None]
    else:
        coords_map = system.slice_values(nodes)
    basis_gram = (basis * rho[:, None]).T @ basis
    lhs_mat = (kmat.T @ (rho[:, None] * kmat) - coords_map.T @ basis_gram @ coords_map) * weight
    return (top(0.5 * (lhs_mat + lhs_mat.T)), top((kmat - basis @ coords_map) * weight),
            top(kmat * weight), top((basis @ coords_map) * weight))


@pytest.mark.parametrize("pid", ["green-m1", "rank3-decay"])
@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_special_norms_match_the_dense_svd_formulas(grid_systems, pid, scheme):
    system = grid_systems[pid, scheme, 16]
    measured = _special_norms(system)
    oracle = _dense_special_norms(system)
    for label, got, want in zip(("lhs", "defect", "norm_t", "norm_tn"), measured, oracle):
        assert got == pytest.approx(want, rel=1e-10), label


def test_special_norms_agree_with_lapack(grid_systems, monkeypatch):
    # each operator Lanczos takes (lhs, defect^2, ||T|| or its Gram, the
    # Gram of ||T_n||), against LAPACK on the matrix the operator applies
    seen = []

    def recording(apply, dim):
        seen.append((apply, dim, symmetric_norm(apply, dim)))
        return seen[-1][2]

    for module in (analysis, linalg):  # spectral_norm reads it from linalg
        monkeypatch.setattr(module, "symmetric_norm", recording)
    for key, system in grid_systems.items():
        seen.clear()
        _special_norms(system)
        assert len(seen) == 4, key
        for apply, dim, got in seen:
            lapack = np.max(np.abs(np.linalg.eigvalsh(apply(np.eye(dim)))))
            assert got == pytest.approx(lapack, rel=1e-12, abs=0.0), (key, dim)


def test_special_norms_reject_a_singular_basis(grid_systems, monkeypatch):
    system = grid_systems["green-m1", "interpolatory", 8]
    # the system is frozen, so the stand-in basis goes on its class
    monkeypatch.setattr(type(system), "basis_values",
                        lambda self, s: np.zeros((np.size(s), self.n)))
    with pytest.raises(NumericalError, match="not positive definite"):
        _special_norms(system)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_special_norms_form_no_m_by_m_product(scheme):
    # the kernel sample and its weighted copy are the only m x m arrays;
    # an m x m product such as k_w^T k_w would add at least one more
    system = build_system(get_problem("green-m1").kernel, scheme, 16, ref_points=1024)
    _special_norms(system)  # fills the system's slice memo
    m = aligned_rule(system.grid_knots(), system.ref_points).nodes.size
    tracemalloc.start()
    try:
        _special_norms(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * m * m * 8, peak / (m * m * 8)


# ---------------------------------------------------------------------------
# the paper's inequalities as properties of drawn problems


@st.composite
def drawn_cells(draw):
    """A problem nobody picked and a cell to verify it on: green_problem(m)
    with m <= 6, or a separable problem on 1-4 sine modes out of 1-12 with
    singular values decaying by a power or geometrically and coefficients
    of magnitude above 0.05; any scheme, n in [4, 32] and a noise level."""
    if draw(st.booleans()):
        problem = green_problem(draw(st.integers(1, 6)))
    else:
        modes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
        k = np.arange(len(modes))
        if draw(st.booleans()):
            sigmas = (1.0 + k) ** -draw(st.floats(0.0, 4.9))
        else:
            sigmas = draw(st.floats(0.1, 1.0)) ** k
        coeffs = [draw(st.sampled_from([-1.0, 1.0]))
                  * draw(st.floats(0.05, 1.0, exclude_min=True)) for _ in modes]
        funcs = [sine_mode(j) for j in modes]
        expansion = SeparableExpansion(sigmas, funcs, funcs, UNIT)
        problem = make_separable_problem(expansion, coeffs)
    scheme = draw(st.sampled_from([kind.value for kind in SchemeKind]))
    n = draw(st.integers(4, 32))
    deltas = [draw(st.sampled_from([1e-6, 1e-4, 1e-2]))]
    return problem, scheme, n, deltas, draw(st.integers(0, 99))


@settings(max_examples=60)
@given(cell=drawn_cells())
def test_bounds_hold_on_drawn_problems(cell):
    # every theorem the grid checks, on problems and cells the grid does
    # not hold: each measured report passes, and each skip says why
    problem, scheme, n, deltas, seed = cell
    system = build_system(problem.kernel, scheme, n)
    alphas = (1e-2, 1e-4)
    reports = (verify_th1(problem, system, alphas) + verify_th3(problem, system, deltas, seed)
               + verify_th5(problem, system, alphas, deltas, seed)
               + verify_special(problem, system))
    assert [r for r in reports if not (r.skipped or r.passed)] == []
    assert all(r.reason for r in reports if r.skipped)
