import dataclasses
import tracemalloc

import numpy as np
import pytest

from illposed import analysis, discretize
from illposed.analysis import (
    _special_norms,
    measure_cell,
    verify_special,
    verify_th1,
    verify_th3,
    verify_th5,
)
from illposed.discretize import (
    _CELL_GAUSS,
    _TILE,
    DiscreteSystem,
    SchemeKind,
    _cell_average_slices,
    apply_adjoint,
    build_system,
    dump_matrix,
    estimate_epsilon,
    load_matrix,
    project_data,
)
from illposed.estimators import MinimumNormSolver
from illposed.linalg import NumericalError, spectral_norm, symmetric_norm
from illposed.problems import REFERENCE_POINTS, Domain, Kernel, get_problem, reference_rule
from illposed.quadrature import (
    aligned_rule,
    composite_trapezoid,
    gauss_legendre,
    gauss_nodes,
    segment_gauss,
)
from illposed.regularize import NoiseSpec

UNIT = Domain(0.0, 1.0)


def constant_kernel():
    return Kernel(lambda s, t: np.ones_like(np.broadcast_arrays(s, t)[0]), UNIT)


def test_scheme_parsing():
    assert SchemeKind.parse("ortho") is SchemeKind.ORTHO_PC
    assert SchemeKind.parse("Interpolatory") is SchemeKind.INTERPOLATORY
    assert SchemeKind.parse(SchemeKind.COLLOCATION) is SchemeKind.COLLOCATION
    with pytest.raises(ValueError):
        SchemeKind.parse("galerkin")


def test_collocation_constant_kernel_single_node():
    # hand computation: a_11 = w_1 * integral k(t_1, t)^2 dt = 1
    system = build_system(constant_kernel(), "collocation", 1)
    assert system.rule.nodes == pytest.approx([0.5])
    assert system.rule.weights == pytest.approx([1.0])
    assert system.matrix == pytest.approx(np.array([[1.0]]))


def test_hat_gram_closed_form():
    # n=3 hats on [0,1], h=1/2: diagonal (h/3, 2h/3, h/3), off-diagonal h/6
    system = build_system(constant_kernel(), "interpolatory", 3)
    gram = system.space.apply_metric(np.eye(3))
    assert np.diag(gram) == pytest.approx([1.0 / 6.0, 1.0 / 3.0, 1.0 / 6.0])
    assert gram[0, 1] == pytest.approx(1.0 / 12.0)
    assert gram[1, 2] == pytest.approx(1.0 / 12.0)
    assert gram[0, 2] == 0.0


def test_separable_kernel_has_numerical_rank_one():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 16)
    s = np.linalg.svd(system.space.symmetrize(system.matrix), compute_uv=False)
    assert s[1] <= 1e-8 * s[0]


@pytest.mark.parametrize("n", [8.7, 8.0, True, "8", None])
def test_build_system_takes_only_an_integer_n(n):
    # int() would have built n = 8 from 8.7 and n = 1 from True
    with pytest.raises(ValueError, match="n must be an integer"):
        build_system(constant_kernel(), "collocation", n)


def test_build_system_accepts_numpy_integers():
    system = build_system(constant_kernel(), "ortho-pc", np.int64(4))
    assert system.n == 4 and type(system.n) is int


def test_nonfinite_kernel_sample_rejected():
    kernel = constant_kernel()
    kernel.evaluator = lambda s, t: np.full_like(np.broadcast_arrays(s, t)[0], np.inf)
    with pytest.raises(NumericalError):
        build_system(kernel, "collocation", 4)


def test_build_argument_validation():
    kernel = constant_kernel()
    with pytest.raises(ValueError):
        build_system(kernel, "interpolatory", 1)
    with pytest.raises(ValueError):
        build_system(kernel, "ortho", 4, outer_rule=gauss_legendre(4, UNIT))
    with pytest.raises(ValueError):
        build_system(kernel, "collocation", 4, outer_rule=gauss_legendre(5, UNIT))
    with pytest.raises(ValueError, match="domain"):
        build_system(kernel, "collocation", 4, outer_rule=gauss_legendre(4, Domain(0.0, 2.0)))


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.5])
def test_build_system_rejects_rel_tol_outside_unit_interval(rel_tol):
    # the system's one truncation threshold is checked where it is set;
    # 1.5 would keep no eigenvalue and report sigma_min = 0
    kernel = get_problem("green-m1").kernel
    with pytest.raises(ValueError, match="rel_tol"):
        build_system(kernel, "collocation", 8, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        MinimumNormSolver(kernel, n=8, rel_tol=rel_tol).fit(np.zeros(8))


@pytest.mark.parametrize("ref_points", [True, 8.0, 0])
def test_build_system_rejects_a_bad_ref_points(ref_points):
    # a bool or a fraction is never coerced, and the rule needs a point
    with pytest.raises(ValueError, match="ref_points"):
        build_system(get_problem("green-m1").kernel, "collocation", 8, ref_points=ref_points)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_metric_symmetry_and_psd(scheme, n):
    # the data-space metric times the matrix must be symmetric PSD; checked
    # against numpy as the independent oracle
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, scheme, n)
    metric_a = system.space.apply_metric(system.matrix)
    scale = np.max(np.abs(metric_a))
    assert np.max(np.abs(metric_a - metric_a.T)) <= 1e-8 * scale
    sym = system.space.symmetrize(system.matrix)
    eigvals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    assert eigvals[0] >= -1e-8 * eigvals[-1]


def test_sigma_min_matches_symmetrized_svd():
    # brute-force oracle: smallest positive singular value of the
    # w-symmetrized matrix via LAPACK
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    s = np.linalg.svd(system.space.symmetrize(system.matrix), compute_uv=False)
    positive = s[s > 1e-10 * s[0]]
    assert system.sigma_min**2 == pytest.approx(positive[-1], rel=1e-10)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_stored_factor_reproduces_symmetrized_matrix(scheme):
    system = build_system(get_problem("green-m1").kernel, scheme, 12)
    q, lam = system.eigvecs, system.eigvals
    sym = system.space.symmetrize(system.matrix)
    scale = np.max(np.abs(sym))
    assert np.max(np.abs((q * lam) @ q.T - sym)) <= 1e-12 * scale
    assert np.max(np.abs(q.T @ q - np.eye(12))) <= 1e-12
    assert np.all(np.diff(lam) <= 0.0)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_factor_system_refactors_a_replaced_matrix(scheme):
    # a system built from a given matrix is factored like an assembled one:
    # twice the assembled matrix doubles every eigenvalue
    kernel = get_problem("green-m1").kernel
    system = build_system(kernel, scheme, 8)
    lam, sigma = system.eigvals, system.sigma_min
    replayed = build_system(kernel, scheme, 8, matrix=2.0 * system.matrix)
    assert replayed.eigvals == pytest.approx(2.0 * lam, rel=1e-10, abs=1e-14 * lam[0])
    assert replayed.sigma_min == pytest.approx(np.sqrt(2.0) * sigma, rel=1e-8)


def expected_spectra(system):
    # the two filters' spectra as each solve used to derive them
    lam = system.eigvals
    kept = np.abs(lam) > system.rel_tol * np.abs(lam).max()
    gains = np.zeros(system.n)
    gains[kept] = 1.0 / lam[kept]
    return gains, np.maximum(lam, 0.0)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_factor_stores_the_filter_spectra(scheme):
    # formed with the factor, read-only, and formed again for a replayed
    # matrix; rank1-sine has a one-dimensional numerical range
    kernel = get_problem("rank1-sine").kernel
    system = build_system(kernel, scheme, 16)
    replayed = build_system(kernel, scheme, 16, matrix=3.0 * system.matrix)
    for built in (system, replayed):
        gains, clipped = expected_spectra(built)
        assert np.array_equal(built.pinv_gains, gains)
        assert np.array_equal(built.clipped_eigvals, clipped)
        assert built.pinv_peak == np.max(np.abs(gains)) > 0.0
        assert np.count_nonzero(gains) == 1
        assert not (built.pinv_gains.flags.writeable or built.clipped_eigvals.flags.writeable)
    assert replayed.pinv_gains[0] == pytest.approx(system.pinv_gains[0] / 3.0, rel=1e-12)


def test_factor_system_rejects_broken_matrices():
    kernel = get_problem("green-m1").kernel
    matrix = build_system(kernel, "collocation", 6).matrix
    with pytest.raises(NumericalError, match="not PSD"):
        build_system(kernel, "collocation", 6, matrix=-matrix)
    with pytest.raises(NumericalError, match="not self-adjoint"):
        build_system(kernel, "collocation", 6,
                     matrix=matrix + np.triu(np.ones((6, 6))) * np.max(matrix))
    with pytest.raises(NumericalError, match="shape"):
        build_system(kernel, "collocation", 6, matrix=np.eye(5))


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_a_system_is_built_whole(scheme):
    # assembled or replayed, a system has every factor field at its full
    # size from the start, and none of its fields can be assigned later
    kernel = get_problem("green-m1").kernel
    system = build_system(kernel, scheme, 8)
    replayed = build_system(kernel, scheme, 8, matrix=system.matrix)
    for built in (system, replayed):
        for name in ("matrix", "eigvecs"):
            assert getattr(built, name).shape == (8, 8)
        for name in ("eigvals", "pinv_gains", "clipped_eigvals"):
            assert getattr(built, name).shape == (8,)
        assert built.pinv_peak > 0.0 and built.sigma_min > 0.0
        assert built.grid_knots() is built.knots and not built.knots.flags.writeable
        for name in ("matrix", "eigvecs", "sigma_min"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, getattr(built, name))
    assert np.array_equal(replayed.eigvals, system.eigvals)
    knots = {"collocation": np.concatenate(([0.0], system.rule.nodes, [1.0])),
             "interpolatory": system.rule.nodes, "ortho-pc": np.linspace(0.0, 1.0, 9)}
    assert np.array_equal(system.knots, knots[scheme])


# ---------------------------------------------------------------------------
# projection and adjoint


def test_project_data_collocation_point_values():
    rule = composite_trapezoid(3, UNIT)
    system = build_system(constant_kernel(), "collocation", 3, outer_rule=rule)
    coords = project_data(system, lambda t: np.asarray(t) ** 2)
    assert coords == pytest.approx([0.0, 0.25, 1.0])


def test_project_data_zero_function():
    system = build_system(constant_kernel(), "collocation", 4)
    assert project_data(system, lambda t: 0.0 * np.asarray(t)) == pytest.approx(np.zeros(4))


def test_project_data_cell_averages():
    system = build_system(constant_kernel(), "ortho-pc", 2)
    coords = project_data(system, lambda t: np.asarray(t))
    assert coords == pytest.approx([0.25, 0.75])


def test_apply_adjoint_constant_kernel():
    system = build_system(constant_kernel(), "collocation", 1)
    fn = apply_adjoint(system, [3.5])
    s = np.linspace(0.0, 1.0, 7)
    assert fn(s) == pytest.approx(np.full(7, 3.5))
    assert fn(0.25) == pytest.approx(3.5)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_reconstruction_keeps_the_shape_of_its_points(scheme):
    system = build_system(get_problem("green-m1").kernel, scheme, 8)
    fn = apply_adjoint(system, np.linspace(1.0, 2.0, 8))
    s = np.array([[0.1, 0.45], [0.5, 1.0]])
    got = fn(s)
    assert got.shape == (2, 2)
    assert np.array_equal(got.ravel(), fn(s.ravel()))
    assert fn(np.zeros((0, 3))).shape == (0, 3)
    scalar = fn(0.45)
    assert type(scalar) is float and scalar == pytest.approx(got[0, 1], rel=1e-14)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
@pytest.mark.parametrize("point", [1.5, -0.25, 1.0 + 1e-9, np.nan])
def test_reconstruction_rejects_points_off_the_domain(scheme, point):
    # green-m1 collocation n=8 used to extrapolate to -2.20 at s = 1.5
    system = build_system(get_problem("green-m1").kernel, scheme, 8)
    fn = apply_adjoint(system, np.ones(8))
    with pytest.raises(ValueError, match=r"domain \[0.0, 1.0\]"):
        fn(np.array([0.5, point]))
    with pytest.raises(ValueError, match="domain"):
        fn(point)


def test_reconstruction_allows_the_rule_slack_at_the_ends():
    system = build_system(get_problem("green-m1").kernel, "collocation", 8)
    fn = apply_adjoint(system, np.ones(8))
    ends = fn(np.array([0.0, 1.0]))
    assert fn(np.array([-5e-13, 1.0 + 5e-13])) == pytest.approx(ends, abs=1e-11)


def test_apply_adjoint_zero_vector():
    system = build_system(constant_kernel(), "ortho-pc", 4)
    fn = apply_adjoint(system, np.zeros(4))
    assert fn(np.linspace(0, 1, 9)) == pytest.approx(np.zeros(9))


@pytest.mark.parametrize("pid", ["rank1-sine", "green-m1"])
@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_adjoint_identity(pid, scheme):
    # <T_n x, v>_w == <x, T_n* v>_L2 for a random degree-5 polynomial and
    # random coordinates; the L2 side is measured on a rule aligned with the
    # scheme grid so kinked kernels do not limit the identity
    prob = get_problem(pid)
    system = build_system(prob.kernel, scheme, 8)
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(6)
    poly = lambda t: np.polynomial.polynomial.polyval(np.asarray(t), coeffs)
    v = rng.standard_normal(8)

    inner = aligned_rule(system.grid_knots(), 4 * 8, min_per_panel=8)
    tnx = system.slice_values(inner.nodes) @ (inner.weights * poly(inner.nodes))
    lhs = tnx @ system.space.apply_metric(v)

    ref = aligned_rule(system.grid_knots(), 256)
    adj = apply_adjoint(system, v)
    rhs = float(np.sum(ref.weights * poly(ref.nodes) * adj(ref.nodes)))
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# epsilon estimation


def test_epsilon_smooth_kernel_tiny():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 32)
    assert estimate_epsilon(system) <= 1e-6


def test_epsilon_zero_kernel():
    kernel = Kernel(lambda s, t: 0.0 * np.broadcast_arrays(s, t)[0], UNIT)
    system = build_system(kernel, "collocation", 4)
    assert system.sigma_min == 0.0
    assert estimate_epsilon(system) == 0.0


def test_epsilon_green_trapezoid_collocation_decreases():
    prob = get_problem("green-m1")
    values = []
    for n in (8, 16, 32):
        rule = composite_trapezoid(n, UNIT)
        system = build_system(prob.kernel, "collocation", n, outer_rule=rule)
        values.append(estimate_epsilon(system))
    assert values[0] > values[1] > values[2]


def test_epsilon_monotone_trend_all_schemes(catalog, grid_systems):
    # halving the mesh may hit the floating-point floor for analytic kernels
    # under Gauss collocation, hence the absolute allowance
    floor = 1e-12
    for pid, problem in catalog.items():
        for scheme in ("collocation", "interpolatory", "ortho-pc"):
            eps = {n: grid_systems[pid, scheme, n].epsilon_n for n in (8, 16, 32)}
            big = build_system(problem.kernel, scheme, 64)
            eps[64] = estimate_epsilon(big)
            for n in (8, 16, 32):
                assert eps[2 * n] <= eps[n] + floor, (pid, scheme, n, eps)


def _dense_difference(system, ref_points=REFERENCE_POINTS):
    # the dense expression the in-place difference reproduces bit for bit
    rule = gauss_legendre(max(ref_points, 4 * system.n), system.domain)
    sqrt_rho = np.sqrt(rule.weights)
    kmat = system.kernel(rule.nodes[:, None], rule.nodes[None, :])
    gv = system.slice_values(rule.nodes)
    metric = system.space.apply_metric(np.eye(system.n))  # the dense M, exactly
    d = (kmat.T @ (rule.weights[:, None] * kmat) - gv.T @ (metric @ gv)) \
        * np.outer(sqrt_rho, sqrt_rho)
    return 0.5 * (d + d.T)


def _dense_epsilon(system, ref_points=REFERENCE_POINTS):
    return 1.1 * spectral_norm(_dense_difference(system, ref_points))


def test_epsilon_has_the_bits_of_the_dense_expression(grid_systems):
    # the finite-rank collocation cells have eps_n ~ 1e-16, rounding noise
    # that every alpha = eps_n row divides by: not one bit may move
    for key, system in grid_systems.items():
        assert estimate_epsilon(system) == _dense_epsilon(system), key


def test_epsilon_agrees_with_lapack(grid_systems):
    # Lanczos against the dense eigensolver on the same difference matrix,
    # the rounding-noise cells (eps_n ~ 1e-16) included
    for key, system in grid_systems.items():
        lapack = 1.1 * np.max(np.abs(np.linalg.eigvalsh(_dense_difference(system))))
        assert estimate_epsilon(system) == pytest.approx(lapack, rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("ref_points", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 37, 4 * _TILE])
def test_epsilon_keeps_the_dense_bits_across_tile_edges(ref_points):
    # the weighted difference is formed a tile pair at a time; rule sizes
    # on both sides of a tile edge, a ragged third tile row, and four whole
    # tiles; rank1-sine collocation n = 16 is a rounding-noise cell
    for pid in ("rank1-sine", "green-m1"):
        kernel = get_problem(pid).kernel
        for scheme in ("collocation", "interpolatory", "ortho-pc"):
            system = build_system(kernel, scheme, 16, ref_points=ref_points)
            assert estimate_epsilon(system) == _dense_epsilon(system, ref_points), (pid, scheme)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_epsilon_holds_one_m_by_m_buffer(scheme):
    # the discrete half's product is weighted and symmetrized in place; a
    # second m x m array (the weights, or the symmetric part) would reach 2
    system = build_system(get_problem("green-m1").kernel, scheme, 32, ref_points=1024)
    estimate_epsilon(system)  # the kernel's normal_gram memo and the slice memo
    m = system.reference_rule.n_points
    tracemalloc.start()
    try:
        estimate_epsilon(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * m * 8, peak / (m * m * 8)


# Green's kernel in J closed-form sines: the stored 64-term expansion is too
# short, since 256 collocation nodes integrate 64 modes exactly
GREEN_ORACLE_MODES = 4096
# finite-rank kernels integrated exactly: measured eps_n and oracle are both
# rounding (about 1e-16), so their ratio carries no information
ROUNDING_NOISE_CELLS = {(pid, "collocation", n)
                        for pid in ("rank1-sine", "rank3-decay") for n in (16, 32)}


def _expansion_coordinates(problem, system):
    """``(sigma, V)`` of ``k = sum_j sigma_j v_j (x) u_j``, with ``V[i, j]``
    the i-th scheme coordinate of ``v_j``."""
    if problem.problem_id != "green-m1":
        expansion = problem.svd
        return expansion.sigmas, np.column_stack(
            [project_data(system, v) for v in expansion.v_funcs])
    j = np.arange(1, GREEN_ORACLE_MODES + 1)
    if system.scheme is SchemeKind.ORTHO_PC:  # exact cell averages of sqrt(2) sin(j pi t)
        edges = system.grid_knots()
        v = np.sqrt(2.0) * (np.cos(np.pi * np.outer(edges[:-1], j))
                            - np.cos(np.pi * np.outer(edges[1:], j))) \
            / (j * np.pi * (edges[1] - edges[0]))
    else:
        v = np.sqrt(2.0) * np.sin(np.pi * np.outer(system.rule.nodes, j))
    return (j * np.pi) ** -2.0, v


def _epsilon_oracle(problem, system):
    """``||T*T - T_n*T_n|| = ||S (I - V^T M V) S||_2``, S = diag(sigma) and M
    the data metric, by Lanczos on its product: no quadrature, no kink."""
    sigmas, v = _expansion_coordinates(problem, system)
    mv = system.space.apply_metric(v)

    def apply(x):
        xs = sigmas * x
        return sigmas * (xs - mv.T @ (v @ xs))

    return symmetric_norm(apply, sigmas.size)


def test_green_oracle_coordinates_are_the_scheme_projections():
    # the closed-form V agrees with project_data on the stored 64 modes
    problem = get_problem("green-m1")
    for scheme in ("collocation", "interpolatory", "ortho-pc"):
        system = build_system(problem.kernel, scheme, 16)
        _, v = _expansion_coordinates(problem, system)
        stored = np.column_stack([project_data(system, f) for f in problem.svd.v_funcs])
        np.testing.assert_allclose(v[:, :stored.shape[1]], stored, rtol=0.0, atol=1e-12)


def test_epsilon_bounds_the_quadrature_free_oracle(catalog, grid_systems):
    """The measured eps_n is an upper bound of the discretization error.

    With the singular expansion ``k(s, t) = sum_j sigma_j v_j(s) u_j(t)``,
    ``T_n*T_n = sum_jl sigma_j sigma_l (V^T M V)_jl u_j (x) u_l``, so the
    operator-level error has the closed form of :func:`_epsilon_oracle`
    (the singular value expansion of a first-kind kernel: Hansen, *Discrete
    Inverse Problems: Insight and Algorithms*, SIAM, 2010, ch. 2).  The
    rounding-noise cells are exempt by name; their oracle must stay noise.
    """
    cells = [(pid, system) for (pid, _, _), system in grid_systems.items()]
    cells += [("green-m1", build_system(catalog["green-m1"].kernel, "collocation", n,
                                        ref_points=1024)) for n in (64, 128, 256)]
    assert len(cells) == 30
    for pid, system in cells:
        key = (pid, system.scheme.value, system.n)
        oracle = _epsilon_oracle(catalog[pid], system)
        if key in ROUNDING_NOISE_CELLS:
            assert oracle < 1e-14, key
        else:
            assert system.epsilon_n >= oracle, (key, system.epsilon_n, oracle)


def test_collocation_normal_operator_is_nystrom_composition():
    # <T_n x, T_n x>_w equals <x, F_n T x>_L2 where F_n samples the kernel
    # at the collocation nodes with the rule weights
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, "collocation", 8)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(6)
    poly = lambda t: np.polynomial.polynomial.polyval(np.asarray(t), coeffs)

    inner = aligned_rule(system.grid_knots(), 4 * 8, min_per_panel=8)
    tnx = system.slice_values(inner.nodes) @ (inner.weights * poly(inner.nodes))
    lhs = tnx @ system.space.apply_metric(tnx)

    ref = aligned_rule(system.grid_knots(), 512)
    fnt = system.slice_values(ref.nodes).T @ (system.rule.weights * tnx)
    rhs = float(np.sum(ref.weights * poly(ref.nodes) * fnt))
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_a_cell_measures_epsilon_once(monkeypatch):
    # every verifier and the solve pipeline read the one measured eps_n
    problem = get_problem("green-m1")
    system = build_system(problem.kernel, "ortho-pc", 8)
    measured = []
    original = discretize.estimate_epsilon

    def counting(target):
        measured.append(target)
        return original(target)

    monkeypatch.setattr(discretize, "estimate_epsilon", counting)
    verify_th1(problem, system, alphas=(1e-2,))
    verify_th3(problem, system, [1e-4])
    verify_th5(problem, system, (1e-2,), [1e-4])
    verify_special(problem, system)
    row, _ = measure_cell(problem, system)
    assert measured == [system]
    assert row.eps_n == system.epsilon_n == original(system)


def test_a_cell_measures_every_l2_error_on_its_reference_rule(monkeypatch):
    # both sides of (1 + eps_n / alpha) ||x - x_alpha|| are measured on the
    # rule eps_n is measured on, here 512 points rather than the default 256
    problem = get_problem("rank3-decay")
    system = build_system(problem.kernel, "ortho-pc", 16, ref_points=512)
    sizes = []
    for name, position in (("l2_error", 2), ("tikhonov_continuous_reference", 1)):
        original = getattr(analysis, name)

        def spy(*args, original=original, position=position):
            sizes.append(args[position].n_points)
            return original(*args)

        monkeypatch.setattr(analysis, name, spy)
    deltas = [1e-8]  # small enough for every hypothesis to hold
    reports = (verify_th1(problem, system, alphas=(1e-2,)) + verify_th3(problem, system, deltas)
               + verify_th5(problem, system, (1e-2,), deltas))
    measure_cell(problem, system, spec=NoiseSpec(1e-8, 0))
    assert not any(report.skipped for report in reports)
    # 15 L2 errors and the 2 references (alpha 1e-2 and eps_n) that Th-1
    # integrates and the problem keeps for Th-3 and Th-5
    assert len(sizes) == 17 and set(sizes) == {512}


@pytest.mark.parametrize("pid", ["rank1-sine", "green-m1"])
def test_ref_points_fixes_the_epsilon_rule(monkeypatch, pid):
    # rank1-sine: 1.4e-16 at 256 points against 3.9e-15 at 512, both far
    # below any absolute tolerance; green-m1: 3.377e-5 against 3.366e-5
    problem = get_problem(pid)
    system = build_system(problem.kernel, "collocation", 16, ref_points=512)
    rule = gauss_legendre(512, UNIT)
    formed = []
    original = Kernel.__call__

    def counting(self, s, t):
        if np.shape(s) == (512, 1) and np.array_equal(np.ravel(s), rule.nodes):
            formed.append(np.shape(t))
        return original(self, s, t)

    monkeypatch.setattr(Kernel, "__call__", counting)
    eps = system.epsilon_n
    estimate_epsilon(system)
    norm_t = _special_norms(system)[2]
    # eps_n and a second measurement share one continuous half; ||T|| is
    # measured on the cell's aligned rule and samples no kernel there
    assert formed == [(1, 512)]
    monkeypatch.undo()
    assert system.reference_rule.n_points == 512
    assert eps == _dense_epsilon(system, 512) != _dense_epsilon(system, 256)
    aligned = aligned_rule(system.grid_knots(), 512)
    sqrt_rho = np.sqrt(aligned.weights)
    kmat = problem.kernel(aligned.nodes[:, None], aligned.nodes[None, :])
    assert norm_t == pytest.approx(
        np.linalg.norm(kmat * np.outer(sqrt_rho, sqrt_rho), 2), rel=1e-13)


# ---------------------------------------------------------------------------
# matrix dump


def test_matrix_dump_roundtrip(tmp_path):
    matrix = np.array([[1.0, -2.5e-17], [3.0, 4.0]])
    path = tmp_path / "dump.csv"
    dump_matrix(matrix, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2,2"
    assert np.array_equal(load_matrix(path), matrix)


@pytest.mark.parametrize("content", [
    "",
    "2,2\n1,2\n3\n",
    "2,2\n1,2\n3,abc\n",
    "3,2\n1,2\n3,4\n",
    "2,2\n1,2\n3,inf\n",
])
def test_matrix_dump_corruption_detected(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(NumericalError):
        load_matrix(path)


# ---------------------------------------------------------------------------
# slice memo


def _fresh_slices(scheme, t):
    return build_system(get_problem("green-m1").kernel, scheme, 8).slice_values(t)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_slice_memo_hit_matches_fresh_values_bitwise(scheme):
    grid = reference_rule(UNIT).nodes
    system = build_system(get_problem("green-m1").kernel, scheme, 8)
    first = system.slice_values(grid)
    hit = system.slice_values(grid.copy())
    assert hit is first
    assert np.array_equal(hit, _fresh_slices(scheme, grid))
    with pytest.raises(ValueError):
        hit[0, 0] = 1.0


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_slice_memo_follows_the_grid(scheme):
    # A, then B of the same shape, then A again: never a stale table
    grid_a = reference_rule(UNIT, 64).nodes
    grid_b = np.linspace(0.0, 1.0, 64)
    system = build_system(get_problem("green-m1").kernel, scheme, 8)
    for grid in (grid_a, grid_b, grid_a):
        assert np.array_equal(system.slice_values(grid), _fresh_slices(scheme, grid))


def test_slice_memo_survives_caller_mutation():
    grid = reference_rule(UNIT, 64).nodes.copy()
    other = np.linspace(0.0, 1.0, 64)
    system = build_system(get_problem("green-m1").kernel, "ortho-pc", 8)
    system.slice_values(grid)
    grid[:] = other  # the memo keeps its own copy of the grid
    assert np.array_equal(system.slice_values(grid), _fresh_slices("ortho-pc", other))
    assert np.array_equal(system.slice_values(reference_rule(UNIT, 64).nodes),
                          _fresh_slices("ortho-pc", reference_rule(UNIT, 64).nodes))


# ---------------------------------------------------------------------------
# basis values


def _basis_by_loop(system, s):
    # per-column reference: np.interp of each unit vector, or the cell
    # indicators (first/last cell extended past the domain)
    out = np.zeros((s.size, system.n))
    if system.scheme is SchemeKind.ORTHO_PC:
        edges = system.grid_knots()
        for i in range(system.n):
            lo = -np.inf if i == 0 else edges[i]
            hi = np.inf if i == system.n - 1 else edges[i + 1]
            out[:, i] = (s >= lo) & (s < hi)
        return out
    eye = np.eye(system.n)
    for i in range(system.n):
        out[:, i] = np.interp(s, system.rule.nodes, eye[i])
    return out


# collocation n=8 and interpolatory n=22 have a last node interval d with
# (1/d) * d < 1, where only np.interp's exact end value gives a clean hat
@pytest.mark.parametrize("scheme, n", [
    ("collocation", 1), ("collocation", 2), ("collocation", 8),
    ("interpolatory", 2), ("interpolatory", 22),
    ("ortho-pc", 1), ("ortho-pc", 2), ("ortho-pc", 7),
])
def test_basis_values_match_the_per_column_loop(scheme, n):
    system = build_system(get_problem("green-m1").kernel, scheme, n)
    nodes = system.rule.nodes
    s = np.concatenate([
        [-0.5, 0.0, 1.0, 1.5],  # on and outside the domain ends
        nodes,
        aligned_rule(system.grid_knots(), 64).nodes,
        np.linspace(0.0, 1.0, 41),
    ])
    assert np.array_equal(system.basis_values(s), _basis_by_loop(system, s))


# ---------------------------------------------------------------------------
# batched cell averages


def _cell_averages_by_cell(kernel, edges, t):
    # the cell-by-cell form: per cell a regular pass, then the s = t split
    # of the points strictly inside that cell
    n = edges.size - 1
    h = edges[1] - edges[0]
    gx, gw = gauss_nodes(_CELL_GAUSS)
    out = np.empty((n, t.size))
    for i in range(n):
        left, right = edges[i], edges[i + 1]
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        s_nodes = mid + half * gx
        out[i] = (kernel(s_nodes[:, None], t[None, :]).T @ gw) * half / h
        inside = (t > left) & (t < right)
        if kernel.diagonal_kink and np.any(inside):
            t_in = t[inside]
            acc = np.zeros(t_in.size)
            for lo, hi in ((np.full_like(t_in, left), t_in),
                           (t_in, np.full_like(t_in, right))):
                s_seg, w_seg = segment_gauss(lo, hi, _CELL_GAUSS)
                acc += np.einsum("ij,ij->i", kernel(s_seg, t_in[:, None]), w_seg)
            out[i, inside] = acc / h
    return out


def _slice_kernels():
    kernels = {pid: get_problem(pid).kernel for pid in ("green-m1", "rank1-sine", "rank3-decay")}
    kernels["kinked-toy"] = Kernel(lambda s, t: np.exp(-3.0 * np.abs(s - t)), UNIT,
                                   diagonal_kink=True)
    kernels["smooth"] = Kernel(lambda s, t: np.exp(np.asarray(s) * t), UNIT)
    return kernels


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
@pytest.mark.parametrize("name", ["green-m1", "rank1-sine", "rank3-decay", "kinked-toy", "smooth"])
def test_cell_averages_match_the_cell_by_cell_split_bitwise(name, n):
    kernel = _slice_kernels()[name]
    edges = np.linspace(0.0, 1.0, n + 1)
    grids = [gauss_legendre(m, UNIT).nodes for m in (7, 256, 512)]
    grids.append(aligned_rule(edges, 4 * n, min_per_panel=8).nodes)
    # cell edges, the ends a and b, and points off the domain: none is split
    grids.append(np.concatenate([[-0.25, 0.0, 1.0, 1.25], edges,
                                 np.linspace(0.0, 1.0, 2 * n + 1)]))
    for t in grids:
        got = _cell_average_slices(kernel, edges, t)
        want = _cell_averages_by_cell(kernel, edges, t)
        assert np.array_equal(got, want), (name, n, t.size)
        assert np.array_equal(np.signbit(got), np.signbit(want))
