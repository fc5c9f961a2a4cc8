import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.analysis import l2_error
from illposed.discretize import (
    RANK_RTOL,
    apply_adjoint,
    build_system,
    estimate_epsilon,
    project_data,
)
from illposed.linalg import NumericalError, WeightedSpace
from illposed.problems import (
    Domain,
    Kernel,
    SeparableExpansion,
    SourceRepresentation,
    get_problem,
    make_separable_problem,
    reference_rule,
)
from illposed.regularize import (
    InconsistentDataError,
    NoiseSpec,
    add_noise,
    choose_alpha,
    dense_reference_solver,
    min_norm_solution,
    tikhonov_continuous_reference,
    tikhonov_discrete,
    tikhonov_spectral_reference,
)
from tests.conftest import metric_roots

UNIT = Domain(0.0, 1.0)
REF = reference_rule(UNIT)


def zero_fn(t):
    return 0.0 * np.asarray(t)


# ---------------------------------------------------------------------------
# minimum-norm solve


def test_min_norm_zero_data():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    rec = min_norm_solution(system, np.zeros(8))
    assert l2_error(rec.function, zero_fn, REF) == 0.0


def test_min_norm_rank1_recovers_solution():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 16)
    rec = min_norm_solution(system, project_data(system, prob.y))
    assert l2_error(prob.x_dagger, rec.function, REF) <= 1e-6


def test_min_norm_is_orthogonal_projection():
    # the minimum-norm solution is the projection of the true solution, so
    # the error is orthogonal to it and the solution is never longer
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, "collocation", 32)
    rec = min_norm_solution(system, project_data(system, prob.y))
    diff = lambda t: np.asarray(prob.x_dagger(t)) - np.asarray(rec.function(t))
    inner = float(np.sum(REF.weights * diff(REF.nodes) * np.asarray(rec.function(REF.nodes))))
    norm_x = REF.norm(np.asarray(prob.x_dagger(REF.nodes)))
    norm_rec = REF.norm(np.asarray(rec.function(REF.nodes)))
    assert abs(inner) <= 1e-6 * norm_x**2
    assert norm_rec <= norm_x + 1e-6


def test_min_norm_rejects_out_of_range_data():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    bad = np.random.default_rng(0).standard_normal(8)
    with pytest.raises(InconsistentDataError):
        min_norm_solution(system, bad)
    # with an allowance covering the out-of-range mass it goes through
    allowance = system.space.norm(bad) * 2.0
    rec = min_norm_solution(system, bad, residual_allowance=allowance)
    assert np.all(np.isfinite(rec.coordinates))


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_min_norm_range_test_decides_at_its_threshold(scheme):
    # data y = R z with z = 1 on rank1-sine's one kept eigenvalue and a cut
    # part of size s, set so that residual / threshold = s / (RANK_RTOL ||z||
    # + allowance) is 0.99 or 1.01: the solve rejects exactly above 1, as
    # the explicit residual test in the data norm does
    system = build_system(get_problem("rank1-sine").kernel, scheme, 8)
    space, r, gains = system.space, system.metric_eigvecs, system.pinv_gains
    cut = gains == 0.0
    assert np.count_nonzero(~cut) == 1
    direction = np.where(cut, np.random.default_rng(5).standard_normal(8), 0.0)
    direction /= np.linalg.norm(direction)
    for allowance in (0.0, 1e-10):
        for ratio in (0.99, 1.01):
            s = 0.0
            for _ in range(5):  # a contraction by about ratio * RANK_RTOL
                s = ratio * (RANK_RTOL * np.sqrt(1.0 + s**2) + allowance)
            y = r @ (np.where(cut, 0.0, 1.0) + s * direction)
            v = r @ ((space.apply_metric(y) @ r) * gains)
            explicit = (space.norm(system.matrix @ v - y)
                        > RANK_RTOL * space.norm(y) + allowance)
            assert explicit == (ratio > 1.0)
            if ratio > 1.0:
                with pytest.raises(InconsistentDataError, match="exceeds"):
                    min_norm_solution(system, y, residual_allowance=allowance)
            else:
                rec = min_norm_solution(system, y, residual_allowance=allowance)
                assert np.array_equal(rec.coordinates, v)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e200])
def test_min_norm_range_test_rejects_data_whose_squares_overflow(scale):
    # a standard-normal y lies far outside rank1-sine's one-dimensional
    # range at any scale; from 1e160 on the squares of z overflow, and the
    # test must not read an inf threshold that accepts everything
    system = build_system(get_problem("rank1-sine").kernel, "collocation", 8)
    y = scale * np.random.default_rng(0).standard_normal(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentDataError, match="exceeds"):
            min_norm_solution(system, y)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_a_solve_applies_the_metric_twice(scheme, monkeypatch):
    # M y for z = R^T M y and M v for the reconstruction, once each: the
    # range test reads its norms off z and forms no metric product
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, scheme, 8)
    y_n = project_data(system, prob.y)
    space, seen, checked = system.space, [], []
    metric_vec, apply_metric = space._metric_vec, WeightedSpace.apply_metric
    monkeypatch.setattr(space, "_metric_vec", lambda v: seen.append(v.copy()) or metric_vec(v))
    monkeypatch.setattr(WeightedSpace, "apply_metric",
                        lambda self, v: checked.append(v) or apply_metric(self, v))
    for solve in (min_norm_solution, lambda s, y: tikhonov_discrete(s, y, 1e-4)):
        seen.clear()
        v = solve(system, y_n).coordinates
        assert len(seen) == 2
        assert np.array_equal(seen[0], y_n) and np.array_equal(seen[1], v)
    assert checked == []


@pytest.mark.parametrize("allowance", [np.nan, np.inf, -1e-3])
def test_min_norm_rejects_a_bad_residual_allowance(allowance):
    # a NaN or infinite allowance would switch the range check off, and a
    # negative one would reject data in the range
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    consistent = project_data(system, prob.y)
    bad = consistent + np.random.default_rng(0).standard_normal(8)
    for y_n in (consistent, bad):
        with pytest.raises(ValueError, match="residual_allowance"):
            min_norm_solution(system, y_n, residual_allowance=allowance)


# ---------------------------------------------------------------------------
# discrete Tikhonov


def test_tikhonov_scalar_oracle():
    # k = 1 on one Gauss node: (1 + alpha) v = beta, reconstruction is the
    # constant function v
    kernel = Kernel(lambda s, t: np.ones_like(np.broadcast_arrays(s, t)[0]), UNIT)
    system = build_system(kernel, "collocation", 1)
    beta, alpha = 2.5, 0.75
    rec = tikhonov_discrete(system, [beta], alpha)
    expected = beta / (1.0 + alpha)
    assert rec.function(np.array([0.1, 0.9])) == pytest.approx([expected, expected])
    # k = 0: a pure shift, alpha v = y
    zero = Kernel(lambda s, t: 0.0 * np.broadcast_arrays(s, t)[0], UNIT)
    y = np.array([4.0, 6.0])
    rec = tikhonov_discrete(build_system(zero, "collocation", 2), y, 2.0)
    assert rec.coordinates == pytest.approx(y / 2.0)


def test_tikhonov_zero_data():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    for alpha in (1e-6, 1.0, 1e6):
        rec = tikhonov_discrete(system, np.zeros(8), alpha)
        assert l2_error(rec.function, zero_fn, REF) == 0.0


def test_tikhonov_large_shift_vanishes():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 16)
    rec = tikhonov_discrete(system, project_data(system, prob.y), 1e6)
    assert l2_error(rec.function, zero_fn, REF) <= 1e-3


def test_tikhonov_converges_to_min_norm():
    # full-rank system: the shifted solutions approach the pseudo-inverse
    # solution monotonically as the shift vanishes
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, "collocation", 8)
    y_n = project_data(system, prob.y)
    target = min_norm_solution(system, y_n)
    recs = [tikhonov_discrete(system, y_n, alpha) for alpha in (1e-2, 1e-4, 1e-6, 1e-8)]
    dists = [l2_error(rec.function, target.function, REF) for rec in recs]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    # and the coordinate norm grows as the shift shrinks
    norms = [system.space.norm(rec.coordinates) for rec in recs]
    assert all(b > a for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# solves filtered through the stored factor


def relative_gap(system, rec, coordinates):
    # compared as functions x = T_n* v: coordinates along eigenvalues near
    # the truncation level are only determined to eps times the condition
    # number, and T_n* damps exactly those directions
    expected = apply_adjoint(system, coordinates)
    return l2_error(rec.function, expected, REF) / REF.norm(expected(REF.nodes))


def min_norm_oracle(system, y_n):
    # numpy's SVD pseudo-inverse of the symmetrized matrix; it keeps the
    # singular values above RANK_RTOL * s_max, the systems' truncation rule
    root, iroot = metric_roots(system.space)
    pinv = np.linalg.pinv(system.space.symmetrize(system.matrix), rcond=RANK_RTOL)
    return iroot @ (pinv @ (root @ y_n))


def tikhonov_oracle(system, y_n, alpha):
    # LU on the unsymmetrized matrix, independent of the stored factor
    return np.linalg.solve(system.matrix + alpha * np.eye(system.n), y_n)


@pytest.mark.parametrize("pid", ["green-m1", "rank3-decay"])
@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_factor_path_matches_reference_solvers(pid, scheme):
    # the eigenfilters on the stored factor against numpy solvers that
    # factor the system afresh
    prob = get_problem(pid)
    system = build_system(prob.kernel, scheme, 16)
    y_n = project_data(system, prob.y)
    rec = min_norm_solution(system, y_n)
    assert relative_gap(system, rec, min_norm_oracle(system, y_n)) <= 1e-10
    for alpha in (1e-2, 1e-4, 1e-6, 1e-8):
        expected = tikhonov_oracle(system, y_n, alpha)
        rec = tikhonov_discrete(system, y_n, alpha)
        assert relative_gap(system, rec, expected) <= 1e-10


def sine_mode(j):
    return lambda t: np.sqrt(2.0) * np.sin(j * np.pi * np.asarray(t, dtype=float))


@st.composite
def separable_cells(draw):
    """A scheme, a size n and a separable problem resolved at that size:
    1-4 sine modes j <= n/2, singular values decaying by a power or
    geometrically down to at least 1e-3 of the largest, and coefficients
    of magnitude 0.2-1."""
    n = draw(st.integers(4, 24))
    scheme = draw(st.sampled_from(["collocation", "interpolatory", "ortho-pc"]))
    modes = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4, unique=True))
    k = np.arange(len(modes))
    if draw(st.booleans()):
        sigmas = (1.0 + k) ** -draw(st.floats(0.0, 4.9))
    else:
        sigmas = draw(st.floats(0.1, 1.0)) ** k
    coeffs = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 1.0))
              for _ in modes]
    funcs = [sine_mode(j) for j in modes]
    expansion = SeparableExpansion(sigmas, funcs, funcs, UNIT)
    return make_separable_problem(expansion, coeffs), scheme, n


@settings(max_examples=60)
@given(cell=separable_cells())
def test_factor_path_matches_reference_solvers_on_drawn_problems(cell):
    problem, scheme, n = cell
    system = build_system(problem.kernel, scheme, n)
    space = system.space
    y_n = project_data(system, problem.y)
    oracle = min_norm_oracle(system, y_n)
    rec = min_norm_solution(system, y_n)
    assert relative_gap(system, rec, oracle) <= 1e-10
    # the function gap cannot see coordinates that T_n* damps, such as a
    # kept noise eigenvalue: the solution must also be no longer than the
    # pseudo-inverse's
    assert space.norm(rec.coordinates) <= (1.0 + 1e-8) * space.norm(oracle)
    for alpha in (1e-2, 1e-6):
        expected = tikhonov_oracle(system, y_n, alpha)
        rec = tikhonov_discrete(system, y_n, alpha)
        assert relative_gap(system, rec, expected) <= 1e-10


def test_tikhonov_shift_below_rounding_floor():
    # rank1-sine has eps_n near machine precision, below the rounding of its
    # zero eigenvalues (some come out negative); the shifted solve must stay
    # the filter of a PSD system: along every eigenvector the gain lies in
    # (0, 1/alpha]
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 16)
    alpha = choose_alpha(estimate_epsilon(system))
    assert alpha < 1e-12 and system.eigvals[-1] < 0.0
    rec = tikhonov_discrete(system, project_data(system, prob.y), alpha)
    assert np.all(np.isfinite(rec.coordinates))
    space = system.space
    for y in system.metric_eigvecs.T:  # M^(-1/2) q for each eigenvector q
        gain = y @ space.apply_metric(tikhonov_discrete(system, y, alpha).coordinates)
        assert 0.0 < gain <= (1.0 + 1e-12) / alpha


def written_out_filter(system, gains, y_n, shifted=None):
    # today's expression for both solves, product by product through the
    # stored R = M^(-1/2) Q and the space's public product, with R^T x taken
    # as the row vector x^T R: M^(-1/2) Q diag(g) Q^T M^(1/2) y =
    # R diag(g) R^T M y; a Tikhonov solve divides by its shifted spectrum
    # instead of multiplying by g = 1 / shifted
    r = system.metric_eigvecs
    z = system.space.apply_metric(y_n) @ r
    return r @ (z * gains if shifted is None else z / shifted)


@pytest.mark.parametrize("pid, scheme, n", [
    ("green-m1", "collocation", 16),
    ("green-m1", "interpolatory", 16),
    ("green-m1", "ortho-pc", 16),
    ("rank1-sine", "collocation", 16),  # eps_n is rounding, clipped eigenvalues
    ("rank3-decay", "interpolatory", 32),
])
def test_solves_have_the_bits_of_the_written_out_filter(pid, scheme, n):
    prob = get_problem(pid)
    system = build_system(prob.kernel, scheme, n)
    y_n = project_data(system, prob.y)
    lam = system.eigvals
    kept = np.abs(lam) > RANK_RTOL * np.abs(lam).max()
    pinv = np.zeros(n)
    pinv[kept] = 1.0 / lam[kept]
    solves = [(min_norm_solution(system, y_n), pinv, None)]
    for alpha in (system.epsilon_n, 1e-4):
        shifted = np.maximum(lam, 0.0) + alpha
        solves.append((tikhonov_discrete(system, y_n, alpha), 1.0 / shifted, shifted))
    for rec, gains, shifted in solves:
        expected = written_out_filter(system, gains, y_n, shifted)
        assert np.array_equal(rec.coordinates, expected)
        # the reconstruction is the adjoint of those coordinates, bit for bit
        assert np.array_equal(rec.function(REF.nodes), apply_adjoint(system, expected)(REF.nodes))


def test_tikhonov_rejects_a_shift_whose_gain_overflows():
    # 1 / alpha is inf for a subnormal alpha: refused before the gains are
    # formed, so no RuntimeWarning (an error in this suite) is raised
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    assert system.clipped_eigvals[-1] == 0.0
    with pytest.raises(NumericalError, match="non-finite"):
        tikhonov_discrete(system, project_data(system, prob.y), 1e-310)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_solves_keep_data_whose_squares_overflow(scheme):
    # ||y|| near 1e200 squares beyond the float range, but with gains near 1
    # (rank1-sine's one kept eigenvalue, alpha = 1) nothing the filter forms
    # overflows: a power-of-two scale passes through every product exactly
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, scheme, 8)
    y_n = project_data(system, prob.y)
    big = 2.0 ** 664  # about 1.2e200
    assert system.pinv_peak < 2.0
    for solve in (min_norm_solution, lambda s, y: tikhonov_discrete(s, y, 1.0)):
        v = solve(system, y_n).coordinates
        assert np.array_equal(solve(system, big * y_n).coordinates, big * v)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_solves_refuse_data_whose_filter_overflows(scheme):
    # data of 1e305 on every mode meets gains of 1e5 and more: the written-out
    # filter overflows, and the solves raise a NumericalError instead of
    # returning an inf coordinate or raising a RuntimeWarning
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, scheme, 8)
    y_n = 1e305 * np.random.default_rng(3).standard_normal(8)
    alpha = 1e-6
    for gains in (system.pinv_gains, 1.0 / (system.clipped_eigvals + alpha)):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(written_out_filter(system, gains, y_n)).all()
    with pytest.raises(NumericalError, match="non-finite"):
        min_norm_solution(system, y_n)
    with pytest.raises(NumericalError, match="non-finite"):
        tikhonov_discrete(system, y_n, alpha)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory"])
def test_solves_bound_every_product_and_refuse_without_warnings(scheme):
    # a diagonal and a Gram metric, on the unit interval (||M|| < 1) and on
    # [0, 100] (||M|| > 1): the bound's growth beyond ||y|| times the largest
    # gain, from the operator norms of M, M^(1/2) and M^(-1/2), the roots
    # taken from numpy's eigensolver
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, scheme, 8)
    wide = build_system(Kernel(lambda s, t: np.exp(-np.abs(s - t) / 50.0), Domain(0.0, 100.0)),
                        scheme, 8)
    eye = np.eye(8)
    for space in (system.space, wide.space):
        growth = np.prod([max(1.0, np.linalg.norm(power, 2)) for power in
                          (space.apply_metric(eye), *metric_roots(space))])
        assert space._filter_growth == pytest.approx(growth, rel=1e-12)
    assert wide.space._filter_growth > 1.0
    y_n = project_data(system, prob.y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squares of 1e200 overflow, the filtered solution does not
        big = 1e200 * y_n
        shifted = system.clipped_eigvals + 1.0
        v = tikhonov_discrete(system, big, 1.0).coordinates
        assert np.array_equal(v, written_out_filter(system, 1.0 / shifted, big, shifted))
        # data whose bound overflows is refused before any product is
        # formed, without a RuntimeWarning: data of 1e305 against gains of
        # 1e5 and more
        with pytest.raises(NumericalError, match="non-finite"):
            tikhonov_discrete(system, 1e305 * y_n, 1e-6)
        with pytest.raises(NumericalError, match="non-finite"):
            min_norm_solution(system, 1e305 * y_n)
        # gains below 1 do not shrink the bound on M y, which overflows
        # here although ||y|| is finite
        with pytest.raises(NumericalError, match="non-finite"):
            tikhonov_discrete(wide, np.full(8, 2e307), 1e300)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_a_solve_allocates_no_n_by_n_array(scheme):
    # R = M^(-1/2) Q is formed with the system: a system's first solves at
    # n = 256 allocate vectors, far below one 256 x 256 array (512 KiB)
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, scheme, 256)
    y_n = project_data(system, prob.y)
    tracemalloc.start()
    try:
        tikhonov_discrete(system, y_n, 1e-4)
        min_norm_solution(system, y_n, residual_allowance=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 256 * 256 * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solves_reject_non_finite_data_as_the_callers_error(bad):
    # the filter's bound finds the entry; the error names the data, and no
    # RuntimeWarning (an error in this suite) is raised on the way
    prob = get_problem("green-m1")
    for scheme in ("collocation", "interpolatory", "ortho-pc"):
        system = build_system(prob.kernel, scheme, 8)
        y_n = project_data(system, prob.y)
        y_n[3] = bad
        with pytest.raises(ValueError, match="y_n contains NaN or Inf"):
            min_norm_solution(system, y_n)
        with pytest.raises(ValueError, match="y_tilde_n contains NaN or Inf"):
            tikhonov_discrete(system, y_n, 1e-3)
        with pytest.raises(ValueError, match="one-dimensional"):
            tikhonov_discrete(system, y_n[:, None], 1e-3)


def test_tikhonov_rejects_wrong_length():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    with pytest.raises(ValueError):
        tikhonov_discrete(system, np.zeros(7), 1e-3)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            tikhonov_discrete(system, np.zeros(8), alpha)


# ---------------------------------------------------------------------------
# continuous reference


def test_continuous_reference_rank1_closed_form():
    prob = get_problem("rank1-sine")
    x_alpha = tikhonov_continuous_reference(prob, REF, 0.25)
    assert l2_error(prob.x_dagger, x_alpha, REF) == pytest.approx(0.2, abs=1e-10)


def test_spectral_reference_small_alpha_limit():
    prob = get_problem("rank1-sine")
    x_alpha = tikhonov_spectral_reference(prob, REF, 1e-10)
    assert l2_error(prob.x_dagger, x_alpha, REF) <= 1e-8


@pytest.mark.parametrize("points", [16, 32])
def test_spectral_reference_does_not_alias_on_a_small_rule(points):
    # green-m1's 64 modes are not resolved by a 16- or 32-point rule; the
    # reference must not depend on the rule it is asked on
    prob = get_problem("green-m1")
    fine = reference_rule(UNIT, 1024)
    small = tikhonov_spectral_reference(prob, reference_rule(UNIT, points), 1e-3)
    assert l2_error(small, tikhonov_spectral_reference(prob, fine, 1e-3), fine) <= 1e-12


def test_tikhonov_residual_monotone_in_alpha():
    prob = get_problem("rank3-decay")
    exp = prob.svd
    residuals = []
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        coeffs = exp.coefficients(prob.y, REF, side="v")
        filtered = coeffs * exp.sigmas / (exp.sigmas**2 + alpha)
        tx = exp.synthesize(filtered * exp.sigmas, side="v")
        residuals.append(l2_error(tx, prob.y, REF))
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize("pid", ["rank1-sine", "rank3-decay", "green-m1"])
def test_two_path_agreement(pid):
    # spectral filter vs dense grid solve of the regularized normal equation
    prob = get_problem(pid)
    solver = dense_reference_solver(prob, REF)
    for alpha in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        spectral = tikhonov_spectral_reference(prob, REF, alpha)
        assert l2_error(spectral, solver(alpha), REF) <= 1e-7
    # a problem without its expansion takes the dense path
    bare = dataclasses.replace(prob, svd=None)
    for alpha in (1e-2, 1e-6):
        dense = tikhonov_continuous_reference(bare, REF, alpha)
        assert np.array_equal(dense(REF.nodes), solver(alpha)(REF.nodes))


# ---------------------------------------------------------------------------
# source functions and the a-priori rule


def test_phi_eval_power():
    assert SourceRepresentation(0.5, 1.0).phi(0.04) == pytest.approx(0.2)
    assert SourceRepresentation(1.0, 1.0).phi(0.37) == pytest.approx(0.37)
    with pytest.raises(ValueError):
        SourceRepresentation(0.5, 1.0).phi(0.0)


def test_phi_constructors_validate():
    with pytest.raises(ValueError):
        SourceRepresentation(0.0, 1.0)
    with pytest.raises(ValueError):
        SourceRepresentation(1.5, 1.0)


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
def test_source_condition_sup_power(nu):
    # sup over the spectrum grid of alpha phi(lam) / (lam + alpha) stays
    # below c0 phi(alpha) with c0 = 1 for the power family
    source = SourceRepresentation(nu, 1.0)
    lam = np.geomspace(1e-12, 1e2, 200)
    for alpha in np.geomspace(1e-6, 1e-1, 25):
        ratio = np.max(alpha * lam**nu / (lam + alpha)) / source.phi(alpha)
        assert ratio <= 1.0 + 1e-12


def test_source_bound_on_green():
    # ||x - x_alpha|| <= c0 ||u|| phi(alpha), c0 = 1, for the smoothness
    # certificate the problem carries
    prob = get_problem("green-m1")
    source = prob.source_repr
    for alpha in np.geomspace(1e-5, 1e-1, 9):
        x_alpha = tikhonov_continuous_reference(prob, REF, alpha)
        lhs = l2_error(prob.x_dagger, x_alpha, REF)
        rhs = source.u_norm * source.phi(alpha)
        assert lhs <= rhs + 1e-6 * (1.0 + rhs)


def test_choose_alpha():
    assert choose_alpha(1e-3) == 1e-3
    with pytest.raises(ValueError):
        choose_alpha(0.0)
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "collocation", 8)
    eps = estimate_epsilon(system)
    assert choose_alpha(eps) == eps


# ---------------------------------------------------------------------------
# noise model


def test_add_noise_zero_delta():
    space = WeightedSpace(weights=np.full(5, 0.2))
    y = np.arange(5.0)
    assert np.array_equal(add_noise(y, space, NoiseSpec(0.0, 3)), y)


@pytest.mark.parametrize("delta", [1e-8, 1e-3, 2.0])
def test_add_noise_exact_norm(delta):
    space = WeightedSpace(weights=np.random.default_rng(5).uniform(0.1, 1.0, 8))
    y = np.random.default_rng(6).standard_normal(8)
    noisy = add_noise(y, space, NoiseSpec(delta, 13))
    assert space.norm(noisy - y) == pytest.approx(delta, rel=1e-14)


def test_add_noise_deterministic():
    space = WeightedSpace(weights=np.ones(6))
    y = np.zeros(6)
    a = add_noise(y, space, NoiseSpec(0.5, 21))
    b = add_noise(y, space, NoiseSpec(0.5, 21))
    c = add_noise(y, space, NoiseSpec(0.5, 22))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_add_noise_gram_metric():
    prob = get_problem("rank1-sine")
    system = build_system(prob.kernel, "interpolatory", 6)
    y = project_data(system, prob.y)
    noisy = add_noise(y, system.space, NoiseSpec(1e-2, 0))
    assert system.space.norm(noisy - y) == pytest.approx(1e-2, rel=1e-13)


@pytest.mark.parametrize("alpha", [1e-2, 1e-4])
@pytest.mark.parametrize("delta", [1e-2, 1e-4])
def test_noise_stability_bound(alpha, delta):
    # ||x_{alpha,n} - x~_{alpha,n}|| <= ||y - y~|| / sqrt(alpha)
    prob = get_problem("green-m1")
    system = build_system(prob.kernel, "collocation", 16)
    y_n = project_data(system, prob.y)
    y_tilde = add_noise(y_n, system.space, NoiseSpec(delta, 11))
    measured_delta = system.space.norm(y_tilde - y_n)
    rec = tikhonov_discrete(system, y_n, alpha)
    rec_noisy = tikhonov_discrete(system, y_tilde, alpha)
    gap = l2_error(rec.function, rec_noisy.function, REF)
    assert gap <= measured_delta / np.sqrt(alpha) + 1e-8
