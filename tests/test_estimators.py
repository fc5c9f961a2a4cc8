import numpy as np
import pytest

from illposed.analysis import l2_error
from illposed.discretize import build_system, estimate_epsilon, project_data
from illposed.estimators import MinimumNormSolver, NotFittedError, TikhonovSolver
from illposed.problems import get_problem, reference_rule
from illposed.regularize import min_norm_solution, tikhonov_discrete


@pytest.fixture(scope="module")
def green():
    return get_problem("green-m1")


def test_minimum_norm_solver_matches_pipeline(green):
    est = MinimumNormSolver(green.kernel, scheme="collocation", n=16).fit(green.y)
    system = build_system(green.kernel, "collocation", 16)
    direct = min_norm_solution(system, project_data(system, green.y))
    s = np.linspace(0.0, 1.0, 33)
    assert est.predict(s) == pytest.approx(direct.function(s), abs=1e-12)
    assert est.coordinates_ == pytest.approx(direct.coordinates, abs=1e-12)


def test_fit_accepts_discrete_vector(green):
    system = build_system(green.kernel, "collocation", 8)
    y_n = project_data(system, green.y)
    est = MinimumNormSolver(green.kernel, n=8).fit(y_n)
    ref = reference_rule(green.kernel.domain)
    assert l2_error(est.reconstruction_.function, green.x_dagger, ref) < 5e-2
    with pytest.raises(ValueError):
        MinimumNormSolver(green.kernel, n=8).fit(y_n[:-1])


def test_predict_before_fit_raises(green):
    est = TikhonovSolver(green.kernel)
    with pytest.raises(NotFittedError):
        est.predict([0.5])


def test_get_set_params_roundtrip(green):
    est = TikhonovSolver(green.kernel, scheme="ortho-pc", n=12, alpha=1e-3)
    params = est.get_params()
    assert params["n"] == 12 and params["alpha"] == 1e-3
    clone = type(est)(**params)
    assert clone.get_params() == params
    est.set_params(n=24, alpha="eps")
    assert est.get_params()["n"] == 24
    with pytest.raises(ValueError):
        est.set_params(gamma=1.0)


def test_tikhonov_eps_rule_uses_measured_epsilon(green):
    est = TikhonovSolver(green.kernel, scheme="collocation", n=8, alpha="eps").fit(green.y)
    system = build_system(green.kernel, "collocation", 8)
    eps = estimate_epsilon(system)
    assert est.alpha_ == pytest.approx(eps, rel=1e-12)
    direct = tikhonov_discrete(system, project_data(system, green.y), eps)
    s = np.linspace(0.0, 1.0, 17)
    assert est.predict(s) == pytest.approx(direct.function(s), rel=1e-9)


def test_tikhonov_rejects_unknown_alpha_rule(green):
    with pytest.raises(ValueError):
        TikhonovSolver(green.kernel, alpha="auto").fit(green.y)


@pytest.mark.parametrize("solver", [MinimumNormSolver, TikhonovSolver])
def test_fit_rejects_a_second_data_argument(green, solver):
    # it used to be dropped without a word
    y_extra = np.ones(8)
    with pytest.raises(ValueError, match="y_extra"):
        solver(green.kernel, n=8).fit(green.y, y_extra)
    explicit = solver(green.kernel, n=8).fit(green.y, None)
    default = solver(green.kernel, n=8).fit(green.y)
    assert np.array_equal(explicit.coordinates_, default.coordinates_)


@pytest.mark.parametrize("solver", [MinimumNormSolver, TikhonovSolver])
@pytest.mark.parametrize("n", [8.7, True])
def test_fit_rejects_a_non_integer_n(green, solver, n):
    with pytest.raises(ValueError, match="n must be an integer"):
        solver(green.kernel, n=n).fit(green.y)


def test_tikhonov_rejects_a_bool_alpha(green):
    # float(True) would have fitted with alpha = 1.0
    with pytest.raises(ValueError, match="alpha"):
        TikhonovSolver(green.kernel, n=8, alpha=True).fit(green.y)


@pytest.mark.parametrize("scheme", ["collocation", "interpolatory", "ortho-pc"])
def test_predict_keeps_the_shape_and_rejects_points_off_the_domain(green, scheme):
    est = TikhonovSolver(green.kernel, scheme=scheme, n=8, alpha=1e-6).fit(green.y)
    s = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert np.array_equal(est.predict(s), est.predict(s.ravel()).reshape(2, 2))
    with pytest.raises(ValueError, match="domain"):
        est.predict([0.5, 1.5])
