import tracemalloc

import numpy as np
import pytest

from illposed.analysis import l2_error
from illposed.problems import (
    Domain,
    Kernel,
    SeparableExpansion,
    apply_operator_split,
    get_problem,
    green_problem,
    make_separable_problem,
    problem_catalog,
    reference_rule,
)
from illposed.quadrature import gauss_legendre

UNIT = Domain(0.0, 1.0)


def sine_mode(j):
    return lambda t: np.sqrt(2.0) * np.sin(j * np.pi * np.asarray(t))


def test_apply_operator_constant_kernel():
    kernel = Kernel(lambda s, t: np.ones_like(np.broadcast_arrays(s, t)[0]), UNIT)
    s = np.linspace(0.0, 1.0, 13)
    tx = apply_operator_split(kernel, lambda t: np.ones_like(np.asarray(t)), s)
    assert tx == pytest.approx(np.ones(13), abs=1e-12)


def test_apply_operator_rank1_sine():
    kernel = Kernel(lambda s, t: 2.0 * np.sin(np.pi * s) * np.sin(np.pi * t), UNIT)
    s = np.linspace(0.0, 1.0, 31)
    tx = apply_operator_split(kernel, sine_mode(1), s)
    assert tx == pytest.approx(sine_mode(1)(s), abs=1e-10)


def test_apply_operator_green_eigenfunction():
    # the first sine is an eigenfunction with eigenvalue 1/pi^2; the kinked
    # kernel needs the split application to reach tight tolerances
    prob = green_problem(1)
    s = np.linspace(0.0, 1.0, 41)
    values = apply_operator_split(prob.kernel, sine_mode(1), s)
    assert values == pytest.approx(sine_mode(1)(s) / np.pi**2, abs=1e-8)


def test_apply_operator_plain_rule_floor_on_kink():
    # a single global rule stalls around 1e-6 across the diagonal kink;
    # this documents why measurement paths split the integral instead
    prob = green_problem(1)
    rule = reference_rule(UNIT)
    t, w = rule.nodes, rule.weights
    tx = prob.kernel(t[:, None], t) @ (w * sine_mode(1)(t))
    err = rule.norm(tx - sine_mode(1)(t) / np.pi**2)
    assert 1e-8 < err < 1e-4


def test_kernel_rejects_nonfinite():
    with pytest.raises(ValueError):
        Kernel(lambda s, t: np.where(s > 0.5, np.inf, 1.0), UNIT)


# ---------------------------------------------------------------------------
# separable problems


def test_make_separable_rank1():
    exp = SeparableExpansion([1.0], [sine_mode(1)], [sine_mode(1)], UNIT)
    prob = make_separable_problem(exp, [1.0])
    rule = reference_rule(UNIT)
    assert l2_error(prob.x_dagger, sine_mode(1), rule) < 1e-12
    assert l2_error(prob.y, sine_mode(1), rule) < 1e-12


def test_make_separable_zero_coefficients():
    exp = SeparableExpansion([1.0, 0.5], [sine_mode(1), sine_mode(2)],
                             [sine_mode(1), sine_mode(2)], UNIT)
    prob = make_separable_problem(exp, [0.0, 0.0])
    rule = reference_rule(UNIT)
    assert rule.norm(np.asarray(prob.x_dagger(rule.nodes))) == pytest.approx(0.0, abs=1e-14)
    assert rule.norm(np.asarray(prob.y(rule.nodes))) == pytest.approx(0.0, abs=1e-14)


def test_make_separable_generalized_inverse_roundtrip():
    # closed-form generalized inverse of the finite-rank operator recovers
    # the true solution: x = sum <y, v_j>/sigma_j u_j
    prob = get_problem("rank3-decay")
    exp = prob.svd
    rule = reference_rule(UNIT)
    coeffs = exp.coefficients(prob.y, rule, side="v")
    recovered = exp.synthesize(coeffs / exp.sigmas, side="u")
    assert l2_error(recovered, prob.x_dagger, rule) <= 1e-10


def test_make_separable_coefficient_count():
    exp = SeparableExpansion([1.0], [sine_mode(1)], [sine_mode(1)], UNIT)
    with pytest.raises(ValueError):
        make_separable_problem(exp, [1.0, 2.0])


def test_expansion_rejects_empty_and_nonorthonormal():
    with pytest.raises(ValueError):
        SeparableExpansion([], [], [], UNIT)
    with pytest.raises(ValueError):
        SeparableExpansion([1.0, 1.0], [sine_mode(1), sine_mode(1)],
                           [sine_mode(1), sine_mode(2)], UNIT)


# ---------------------------------------------------------------------------
# the Green problem


def test_green_data_closed_form():
    prob = green_problem(1)
    assert prob.y(0.5) == pytest.approx(np.sqrt(2.0) / np.pi**2, rel=1e-12)


def test_green_solution_normalized():
    prob = green_problem(1)
    rule = reference_rule(UNIT)
    values = np.asarray(prob.x_dagger(rule.nodes))
    assert rule.norm(values) ** 2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_green_data_consistency(m):
    prob = green_problem(m)
    rule = reference_rule(UNIT)
    tx = apply_operator_split(prob.kernel, prob.x_dagger, rule.nodes)
    assert rule.norm(tx - np.asarray(prob.y(rule.nodes))) <= 1e-8


def test_green_kernel_symmetric():
    prob = green_problem(1)
    grid = np.linspace(0.0, 1.0, 64)
    values = prob.kernel(grid[:, None], grid[None, :])
    assert np.array_equal(values, values.T)


def test_green_mode_bounds():
    with pytest.raises(ValueError):
        green_problem(0)
    with pytest.raises(ValueError):
        green_problem(100)


@pytest.mark.parametrize("m", [1.5, True, 2.0, "2"])
def test_green_mode_must_be_an_integer(m):
    # int() would have built m = 1 from 1.5 and from True
    with pytest.raises(ValueError, match="mode index m must be an integer"):
        green_problem(m)


@pytest.mark.parametrize("pid", ["rank1-sine", "rank3-decay", "green-m1"])
def test_expansion_maps_u_to_sigma_v(pid):
    # T u_j = sigma_j v_j for the stored expansions, measured with the
    # split application so the kinked kernel does not limit the check
    prob = get_problem(pid)
    rule = reference_rule(UNIT)
    exp = prob.svd
    for j in range(min(exp.rank, 16)):
        tu = apply_operator_split(prob.kernel, exp.u_funcs[j], rule.nodes)
        target = exp.sigmas[j] * np.asarray(exp.v_funcs[j](rule.nodes))
        assert rule.norm(tu - target) <= 1e-6


def test_catalog():
    assert problem_catalog() == ("green-m1", "rank1-sine", "rank3-decay")
    with pytest.raises(KeyError):
        get_problem("does-not-exist")


def test_mode_tables_match_per_mode_loop():
    # coefficients and syntheses run on (rank, m) mode tables; they agree
    # with the term-by-term sums over the 64 Green modes
    exp = get_problem("green-m1").svd
    rule = reference_rule(UNIT)
    f = lambda t: np.exp(np.asarray(t)) * (1.0 - np.asarray(t))
    for side, funcs in (("u", exp.u_funcs), ("v", exp.v_funcs)):
        coeffs = exp.coefficients(f, rule, side=side)
        loop = np.array([np.sum(rule.weights * f(rule.nodes) * g(rule.nodes))
                         for g in funcs])
        assert np.max(np.abs(coeffs - loop)) <= 1e-14 * np.max(np.abs(loop))

        combination = exp.synthesize(coeffs, side=side)
        for t in (rule.nodes, np.linspace(0.0, 1.0, 30).reshape(5, 6), 0.3):
            loop = sum(c * g(np.asarray(t)) for c, g in zip(coeffs, funcs))
            got = combination(t)
            assert np.shape(got) == np.shape(t)
            assert np.max(np.abs(got - loop)) <= 1e-14 * np.max(np.abs(loop))


def test_mode_table_is_read_only_and_follows_the_grid():
    exp = get_problem("rank3-decay").svd
    grid_a = reference_rule(UNIT, 32).nodes
    grid_b = np.linspace(0.0, 1.0, 32)
    table = exp.mode_table(grid_a, "u")
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert exp.mode_table(grid_a.copy(), "u") is table
    for grid in (grid_b, grid_a):
        expected = np.stack([g(grid) for g in exp.u_funcs])
        assert np.array_equal(exp.mode_table(grid, "u"), expected)


def test_expansion_rejects_an_unknown_side():
    exp = get_problem("rank3-decay").svd
    rule = reference_rule(UNIT, 32)
    calls = (lambda: exp.mode_table(rule.nodes, "x"),
             lambda: exp.coefficients(np.sin, rule, side="x"),
             lambda: exp.synthesize([1.0, 0.0, 0.0], side="x"))
    for call in calls:
        with pytest.raises(ValueError, match="unknown side 'x'"):
            call()


def _green_by_branches(s, t):
    # the two-branch form: s (1 - t) for s <= t, t (1 - s) otherwise
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.where(s <= t, s * (1.0 - t), t * (1.0 - s))


def test_green_kernel_equals_the_two_branch_form_bitwise():
    green = green_problem(1).kernel.evaluator
    rng = np.random.default_rng(7)
    m = gauss_legendre(64, UNIT).nodes
    grid = np.concatenate([[0.0, 1.0], m, np.linspace(0.0, 1.0, 33)])
    cases = [
        (grid[:, None], grid[None, :]),  # (m,1) x (1,m), with s == t on the diagonal
        (grid[None, :], grid[:, None]),
        (grid, grid),  # s == t everywhere
        (rng.random((5, 7)), rng.random((5, 1))),  # (k,q) x (k,1)
        (rng.random((5, 1)), rng.random((5, 7))),
        (0.3, 0.3), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0),  # 0-d scalars
        (np.float64(0.25), 0.75), (np.asarray(0.8), np.asarray(0.2)),
    ]
    for s, t in cases:
        got, want = np.asarray(green(s, t)), _green_by_branches(s, t)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (s, t)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("pid", ["rank1-sine", "rank3-decay", "green-m1"])
def test_a_blocked_kernel_sample_has_the_bits_of_one_evaluator_call(pid):
    # past 2**16 entries a grid is evaluated in row blocks; each entry keeps
    # the evaluator's own arithmetic, whichever operand spans the rows
    kernel = get_problem(pid).kernel
    grid = reference_rule(kernel.domain, 1024).nodes
    nodes = gauss_legendre(256, kernel.domain).nodes
    calls = []
    blocked = Kernel(lambda s, t: calls.append(np.shape(s)) or kernel.evaluator(s, t),
                     kernel.domain)
    for s, t in ((grid[:, None], grid[None, :]), (nodes[:, None], grid[None, :]),
                 (grid[None, :], nodes[:, None]), (grid, nodes[:, None]),
                 (grid[:, None] * np.linspace(0.0, 1.0, 70), grid[:, None])):
        one = np.asarray(kernel.evaluator(s, t), dtype=float)
        calls.clear()
        assert np.array_equal(blocked(s, t), one)
        assert len(calls) > 2


@pytest.mark.parametrize("pid", ["rank1-sine", "rank3-decay", "green-m1"])
def test_a_large_kernel_sample_holds_one_output_array(pid):
    kernel = get_problem(pid).kernel
    grid = reference_rule(kernel.domain, 1024).nodes
    m = grid.size
    tracemalloc.start()
    try:
        kernel(grid[:, None], grid[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * m * m * 8, peak / (m * m * 8)
