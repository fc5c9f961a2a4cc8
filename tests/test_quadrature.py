import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.quadrature import (
    Domain,
    QuadratureRule,
    aligned_rule,
    composite_gauss,
    composite_trapezoid,
    gauss_legendre,
    gauss_nodes,
    segment_gauss,
)

UNIT = Domain(0.0, 1.0)


def test_domain_requires_order():
    with pytest.raises(ValueError):
        Domain(1.0, 1.0)


def test_trapezoid_n3_nodes_and_weights():
    rule = composite_trapezoid(3, UNIT)
    assert rule.nodes == pytest.approx([0.0, 0.5, 1.0])
    assert rule.weights == pytest.approx([0.25, 0.5, 0.25])


@pytest.mark.parametrize("n", [2, 5, 17])
def test_trapezoid_exact_for_linear(n):
    rule = composite_trapezoid(n, UNIT)
    assert rule.weights @ rule.nodes == pytest.approx(0.5, abs=1e-14)


def test_trapezoid_quadratic_error_model():
    rule = composite_trapezoid(101, UNIT)
    assert rule.weights @ rule.nodes**2 == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_trapezoid_rejects_small_n():
    with pytest.raises(ValueError):
        composite_trapezoid(1, UNIT)


@pytest.mark.parametrize("make", [
    lambda: composite_trapezoid(8.7, UNIT),
    lambda: composite_trapezoid(True, UNIT),
    lambda: composite_gauss([0.0, 0.5, 1.0], 3.9),
    lambda: aligned_rule([0.0, 0.5, 1.0], 16.5),
    lambda: aligned_rule([0.0, 0.5, 1.0], 16, min_per_panel=4.0),
    lambda: gauss_legendre(8.7, UNIT),
], ids=["trapezoid-float", "trapezoid-bool", "composite-gauss-float", "aligned-float-points",
        "aligned-float-per-panel", "gauss-legendre-float"])
def test_rule_sizes_are_integers(make):
    # int() would quietly turn 8.7 nodes into 8
    with pytest.raises(ValueError, match="integer"):
        make()
    assert composite_trapezoid(np.int64(5), UNIT).n_points == 5


def test_gauss_one_point_is_midpoint():
    rule = gauss_legendre(1, Domain(-1.0, 1.0))
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0])


def test_gauss_two_point_exactness():
    rule = gauss_legendre(2, Domain(-1.0, 1.0))
    assert rule.weights @ rule.nodes**3 == pytest.approx(0.0, abs=1e-14)
    assert rule.weights @ rule.nodes**2 == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_gauss_16_exponential():
    rule = gauss_legendre(16, UNIT)
    assert rule.weights @ np.exp(rule.nodes) == pytest.approx(math.e - 1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), degree_offset=st.integers(0, 6), seed=st.integers(0, 1000))
def test_gauss_exact_up_to_degree(n, degree_offset, seed):
    # exactness degree 2n-1: random polynomial of degree <= 2n-1 integrates
    # exactly against the closed-form antiderivative
    degree = max(0, 2 * n - 1 - degree_offset)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=degree + 1)
    rule = gauss_legendre(n, UNIT)
    value = rule.weights @ np.polynomial.polynomial.polyval(rule.nodes, coeffs)
    exact = np.sum(coeffs / (np.arange(degree + 1) + 1.0))
    assert value == pytest.approx(exact, abs=1e-13)


def test_composite_gauss_panels():
    rule = composite_gauss([0.0, 0.25, 1.0], 4)
    assert rule.n_points == 8
    assert np.sum(rule.weights) == pytest.approx(1.0)
    # exact for piecewise polynomials of degree 7 with a break at 0.25
    f = lambda t: np.where(t < 0.25, t**7, (1.0 - t) ** 5)
    exact = 0.25**8 / 8 + 0.75**6 / 6
    assert rule.weights @ f(rule.nodes) == pytest.approx(exact, abs=1e-15)


def test_aligned_rule_minimum_points():
    rule = aligned_rule([0.0, 0.3, 0.9, 1.0], 64)
    assert rule.n_points >= 64
    assert np.sum(rule.weights) == pytest.approx(1.0)


def test_rule_invariants_enforced():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.5, 0.5]), np.array([0.5, 0.5]), UNIT)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.2, 0.8]), np.array([0.5, -0.5]), UNIT)
    with pytest.raises(ValueError):
        # weights must sum to the interval length
        QuadratureRule(np.array([0.2, 0.8]), np.array([0.5, 0.6]), UNIT)


def test_gauss_nodes_are_cached_and_read_only():
    x, w = gauss_nodes(7)
    ref_x, ref_w = np.polynomial.legendre.leggauss(7)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    again = gauss_nodes(7)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[:] = 1.0
    assert np.array_equal(gauss_nodes(7)[0], ref_x)


@pytest.mark.parametrize("q", [0, -3, 2.5])
def test_gauss_nodes_rejects_bad_counts(q):
    with pytest.raises(ValueError):
        gauss_nodes(q)


def test_segment_gauss_rule_per_row():
    # row i is the 3-point rule on [lo_i, hi_i]: exact for degree 5
    lo = np.array([0.0, 0.2, -1.0])
    hi = np.array([1.0, 0.5, 2.0])
    nodes, weights = segment_gauss(lo, hi, 3)
    assert nodes.shape == weights.shape == (3, 3)
    assert np.all((nodes > lo[:, None]) & (nodes < hi[:, None]))
    values = np.einsum("ij,ij->i", nodes**5, weights)
    assert values == pytest.approx((hi**6 - lo**6) / 6.0, abs=1e-14)
