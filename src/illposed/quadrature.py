"""Quadrature rules on an interval.

The package measures every "exact" L2 quantity through a quadrature rule, so
rules validate the basic sanity invariants (strictly increasing nodes,
positive weights, weights summing to the interval length) at construction.

Besides the plain composite trapezoid and Gauss-Legendre rules there is a
composite Gauss rule over caller-supplied panels.  Panel-aligned rules matter
for kernels that are continuous but kinked (Green's functions): aligning the
panel boundaries with the kink locations restores spectral accuracy that a
single global rule loses.

Every Gauss rule in the package starts from :func:`gauss_nodes`, which
computes the reference nodes and weights on [-1, 1] once per point count
and hands out read-only arrays: numpy's ``leggauss`` (an O(q^3) eigenvalue
problem) up to :data:`LEGGAUSS_MAX_POINTS` points, Newton's method on the
Legendre three-term recurrence (O(q^2) time, O(q) memory) above.
:func:`segment_gauss` maps them onto one segment per row; it is the single
primitive behind every "Gauss on [lo, hi], split at the diagonal" integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .validation import as_vector, check_integer

__all__ = [
    "Domain",
    "QuadratureRule",
    "LEGGAUSS_MAX_POINTS",
    "gauss_nodes",
    "segment_gauss",
    "composite_trapezoid",
    "gauss_legendre",
    "composite_gauss",
    "aligned_rule",
]


@dataclass(frozen=True)
class Domain:
    """Closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"domain requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on a domain.

    All built-in rules integrate constants exactly, so the weights sum to
    the interval length (checked to 1e-12 relative at construction).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: Domain

    def __post_init__(self):
        nodes = as_vector(self.nodes, "nodes")
        weights = as_vector(self.weights, "weights")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.size == 0 or nodes.size != weights.size:
            raise ValueError("nodes and weights must be nonempty and equal length")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if nodes[0] < self.domain.a - 1e-12 or nodes[-1] > self.domain.b + 1e-12:
            raise ValueError("nodes must lie inside the domain")
        total = float(np.sum(weights))
        if abs(total - self.domain.length) > 1e-12 * max(1.0, self.domain.length):
            raise ValueError(
                f"weights sum to {total!r}, expected the interval length "
                f"{self.domain.length!r}"
            )

    @property
    def n_points(self) -> int:
        return self.nodes.size

    def norm(self, f_values) -> float:
        f = np.asarray(f_values, dtype=float)
        # vdot warns of no overflow (WeightedSpace.norm): inf, which callers reject
        return math.sqrt(max(np.vdot(f, self.weights * f), 0.0))


# The largest rule taken from numpy's leggauss.  This is not where Newton
# (below) starts to win, which it does from about 128 points on: the 8-,
# 16-, 32- and 256-point rules feed the rounding-noise cells of the
# benchmark's recorded verify reference, whose last bits they decide, and
# 256 is the largest size such a reference pins.  Moving the boundary, or
# retiring leggauss, waits on that reference's re-record (ROADMAP item 1).
LEGGAUSS_MAX_POINTS = 256


def _legendre(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x) by the three-term recurrence; |x| < 1."""
    p_prev, p, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, q):  # (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, in place
        np.multiply(x, p, out=t)
        t *= (2 * j + 1) / (j + 1)
        p_prev *= j / (j + 1)
        t -= p_prev
        p_prev, p, t = p, t, p_prev
    return p, q * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _newton_gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``q``-point Gauss-Legendre rule by Newton's method on P_q.

    Tricomi's estimates of the nonnegative nodes converge in about three
    steps; the weights 2/((1 - x^2) P_q'(x)^2) are scaled to sum to 2, as
    ``leggauss`` scales its own, and the half rule is mirrored, so the
    nodes are exactly antisymmetric and the weights exactly symmetric.
    """
    k = np.arange((q + 1) // 2, 0, -1)  # ascending; the last is 0 for odd q
    x = (1.0 - (1.0 - 1.0 / q) / (8.0 * q * q)) * np.cos(np.pi * (4 * k - 1) / (4 * q + 2))
    if q % 2:
        x[0] = 0.0
    for _ in range(10):
        p, dp = _legendre(q, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    else:
        raise ArithmeticError(f"Newton's method missed the {q}-point Gauss nodes")
    dp = _legendre(q, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    tail = q // 2  # the mirrored nodes, which leave out 0 for odd q
    x = np.concatenate((-x[::-1][:tail], x))
    w = np.concatenate((w[::-1][:tail], w))
    return x, w * (2.0 / w.sum())


# typed: 3.0 must not hit the entry of np.int64(3), which passed the check
@functools.lru_cache(maxsize=64, typed=True)
def gauss_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] with ``q`` points.

    Up to :data:`LEGGAUSS_MAX_POINTS` points these are numpy's ``leggauss``
    arrays, bit for bit; larger rules come from :func:`_newton_gauss`.
    Computed once per point count and cached; the arrays are read-only
    because every caller shares them.
    """
    q = check_integer(q, "q")
    if q < 1:
        raise ValueError(f"Gauss-Legendre rule needs q >= 1, got {q}")
    if q <= LEGGAUSS_MAX_POINTS:
        x, w = np.polynomial.legendre.leggauss(q)
    else:
        x, w = _newton_gauss(q)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def segment_gauss(lo, hi, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``q``-point Gauss rule on each segment ``[lo[i], hi[i]]``.

    Returns ``(nodes, weights)`` of shape ``(len(lo), q)``; row ``i`` holds
    the rule on segment ``i``.  Integrals of values ``f(nodes)`` are
    ``einsum("ij,ij->i", f(nodes), weights)``.
    """
    x, w = gauss_nodes(q)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


def composite_trapezoid(n: int, dom: Domain) -> QuadratureRule:
    """Equispaced trapezoid rule with ``n`` nodes including both endpoints."""
    n = check_integer(n, "n")
    if n < 2:
        raise ValueError("composite trapezoid rule needs n >= 2")
    nodes = np.linspace(dom.a, dom.b, n)
    h = dom.length / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    return QuadratureRule(nodes, weights, domain=dom)


def gauss_legendre(n: int, dom: Domain) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes mapped to ``dom`` (degree 2n-1)."""
    nodes, weights = segment_gauss([dom.a], [dom.b], n)
    return QuadratureRule(nodes[0], weights[0], domain=dom)


def composite_gauss(knots, points_per_panel: int) -> QuadratureRule:
    """Gauss-Legendre quadrature applied on each panel between the knots.

    ``knots`` must be strictly increasing; the rule is exact for piecewise
    polynomials of degree ``2 q - 1`` with breakpoints at the knots.
    """
    knots = as_vector(knots, "knots")
    q = check_integer(points_per_panel, "points_per_panel")
    if knots.size < 2 or np.any(np.diff(knots) <= 0.0):
        raise ValueError("knots must be strictly increasing with at least two entries")
    if q < 1:
        raise ValueError("points_per_panel must be >= 1")
    nodes, weights = segment_gauss(knots[:-1], knots[1:], q)
    dom = Domain(float(knots[0]), float(knots[-1]))
    return QuadratureRule(nodes.ravel(), weights.ravel(), domain=dom)


def aligned_rule(knots, min_points: int, min_per_panel: int = 4) -> QuadratureRule:
    """Composite Gauss rule aligned with ``knots`` holding >= min_points nodes.

    Used wherever integrands are smooth between known breakpoints (basis
    supports, collocation nodes, kernel kink lines) but not across them.
    """
    knots = np.unique(as_vector(knots, "knots"))
    panels = knots.size - 1
    if panels < 1:
        raise ValueError("need at least two distinct knots")
    q = max(check_integer(min_per_panel, "min_per_panel"),
            math.ceil(check_integer(min_points, "min_points") / panels))
    return composite_gauss(knots, q)
