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
(an O(q^3) eigenvalue problem) and hands out read-only arrays.
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
        with np.errstate(over="ignore"):  # an overflow is inf, which callers reject
            return float(np.sqrt(max(np.sum(self.weights * f * f), 0.0)))


@functools.lru_cache(maxsize=64)
def gauss_nodes(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] with ``q`` points.

    Computed once per point count and cached; the arrays are read-only
    because every caller shares them.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"Gauss-Legendre rule needs an integer q >= 1, got {q!r}")
    x, w = np.polynomial.legendre.leggauss(int(q))
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
