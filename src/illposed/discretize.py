"""Finite-rank discretizations of a Fredholm integral operator.

Three schemes map the operator into an n-dimensional inner-product space:

``collocation``
    Point evaluation at quadrature nodes; the data space is R^n with the
    quadrature-weighted inner product ``<u, v> = sum w_i u_i v_i``.
``interpolatory``
    Piecewise-linear (hat) interpolation on an equispaced grid; the data
    space is the hat span inside L2, so the metric is the tridiagonal hat
    Gram matrix.
``ortho-pc``
    L2-orthogonal projection onto piecewise constants over n equal cells
    (cell averages); the metric is ``h I``.

All three share one structure: the i-th coordinate of the discretized
operator applied to ``x`` is ``integral g_i(t) x(t) dt`` for a scheme slice
function ``g_i`` (a kernel section, or a cell-averaged kernel section), the
adjoint applied to coordinates ``v`` is ``sum_i g_i (M v)_i`` with M the
metric, and the matrix of the composed operator on the data space is
``A = K M`` where ``K_ij = integral g_i g_j``.  ``M A`` is then symmetric
positive semidefinite by construction, which the builder verifies.

Entry integrals use a panel-aligned composite Gauss rule by default: panels
break at the scheme's nodes/cell boundaries, where diagonally kinked kernels
(Green's functions) lose smoothness.  A single global rule of the same size
would converge only algebraically there and pollute the ill-conditioned
solves downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, WeightedSpace, eigh_symmetric, spectral_norm
from .problems import Kernel
from .quadrature import (
    Domain,
    QuadratureRule,
    aligned_rule,
    composite_trapezoid,
    gauss_legendre,
    gauss_nodes,
    segment_gauss,
)
from .validation import as_matrix, as_vector

__all__ = [
    "SchemeKind",
    "DiscreteSystem",
    "build_system",
    "factor_system",
    "project_data",
    "apply_adjoint",
    "estimate_epsilon",
    "dump_matrix",
    "load_matrix",
]

# Gauss points per panel/side used for cell averages and split evaluations.
_CELL_GAUSS = 24

_SYMMETRY_RTOL = 1e-8
_PSD_RTOL = 1e-8


class SchemeKind(str, enum.Enum):
    """Discretization scheme selector."""

    COLLOCATION = "collocation"
    INTERPOLATORY = "interpolatory"
    ORTHO_PC = "ortho-pc"

    @classmethod
    def parse(cls, value) -> "SchemeKind":
        if isinstance(value, cls):
            return value
        text = str(value).strip().lower()
        aliases = {
            "collocation": cls.COLLOCATION,
            "interpolatory": cls.INTERPOLATORY,
            "interp": cls.INTERPOLATORY,
            "ortho-pc": cls.ORTHO_PC,
            "ortho": cls.ORTHO_PC,
            "piecewise-constant": cls.ORTHO_PC,
        }
        if text not in aliases:
            known = ", ".join(sorted({k for k in aliases}))
            raise ValueError(f"unknown scheme {value!r}; expected one of: {known}")
        return aliases[text]


@dataclass(eq=False)
class DiscreteSystem:
    """One assembled discretization of a kernel.

    Attributes
    ----------
    scheme, n, kernel : the defining choices.
    rule : QuadratureRule
        Collocation nodes/weights, the interpolation grid (trapezoid rule on
        it), or the cell midpoint rule.
    space : WeightedSpace
        Inner product of the data space.
    matrix : ndarray
        Matrix of the composed operator (the normal operator on data space)
        in the scheme basis; ``A = K M``.
    slice_gram : ndarray
        ``K_ij = integral g_i g_j`` from which ``matrix`` was assembled; also
        the exact L2 Gram of adjoint reconstructions.
    sym_matrix : ndarray
        ``M^(1/2) A M^(-1/2)``, symmetric PSD; its eigenvalues are the
        squared singular values of the discretized operator.
    eigvals, eigvecs : ndarray
        Eigendecomposition of ``sym_matrix`` (values non-increasing), the
        one factorization every solve of the system filters.
    sigma_min : float
        Smallest positive singular value of the discretized operator.
    inner_rule : QuadratureRule
        Rule used for the entry integrals.

    Two caches sit beside the fixed fields.  The epsilon cache is write-once
    and idempotent.  :meth:`slice_values` keeps the last 1-D grid it sampled
    and the slice values there as one read-only ``(grid, values)`` tuple,
    replaced by a single attribute store; concurrent readers therefore see
    either the old or the new pair and at worst recompute.
    """

    scheme: SchemeKind
    n: int
    kernel: Kernel
    rule: QuadratureRule
    space: WeightedSpace
    matrix: np.ndarray
    slice_gram: np.ndarray
    sym_matrix: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    sigma_min: float
    inner_rule: QuadratureRule
    rel_tol: float
    _epsilon: float | None = field(default=None, repr=False)
    _slices: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def domain(self) -> Domain:
        return self.kernel.domain

    @property
    def epsilon_n(self) -> float | None:
        """Cached operator-level discretization error bound, if estimated."""
        return self._epsilon

    def cache_epsilon(self, value: float) -> float:
        # Write-once: concurrent writers recompute the same number, so an
        # identical value is accepted and a conflicting one is a bug.
        value = float(value)
        if self._epsilon is not None and abs(self._epsilon - value) > 1e-12 * (
            1.0 + abs(self._epsilon)
        ):
            raise NumericalError(
                f"epsilon cache conflict: {self._epsilon!r} vs {value!r}"
            )
        self._epsilon = value
        return value

    def kept(self, rel_tol: float | None = None) -> np.ndarray:
        """Mask of the eigenvalues above ``rel_tol * max|lambda|``, the
        numerical rank of the system."""
        if rel_tol is None:
            rel_tol = self.rel_tol
        mags = np.abs(self.eigvals)
        return mags > rel_tol * mags.max()

    # -- scheme geometry ----------------------------------------------------

    def grid_knots(self) -> np.ndarray:
        """Breakpoints between which all scheme integrands are smooth."""
        a, b = self.domain.a, self.domain.b
        if self.scheme is SchemeKind.ORTHO_PC:
            return np.linspace(a, b, self.n + 1)
        return np.unique(np.concatenate(([a], self.rule.nodes, [b])))

    def cell_edges(self) -> np.ndarray:
        if self.scheme is not SchemeKind.ORTHO_PC:
            raise ValueError("cell_edges is only defined for the ortho-pc scheme")
        return np.linspace(self.domain.a, self.domain.b, self.n + 1)

    # -- slice and basis evaluation ------------------------------------------

    def slice_values(self, t_points) -> np.ndarray:
        """Values ``g_i(t)`` of the scheme slices, shape (n, len(t_points)).

        The values on the last 1-D grid are kept (read-only) and returned
        again for an equal grid, so every reconstruction measured on one
        reference rule samples the slices once.
        """
        t = np.atleast_1d(np.asarray(t_points, dtype=float))
        memo = self._slices
        if memo is not None and np.array_equal(memo[0], t):
            return memo[1]
        if self.scheme is SchemeKind.ORTHO_PC:
            values = _cell_average_slices(self.kernel, self.cell_edges(), t)
        else:
            values = self.kernel(self.rule.nodes[:, None], t[None, :])
        if t.ndim == 1:
            values.flags.writeable = False
            self._slices = (t.copy(), values)
        return values

    def basis_values(self, s_points) -> np.ndarray:
        """Values of the data-space basis as functions, shape (len(s), n).

        For the subspace schemes these are the hat/indicator functions; for
        collocation (whose data space is not a function space) they are the
        piecewise-linear embedding used by the operator-norm diagnostics.
        """
        s = np.atleast_1d(np.asarray(s_points, dtype=float))
        if self.scheme is SchemeKind.ORTHO_PC:
            edges = self.cell_edges()
            idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, self.n - 1)
            out = np.zeros((s.size, self.n))
            out[np.arange(s.size), idx] = 1.0
            return out
        nodes = self.rule.nodes
        out = np.empty((s.size, self.n))
        eye = np.eye(self.n)
        for i in range(self.n):
            out[:, i] = np.interp(s, nodes, eye[i])
        return out

    @property
    def embedded_basis(self) -> bool:
        """True when basis_values is an embedding proxy (collocation)."""
        return self.scheme is SchemeKind.COLLOCATION


def _hat_gram(n: int, h: float) -> np.ndarray:
    # Closed-form L2 Gram of piecewise-linear hats on an equispaced grid:
    # boundary diagonal h/3, interior diagonal 2h/3, adjacent off-diagonal h/6.
    g = np.zeros((n, n))
    diag = np.full(n, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    np.fill_diagonal(g, diag)
    idx = np.arange(n - 1)
    g[idx, idx + 1] = h / 6.0
    g[idx + 1, idx] = h / 6.0
    return g


def _cell_average_slices(kernel: Kernel, edges: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cell averages ``(1/h) integral_{cell_i} k(s, t) ds`` for all cells/t.

    The s-integral is split at ``s = t`` whenever ``t`` falls inside the
    cell, so diagonally kinked kernels are integrated to machine accuracy.
    """
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


def build_system(kernel: Kernel, scheme, n: int, inner_rule: QuadratureRule | None = None,
                 outer_rule: QuadratureRule | None = None,
                 rel_tol: float = 1e-10, inner_factor: int = 4) -> DiscreteSystem:
    """Assemble the discrete normal system for a kernel and scheme.

    Parameters
    ----------
    kernel : Kernel
    scheme : SchemeKind or str
    n : int
        Dimension of the data space (collocation/interpolation nodes, or
        number of cells).
    inner_rule : QuadratureRule, optional
        Rule for the entry integrals; must hold at least ``4 n`` points.
        Defaults to a composite Gauss rule aligned with the scheme grid,
        with at least ``inner_factor * n`` points and 8 per panel.
    outer_rule : QuadratureRule, optional
        Collocation only: the node/weight rule defining the scheme (default
        Gauss-Legendre, which has the required positive weights).
    rel_tol : float
        Relative truncation threshold separating the numerical rank from
        quadrature noise.
    inner_factor : int
        Point budget of the default inner rule, per unit of ``n``.

    Raises
    ------
    NumericalError
        If the assembled matrix is not self-adjoint PSD in the data-space
        metric, which indicates a broken kernel or rule.
    """
    scheme = SchemeKind.parse(scheme)
    n = int(n)
    dom = kernel.domain

    if scheme is SchemeKind.COLLOCATION:
        if n < 1:
            raise ValueError("collocation needs n >= 1")
        rule = outer_rule if outer_rule is not None else gauss_legendre(n, dom)
        if rule.n_points != n:
            raise ValueError("outer rule size does not match n")
        space = WeightedSpace(weights=rule.weights)
    elif scheme is SchemeKind.INTERPOLATORY:
        if n < 2:
            raise ValueError("interpolatory scheme needs n >= 2")
        if outer_rule is not None:
            raise ValueError("outer_rule applies to the collocation scheme only")
        rule = composite_trapezoid(n, dom)
        space = WeightedSpace(matrix=_hat_gram(n, dom.length / (n - 1)))
    else:
        if n < 1:
            raise ValueError("ortho-pc scheme needs n >= 1")
        if outer_rule is not None:
            raise ValueError("outer_rule applies to the collocation scheme only")
        h = dom.length / n
        mids = dom.a + h * (np.arange(n) + 0.5)
        rule = QuadratureRule(mids, np.full(n, h), exactness_degree=1, domain=dom)
        space = WeightedSpace(weights=np.full(n, h))

    system = DiscreteSystem(
        scheme=scheme, n=n, kernel=kernel, rule=rule, space=space,
        matrix=np.empty(0), slice_gram=np.empty(0), sym_matrix=np.empty(0),
        eigvals=np.empty(0), eigvecs=np.empty(0), sigma_min=0.0,
        inner_rule=rule, rel_tol=float(rel_tol),
    )

    if inner_rule is None:
        inner_rule = aligned_rule(system.grid_knots(), int(inner_factor) * n,
                                  min_per_panel=8)
    if inner_rule.n_points < 4 * n:
        raise ValueError(
            f"inner rule has {inner_rule.n_points} points; need at least 4 n = {4 * n}"
        )
    system.inner_rule = inner_rule

    gv = system.slice_values(inner_rule.nodes)
    if not np.all(np.isfinite(gv)):
        raise NumericalError("kernel produced non-finite slice samples")
    slice_gram = (gv * inner_rule.weights) @ gv.T
    slice_gram = 0.5 * (slice_gram + slice_gram.T)
    factor_system(system, slice_gram @ space.metric_dense(), slice_gram)
    return system


def factor_system(system: DiscreteSystem, matrix, slice_gram=None) -> None:
    """Install ``matrix`` as the system's normal matrix and factor it once.

    Checks that ``M A`` is symmetric and that the symmetrized matrix is
    positive semidefinite, then stores the matrix, its symmetrization, the
    eigendecomposition and ``sigma_min`` on the system.  ``slice_gram``
    defaults to ``A M^(-1)``, for matrices that come from outside the
    assembly (a replayed dump).

    Raises
    ------
    NumericalError
        If the matrix has the wrong shape or is not self-adjoint PSD in the
        data-space metric.
    """
    matrix = as_matrix(matrix, "matrix")
    if matrix.shape != (system.n, system.n):
        raise NumericalError(
            f"matrix shape {matrix.shape} does not match the system "
            f"({system.n}, {system.n})"
        )
    space = system.space
    metric_a = space.metric_dense() @ matrix
    scale = float(np.max(np.abs(metric_a))) or 1.0
    asym = float(np.max(np.abs(metric_a - metric_a.T)))
    if asym > _SYMMETRY_RTOL * scale:
        raise NumericalError(
            f"matrix is not self-adjoint in the data metric "
            f"(asymmetry {asym:.3e} vs scale {scale:.3e})"
        )

    sym = space.symmetrize(matrix)
    sym = 0.5 * (sym + sym.T)
    vals, vecs = eigh_symmetric(sym)
    if vals[-1] < -_PSD_RTOL * np.max(np.abs(vals)):
        raise NumericalError(
            f"matrix is not PSD (min eigenvalue {vals[-1]:.3e} "
            f"vs max {vals[0]:.3e})"
        )

    if slice_gram is None:
        slice_gram = space.isqrt_apply(space.isqrt_apply(matrix.T)).T
    system.matrix = matrix
    system.slice_gram = slice_gram
    system.sym_matrix = sym
    system.eigvals = vals
    system.eigvecs = vecs
    kept = system.kept()
    # an all-zero spectrum is a numerically zero operator
    system.sigma_min = float(np.sqrt(np.abs(vals[kept]).min())) if kept.any() else 0.0


def project_data(system: DiscreteSystem, f) -> np.ndarray:
    """Coordinates of the projected function in the scheme basis.

    Point values at the nodes for collocation and interpolation; cell
    averages for the orthogonal piecewise-constant scheme.
    """
    if system.scheme is SchemeKind.ORTHO_PC:
        edges = system.cell_edges()
        nodes, weights = segment_gauss(edges[:-1], edges[1:], _CELL_GAUSS)
        vals = np.asarray(f(nodes), dtype=float)
        return np.einsum("ij,ij->i", vals, weights) / (edges[1] - edges[0])
    return np.asarray(f(system.rule.nodes), dtype=float)


def apply_adjoint(system: DiscreteSystem, v):
    """Reconstruction map: coordinates in the data space to an L2 function.

    Returns the function ``s -> sum_i g_i(s) (M v)_i``; this is how
    coordinate solutions of the discrete normal equations become functions
    on the domain.
    """
    v = as_vector(v, "v")
    if v.size != system.n:
        raise ValueError(f"coordinate vector has length {v.size}, expected {system.n}")
    mv = system.space.apply_metric(v)

    def reconstruction(s):
        vals = mv @ system.slice_values(s)
        return vals if np.ndim(s) else float(vals[0])

    return reconstruction


def estimate_epsilon(system: DiscreteSystem, ref_rule: QuadratureRule | None = None,
                     safety: float = 1.1) -> float:
    """Measured upper bound for the operator-level discretization error.

    Builds matrix representations of the continuous and discretized normal
    operators on a fine reference grid, symmetrized by the square root of
    the grid weights so the matrix 2-norm approximates the L2 operator norm,
    and returns the norm of the difference times a safety factor.  The
    result is cached on the system (write-once).
    """
    if ref_rule is None:
        ref_rule = gauss_legendre(max(256, 4 * system.n), system.domain)
    if ref_rule.n_points < 4 * system.n:
        raise ValueError(
            f"reference rule has {ref_rule.n_points} points; need at least "
            f"4 n = {4 * system.n}"
        )
    nodes = ref_rule.nodes
    rho = ref_rule.weights
    sqrt_rho = np.sqrt(rho)

    kmat = system.kernel(nodes[:, None], nodes[None, :])
    normal_cont = kmat.T @ (rho[:, None] * kmat)
    gv = system.slice_values(nodes)
    normal_disc = gv.T @ (system.space.metric_dense() @ gv)
    diff = (normal_cont - normal_disc) * np.outer(sqrt_rho, sqrt_rho)
    value = float(safety) * spectral_norm(0.5 * (diff + diff.T))
    return system.cache_epsilon(value)


def dump_matrix(matrix: np.ndarray, path) -> None:
    """Write a matrix as CSV: a `rows,cols` header line, then row-major data."""
    matrix = as_matrix(matrix, "matrix")
    rows, cols = matrix.shape
    lines = [f"{rows},{cols}"]
    for row in matrix:
        lines.append(",".join(f"{x:.17g}" for x in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`dump_matrix`; validates the header."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise NumericalError(f"matrix dump {path!r} is corrupted: {exc}") from None
    if not lines:
        raise NumericalError(f"matrix dump {path!r} is empty")
    try:
        rows, cols = (int(part) for part in lines[0].split(","))
        data = [[float(x) for x in line.split(",")] for line in lines[1:]]
        arr = np.array(data, dtype=float)
    except ValueError as exc:
        raise NumericalError(f"matrix dump {path!r} is corrupted: {exc}") from None
    if arr.ndim != 2:
        raise NumericalError(f"matrix dump {path!r} has ragged rows")
    if arr.shape != (rows, cols):
        raise NumericalError(
            f"matrix dump {path!r} header says {rows}x{cols} but data is {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"matrix dump {path!r} contains non-finite entries")
    return arr
