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
positive semidefinite by construction.

:func:`build_system` makes each system whole, in one construction: it fixes
the scheme geometry (rule, metric, breakpoints), assembles ``A`` (a replayed
dump skips this), checks that ``M A`` is self-adjoint PSD and factors it
once, into the metric eigenvectors every solve filters and the two spectra
the filters read.  It also fixes the size of the reference rule, on which
``eps_n``, ``||T||`` and every L2 error of the system are measured.

Entry integrals use a panel-aligned composite Gauss rule by default: panels
break at the scheme's nodes/cell boundaries, where diagonally kinked kernels
(Green's functions) lose smoothness.  A single global rule of the same size
would converge only algebraically there and pollute the ill-conditioned
solves downstream.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, WeightedSpace, _lanczos, symmetric_norm
from .problems import REFERENCE_POINTS, Kernel
from .quadrature import (
    Domain,
    QuadratureRule,
    aligned_rule,
    composite_trapezoid,
    gauss_legendre,
    gauss_nodes,
    kept,
    segment_gauss,
)
from .validation import as_matrix, as_vector, check_integer

__all__ = [
    "SchemeKind",
    "DiscreteSystem",
    "build_system",
    "project_data",
    "apply_adjoint",
    "estimate_epsilon",
    "dump_matrix",
    "load_matrix",
    "RANK_RTOL",
    "DENSE_EPSILON_MAX_POINTS",
]

# Gauss points per panel/side used for cell averages and split evaluations.
_CELL_GAUSS = 24

_SYMMETRY_RTOL = 1e-8
_PSD_RTOL = 1e-8
_EPS_SAFETY = 1.1

# Relative threshold separating the numerical rank from quadrature rounding:
# eigenvalues at or below RANK_RTOL * max|lambda| are cut from the
# minimum-norm filter, and min_norm_solution's range test scales by it.
RANK_RTOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """One assembled and factored discretization of a kernel, frozen.

    Attributes
    ----------
    scheme, n, kernel : the defining choices.
    rule : QuadratureRule
        Collocation nodes/weights, the interpolation grid (trapezoid rule on
        it), or the cell midpoint rule.
    space : WeightedSpace
        Inner product of the data space.
    knots : ndarray
        Breakpoints of the scheme grid (ends and nodes, or cell edges), between
        which all scheme integrands are smooth.  Read-only.
    matrix : ndarray
        Matrix of the composed operator (the normal operator on data space)
        in the scheme basis; ``A = K M`` with ``K_ij = integral g_i g_j``.
    eigvals, metric_eigvecs : ndarray
        ``space.eigh(matrix)``: the eigenvalues (non-increasing) of ``Q
        diag(lambda) Q^T``, the symmetric PSD ``space.symmetrize(matrix) =
        M^(1/2) A M^(-1/2)``, and ``R = M^(-1/2) Q``, the eigenvectors of
        ``A`` orthonormal in the metric: the factor every solve filters,
        read-only and C-ordered.  Q itself is not kept.
    pinv_gains, pinv_peak : ndarray, float
        The minimum-norm filter: ``1 / lambda`` on the numerical rank, the
        eigenvalues above ``RANK_RTOL * max|lambda|``, and 0 elsewhere; and
        its largest modulus.  Read-only.
    clipped_eigvals : ndarray
        ``max(lambda, 0)``, the spectrum the Tikhonov filter shifts.
        Read-only.
    sigma_min : float
        Smallest positive singular value of the discretized operator.
    ref_points : int
        Size of the reference rule: ``eps_n``, ``||T||`` and every L2 error
        are measured on :attr:`reference_rule`, the projection-defect norms
        on a rule of this size aligned with the scheme grid.

    Three caches, the only writes after construction, sit beside the fields:
    :attr:`reference_rule` and :attr:`epsilon_n`, kept on their first read
    (``eps_n`` also by :func:`estimate_epsilon`), and the slice values on the
    last grid :meth:`slice_values` sampled (:func:`~illposed.quadrature.kept`).
    """

    scheme: SchemeKind
    n: int
    kernel: Kernel
    rule: QuadratureRule
    space: WeightedSpace
    knots: np.ndarray
    matrix: np.ndarray
    eigvals: np.ndarray
    metric_eigvecs: np.ndarray
    pinv_gains: np.ndarray
    pinv_peak: float
    clipped_eigvals: np.ndarray
    sigma_min: float
    ref_points: int

    @property
    def domain(self) -> Domain:
        return self.kernel.domain

    @functools.cached_property
    def reference_rule(self) -> QuadratureRule:
        """The ``max(ref_points, 4 n)``-point Gauss rule on which ``eps_n``,
        ``||T||`` and every L2 error of the system are measured."""
        return gauss_legendre(max(self.ref_points, 4 * self.n), self.domain)

    @functools.cached_property
    def epsilon_n(self) -> float:
        """Operator-level discretization error bound, measured by
        :func:`estimate_epsilon` on the first read and kept, unless an
        earlier :func:`estimate_epsilon` call (a size ladder's) kept it."""
        return estimate_epsilon(self)

    # -- slice and basis evaluation ------------------------------------------

    def slice_values(self, t_points) -> np.ndarray:
        """Values ``g_i(t)`` of the scheme slices at the flattened points,
        shape (n, t_points.size).

        The points must lie in the domain, up to the 1e-12 slack of
        :class:`QuadratureRule`; the slices are not extrapolated.  The
        values on the last grid are kept and returned again for an equal
        grid, so every reconstruction measured on one reference rule samples
        the slices once and checks its points once.
        """
        t = np.asarray(t_points, dtype=float).ravel()
        return kept(self, "_slices", t, _slice_values, self.scheme, self.kernel, self.rule,
                    self.knots, t)

    def basis_values(self, s_points) -> np.ndarray:
        """Values of the data-space basis as functions, shape (len(s), n).

        For the subspace schemes these are the hat/indicator functions; for
        collocation (whose data space is not a function space) they are the
        piecewise-linear embedding used by the operator-norm diagnostics.
        """
        s = np.atleast_1d(np.asarray(s_points, dtype=float))
        if self.scheme is SchemeKind.ORTHO_PC:
            idx = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0, self.n - 1)
            out = np.zeros((s.size, self.n))
            out[np.arange(s.size), idx] = 1.0
            return out
        if self.n == 1:
            return np.ones((s.size, 1))
        # the two hats that are nonzero on each point's node interval, in
        # np.interp's arithmetic and with its constant extension outside
        # the nodes (collocation's Gauss nodes do not reach the ends)
        nodes = self.rule.nodes
        left = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, self.n - 2)
        frac = (1.0 / (nodes[left + 1] - nodes[left])) * (s - nodes[left])
        frac = np.where(s <= nodes[0], 0.0, np.where(s >= nodes[-1], 1.0, frac))
        rows = np.arange(s.size)
        out = np.zeros((s.size, self.n))
        out[rows, left] = 1.0 - frac
        out[rows, left + 1] = frac
        return out


@functools.lru_cache(maxsize=64)
def _hat_space(n: int, h: float) -> WeightedSpace:
    # The interpolatory metric, the closed-form L2 Gram of piecewise-linear
    # hats on an equispaced grid: boundary diagonal h/3, interior diagonal
    # 2h/3, adjacent off-diagonal h/6.  It depends on (n, h) only; its square
    # roots cost an eigendecomposition, so each is built once and shared.
    diag = np.full(n, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    off = np.full(n - 1, h / 6.0)
    return WeightedSpace(matrix=np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _slice_values(scheme, kernel, rule, knots, t) -> np.ndarray:
    """Values ``g_i(t)`` of the scheme slices at the points ``t``, shape
    (n, t.size): kernel sections at the nodes, or their cell averages.
    Points off the kernel's domain raise ``ValueError``."""
    a, b = kernel.domain.a, kernel.domain.b
    if t.size and not (t.min() >= a - 1e-12 and t.max() <= b + 1e-12):
        raise ValueError(
            f"points must lie in the domain [{a}, {b}]; got values in "
            f"[{t.min()!r}, {t.max()!r}]"
        )
    if scheme is SchemeKind.ORTHO_PC:
        return _cell_average_slices(kernel, knots, t)
    return kernel(rule.nodes[:, None], t[None, :])


def _cell_average_slices(kernel: Kernel, edges: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cell averages ``(1/h) integral_{cell_i} k(s, t) ds`` for all cells/t.

    The s-integral is split at ``s = t`` whenever ``t`` falls strictly
    inside the cell, so diagonally kinked kernels are integrated to machine
    accuracy.  Points on a cell edge or off ``[a, b]`` take no split.  The
    split is done for every such point at once, one kernel call per side,
    with the same per-point arithmetic as a cell-by-cell split.
    """
    n = edges.size - 1
    h = edges[1] - edges[0]
    _, gw = gauss_nodes(_CELL_GAUSS)
    s_nodes, _ = segment_gauss(edges[:-1], edges[1:], _CELL_GAUSS)
    half = 0.5 * (edges[1:] - edges[:-1])
    out = np.empty((n, t.size))
    for i in range(n):
        out[i] = (kernel(s_nodes[i][:, None], t[None, :]).T @ gw) * half[i] / h
    if not kernel.diagonal_kink:
        return out
    cell = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, n - 1)
    idx = np.flatnonzero((t > edges[cell]) & (t < edges[cell + 1]))
    if idx.size == 0:
        return out
    cell, t_in = cell[idx], t[idx]
    acc = np.zeros(idx.size)
    for lo, hi in ((edges[cell], t_in), (t_in, edges[cell + 1])):
        s_seg, w_seg = segment_gauss(lo, hi, _CELL_GAUSS)
        acc += np.einsum("ij,ij->i", kernel(s_seg, t_in[:, None]), w_seg)
    out[cell, idx] = acc / h
    return out


def build_system(kernel: Kernel, scheme, n: int, outer_rule: QuadratureRule | None = None,
                 ref_points: int = REFERENCE_POINTS, matrix=None) -> DiscreteSystem:
    """Fix the scheme geometry, assemble, check and factor: one frozen system.

    Parameters
    ----------
    kernel : Kernel
    scheme : SchemeKind or str
    n : int
        Dimension of the data space (collocation/interpolation nodes, or
        number of cells); an integral number, not a bool or a float.
    outer_rule : QuadratureRule, optional
        Collocation only: the node/weight rule defining the scheme (default
        Gauss-Legendre, which has the required positive weights).
    ref_points : int
        Size of the rule every measurement of the system is made on
        (:attr:`DiscreteSystem.reference_rule`); at least 1.
    matrix : array_like, optional
        Normal matrix to use in place of the assembled one (a replayed
        dump); slice sampling and assembly are skipped, the checks and the
        factorization are the same.

    The scheme fixes the rule, the metric and :attr:`DiscreteSystem.knots`;
    the entry integrals use a composite Gauss rule aligned with the knots,
    with at least ``4 n`` points and 8 per panel.

    Raises
    ------
    ValueError
        If ``n`` or ``ref_points`` is not an integer or is too small, or the
        outer rule does not fit the scheme (n nodes in the kernel's domain).
    NumericalError
        If the matrix has the wrong shape or is not self-adjoint PSD in the
        data-space metric, which indicates a broken kernel, rule or dump.
    """
    scheme = SchemeKind.parse(scheme)
    n = check_integer(n, "n")
    ref_points = check_integer(ref_points, "ref_points")
    if ref_points < 1:
        raise ValueError(f"ref_points must be at least 1, got {ref_points}")
    dom = kernel.domain

    least = 2 if scheme is SchemeKind.INTERPOLATORY else 1
    if n < least:
        raise ValueError(f"{scheme.value} scheme needs n >= {least}")
    if outer_rule is not None and scheme is not SchemeKind.COLLOCATION:
        raise ValueError("outer_rule applies to the collocation scheme only")

    if scheme is SchemeKind.COLLOCATION:
        rule = outer_rule if outer_rule is not None else gauss_legendre(n, dom)
        if rule.n_points != n or min(rule.nodes[0] - dom.a, dom.b - rule.nodes[-1]) < -1e-12:
            raise ValueError(f"outer rule needs {n} nodes in the kernel's domain")
        space = WeightedSpace(weights=rule.weights)
        knots = np.unique(np.concatenate(([dom.a], rule.nodes, [dom.b])))
    elif scheme is SchemeKind.INTERPOLATORY:
        rule = composite_trapezoid(n, dom)
        space = _hat_space(n, dom.length / (n - 1))
        knots = rule.nodes.copy()  # the grid, both ends included
    else:
        h = dom.length / n
        mids = dom.a + h * (np.arange(n) + 0.5)
        rule = QuadratureRule(mids, np.full(n, h), domain=dom)
        space = WeightedSpace(weights=rule.weights)
        knots = np.linspace(dom.a, dom.b, n + 1)
    knots.flags.writeable = False

    if matrix is None:
        inner = aligned_rule(knots, 4 * n, min_per_panel=8)
        gv = _slice_values(scheme, kernel, rule, knots, inner.nodes)
        if not np.all(np.isfinite(gv)):
            raise NumericalError("kernel produced non-finite slice samples")
        gv = gv * np.sqrt(inner.weights)
        # one SYRK, so S is exactly symmetric and S M = (M S)^T; a C-ordered
        # copy, since the factorization's BLAS calls round by memory layout
        matrix = np.ascontiguousarray(space.apply_metric(gv @ gv.T).T)
    return DiscreteSystem(scheme=scheme, n=n, kernel=kernel, rule=rule, space=space,
                          knots=knots, ref_points=ref_points, **_factor(space, matrix, n))


def _factor(space: WeightedSpace, matrix, n: int) -> dict:
    """Check ``M A`` is self-adjoint PSD, then return the factor fields of a
    :class:`DiscreteSystem` by name: the matrix, its factor ``(lambda, R)``,
    the spectra the two filters read and ``sigma_min``."""
    matrix = as_matrix(matrix, "matrix")
    if matrix.shape != (n, n):
        raise NumericalError(
            f"matrix shape {matrix.shape} does not match the system ({n}, {n})"
        )
    metric_a = space.apply_metric(matrix)
    scale = float(np.max(np.abs(metric_a))) or 1.0
    asym = float(np.max(np.abs(metric_a - metric_a.T)))
    if asym > _SYMMETRY_RTOL * scale:
        raise NumericalError(
            f"matrix is not self-adjoint in the data metric "
            f"(asymmetry {asym:.3e} vs scale {scale:.3e})"
        )

    vals, r = space.eigh(matrix)  # R = M^(-1/2) Q, formed before any solve
    if vals[-1] < -_PSD_RTOL * np.max(np.abs(vals)):
        raise NumericalError(
            f"matrix is not PSD (min eigenvalue {vals[-1]:.3e} "
            f"vs max {vals[0]:.3e})"
        )

    # the numerical rank, under the one threshold any solve or measurement uses
    mags = np.abs(vals)
    kept = mags > RANK_RTOL * mags.max()
    gains = np.zeros(n)
    gains[kept] = 1.0 / vals[kept]
    clipped = np.maximum(vals, 0.0)
    r.flags.writeable = gains.flags.writeable = clipped.flags.writeable = False
    # an all-zero spectrum is a numerically zero operator
    floor = float(mags[kept].min()) if kept.any() else 0.0
    return dict(matrix=matrix, eigvals=vals, metric_eigvecs=r, pinv_gains=gains,
                clipped_eigvals=clipped, pinv_peak=1.0 / floor if floor else 0.0,
                sigma_min=float(np.sqrt(floor)))


def project_data(system: DiscreteSystem, f) -> np.ndarray:
    """Coordinates of the projected function in the scheme basis.

    Point values at the nodes for collocation and interpolation; cell
    averages for the orthogonal piecewise-constant scheme.
    """
    if system.scheme is SchemeKind.ORTHO_PC:
        edges = system.knots
        nodes, weights = segment_gauss(edges[:-1], edges[1:], _CELL_GAUSS)
        vals = np.asarray(f(nodes), dtype=float)
        return np.einsum("ij,ij->i", vals, weights) / (edges[1] - edges[0])
    return np.asarray(f(system.rule.nodes), dtype=float)


def apply_adjoint(system: DiscreteSystem, v):
    """Reconstruction map: coordinates in the data space to an L2 function.

    Returns the function ``s -> sum_i g_i(s) (M v)_i``; this is how
    coordinate solutions of the discrete normal equations become functions
    on the domain.  The function takes points of any shape and returns
    values of that shape (a float for a scalar); a point off the domain
    raises ``ValueError``.
    """
    v = as_vector(v, "v")
    if v.size != system.n:
        raise ValueError(f"coordinate vector has length {v.size}, expected {system.n}")
    return functools.partial(_reconstruct, system, system.space.apply_metric(v))


def _reconstruct(system: DiscreteSystem, mv: np.ndarray, s):
    """``sum_i g_i(s) mv_i``, the function of :func:`apply_adjoint` bound to
    an ``M v`` the caller has already formed."""
    vals = mv @ system.slice_values(s)
    shape = np.shape(s)
    return vals.reshape(shape) if shape else float(vals[0])


# The largest reference rule on which estimate_epsilon forms the m x m
# difference; above it the norm is taken matrix-free.  Not a speed crossover:
# it keeps the difference matrix's arithmetic (not Lanczos's last bits) for
# eps_n of the finite-rank collocation cells on the 256-point default rule,
# rounding noise that, taken matrix-free, fails 16 ops per repetition of the
# benchmark's recorded verify reference.  The dense branch goes when that
# reference is re-recorded with a floor on eps_n (ROADMAP item 1).
DENSE_EPSILON_MAX_POINTS = 256

# Bytes of the kernel sample one block of the matrix-free eps_n product reads
# (128 rows at 1024 points): fastest, or a tie, for one to four vectors at 512
# and 1024 points; twice that costs 2.6x at four vectors on a 2 MiB L2 cache.
_SAMPLE_BLOCK_BYTES = 1 << 20


def estimate_epsilon(systems):
    """Measured upper bound for the operator-level discretization error.

    The norm of ``D (K^T W K - G^T M G) D`` on the m-point
    :attr:`DiscreteSystem.reference_rule`, times a safety factor of 1.1:
    ``K`` the kernel sampled on the rule's nodes, ``W`` and ``D`` the
    weights and their square roots, ``G`` the slice values there and ``M``
    the metric.  The weighting makes the matrix 2-norm approximate the L2
    norm of ``T*T - T_n*T_n``; Lanczos takes it from products.  ``systems``
    is one system (a float is returned) or a group, such as a size ladder,
    that shares one kernel and an equal reference rule (a list, in order;
    any other group raises ``ValueError``).

    ``K`` is the sample :meth:`Kernel.grid_sample` keeps.  Up to
    :data:`DENSE_EPSILON_MAX_POINTS` points a call forms ``N = K^T W K``
    once, each system's difference as ``d = (N - G^T M G) * outer(r, r)``
    and its norm as that of ``0.5 (d + d^T)`` by :func:`symmetric_norm`, one
    system after another, bit for bit as alone.  On larger rules no m x m
    product is formed: the group's Lanczos runs advance in lockstep
    (:func:`linalg._lanczos`), each step applying ``K^T W K`` to every
    running vector in one pass over K, in blocks of ``_SAMPLE_BLOCK_BYTES``,
    and each system subtracts its own ``G^T M G`` part; the norm agrees with
    the dense expression's to m u ||T||^2, u the machine epsilon.  Each call
    measures afresh; :attr:`DiscreteSystem.epsilon_n` keeps the first.
    """
    group = [systems] if isinstance(systems, DiscreteSystem) else list(systems)
    # one kernel has one domain, on which rules of one size are one Gauss rule
    if len({(id(s.kernel), s.reference_rule.n_points) for s in group}) != 1:
        raise ValueError("a group must be non-empty and share one kernel and one reference rule")
    rule = group[0].reference_rule
    kmat, rho = group[0].kernel.grid_sample(rule), rule.weights
    m, sqrt_rho = rule.n_points, np.sqrt(rho)
    halves = [(system.slice_values(rule.nodes), system.space) for system in group]
    if m <= DENSE_EPSILON_MAX_POINTS:
        gram, scale = kmat.T @ (rho[:, None] * kmat), np.outer(sqrt_rho, sqrt_rho)

        def dense_norm(gv, space):
            # (N - G^T M G) * scale, then 0.5 (d + d^T), in place
            d = gv.T @ space.apply_metric(gv)
            np.subtract(gram, d, out=d)
            d *= scale
            d += d.T
            d *= 0.5
            return symmetric_norm(lambda x: d @ x, m)

        # no pass over a shared sample to save here: one system at a time
        # holds one difference matrix, where a lockstep would hold them all
        tops = [dense_norm(gv, space) for gv, space in halves]
    else:
        rows = max(1, _SAMPLE_BLOCK_BYTES // kmat[0].nbytes)

        def apply(x, runs):
            x = sqrt_rho * np.asarray(x)
            y = np.empty_like(x)
            for j, run in enumerate(runs):
                gv, space = halves[run]
                y[j] = -(gv.T @ space.apply_metric(gv @ x[j]))
            # K^T W K for every row of x, each block of K read once while in cache
            for lo in range(0, m, rows):
                block = kmat[lo:lo + rows]
                y += ((x @ block.T) * rho[lo:lo + rows]) @ block
            return sqrt_rho * y

        tops = _lanczos(apply, m, len(group))
    eps = [_EPS_SAFETY * top for top in tops]
    for system, value in zip(group, eps):
        vars(system).setdefault("epsilon_n", value)  # the cached property's slot
    return eps[0] if isinstance(systems, DiscreteSystem) else eps


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
