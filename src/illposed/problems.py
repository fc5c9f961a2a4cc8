"""Kernels and analytic test problems.

A :class:`TestProblem` bundles a Fredholm kernel with the exact minimum-norm
solution and the exact data ``y = T x``, optionally with a closed-form
singular expansion.  These problems are the ground truth against which every
solver and every error bound in the package is verified.

A discrete system measures its L2 quantities on its own
``DiscreteSystem.reference_rule``; the 256-point Gauss-Legendre rule of
:func:`reference_rule` checks each problem when it is built and is the
``perfbench`` harness's grid.  The operator is applied by
:func:`apply_operator_split`, which splits the integral at the diagonal:
kernels that are continuous but kinked there (Green's functions) are then
integrated to machine accuracy, where a single global rule stalls near 1e-6.
For ``eps_n`` a :class:`Kernel` applies ``K^T W K`` on a reference rule,
:meth:`Kernel.add_normal`: through the product its generators give where
it has them (Green's kernel, two cumulative sums, no m x m array), else
through its sample on the last reference rule, kept like a :class:`SeparableExpansion`'s mode tables by
:func:`~illposed.quadrature.kept`; operator norms are measured where they
are used, so this module needs nothing from ``linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .quadrature import Domain, QuadratureRule, gauss_legendre, kept, segment_gauss
from .validation import check_integer, check_positive

__all__ = [
    "Domain",
    "Kernel",
    "SeparableExpansion",
    "SourceRepresentation",
    "TestProblem",
    "reference_rule",
    "apply_operator_split",
    "make_separable_problem",
    "green_problem",
    "problem_catalog",
    "get_problem",
]

REFERENCE_POINTS = 256

# Entries of a kernel sample evaluated per call of the evaluator
_KERNEL_BLOCK = 1 << 15

# Bytes of the kernel sample one block of a sampled ``add_normal`` reads (128
# rows at 1024 points): fastest, or a tie, for one to four vectors at 512 and
# 1024 points; twice that costs 2.6x at four vectors on a 2 MiB L2 cache.
# A kernel with generators reads no sample.
_SAMPLE_BLOCK_BYTES = 1 << 20

# Number of terms retained in the Green kernel's singular expansion.  The
# L2(Omega^2) truncation tail (sum of the dropped squared singular values)
# is below 2e-8, i.e. a kernel reconstruction error below 1.2e-4.
GREEN_EXPANSION_TERMS = 64


def reference_rule(domain: Domain, n_points: int = REFERENCE_POINTS) -> QuadratureRule:
    """The ``n_points``-point Gauss-Legendre rule on ``domain``."""
    return gauss_legendre(n_points, domain)


class Kernel:
    """Continuous bivariate kernel ``k(s, t)`` on ``domain x domain``.

    Parameters
    ----------
    evaluator : callable
        Vectorized ``k(s, t)`` accepting broadcastable arrays.
    domain : Domain
    diagonal_kink : bool
        True when ``k`` is continuous but not differentiable across ``s = t``
        (Green-type kernels); quadrature paths then split panels at the
        diagonal to keep entry integrals at machine accuracy.
    generators : (callable, callable), optional
        Elementwise ``p``, ``q`` with ``k(s, t) = p(min(s, t)) q(max(s,
        t))``, semiseparable of rank 1.  They give ortho-pc's cell averages
        in closed form and the attribute ``product(nodes, x)`` (else None):
        ``K = k(nodes, nodes)`` on increasing ``nodes`` applied to each row
        of ``x``, shape ``(m,)`` or ``(k, m)``, without forming K.

    The evaluator is spot-checked for finiteness on a 32 x 32 grid at
    construction, and generators against that sample to 1e-12 of its
    largest entry; either failure is a ``ValueError``.  A call on a 2-D
    grid of more than ``2**16`` entries evaluates it in row blocks of about
    ``2**15`` entries, each entry with the evaluator's own arithmetic, into
    one output array.
    """

    def __init__(self, evaluator, domain: Domain, diagonal_kink: bool = False, generators=None):
        self.evaluator = evaluator
        self.domain = domain
        self.diagonal_kink = bool(diagonal_kink)
        self.generators = generators
        self.product = None if generators is None else partial(_semiseparable_product, *generators)
        grid = np.linspace(domain.a, domain.b, 32)
        sample = np.asarray(evaluator(grid[:, None], grid[None, :]), dtype=float)
        if sample.shape != (32, 32) or not np.all(np.isfinite(sample)):
            raise ValueError("kernel evaluator must be finite and broadcastable on the domain")
        if generators is not None:
            lo, hi = np.minimum(grid[:, None], grid), np.maximum(grid[:, None], grid)
            pv, qv = (np.asarray(f(x), dtype=float) for f, x in zip(generators, (lo, hi)))
            if pv.shape != sample.shape or qv.shape != sample.shape or not np.all(
                    np.abs(pv * qv - sample) <= 1e-12 * np.abs(sample).max()):
                raise ValueError("kernel generators must give the evaluator's values")

    def __call__(self, s, t):
        # the broadcast has at most size(s) size(t) entries, a cheaper test
        shape = np.broadcast_shapes(np.shape(s), np.shape(t)) \
            if np.size(s) * np.size(t) > 2 * _KERNEL_BLOCK else ()
        if len(shape) != 2 or shape[0] * shape[1] <= 2 * _KERNEL_BLOCK:
            return np.asarray(self.evaluator(s, t), dtype=float)
        # row blocks keep the evaluator's temporaries in cache (below two
        # blocks the copy into the output costs more than that saves)
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        out = np.empty(shape)
        rows = max(1, _KERNEL_BLOCK // shape[1])
        for lo in range(0, shape[0], rows):
            out[lo:lo + rows] = self.evaluator(
                *(x[lo:lo + rows] if x.ndim == 2 and x.shape[0] > 1 else x for x in (s, t)))
        return out

    def grid_sample(self, rule: QuadratureRule) -> np.ndarray:
        """``K = k(nodes, nodes)`` on ``rule``, from which ``estimate_epsilon``
        measures the continuous half ``T*T``.  The sample of the last rule
        is kept (:func:`~illposed.quadrature.kept`) and returned again for
        equal nodes, so the systems of one kernel sample it once per rule."""
        nodes = rule.nodes
        return kept(self, "_grid_sample", nodes, self, nodes[:, None], nodes[None, :])

    def add_normal(self, rule: QuadratureRule, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add ``K^T W K x`` to ``out`` for each row of the ``(k, m)`` block
        ``x``, K the kernel and W the weights on ``rule``; returns ``out``.

        With generators this is two products and no m x m array; without
        them, a single pass over :meth:`grid_sample` in blocks of
        ``_SAMPLE_BLOCK_BYTES``, each block read once for every row.
        """
        nodes, rho = rule.nodes, rule.weights
        if self.product is not None:
            out += self.product(nodes, rho * self.product(nodes, x))
            return out
        kmat = self.grid_sample(rule)
        rows = max(1, _SAMPLE_BLOCK_BYTES // kmat[0].nbytes)
        for lo in range(0, nodes.size, rows):
            block = kmat[lo:lo + rows]
            out += ((x @ block.T) * rho[lo:lo + rows]) @ block
        return out


@dataclass(frozen=True)
class SourceRepresentation:
    """Smoothness certificate ``x = phi(T*T) u`` for the true solution.

    ``phi(t) = t^nu`` with ``nu`` in (0, 1], Tikhonov's qualification
    range, where ``sup_t alpha phi(t) / (t + alpha) <= c0 phi(alpha)``
    holds with ``c0 = 1``; ``u_norm`` is an upper bound for the norm of the
    source element ``u``.
    """

    nu: float
    u_norm: float

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"power exponent must lie in (0, 1], got {self.nu!r}")

    def phi(self, lam: float) -> float:
        """The index function at ``lam > 0``."""
        return float(check_positive(lam, "lambda") ** self.nu)


class SeparableExpansion:
    """Finite orthonormal singular expansion ``k(s,t) = sum s_j v_j(s) u_j(t)``.

    ``u_funcs`` and ``v_funcs`` must be orthonormal in L2 (checked to 1e-8
    under the 256-point reference rule at construction); singular values must
    be positive, and are stored in the given order.

    Coefficients and syntheses go through one ``(rank, m)`` table of mode
    values per side; the table of the last grid of each side is kept
    (:func:`~illposed.quadrature.kept`) and reused for an equal grid.
    """

    def __init__(self, sigmas, u_funcs, v_funcs, domain: Domain):
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.size == 0:
            raise ValueError("expansion needs at least one term")
        if np.any(sigmas <= 0.0) or not np.all(np.isfinite(sigmas)):
            raise ValueError("singular values must be positive and finite")
        if not (len(u_funcs) == len(v_funcs) == sigmas.size):
            raise ValueError("sigmas, u_funcs and v_funcs must have matching length")
        self.sigmas = sigmas
        self.u_funcs = tuple(u_funcs)
        self.v_funcs = tuple(v_funcs)
        self.domain = domain
        self._check_orthonormal()

    @property
    def rank(self) -> int:
        return self.sigmas.size

    def mode_table(self, t, side: str = "u") -> np.ndarray:
        """Values of the u- or v-functions at the points ``t``.

        Returns shape ``(rank, t.size)`` for the flattened points; the table
        of the last grid per side is kept and returned for an equal grid.
        """
        funcs = self._modes(side)
        t = np.asarray(t, dtype=float).ravel()
        return kept(self, f"_{side}_table", t, _mode_values, funcs, t)

    def _modes(self, side: str) -> tuple:
        if side == "u":
            return self.u_funcs
        if side == "v":
            return self.v_funcs
        raise ValueError(f"unknown side {side!r}; expected 'u' or 'v'")

    def _check_orthonormal(self):
        rule = reference_rule(self.domain)
        for label in ("u", "v"):
            vals = self.mode_table(rule.nodes, label)
            gram = (vals * rule.weights) @ vals.T
            defect = np.max(np.abs(gram - np.eye(self.rank)))
            if defect > 1e-8:
                raise ValueError(
                    f"{label}-functions are not orthonormal (defect {defect:.2e})"
                )

    def kernel_values(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        total = 0.0
        for sigma, u, v in zip(self.sigmas, self.u_funcs, self.v_funcs):
            total = total + sigma * np.asarray(v(s)) * np.asarray(u(t))
        return total

    def coefficients(self, f, rule: QuadratureRule, side: str = "u") -> np.ndarray:
        """Inner products of ``f`` against the u- or v-system under ``rule``."""
        fv = np.asarray(f(rule.nodes), dtype=float)
        return self.mode_table(rule.nodes, side) @ (rule.weights * fv)

    def synthesize(self, coeffs, side: str = "u"):
        """The function ``t -> sum_j coeffs_j g_j(t)`` over the u- or v-system."""
        self._modes(side)  # an unknown side fails here, not at the first call
        coeffs = np.asarray(coeffs, dtype=float)

        def combination(t):
            t = np.asarray(t, dtype=float)
            return (coeffs @ self.mode_table(t, side)).reshape(t.shape)

        return combination


def _semiseparable_product(p, q, nodes, x):
    """``k(s, t) = p(min(s, t)) q(max(s, t))`` on increasing ``nodes``
    applied to each row of ``x``, by two cumulative sums: ``(K x)_i = q(s_i)
    sum_{j <= i} p(s_j) x_j + p(s_i) sum_{j > i} q(s_j) x_j``."""
    ps, qs = p(nodes), q(nodes)
    out = qs * np.cumsum(ps * x, axis=-1)
    tail = np.cumsum((qs * x)[..., :0:-1], axis=-1)[..., ::-1]  # sums over j > i, i < m - 1
    out[..., :-1] += ps[:-1] * tail
    return out


def _mode_values(funcs, t) -> np.ndarray:
    return np.stack([np.asarray(g(t), dtype=float) for g in funcs])


@dataclass
class TestProblem:
    """Kernel plus exact solution/data pair, optionally with closed-form SVD.

    ``_reference_errors`` keeps each continuous Tikhonov error ``||x -
    x_alpha||`` the verifiers measure, by reference-rule point count and
    ``alpha``, so the cells of one problem share it.
    """

    problem_id: str
    kernel: Kernel
    x_dagger: object
    y: object
    svd: SeparableExpansion | None = None
    source_repr: SourceRepresentation | None = None
    _reference_errors: dict = field(default_factory=dict, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        rule = reference_rule(self.kernel.domain)
        tx = apply_operator_split(self.kernel, self.x_dagger, rule.nodes)
        defect = rule.norm(tx - np.asarray(self.y(rule.nodes), dtype=float))
        if defect > 1e-8:
            raise ValueError(
                f"problem {self.problem_id!r}: ||T x - y|| = {defect:.2e} exceeds 1e-8"
            )
        if self.svd is not None:
            coeffs = self.svd.coefficients(self.x_dagger, rule, side="u")
            recon = self.svd.synthesize(coeffs, side="u")
            res = rule.norm(np.asarray(recon(rule.nodes)) - np.asarray(self.x_dagger(rule.nodes)))
            if res > 1e-6:
                raise ValueError(
                    f"problem {self.problem_id!r}: x lies outside the expansion span "
                    f"(residual {res:.2e})"
                )


def apply_operator_split(kernel: Kernel, x, s_points) -> np.ndarray:
    """Evaluate ``(T x)(s)`` at given points with the integral split at ``t = s``.

    For diagonally kinked kernels this restores machine accuracy; for smooth
    kernels it is a fine two-panel Gauss rule, 48 points a side.  Returns
    the array of values at ``s_points``.
    """
    s_arr = np.atleast_1d(np.asarray(s_points, dtype=float))
    a, b = kernel.domain.a, kernel.domain.b
    out = np.zeros(s_arr.size)
    for left, right in ((np.full_like(s_arr, a), s_arr), (s_arr, np.full_like(s_arr, b))):
        t, w = segment_gauss(left, right, 48)
        out += np.einsum("ij,ij->i", kernel(s_arr[:, None], t) * np.asarray(x(t)), w)
    return out


def make_separable_problem(expansion: SeparableExpansion, coefficients,
                           problem_id: str = "separable") -> TestProblem:
    """Synthesize a test problem from a finite singular expansion.

    With coefficients ``c``, the true solution is ``x = sum c_j u_j``, the
    exact data ``y = sum c_j s_j v_j``, and the kernel the rank-r sum
    ``sum s_j v_j(s) u_j(t)``; the expansion is stored on the problem.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.size != expansion.rank:
        raise ValueError(
            f"need {expansion.rank} coefficients, got {coeffs.size}"
        )
    kernel = Kernel(expansion.kernel_values, expansion.domain)
    x_fn = expansion.synthesize(coeffs, side="u")
    y_fn = expansion.synthesize(coeffs * expansion.sigmas, side="v")
    source = SourceRepresentation(
        nu=1.0, u_norm=float(np.linalg.norm(coeffs / expansion.sigmas**2)),
    )
    return TestProblem(problem_id, kernel, x_fn, y_fn, svd=expansion, source_repr=source)


def _sine_mode(j: int):
    def mode(t, _j=j):
        return np.sqrt(2.0) * np.sin(_j * np.pi * np.asarray(t, dtype=float))

    return mode


def green_problem(m: int = 1) -> TestProblem:
    """Green's-function test problem on [0, 1].

    Kernel ``k(s, t) = s (1 - t)`` for ``s <= t`` and ``t (1 - s)`` otherwise,
    declared by its generators ``p(s) = s`` and ``q(s) = 1 - s``; singular
    system ``sigma_j = (j pi)^-2`` with ``u_j = v_j = sqrt(2)
    sin(j pi .)``.  The true solution is the m-th singular function, so the
    data has the closed form ``y = (m pi)^-2 sqrt(2) sin(m pi .)``.
    """
    m = check_integer(m, "mode index m")
    if m < 1:
        raise ValueError("mode index m must be >= 1")
    if m > GREEN_EXPANSION_TERMS:
        raise ValueError(
            f"mode index {m} exceeds the stored expansion ({GREEN_EXPANSION_TERMS} terms)"
        )
    dom = Domain(0.0, 1.0)

    def green(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        # min(s, t) (1 - max(s, t)): the products of the two-branch form
        # with their factors swapped, without its mask and its two
        # full-size products
        k = np.asarray(np.maximum(s, t))
        np.subtract(1.0, k, out=k)
        k *= np.minimum(s, t)
        return k

    kernel = Kernel(green, dom, diagonal_kink=True, generators=(lambda s: s, lambda s: 1.0 - s))
    js = np.arange(1, GREEN_EXPANSION_TERMS + 1)
    sigmas = (js * np.pi) ** -2.0
    modes = [_sine_mode(int(j)) for j in js]
    expansion = SeparableExpansion(sigmas, modes, modes, dom)

    x_fn = _sine_mode(m)
    scale = (m * np.pi) ** -2.0

    def y_fn(t):
        return scale * np.sqrt(2.0) * np.sin(m * np.pi * np.asarray(t, dtype=float))

    source = SourceRepresentation(nu=1.0, u_norm=float((m * np.pi) ** 4))
    return TestProblem(f"green-m{m}", kernel, x_fn, y_fn, svd=expansion, source_repr=source)


def _rank1_sine() -> TestProblem:
    dom = Domain(0.0, 1.0)
    expansion = SeparableExpansion([1.0], [_sine_mode(1)], [_sine_mode(1)], dom)
    return make_separable_problem(expansion, [1.0], problem_id="rank1-sine")


def _rank3_decay() -> TestProblem:
    dom = Domain(0.0, 1.0)
    modes = [_sine_mode(j) for j in (1, 2, 3)]
    expansion = SeparableExpansion([1.0, 0.1, 0.01], modes, modes, dom)
    return make_separable_problem(expansion, [1.0, 1.0, 1.0], problem_id="rank3-decay")


_CATALOG = {
    "rank1-sine": _rank1_sine,
    "rank3-decay": _rank3_decay,
    "green-m1": lambda: green_problem(1),
}


def problem_catalog() -> tuple[str, ...]:
    """Identifiers of the built-in test problems."""
    return tuple(sorted(_CATALOG))


def get_problem(problem_id: str) -> TestProblem:
    """Build a catalog problem by id; raises KeyError for unknown ids."""
    try:
        factory = _CATALOG[problem_id]
    except KeyError:
        known = ", ".join(problem_catalog())
        raise KeyError(f"unknown problem {problem_id!r}; known ids: {known}") from None
    return factory()
