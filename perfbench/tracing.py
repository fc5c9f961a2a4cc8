"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every loaded ``illposed`` module
(each module's ``__all__``), a few methods and returned closures, and
``numpy.polynomial.legendre.leggauss``.  A function is rebound in every
``illposed`` namespace that holds it, so package re-exports and by-name
imports (``from .linalg import svd``) are traced too.  Each call becomes one
span ``(name, start, end, parent)`` kept in memory; the per-layer metrics
are computed from the spans after the run.  Nothing inside ``src/`` changes.

Span times are CPU seconds of this process (``time.process_time``), like
the end-to-end times of ``run.py``.
"""

from __future__ import annotations

import functools
import sys
from time import process_time

import numpy as np

# Methods and closures traced in addition to the modules' ``__all__``.
# (module, class, method, span name)
_METHODS = (
    ("discretize", "DiscreteSystem", "slice_values", "discretize.slice_values"),
    ("problems", "Kernel", "__call__", "problems.kernel"),
    ("problems", "SeparableExpansion", "kernel_values", "problems.expansion.kernel_values"),
    ("problems", "SeparableExpansion", "coefficients", "problems.expansion.coefficients"),
    ("problems", "SeparableExpansion", "synthesize", "problems.expansion.synthesize"),
    ("problems", "SeparableExpansion", "_check_orthonormal",
     "problems.expansion.check_orthonormal"),
    ("estimators", "MinimumNormSolver", "fit", "estimators.fit"),
    ("estimators", "TikhonovSolver", "fit", "estimators.fit"),
    ("estimators", "_BaseSolver", "predict", "estimators.predict"),
)

# Functions whose return value is a closure worth its own span.
_CLOSURES = {
    "discretize.apply_adjoint": "discretize.reconstruction",
    "problems.expansion.synthesize": "problems.expansion.combination",
}

LEGGAUSS = "numpy.leggauss"

_RULES = ("quadrature.composite_trapezoid", "quadrature.gauss_legendre",
          "quadrature.composite_gauss", "quadrature.aligned_rule")
_PROBLEM_BUILDERS = ("problems.get_problem", "problems.green_problem",
                     "problems.make_separable_problem")
_EXPANSION = ("problems.expansion.kernel_values", "problems.expansion.coefficients",
              "problems.expansion.synthesize", "problems.expansion.check_orthonormal",
              "problems.expansion.combination")
_DECOMPS = ("linalg.svd", "linalg.eigh_symmetric")
_NORMS = ("linalg.spectral_norm", "linalg.min_positive_singular")
_SOLVES = ("linalg.pseudo_solve", "linalg.solve_shifted")
_REFERENCES = ("regularize.tikhonov_continuous_reference",
               "regularize.tikhonov_spectral_reference",
               "regularize.dense_reference_solver")
_VERIFIERS = ("analysis.verify_th1", "analysis.verify_th3", "analysis.verify_th5",
              "analysis.verify_special")

# Sizes of the per-size grid (spans attributed to the latest build_system).
SIZES = (32, 64, 128, 256)
_PER_SIZE = (
    ("discretize.build_s", ("discretize.build_system",)),
    ("linalg.decomp_s", _DECOMPS),
    ("discretize.epsilon_s", ("discretize.estimate_epsilon",)),
    ("regularize.minnorm_s", ("regularize.min_norm_solution",)),
)

# Every per-layer metric: name -> unit.  ``run.py`` and BENCHMARK.json use
# this list; all of them are "lower is better".
LAYER_METRICS = {
    "quadrature.rules": "count",
    "quadrature.busy_s": "s",
    "quadrature.gauss_node_calls": "count",
    "quadrature.gauss_node_s": "s",
    "problems.setup_s": "s",
    "problems.kernel_calls": "count",
    "problems.kernel_points": "count",
    "problems.kernel_s": "s",
    "problems.expansion_s": "s",
    "linalg.decomp_calls": "count",
    "linalg.decomp_s": "s",
    "linalg.norm_s": "s",
    "linalg.solve_s": "s",
    "linalg.decomps_per_system": "ratio",
    "discretize.systems": "count",
    "discretize.build_s": "s",
    "discretize.build_self_s": "s",
    "discretize.slice_s": "s",
    "discretize.epsilon_s": "s",
    "discretize.reconstruct_calls": "count",
    "discretize.reconstruct_s": "s",
    "regularize.solves": "count",
    "regularize.minnorm_s": "s",
    "regularize.tikhonov_s": "s",
    "regularize.reference_s": "s",
    "analysis.l2_calls": "count",
    "analysis.l2_s": "s",
    "analysis.special_s": "s",
    "analysis.verify_self_s": "s",
    "estimators.fit_s": "s",
    "estimators.predict_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "check.max_rel_drift": "ratio",
}
for _metric, _names in _PER_SIZE:
    for _n in SIZES:
        LAYER_METRICS[f"{_metric}.n{_n}"] = "s"

# Span names the metrics read; one missing from a run is reported as absent.
EXPECTED_SPANS = sorted(set(
    _RULES + _PROBLEM_BUILDERS + _EXPANSION + _DECOMPS + _NORMS + _SOLVES
    + _REFERENCES + _VERIFIERS
    + ("problems.kernel", "discretize.build_system", "discretize.slice_values",
       "discretize.estimate_epsilon", "discretize.reconstruction",
       "regularize.min_norm_solution", "regularize.tikhonov_discrete",
       "analysis.l2_error", "estimators.fit", "estimators.predict", LEGGAUSS)
))


def illposed_modules():
    """The loaded ``illposed`` package and submodules, by short name."""
    return {name.rpartition(".")[2] if "." in name else "": mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "illposed" or name.startswith("illposed."))}


class Tracer:
    """Records spans around the traced callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.points: dict[int, int] = {}  # kernel span -> values computed
        self.setup_spans = 0  # spans before this index belong to set-up
        self._build_marks: list[tuple[int, int]] = []  # (span, n) of build_system
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        closure_name = _CLOSURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(process_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = process_time()
                self._stack.pop()
            if name == "problems.kernel":
                self.points[idx] = int(np.size(result))
            elif name == "discretize.build_system":
                self._build_marks.append((idx, int(result.n)))
            if closure_name is not None and callable(result):
                result = self._wrap(closure_name, result)
            return result

        self.wrapped.add(name)
        if closure_name is not None:
            self.wrapped.add(closure_name)
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, only=None) -> None:
        """Wrap every traced callable, or just the public functions ``only``."""
        modules = illposed_modules()
        wrappers = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(attr)
                name = f"{short}.{attr}"
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == mod.__name__ \
                        and (only is None or name in only):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        if only is not None:
            return
        for short, cls_name, meth, name in _METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            if cls is not None and meth in cls.__dict__:
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
        legendre = np.polynomial.legendre
        self._patch(legendre, "leggauss", self._wrap(LEGGAUSS, legendre.leggauss))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def reset(self) -> None:
        """Forget the recorded spans; the wrappers stay installed."""
        for spans in (self.names, self.starts, self.ends, self.parents, self._build_marks,
                      self.points):
            spans.clear()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def absent(self) -> list[str]:
        """Expected span names that no traced callable carries."""
        return [name for name in EXPECTED_SPANS if name not in self.wrapped]

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics of one set-up plus one of ``reps`` repetitions.

        Spans before ``setup_spans`` count once, later ones ``1 / reps``.
        """
        names = np.array(self.names, dtype=object)
        weight = np.full(names.size, 1.0 / max(reps, 1))
        weight[:self.setup_spans] = 1.0
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=int)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def member(group):
            return np.isin(names, list(group)) if names.size else np.zeros(0, bool)

        def outermost(group):
            # spans of the group with no ancestor in the group
            inside = member(group)
            nested = np.zeros(names.size, bool)
            anc = parent.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                nested[live] |= inside[anc[live]]
                anc[live] = parent[anc[live]]
            return inside & ~nested

        def count(group):
            return float(weight[outermost(group)].sum())

        def busy(group, mask=None):
            sel = outermost(group)
            if mask is not None:
                sel &= mask
            return float((weight * dur)[sel].sum())

        def own(group):
            return float((weight * self_time)[member(group)].sum())

        systems = count(("discretize.build_system",))
        decomps = float(weight[member(_DECOMPS)].sum())
        quadrature = tuple(n for n in set(self.names) if n.startswith("quadrature."))
        m = {
            "quadrature.rules": count(_RULES),
            "quadrature.busy_s": busy(quadrature + (LEGGAUSS,)),
            "quadrature.gauss_node_calls": count((LEGGAUSS,)),
            "quadrature.gauss_node_s": busy((LEGGAUSS,)),
            "problems.setup_s": busy(_PROBLEM_BUILDERS),
            "problems.kernel_calls": count(("problems.kernel",)),
            "problems.kernel_points": float(sum(weight[i] * v for i, v in self.points.items())),
            "problems.kernel_s": busy(("problems.kernel",)),
            "problems.expansion_s": busy(_EXPANSION),
            "linalg.decomp_calls": decomps,
            "linalg.decomp_s": busy(_DECOMPS),
            "linalg.norm_s": busy(_NORMS),
            "linalg.solve_s": own(_SOLVES),
            "discretize.systems": systems,
            "discretize.build_s": busy(("discretize.build_system",)),
            "discretize.build_self_s": own(("discretize.build_system",)),
            "discretize.slice_s": busy(("discretize.slice_values",)),
            "discretize.epsilon_s": busy(("discretize.estimate_epsilon",)),
            "discretize.reconstruct_calls": count(("discretize.reconstruction",)),
            "discretize.reconstruct_s": busy(("discretize.reconstruction",)),
            "regularize.solves": count(("regularize.min_norm_solution",
                                        "regularize.tikhonov_discrete")),
            "regularize.minnorm_s": busy(("regularize.min_norm_solution",)),
            "regularize.tikhonov_s": busy(("regularize.tikhonov_discrete",)),
            "regularize.reference_s": busy(_REFERENCES),
            "analysis.l2_calls": count(("analysis.l2_error",)),
            "analysis.l2_s": busy(("analysis.l2_error",)),
            "analysis.special_s": busy(("analysis.verify_special",)),
            "analysis.verify_self_s": own(_VERIFIERS),
            "estimators.fit_s": busy(("estimators.fit",)),
            "estimators.predict_s": busy(("estimators.predict",)),
            "cli.self_s": own(n for n in set(self.names) if n.startswith("cli.")),
            "trace.spans": float(weight.sum()),
        }
        size_of_span = self._sizes(names.size)
        for metric, group in _PER_SIZE:
            for n in SIZES:
                m[f"{metric}.n{n}"] = busy(group, size_of_span == n)
        m["linalg.decomps_per_system"] = decomps / systems if systems else 0.0
        return m

    def _sizes(self, count: int) -> np.ndarray:
        """Size n of the latest build_system started at or before each span."""
        out = np.zeros(count, dtype=int)
        if self._build_marks:
            spans, sizes = np.array(sorted(self._build_marks)).T
            k = np.searchsorted(spans, np.arange(count), side="right") - 1
            out[k >= 0] = sizes[k[k >= 0]]
        return out
