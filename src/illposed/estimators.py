"""Scikit-learn style estimators wrapping the solver pipeline.

The solvers have a natural fit/predict shape: hyperparameters (kernel,
scheme, size, shift) go into the constructor, discrete data goes into
``fit``, and ``predict`` evaluates the reconstructed function at new points.
``get_params``/``set_params`` follow the scikit-learn contract so the
estimators compose with pipelines and parameter searches without depending
on scikit-learn itself.
"""

from __future__ import annotations

import numpy as np

from .discretize import build_system, project_data
from .problems import Kernel
from .regularize import choose_alpha, min_norm_solution, tikhonov_discrete
from .validation import as_vector

__all__ = ["NotFittedError", "MinimumNormSolver", "TikhonovSolver"]


class NotFittedError(RuntimeError):
    """Raised when predict is called before fit."""


class _BaseSolver:
    """Shared parameter handling and the fit plumbing."""

    _param_names: tuple[str, ...] = ()

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(self._param_names)}"
                )
            setattr(self, name, value)
        return self

    def _build(self, y_extra):
        # fit's second slot exists for the scikit-learn call shape only;
        # data passed there would otherwise be dropped without a word
        if y_extra is not None:
            raise ValueError(
                f"{type(self).__name__}.fit takes its data as y; y_extra must be "
                f"None, got {type(y_extra).__name__}"
            )
        self.system_ = build_system(self.kernel, self.scheme, self.n)

    def _project(self, y) -> np.ndarray:
        if callable(y):
            return project_data(self.system_, y)
        y_n = as_vector(y, "y")
        if y_n.size != self.system_.n:
            raise ValueError(
                f"discrete data has length {y_n.size}, expected n={self.system_.n}"
            )
        return y_n

    def _check_fitted(self):
        if getattr(self, "reconstruction_", None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet; call fit first")

    def predict(self, s) -> np.ndarray:
        """Evaluate the reconstructed solution at the given points."""
        self._check_fitted()
        return np.asarray(self.reconstruction_.function(np.asarray(s, dtype=float)))

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items()
                           if not isinstance(v, Kernel))
        return f"{type(self).__name__}({params})"


class MinimumNormSolver(_BaseSolver):
    """Recover the minimum-norm solution from exact discrete data.

    Parameters
    ----------
    kernel : Kernel
    scheme : str or SchemeKind, default "collocation"
    n : int, default 32
        Dimension of the data space.

    The pseudo-inverse cuts the numerical rank at
    :data:`illposed.discretize.RANK_RTOL` times the largest eigenvalue.

    After ``fit`` the assembled system, the coordinate solution and the
    reconstruction are available as ``system_``, ``coordinates_`` and
    ``reconstruction_``.
    """

    _param_names = ("kernel", "scheme", "n")

    def __init__(self, kernel: Kernel, scheme="collocation", n: int = 32):
        self.kernel = kernel
        self.scheme = scheme
        self.n = n
        self.reconstruction_ = None

    def fit(self, y, y_extra=None):
        """Fit from data: a callable on the domain, or a length-n vector;
        ``y_extra`` must be None."""
        self._build(y_extra)
        y_n = self._project(y)
        self.reconstruction_ = min_norm_solution(self.system_, y_n)
        self.coordinates_ = self.reconstruction_.coordinates
        return self


class TikhonovSolver(_BaseSolver):
    """Shifted (regularized) solve of the discrete normal system.

    ``alpha`` may be a positive float, or ``"eps"`` to use the a-priori rule
    that equates the shift with the measured operator-level discretization
    error; the value actually used is stored as ``alpha_``.
    """

    _param_names = ("kernel", "scheme", "n", "alpha")

    def __init__(self, kernel: Kernel, scheme="collocation", n: int = 32,
                 alpha="eps"):
        self.kernel = kernel
        self.scheme = scheme
        self.n = n
        self.alpha = alpha
        self.reconstruction_ = None

    def fit(self, y, y_extra=None):
        # float(True) would quietly fit with alpha = 1.0
        if isinstance(self.alpha, bool) or (isinstance(self.alpha, str) and self.alpha != "eps"):
            raise ValueError(f"alpha must be a positive float or 'eps', got {self.alpha!r}")
        self._build(y_extra)
        y_n = self._project(y)
        if isinstance(self.alpha, str):
            self.alpha_ = choose_alpha(self.system_.epsilon_n)
        else:
            self.alpha_ = float(self.alpha)
        self.reconstruction_ = tikhonov_discrete(self.system_, y_n, self.alpha_)
        self.coordinates_ = self.reconstruction_.coordinates
        return self
