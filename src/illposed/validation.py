"""Input validation helpers shared across the package.

Every public entry point funnels array-like input through these functions so
that shape and finiteness errors surface with a usable message instead of
propagating NaNs into an iteration.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "as_vector",
    "as_matrix",
    "check_finite",
    "check_positive",
    "check_integer",
    "check_in_open_interval",
]


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce to a 1-D float64 array with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    check_finite(arr, name)
    return arr


def as_matrix(x, name: str = "A") -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries and nonzero size."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    check_finite(arr, name)
    return arr


def check_finite(arr: np.ndarray, name: str = "array") -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")


def check_positive(value: float, name: str = "value") -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_integer(value, name: str = "value") -> int:
    # int() would quietly turn 8.7 into 8 and True into 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_in_open_interval(value: float, lo: float, hi: float, name: str) -> float:
    value = float(value)
    if not (lo < value < hi):
        raise ValueError(f"{name} must lie in ({lo}, {hi}), got {value!r}")
    return value
