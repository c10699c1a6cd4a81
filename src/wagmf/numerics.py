"""Float64 vector helpers: input coercion, and the elementwise integer
powers and roots (``abs_pow``, ``root``) that both forms of the step call,
unchecked.

Vectors are plain one-dimensional ``numpy.float64`` arrays throughout the
package.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a finite float64 1-d array.

    Raises ShapeMismatch for non-1-d input and NonFiniteInput when any entry
    is NaN or Inf.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeMismatch(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteInput("vector entries must be finite")
    return v


def abs_pow(v: np.ndarray, p: int) -> np.ndarray:
    """Elementwise |v|**p for an integer p >= 1, unchecked."""
    if p == 2:
        return v * v
    if p % 2 == 0:
        return np.power(v, p)
    return np.power(np.abs(v), p)


def root(v: np.ndarray, p: int) -> np.ndarray:
    """Elementwise p-th root of a non-negative array, unchecked; always a new
    array.  Orders that are a power of two go through repeated ``sqrt``, one
    correctly rounded op per halving, instead of ``v ** (1/p)``; 2 and 4,
    the orders the presets use, are spelled out because the step calls this
    every round."""
    if p == 2:
        return np.sqrt(v)
    if p == 4:
        return np.sqrt(np.sqrt(v))
    if p == 1:
        return np.array(v, copy=True)
    if p & (p - 1):
        return np.power(v, 1.0 / p)
    return root(np.sqrt(v), p // 2)

