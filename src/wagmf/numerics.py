"""Float64 vector helpers: elementwise integer powers and roots, and
diagonally weighted norms.

``abs_pow`` and ``root`` are the unchecked kernels both forms of the step
call; ``elem_root`` validates its radicand and then calls ``root``.

Vectors are plain one-dimensional ``numpy.float64`` arrays throughout the
package; a diagonal metric is a vector of strictly positive entries standing
in for the diagonal matrix it parameterizes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NegativeRadicand, NonFiniteInput, ShapeMismatch


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


def elem_pow(v: np.ndarray, p: int) -> np.ndarray:
    """Elementwise integer power v**p (p >= 1).

    Odd powers preserve sign; even powers are non-negative.
    """
    if p < 1:
        raise ValueError(f"power must be a positive integer, got {p}")
    if p == 1:
        return np.array(v, dtype=np.float64, copy=True)
    if p == 2:
        return v * v
    return np.power(v, p)


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


def elem_root(v: np.ndarray, p: int) -> np.ndarray:
    """Elementwise real p-th root.

    For even p every entry must be non-negative (NegativeRadicand otherwise);
    for odd p the real root is used, so sign is preserved.  The roots come
    from ``root``, which keeps ``elem_root(elem_pow(v, p), p)`` within a few
    ulps of ``|v|``.
    """
    if p < 1:
        raise ValueError(f"root order must be a positive integer, got {p}")
    v = np.asarray(v, dtype=np.float64)
    if p % 2 == 0:
        if (v < 0.0).any():
            raise NegativeRadicand(f"even root ({p}) of a negative entry")
        return root(v, p)
    if p == 1:
        return np.array(v, copy=True)
    # odd order: real root, sign carried through
    return np.sign(v) * root(np.abs(v), p)


def weighted_norm_sq(x: np.ndarray, diag: np.ndarray) -> float:
    """Squared weighted norm  sum_i diag[i] * x[i]**2.

    ``diag`` is the diagonal of a positive-definite metric; raises DimMismatch
    when shapes disagree.
    """
    x = np.asarray(x, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    if x.shape != diag.shape:
        raise DimMismatch(f"vector has shape {x.shape}, metric diagonal {diag.shape}")
    return float(np.sum(diag * x * x))
