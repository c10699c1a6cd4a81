"""Input coercion and float64 vector helpers: the checks every config value
goes through (``integer``, ``real``, ``string``, ``switch``, ``table``),
``as_vector``, and the elementwise integer powers and roots (``abs_pow``,
``root``) that both forms of the step call, unchecked.

Vectors are plain one-dimensional ``numpy.float64`` arrays throughout the
package.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

from .errors import ConfigError, NonFiniteInput, ShapeMismatch


def integer(key: str, value, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``.  Integral floats (JSON
    ``1e5``) pass; bools, fractions, non-numbers and values below ``least``
    are a ConfigError naming ``key``, where ``int()`` would truncate or
    coerce them."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{key}: {value!r} is not an integer")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return int(value)


def real(key: str, value) -> float:
    """``value`` as a float; bools, strings, NaN, infinities and integers
    beyond float64 are a ConfigError naming ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{key}: {value!r} is not a finite number")


def string(key: str, value) -> str:
    """``value`` if it is a string, else a ConfigError naming ``key``."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def switch(key: str, value) -> bool:
    """``value`` if it is true or false, else a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def table(where: str, value, allowed) -> dict:
    """``value`` as a table; a non-table or a key outside ``allowed`` is a
    ConfigError naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a table, got {value!r}")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return value


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

