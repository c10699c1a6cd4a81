"""Helpers shared by the test modules."""

import numpy as np


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits: -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
