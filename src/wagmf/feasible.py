"""Feasible sets and weighted projection.

Only axis-aligned boxes (and the trivial unconstrained set) are supported.
For a box the projection under any positive diagonal metric V is the plain
elementwise clamp: the objective sum_i V_i (z_i - y_i)^2 separates per
coordinate, and each 1-d term is minimized by clamping regardless of V_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch


@dataclass(frozen=True)
class FeasibleSet:
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if (self.lo is None) != (self.hi is None):
            raise ValueError("box needs both lo and hi (or neither)")
        if self.lo is not None:
            lo = np.asarray(self.lo, dtype=np.float64)
            hi = np.asarray(self.hi, dtype=np.float64)
            if lo.ndim != 1 or lo.shape != hi.shape:
                raise DimMismatch(f"box bounds shapes differ: {lo.shape} vs {hi.shape}")
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise ValueError("box bounds must be finite")
            if (lo > hi).any():
                raise ValueError("box needs lo <= hi elementwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    @classmethod
    def unconstrained(cls) -> "FeasibleSet":
        return cls(None, None)

    @classmethod
    def box(cls, lo, hi) -> "FeasibleSet":
        return cls(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))

    @property
    def is_box(self) -> bool:
        return self.lo is not None

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        if not self.is_box:
            return True
        return bool((x >= self.lo - atol).all() and (x <= self.hi + atol).all())


def project(fset: FeasibleSet, v_diag: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Projection of y onto the set under the weighted norm ||.||_V.

    ``v_diag`` is accepted for interface completeness; boxes are clamped
    identically for every positive diagonal metric (see module docstring).
    The unconstrained set returns y unchanged.  ``out=y`` projects y in
    place, as the step engine does every round.
    """
    if not fset.is_box:
        return y
    if y.shape != fset.lo.shape:
        raise DimMismatch(f"point has shape {y.shape}, box wants {fset.lo.shape}")
    return np.clip(y, fset.lo, fset.hi, out=out)


def diameter_inf(fset: FeasibleSet) -> float:
    """sup-norm diameter: max_i (hi_i - lo_i) for a box, inf when unconstrained."""
    if not fset.is_box:
        return math.inf
    return float(np.max(fset.hi - fset.lo))
