"""Scalar schedules shared by every optimizer: step sizes alpha_t, momentum
decay beta1_t and past-gradient weights gamma_t, plus ``per_round``, which
tabulates any of them over rounds 1..T.  ``alpha`` and ``gamma`` also take
an array of rounds where that form is exact (sqrt, division, equal and linear
weights).  Values built on pow stay scalar, as numpy's array ``**`` is not
``pow``: over rounds 1..10^6 on an AVX-512 x86-64 host, numpy 2.4 differed on
3,397 beta1_t at lam = 0.99, 34,136 at lam = 0.999, 50,040 hyper-harmonic
weights at eta = 1/2 and 38,087 of the 709,427 finite values of 0.999**-t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

STEP_KINDS = ("inv_sqrt", "constant")
WEIGHT_KINDS = ("equal", "linear", "exponential", "hyper_harmonic")


@dataclass(frozen=True)
class StepSizeSchedule:
    """alpha_t = base_alpha / sqrt(t) (``inv_sqrt``) or base_alpha (``constant``)."""

    base_alpha: float
    kind: str = "inv_sqrt"

    def __post_init__(self):
        if not (self.base_alpha > 0.0 and math.isfinite(self.base_alpha)):
            raise ValueError(f"base_alpha must be finite and > 0, got {self.base_alpha}")
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step-size kind {self.kind!r}")


def alpha(s: StepSizeSchedule, t):
    """Step size at round t >= 1, or at each round of an integer array ``t``.
    ``np.sqrt`` and ``math.sqrt`` are both correctly rounded, as is the
    division, so each entry is bit-identical to the scalar call's."""
    if isinstance(t, np.ndarray):
        a = np.full(t.shape, s.base_alpha)
        return a if s.kind == "constant" else a / np.sqrt(t)
    if s.kind == "constant":
        return s.base_alpha
    return s.base_alpha / math.sqrt(t)


@dataclass(frozen=True)
class MomentumSchedule:
    """beta1_t = beta1 * lam**(t-1); lam = 1 keeps momentum constant."""

    beta1: float = 0.9
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")


def beta1_at(m: MomentumSchedule, t: int) -> float:
    if m.lam == 1.0:
        return m.beta1
    return m.beta1 * m.lam ** (t - 1)


@dataclass(frozen=True)
class WeightSchedule:
    """Per-round weight gamma_t placed on the t-th gradient power.

    Kinds: ``equal`` gamma_t = 1; ``linear`` gamma_t = t; ``exponential``
    gamma_t = (1/beta2)**t (the EMA family written as explicit weights);
    ``hyper_harmonic`` gamma_t = t**(-eta).
    """

    kind: str
    beta2: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "exponential":
            if self.beta2 is None or not 0.0 < self.beta2 < 1.0:
                raise ValueError(f"exponential weights need beta2 in (0, 1), got {self.beta2}")
        if self.kind == "hyper_harmonic":
            if self.eta is None or self.eta < 0.0:
                raise ValueError(f"hyper_harmonic weights need eta >= 0, got {self.eta}")

    @classmethod
    def equal(cls) -> "WeightSchedule":
        return cls("equal")

    @classmethod
    def linear(cls) -> "WeightSchedule":
        return cls("linear")

    @classmethod
    def exponential(cls, beta2: float) -> "WeightSchedule":
        return cls("exponential", beta2=beta2)

    @classmethod
    def hyper_harmonic(cls, eta: float) -> "WeightSchedule":
        return cls("hyper_harmonic", eta=eta)


def gamma(w: WeightSchedule, t):
    """Weight gamma_t > 0 for round t >= 1, or at each round of a 1-d integer
    array ``t`` (by scalar calls for the pow-based kinds).  The explicit
    exponential path overflows float64 once t * log(1/beta2) exceeds ~709.78;
    that is reported as OverflowError naming the weight rather than silently
    returning inf (the EMA recursion should be used instead).
    """
    if isinstance(t, np.ndarray):
        if w.kind in ("equal", "linear"):
            return np.ones(t.shape) if w.kind == "equal" else t.astype(np.float64)
        return np.fromiter(map(partial(gamma, w), t.tolist()), np.float64, t.size)
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if w.kind == "equal":
        return 1.0
    if w.kind == "linear":
        return float(t)
    if w.kind == "exponential":
        # single correctly-rounded pow; exp(t*log(...)) rounds twice.  The
        # pow also decides the overflow edge: t * log(1/beta2) is rounded
        # and equals log(float max) at beta2 = 0.5, t = 1024, where 2**1024
        # overflows.
        try:
            return w.beta2 ** float(-t)
        except OverflowError:
            raise OverflowError(
                f"exponential weight (1/{w.beta2})**{t} overflows float64; "
                "use the EMA recursion for long horizons"
            ) from None
    # hyper_harmonic
    return float(t) ** (-w.eta)


def exponential_weight_sum(w: WeightSchedule, T: int) -> float:
    """sum_{i<=T} gamma_i of exponential weights, in closed form
    gamma_T * (1 - beta2**T) / (1 - beta2).

    The sum overflows float64 about log(1/(1-beta2)) / log(1/beta2) rounds
    before gamma_T does (some 6900 rounds for beta2 = 0.999); either is
    reported as OverflowError, as in ``gamma``.
    """
    if w.kind != "exponential":
        raise ValueError(f"closed-form weight sum needs exponential weights, got {w.kind!r}")
    total = gamma(w, T) * ((1.0 - w.beta2**T) / (1.0 - w.beta2))
    if math.isinf(total):
        raise OverflowError(
            f"sum of exponential weights (1/{w.beta2})**t up to t = {T} overflows "
            "float64; use the EMA recursion for long horizons"
        )
    return total


def per_round(fn, schedule, T: int) -> np.ndarray:
    """fn(schedule, t) for t = 1..T as a (T,) array, through the scalar
    definition (``alpha``, ``beta1_at``, ``gamma``, ...) that the per-round
    step calls, so each entry is bit-identical to the value it uses."""
    return np.fromiter(map(partial(fn, schedule), range(1, T + 1)), np.float64, T)

