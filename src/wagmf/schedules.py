"""Scalar schedules shared by every optimizer: step sizes alpha_t, momentum
decay beta1_t, past-gradient weights gamma_t, the balance term b_t, and the
learning-rate non-increase condition used by the convergence analysis,
plus ``per_round``, which tabulates any of them over rounds 1..T.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78

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


def alpha(s: StepSizeSchedule, t: int) -> float:
    """Step size at round t >= 1."""
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


def gamma(w: WeightSchedule, t: int) -> float:
    """Weight gamma_t > 0 for round t >= 1.

    The explicit exponential path overflows float64 once
    t * log(1/beta2) exceeds ~709; that is reported as OverflowError rather
    than silently returning inf (the EMA recursion should be used instead).
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if w.kind == "equal":
        return 1.0
    if w.kind == "linear":
        return float(t)
    if w.kind == "exponential":
        log_g = t * math.log(1.0 / w.beta2)
        if log_g > _LOG_MAX:
            raise OverflowError(
                f"exponential weight (1/{w.beta2})**{t} overflows float64; "
                "use the EMA recursion for long horizons"
            )
        # single correctly-rounded pow; exp(t*log(...)) rounds twice
        return w.beta2 ** float(-t)
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
    engines call, so each entry is bit-identical to theirs."""
    return np.fromiter(map(partial(fn, schedule), range(1, T + 1)), np.float64, T)


def balance(w: WeightSchedule, t: int, running_sum: float) -> float:
    """Balance term b_t = 1 / sum_{i<=t} gamma_i, given the running weight sum."""
    if not (running_sum > 0.0 and math.isfinite(running_sum)):
        raise ValueError(f"running weight sum must be finite and > 0, got {running_sum}")
    return 1.0 / running_sum


def check_nonincrease(
    b_prev: float, b_curr: float, alpha_prev: float, alpha_curr: float, p2: int
) -> bool:
    """True iff b_curr**(-p2) / alpha_curr >= b_prev**(-p2) / alpha_prev.

    This is the hypothesis under which the per-coordinate effective learning
    rate cannot increase between consecutive rounds.
    """
    if min(b_prev, b_curr, alpha_prev, alpha_curr) <= 0.0:
        raise ValueError("balance terms and step sizes must be > 0")
    if p2 < 1:
        raise ValueError(f"p2 must be a positive integer, got {p2}")
    return b_curr ** (-p2) / alpha_curr >= b_prev ** (-p2) / alpha_prev
