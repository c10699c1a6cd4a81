"""Core optimizer update engines.

Every engine shares one skeleton per round t:

    m_t = beta1_t * m_{t-1} + (1 - beta1_t) * g_t          (momentum)
    V_t = diagonal preconditioner built from past gradients
    x_{t+1} = Project(x_t - alpha_t * m_t / V_t)

They differ only in how V_t is built:

* ``wagmf_step`` keeps the raw weighted sum v_t = sum_i gamma_i |g_i|^p1 and
  normalizes by the running weight sum:  V_t = (v_t / sum_i gamma_i)^(1/p2).
* ``stable_step`` keeps the linearly-weighted average directly,
  v_t = (1 - 2/(t+1)) v_{t-1} + (2/(t+1)) |g_t|^p1,  V_t = v_t^(1/4),
  which equals the wagmf path with gamma_t = t and p2 = 4 but never
  accumulates the O(t^2) raw sum.
* ``generic_step`` covers the EMA family (v_t = beta2 v_{t-1} +
  (1-beta2) g_t^2, with an optional running max for the amsgrad variant),
  the sign update, and plain SGD (V_t = 1).

``epsilon`` is added to V_t after the root.  Odd p1 accumulates |g|^p1 so the
radicand stays non-negative.  Step functions mutate ``state`` in place and
return it; the preconditioner actually applied is left in ``state.last_V``
with the step size in ``state.last_alpha`` for tracing.  The raw weighted
sum can overflow float64 (exponential weights); the sum engine then raises
NonFinitePreconditioner naming the round, in both of its forms.

Each engine's preconditioner rule also has an array form (``_sum_stream``,
``_stable_stream``, ``_ema_stream``) next to its per-round rule.
``run_stream`` uses them to run all rounds at once on a gradient stream that
is known in advance, bit-identical to the per-round engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import schedules
from .errors import NonFiniteGradient, NonFinitePreconditioner
from .feasible import FeasibleSet
from .numerics import as_vector, elem_root
from .schedules import MomentumSchedule, StepSizeSchedule, WeightSchedule

ENGINES = ("wagmf_sum", "wagmf_stable", "ema", "amsgrad", "sign", "plain_sgd")


@dataclass(frozen=True)
class OptimizerConfig:
    weight: WeightSchedule
    step: StepSizeSchedule
    momentum: MomentumSchedule
    p1: int = 2
    p2: int = 2
    epsilon: float = 0.0
    engine: str = "wagmf_sum"
    bias_correction: bool = False
    debug_checks: bool = False

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if not (isinstance(self.p1, int) and self.p1 >= 1):
            raise ValueError(f"p1 must be a positive integer, got {self.p1}")
        if not (isinstance(self.p2, int) and self.p2 >= 1):
            raise ValueError(f"p2 must be a positive integer, got {self.p2}")
        if not (self.epsilon >= 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.engine == "wagmf_stable":
            if self.weight.kind != "linear" or self.p2 != 4:
                raise ValueError("wagmf_stable requires linear weights and p2 = 4")
        if self.engine in ("ema", "amsgrad") and self.weight.kind != "exponential":
            raise ValueError(f"{self.engine} engine needs an exponential weight schedule")
        if self.bias_correction and self.engine not in ("ema", "amsgrad"):
            raise ValueError("bias_correction only applies to the ema/amsgrad engines")


@dataclass
class OptimizerState:
    """Mutable per-run state.  Owned by exactly one run; steps mutate it."""

    t: int
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    weight_sum: float
    v_hat: np.ndarray | None = None
    last_V: np.ndarray | None = None
    last_alpha: float = 0.0


def init_state(x0, cfg: OptimizerConfig) -> OptimizerState:
    x = np.array(as_vector(x0), copy=True)
    d = x.shape[0]
    v_hat = np.zeros(d) if cfg.engine == "amsgrad" else None
    return OptimizerState(t=0, x=x, m=np.zeros(d), v=np.zeros(d), weight_sum=0.0, v_hat=v_hat)


def _check_grad(g: np.ndarray) -> None:
    if not np.isfinite(g).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")


def _gpow(g: np.ndarray, p1: int) -> np.ndarray:
    if p1 == 2:
        return g * g
    if p1 % 2 == 0:
        return np.power(g, p1)
    return np.power(np.abs(g), p1)


def _root(v: np.ndarray, p2: int) -> np.ndarray:
    if p2 == 2:
        return np.sqrt(v)
    if p2 == 4:
        return np.sqrt(np.sqrt(v))
    return elem_root(v, p2)


def _bias(beta: float, t: int) -> float:
    """Adam-style bias-correction divisor 1 - beta**t."""
    return 1.0 - beta**t


def _momentum(state: OptimizerState, g: np.ndarray, mom: MomentumSchedule, t: int) -> np.ndarray:
    b1t = schedules.beta1_at(mom, t)
    m = state.m
    m *= b1t
    m += (1.0 - b1t) * g
    return m


def _direction(m_eff: np.ndarray, V: np.ndarray, eps: float) -> np.ndarray:
    # with eps = 0 an untouched coordinate has V = 0, but then m = 0 too:
    # leave it in place instead of producing 0/0
    if eps:
        return m_eff / V
    return np.divide(m_eff, V, out=np.zeros_like(m_eff), where=V > 0.0)


def _descend(state, m_eff, V, a_t, eps, fset: FeasibleSet) -> None:
    x = state.x
    x -= a_t * _direction(m_eff, V, eps)
    if fset.is_box:
        np.clip(x, fset.lo, fset.hi, out=x)


def wagmf_step(
    state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig, fset: FeasibleSet
) -> OptimizerState:
    """One round of the weighted-sum engine (gamma_t from cfg.weight)."""
    if cfg.engine != "wagmf_sum":
        raise ValueError(f"wagmf_step called with engine {cfg.engine!r}")
    _check_grad(g)
    t = state.t + 1
    m = _momentum(state, g, cfg.momentum, t)
    gam = schedules.gamma(cfg.weight, t)
    v = state.v
    v += gam * _gpow(g, cfg.p1)
    prev_ws = state.weight_sum
    ws = prev_ws + gam
    V = _root(v * (1.0 / ws), cfg.p2)
    if not np.isfinite(V).all():
        _overflow(t)
    if cfg.epsilon:
        V += cfg.epsilon
    a_t = schedules.alpha(cfg.step, t)
    if cfg.debug_checks and t >= 2:
        a_prev = schedules.alpha(cfg.step, t - 1)
        assert schedules.check_nonincrease(1.0 / prev_ws, 1.0 / ws, a_prev, a_t, cfg.p2)
    _descend(state, m, V, a_t, cfg.epsilon, fset)
    state.t = t
    state.weight_sum = ws
    state.last_V = V
    state.last_alpha = a_t
    return state


def _overflow(t: int):
    raise NonFinitePreconditioner(
        f"V_t is not finite at round {t}: the weighted sum of gradient powers "
        "overflowed float64; shorten T or use a bounded weight schedule"
    )


def _sum_stream(G: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """Array form of wagmf_step's preconditioner: V_t for every round."""
    gam = schedules.per_round(schedules.gamma, cfg.weight, G.shape[0])
    v = np.cumsum(gam[:, None] * _gpow(G, cfg.p1), axis=0)
    V = _root(v * (1.0 / np.cumsum(gam))[:, None], cfg.p2)
    finite = np.isfinite(V).all(axis=1)
    if not finite.all():
        _overflow(int(np.argmin(finite)) + 1)
    return V


def stable_step(
    state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig, fset: FeasibleSet
) -> OptimizerState:
    """One round of the normalized recursion for linear weights and p2 = 4."""
    if cfg.engine != "wagmf_stable":
        raise ValueError(f"stable_step called with engine {cfg.engine!r}")
    _check_grad(g)
    t = state.t + 1
    m = _momentum(state, g, cfg.momentum, t)
    c = 2.0 / (t + 1.0)
    v = state.v
    v *= 1.0 - c
    v += c * _gpow(g, cfg.p1)
    V = np.sqrt(np.sqrt(v))
    if cfg.epsilon:
        V += cfg.epsilon
    a_t = schedules.alpha(cfg.step, t)
    if cfg.debug_checks and t >= 2:
        # implied balance term for gamma_i = i is b_t = 2 / (t (t+1))
        a_prev = schedules.alpha(cfg.step, t - 1)
        b_prev = 2.0 / ((t - 1.0) * t)
        b_curr = 2.0 / (t * (t + 1.0))
        assert schedules.check_nonincrease(b_prev, b_curr, a_prev, a_t, 4)
    _descend(state, m, V, a_t, cfg.epsilon, fset)
    state.t = t
    state.weight_sum = state.weight_sum + t
    state.last_V = V
    state.last_alpha = a_t
    return state


def _stable_stream(G: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """Array form of stable_step's preconditioner: V_t for every round."""
    c = 2.0 / (np.arange(1, G.shape[0] + 1) + 1.0)
    v = _scan(1.0 - c, c[:, None] * _gpow(G, cfg.p1))
    return np.sqrt(np.sqrt(v))


def generic_step(
    state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig, fset: FeasibleSet
) -> OptimizerState:
    """One round of the EMA family (ema/amsgrad), sign update, or plain SGD."""
    eng = cfg.engine
    if eng not in ("ema", "amsgrad", "sign", "plain_sgd"):
        raise ValueError(f"generic_step called with engine {eng!r}")
    _check_grad(g)
    t = state.t + 1
    m = _momentum(state, g, cfg.momentum, t)
    a_t = schedules.alpha(cfg.step, t)
    if eng == "plain_sgd":
        V = np.ones_like(state.x)
        x = state.x
        x -= a_t * m
        if fset.is_box:
            np.clip(x, fset.lo, fset.hi, out=x)
    elif eng == "sign":
        # x - alpha * sign(g) is x - alpha * g / |g| where defined; the
        # effective preconditioner |g_t| is recorded for diagnostics
        V = np.abs(g)
        x = state.x
        x -= a_t * np.sign(g)
        if fset.is_box:
            np.clip(x, fset.lo, fset.hi, out=x)
    else:
        beta2 = cfg.weight.beta2
        v = state.v
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        vv = state.v_hat if eng == "amsgrad" else v
        if eng == "amsgrad":
            np.maximum(vv, v, out=vv)
        m_eff = m
        if cfg.bias_correction:
            vv = vv / _bias(beta2, t)
            m_eff = m / _bias(cfg.momentum.beta1, t)
        V = np.sqrt(vv)
        if cfg.epsilon:
            V += cfg.epsilon
        _descend(state, m_eff, V, a_t, cfg.epsilon, fset)
    state.t = t
    state.last_V = V
    state.last_alpha = a_t
    return state


def _ema_stream(G: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """Array form of generic_step's ema/amsgrad preconditioner: V_t for every
    round (run_stream applies the momentum's bias correction)."""
    beta2 = cfg.weight.beta2
    v = _scan(float(beta2), (1.0 - beta2) * (G * G))
    if cfg.engine == "amsgrad":
        v = np.maximum.accumulate(v, axis=0)
    if cfg.bias_correction:
        v = v / schedules.per_round(_bias, beta2, G.shape[0])[:, None]
    return np.sqrt(v)


STEP_FN = {
    "wagmf_sum": wagmf_step,
    "wagmf_stable": stable_step,
    "ema": generic_step,
    "amsgrad": generic_step,
    "sign": generic_step,
    "plain_sgd": generic_step,
}


# ---------------------------------------------------------------------------
# array form: a whole gradient stream at once

_STREAM_FN = {
    "wagmf_sum": _sum_stream,
    "wagmf_stable": _stable_stream,
    "ema": _ema_stream,
    "amsgrad": _ema_stream,
}


def _recur(coefs, adds):
    y = 0.0
    for c, a in zip(coefs, adds):
        y = y * c + a
        yield y


def _scan(coef, add: np.ndarray) -> np.ndarray:
    """y_t = y_{t-1} * coef_t + add_t from y_0 = 0, down each column of
    ``add`` (T, d); ``coef`` is one float or a (T,) array.  The pass runs over
    Python floats with the per-round engines' operations in their order, so
    every y_t is bit-identical to theirs."""
    T, d = add.shape
    out = np.empty((T, d))
    for j in range(d):
        coefs = repeat(coef) if np.ndim(coef) == 0 else memoryview(coef)
        out[:, j] = np.fromiter(_recur(coefs, memoryview(add[:, j])), np.float64, T)
    return out


def _descent(x: float, steps, lo: float | None, hi: float | None):
    """x, then x <- clip(x - s, lo, hi) for each step s; ties keep x - s,
    as np.clip does."""
    yield x
    if lo is None:
        for s in steps:
            x = x - s
            yield x
    else:
        for s in steps:
            x = x - s
            x = lo if x < lo else (hi if x > hi else x)
            yield x


def _momentum_stream(G: np.ndarray, mom: MomentumSchedule) -> np.ndarray:
    """Array form of _momentum: m_t for every round of G (T, d), from m_0 = 0."""
    if mom.lam == 1.0:
        b1 = float(mom.beta1)
        return _scan(b1, (1.0 - b1) * G)
    b1 = schedules.per_round(schedules.beta1_at, mom, G.shape[0])
    return _scan(b1, (1.0 - b1)[:, None] * G)


def run_stream(x1, G: np.ndarray, cfg: OptimizerConfig, fset: FeasibleSet):
    """All T rounds of the engine on a gradient stream fixed in advance.

    For oracles whose g_t does not depend on x_t.  alpha_t, m_t, v_t, V_t and
    the steps u_t = alpha_t * m_t / V_t are built as arrays; only the clipped
    running sum x_{t+1} = clip(x_t - u_t, lo, hi) stays sequential, as one
    scalar pass per coordinate.  Every value is bit-identical to T calls of
    the engine's ``STEP_FN`` entry.  Measured on a 2-core x86-64 VM, the
    whole path costs about 0.5 us per coordinate and round, against 19-28 us
    per round for the per-round numpy step at any d up to 100, so it wins up
    to d of about 30.  Every linear oracle here has d = 1, so there is no
    dimension gate.  ``debug_checks`` is not evaluated.

    Returns (path, V, alpha): path (T + 1, d) holds x_1, ..., x_{T+1}, V (T, d)
    the applied preconditioners (epsilon included), alpha (T,) the step sizes.
    """
    x1 = as_vector(x1)
    G = np.asarray(G, dtype=np.float64)
    _check_grad(G)
    T, d = G.shape
    alphas = schedules.per_round(schedules.alpha, cfg.step, T)
    eng = cfg.engine
    if eng == "sign":
        V, direction = np.abs(G), np.sign(G)
    elif eng == "plain_sgd":
        V, direction = np.ones_like(G), _momentum_stream(G, cfg.momentum)
    else:
        V = _STREAM_FN[eng](G, cfg)
        if cfg.epsilon:
            V += cfg.epsilon
        M = _momentum_stream(G, cfg.momentum)
        if cfg.bias_correction:
            M = M / schedules.per_round(_bias, cfg.momentum.beta1, T)[:, None]
        direction = _direction(M, V, cfg.epsilon)
    U = alphas[:, None] * direction
    path = np.empty((T + 1, d))
    for j in range(d):
        lo, hi = (float(fset.lo[j]), float(fset.hi[j])) if fset.is_box else (None, None)
        xs = _descent(float(x1[j]), memoryview(U[:, j]), lo, hi)
        path[:, j] = np.fromiter(xs, np.float64, T + 1)
    return path, V, alphas
