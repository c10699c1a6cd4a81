"""Regret bookkeeping, regret-bound evaluators, data-dependent terms, the
key scalar inequality behind the WADA bound, gradient checking, and a
two-sample t-test for comparing per-seed results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    DomainViolation,
    LambdaOne,
    MissingBranchRecord,
    UnboundedSet,
)
from .problems import LossOracle, RoundRng
from .schedules import MomentumSchedule, beta1_at, per_round
from .steps import _momentum_stream


@dataclass
class RunTrace:
    """Full per-round record of one optimizer run.

    ``x[i]`` is the iterate at which ``g[i]`` and ``loss[i]`` were evaluated
    in round ``t[i] = i + 1``; ``V[i]`` is the preconditioner diagonal
    actually applied that round (epsilon included) and ``alpha[i]`` the step
    size.  T is the length of ``loss``.
    """

    x: np.ndarray
    g: np.ndarray
    loss: np.ndarray
    alpha: np.ndarray
    V: np.ndarray
    seed: int | None = None
    t: np.ndarray = field(init=False)

    def __post_init__(self):
        T = np.size(self.loss)
        if T == 0:
            raise ValueError("trace needs at least one round")
        self.t = np.arange(1, T + 1, dtype=np.int64)
        for name in ("x", "g", "V"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.ndim != 2 or a.shape[0] != T:
                raise ValueError(f"{name} must have shape (T, d)")
            setattr(self, name, a)
        for name in ("loss", "alpha"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != (T,):
                raise ValueError(f"{name} must have shape (T,)")
            setattr(self, name, a)

    @property
    def T(self) -> int:
        return self.t.size

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass
class RegretSeries:
    cumulative: np.ndarray
    average: np.ndarray


@dataclass
class BoundReport:
    term1: float
    term2: float
    term3: float
    total: float


def regret(
    trace: RunTrace,
    oracle: LossOracle,
    x_star: np.ndarray,
    rng: RoundRng | None = None,
) -> RegretSeries:
    """Cumulative regret R(t) = sum_{s<=t} [f_s(x_s) - f_s(x_star)] and its
    running average.

    Each round's loss is re-evaluated at ``x_star`` under the realization the
    run actually saw: linear oracles use the recorded subgradients (for them
    f_s(x_star) = g_s . x_star exactly), time-invariant ones evaluate once,
    and other stochastic oracles replay their rounds through the trace's
    seed (MissingBranchRecord when no seed was recorded).
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape != (trace.dim,):
        raise DimMismatch(f"comparator has shape {x_star.shape}, trace dim {trace.dim}")
    if oracle.linear:
        star_losses = trace.g @ x_star
    elif oracle.time_invariant:
        f_star, _ = oracle.evaluate(1, x_star, rng)
        star_losses = np.full(trace.T, f_star)
    else:
        if rng is None:
            if oracle.stochastic and trace.seed is None:
                raise MissingBranchRecord(
                    "stochastic oracle needs the run's seed to replay realizations"
                )
            rng = RoundRng(trace.seed or 0)
        star_losses = np.empty(trace.T)
        for i, t in enumerate(trace.t):
            star_losses[i], _ = oracle.evaluate(int(t), x_star, rng)
    cum = np.cumsum(trace.loss - star_losses)
    return RegretSeries(cum, cum / trace.t)


def thm1_bound(trace: RunTrace, d_inf: float, beta1: float, lam: float) -> BoundReport:
    """Evaluate the three-term regret bound from the recorded run.

    term1 = D^2 / (2 alpha_T (1-beta1)) * sum_i V_{T,i}
    term2 = D^2 / 2 * sum_t sum_i beta1_t V_{t-1,i} / ((1-beta1_t) alpha_t)
    term3 = sum_t alpha_t / (1-beta1) * ||m_t||^2_{V_t^{-1}}

    V is taken as recorded (epsilon included), V_0 = 0, and m_t is the step's
    own ``_momentum_stream`` over the recorded gradients.  Requires a bounded
    feasible set with sup-norm diameter ``d_inf``.
    """
    if not math.isfinite(d_inf):
        raise UnboundedSet("the bound needs a finite sup-norm diameter")
    mom = MomentumSchedule(beta1, lam)
    d2 = d_inf * d_inf
    term1 = d2 / (2.0 * trace.alpha[-1] * (1.0 - beta1)) * float(trace.V[-1].sum())

    b1t = per_round(beta1_at, mom, trace.T)
    v_prev_sums = np.concatenate([[0.0], trace.V[:-1].sum(axis=1)])
    term2 = 0.5 * d2 * float(np.sum(b1t * v_prev_sums / ((1.0 - b1t) * trace.alpha)))

    m = _momentum_stream(trace.g, mom)
    m2_over_v = np.divide(m * m, trace.V, out=np.zeros_like(m), where=trace.V > 0.0)
    term3 = float(np.sum(trace.alpha * m2_over_v.sum(axis=1))) / (1.0 - beta1)

    return BoundReport(term1, term2, term3, term1 + term2 + term3)


def weighted_dd_term(grads: np.ndarray) -> float:
    """sum_i ( sum_j j * g_{j,i}^2 )^(1/4) over coordinates i, rounds j."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ValueError(f"gradient trace must have shape (T, d), got {grads.shape}")
    j = np.arange(1, grads.shape[0] + 1, dtype=np.float64)
    per_coord = (j[:, None] * grads * grads).sum(axis=0)
    return float(np.sum(per_coord**0.25))


def adagrad_dd_term(grads: np.ndarray) -> float:
    """sum_i sqrt( sum_j g_{j,i}^2 ) — the unweighted counterpart."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ValueError(f"gradient trace must have shape (T, d), got {grads.shape}")
    return float(np.sum(np.sqrt((grads * grads).sum(axis=0))))


def corollary1_bound(
    grads: np.ndarray,
    d_inf: float,
    g_inf: float,
    alpha: float,
    beta1: float,
    lam: float,
) -> BoundReport:
    """Closed-form regret bound for the linear-weight fourth-root method with
    decaying momentum beta1_t = beta1 * lam**(t-1), lam < 1:

    term1 = D^2 / (2 (1-beta1)) * sum_i (sum_j j g_{j,i}^2)^(1/4)
    term2 = beta1 D^2 sqrt(G) / (2 (1-beta1) (1-lam)^2)
    term3 = alpha d G / (1-beta1)^2 * sum_i (sum_j j g_{j,i}^2)^(1/4)
    """
    if lam == 1.0:
        raise LambdaOne("the closed-form bound requires lam < 1")
    MomentumSchedule(beta1, lam)  # the schedule's own domain checks
    if not math.isfinite(d_inf):
        raise UnboundedSet("the bound needs a finite sup-norm diameter")
    grads = np.asarray(grads, dtype=np.float64)
    d = grads.shape[1]
    w = weighted_dd_term(grads)
    d2 = d_inf * d_inf
    term1 = d2 / (2.0 * (1.0 - beta1)) * w
    term2 = beta1 * d2 * math.sqrt(g_inf) / (2.0 * (1.0 - beta1) * (1.0 - lam) ** 2)
    term3 = alpha * d * g_inf / (1.0 - beta1) ** 2 * w
    return BoundReport(term1, term2, term3, term1 + term2 + term3)


def lemma3_check(xs: np.ndarray, M: float):
    """Check  sum_i x_i / (sum_{j<=i} j x_j)^(1/4)  <=  M (sum_i i x_i)^(1/4)
    for 0 <= x_i <= M^2, M >= 1.  Terms with x_i = 0 contribute nothing (a
    zero prefix can only occur for them).  Returns (holds, lhs, rhs)."""
    if not (M >= 1.0 and math.isfinite(M)):
        raise ValueError(f"M must be finite and >= 1, got {M}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-d array")
    if (xs < 0.0).any() or (xs > M * M).any():
        raise DomainViolation(f"entries must lie in [0, M^2] = [0, {M * M}]")
    idx = np.arange(1, xs.size + 1, dtype=np.float64)
    prefix = np.cumsum(idx * xs)
    denom = prefix**0.25
    terms = np.divide(xs, denom, out=np.zeros_like(xs), where=xs > 0.0)
    lhs = float(terms.sum())
    rhs = float(M * denom[-1])
    return lhs <= rhs + 1e-12, lhs, rhs


def ratio_violations(trace: RunTrace, rtol: float = 1e-12) -> np.ndarray:
    """Rounds t where some coordinate's effective learning rate grew, i.e.
    V_{t,i}/alpha_t < V_{t-1,i}/alpha_{t-1} beyond relative slack ``rtol``.

    The convergence analysis assumes this never happens; sum-family methods
    satisfy it by construction while EMA methods can violate it when recent
    gradients shrink.  Returns the violating round indices (possibly empty).
    """
    r = trace.V / trace.alpha[:, None]
    bad = (r[1:] < r[:-1] * (1.0 - rtol)).any(axis=1)
    return trace.t[1:][bad]


def fd_gradient_check(fn, x: np.ndarray, h: float = 1e-6) -> float:
    """Max relative disagreement between fn's analytic gradient and central
    finite differences at x.

    ``fn(x) -> (loss, grad)``.  Per coordinate the error is
    |fd_i - g_i| / max(|g_i|, |fd_i|, 1e-12).
    """
    x = np.asarray(x, dtype=np.float64)
    _, g = fn(x)
    g = np.asarray(g, dtype=np.float64)
    fd = np.empty_like(g)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fd[i] = (fn(xp)[0] - fn(xm)[0]) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-12)
    return float(np.max(np.abs(fd - g) / denom))


def students_t_test(a, b):
    """Two-sided two-sample Student's t-test with pooled variance.

    Returns (t, p) with p computed through the regularized incomplete beta
    function.  scipy is imported here, at the one call that needs it, so
    ``import wagmf`` and runs without significance testing never load it.
    Degenerate samples: identical variances of zero with equal
    means give (0, 1); zero pooled variance with different means reports
    (+/-inf, 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.size, b.size
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two observations")
    df = na + nb - 2
    ma, mb = float(a.mean()), float(b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    sp2 = ((na - 1) * va + (nb - 1) * vb) / df
    if sp2 == 0.0:
        if ma == mb:
            return 0.0, 1.0
        return math.copysign(math.inf, ma - mb), 0.0
    t = (ma - mb) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    from scipy import special

    p = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p
