"""The optimizer update: one step for every engine, which differ only in
their preconditioner rule.

``step`` runs the same round t for every engine:

    m_t = beta1_t * m_{t-1} + (1 - beta1_t) * g_t          (momentum)
    V_t = rule(g_1, ..., g_t) + epsilon                    (preconditioner)
    x_{t+1} = Project(x_t - alpha_t * m_t / V_t)

The rule is the one per-engine part (``_RULES``).  There are two:

* ``wagmf_sum`` keeps the raw weighted sum v_t = sum_i gamma_i |g_i|^p1 and
  normalizes by the running weight sum:  V_t = (v_t / sum_i gamma_i)^(1/p2).
* ``wagmf_stable``, ``ema`` and ``amsgrad`` keep the running average
  v_t = a_t v_{t-1} + b_t |g_t|^p1 and take V_t = v_t^(1/p2); only the
  coefficients differ (``_coefs``).  Linear weights (wagmf_stable, p2 = 4)
  take a_t = 1 - 2/(t+1), b_t = 2/(t+1): the wagmf_sum rule with gamma_t = t
  without its O(t^2) raw sum.  Exponential weights (ema, amsgrad) take
  a_t = beta2, b_t = 1 - beta2, the Adam and AMSGrad rules at p1 = p2 = 2;
  amsgrad roots the running max of v_t, and ``bias_correction`` divides
  v_t by 1 - beta2^t and m_t by 1 - beta1^t.  The momentum is the same
  average (``_average``) of g_t with a_t = beta1_t, b_t = 1 - beta1_t.
* ``sign`` and ``plain_sgd`` have no rule: they step by alpha_t sign(g_t),
  without momentum, and alpha_t m_t, and record V_t = |g_t| and V_t = 1.

The four engines with a rule add ``epsilon`` to V_t after the root; sign and
plain_sgd ignore it.  Odd p1 accumulates |g|^p1 so the radicand stays
non-negative.  ``step`` mutates ``state`` in place and returns it; the
preconditioner actually applied is left in ``state.last_V`` for tracing.
The raw weighted sum can overflow float64 (exponential weights); the sum
rule then raises NonFinitePreconditioner naming the round, in both of its
forms.  A NaN or Inf gradient raises NonFiniteGradient naming its round,
in both ``step`` and ``run_stream``.

Each rule has a per-round form (``_sum_rule``, ``_average_rule``), which
updates the state, and next to it an array form (``_sum_stream``,
``_average_stream``), which builds V_t for every round of a gradient
stream known in advance (a ``_Stream``, whose momentum and running-average
scans every config on it shares).  One elementwise tail (``_tail``: the
sign and plain-SGD cases, epsilon, the momentum's bias correction and the
division) serves ``step`` on (d,) arrays and ``run_stream`` on (T, d)
arrays, so ``run_stream`` is bit-identical to T calls of ``step``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import schedules
from .errors import NonFiniteGradient, NonFinitePreconditioner
from .feasible import FeasibleSet, project
from .numerics import abs_pow, as_vector, root
from .schedules import MomentumSchedule, StepSizeSchedule, WeightSchedule

ENGINES = ("wagmf_sum", "wagmf_stable", "ema", "amsgrad", "sign", "plain_sgd")
_SCAN_COLUMNS = 16  # widest array that _scan runs column by column
_DESCENT_BLOCK = 64  # rounds in _descent's first search block
_DESCENT_BLOCK_MAX = 1 << 16  # rounds in its largest


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
    """Mutable optimizer state, owned by one run, or by a group of runs that
    differ only in their step size or start, one run per row; steps mutate
    it."""

    t: int
    x: np.ndarray
    m: np.ndarray
    v: np.ndarray
    weight_sum: float
    v_hat: np.ndarray | None = None
    last_V: np.ndarray | None = None


def init_state(x0, cfg: OptimizerConfig) -> OptimizerState:
    """A fresh state at x0: one run's point (d,), or a group's points as the
    rows of a (rows, d) array, one run per row."""
    x = np.array(x0 if np.ndim(x0) == 2 else as_vector(x0), dtype=np.float64)
    v_hat = np.zeros_like(x) if cfg.engine == "amsgrad" else None
    return OptimizerState(t=0, x=x, m=np.zeros_like(x), v=np.zeros_like(x), weight_sum=0.0, v_hat=v_hat)


def alpha_groups(cfgs) -> list[slice]:
    """The runs of consecutive configs of ``cfgs`` that are equal apart from
    their step size, as slices in order.  A run's configs share their
    momentum, preconditioner and directions, and differ only in alpha_t."""
    keys = [replace(c, step=None) for c in cfgs]
    edges = [0, *(k for k in range(1, len(keys)) if keys[k] != keys[k - 1]), len(keys)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def check_gradient(g: np.ndarray, t: int) -> None:
    """Raise NonFiniteGradient naming the round of the first non-finite row
    of ``g``: one round's gradient at round t, flat (one run's (d,), or the
    raveled rows of a stack of runs), or a stream's (T, d) gradients from
    round t."""
    finite = np.isfinite(g)
    if not finite.all():
        rows = finite.reshape(-1, g.shape[-1]).all(axis=1)
        t += int(np.argmin(rows))
        raise NonFiniteGradient(f"gradient contains NaN or Inf at round {t}")


def _bias(beta: float, t: int) -> float:
    """Adam-style bias-correction divisor 1 - beta**t."""
    return 1.0 - beta**t


def _average(acc: np.ndarray, a, b, y: np.ndarray) -> np.ndarray:
    """acc <- a * acc + b * y in place and returned: one round of a running
    average, the momentum's (a = beta1_t) or a rule's (``_coefs``)."""
    acc *= a
    acc += b * y
    return acc


def _overflow(t: int):
    raise NonFinitePreconditioner(
        f"V_t is not finite at round {t}: the weighted sum of gradient powers "
        "overflowed float64; shorten T or use a bounded weight schedule"
    )


# ---------------------------------------------------------------------------
# preconditioner rules: per round (state updated, V_t returned before epsilon)
# and in array form (V_t for every round of a (T, d) gradient stream)


def _sum_rule(state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig, t: int) -> np.ndarray:
    gam = schedules.gamma(cfg.weight, t)
    v = state.v
    v += gam * abs_pow(g, cfg.p1)
    state.weight_sum += gam
    V = root(v * (1.0 / state.weight_sum), cfg.p2)
    if not np.isfinite(V).all():
        _overflow(t)
    return V


def _sum_stream(s: _Stream, cfg: OptimizerConfig) -> np.ndarray:
    G = s.G
    gam = schedules.gamma(cfg.weight, np.arange(1, G.shape[0] + 1))
    v = np.cumsum(gam[:, None] * abs_pow(G, cfg.p1), axis=0)
    V = root(v * (1.0 / np.cumsum(gam))[:, None], cfg.p2)
    finite = np.isfinite(V).all(axis=1)
    if not finite.all():
        _overflow(int(np.argmin(finite)) + 1)
    return V


def _coefs(weight: WeightSchedule, t):
    """(a_t, b_t) of the running average v_t = a_t v_{t-1} + b_t |g_t|^p1 at
    round t, or at each of an array of rounds: (1 - 2/(t+1), 2/(t+1)) for
    linear weights gamma_t = t, (beta2, 1 - beta2) for exponential ones."""
    if weight.kind == "linear":
        c = 2.0 / (t + 1.0)
        return 1.0 - c, c
    return weight.beta2, 1.0 - weight.beta2


def _average_rule(state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig, t: int) -> np.ndarray:
    v = _average(state.v, *_coefs(cfg.weight, t), abs_pow(g, cfg.p1))
    if cfg.engine == "amsgrad":
        v = np.maximum(state.v_hat, v, out=state.v_hat)
    if cfg.bias_correction:
        v = v / _bias(cfg.weight.beta2, t)
    return root(v, cfg.p2)


def _average_stream(s: _Stream, cfg: OptimizerConfig) -> np.ndarray:
    v = s.average(cfg.weight, cfg.p1)
    if cfg.engine == "amsgrad":
        v = np.maximum.accumulate(v, axis=0)
    if cfg.bias_correction:
        v = v / schedules.per_round(_bias, cfg.weight.beta2, v.shape[0])[:, None]
    return root(v, cfg.p2)


# engine -> (per-round rule, array form); sign and plain_sgd build no V_t
_RULES = {
    "wagmf_sum": (_sum_rule, _sum_stream),
    "wagmf_stable": (_average_rule, _average_stream),
    "ema": (_average_rule, _average_stream),
    "amsgrad": (_average_rule, _average_stream),
    "sign": (None, None),
    "plain_sgd": (None, None),
}


def _tail(cfg: OptimizerConfig, g: np.ndarray, m, V, bias1):
    """(V, u) with x_{t+1} = Project(x_t - alpha_t * u): the applied
    preconditioner and the direction, elementwise on one round's (d,) arrays
    or a stream's (T, d) arrays.  ``V`` is the rule's output (None for sign
    and plain_sgd, ``m`` None for sign); ``bias1`` is the momentum's
    divisor 1 - beta1^t, or None without bias correction."""
    if cfg.engine == "sign":
        # x - alpha * sign(g) is x - alpha * g / |g| where defined; the
        # effective preconditioner |g_t| is recorded for diagnostics
        return np.abs(g), np.sign(g)
    if cfg.engine == "plain_sgd":
        return np.ones_like(g), m
    if bias1 is not None:
        m = m / bias1
    if cfg.epsilon:
        V += cfg.epsilon
        return V, m / V
    # with epsilon = 0 an untouched coordinate has V = 0, but then m = 0 too:
    # leave it in place instead of producing 0/0
    return V, np.divide(m, V, out=np.zeros_like(m), where=V > 0.0)


def step(
    state: OptimizerState, g: np.ndarray, cfg: OptimizerConfig, fset: FeasibleSet, a_t=None
) -> OptimizerState:
    """One round of ``cfg.engine`` on gradient ``g``.  Mutates and returns
    ``state``.

    Without ``a_t`` the state is one run's (d,) arrays: the step checks
    ``g`` and takes alpha_t = ``schedules.alpha(cfg.step, t)``.  A group of
    runs that differ only in their step size (or their start, or both)
    steps as one (rows, d) state, one run per row, on the (rows, d)
    gradients, with ``a_t`` the round's (rows, 1) column of step sizes.
    Every operation is per coordinate and the other scalars (beta1_t, the
    weight sum) are shared by the rows, so each row is bit-identical to its
    own run.  That caller checks the round's gradients itself."""
    t = state.t + 1
    if a_t is None:
        check_gradient(g, t)
        a_t = schedules.alpha(cfg.step, t)
    b1t = schedules.beta1_at(cfg.momentum, t)
    m = None if cfg.engine == "sign" else _average(state.m, b1t, 1.0 - b1t, g)
    rule = _RULES[cfg.engine][0]
    V = rule(state, g, cfg, t) if rule else None
    bias1 = _bias(cfg.momentum.beta1, t) if cfg.bias_correction else None
    V, u = _tail(cfg, g, m, V, bias1)
    x = state.x
    x -= a_t * u
    project(fset, V, x, out=x)
    state.t = t
    state.last_V = V
    return state


# ---------------------------------------------------------------------------
# array form: a whole gradient stream at once


def _recur(coefs, adds):
    y = 0.0
    for c, a in zip(coefs, adds):
        y = y * c + a
        yield y


def _scan(a, b, Y: np.ndarray) -> np.ndarray:
    """Array form of ``_average``: y_t = a_t y_{t-1} + b_t Y_t from y_0 = 0,
    down each column of ``Y`` (T, d), overwritten with y and returned; ``a``
    and ``b`` are each one float or a (T,) array.  Up to ``_SCAN_COLUMNS``
    columns the pass runs down each column over Python floats, beyond that
    one numpy row update per round.  Both do ``_average``'s products and sum
    in its order, so every y_t is bit-identical to its per-round value."""
    Y *= np.reshape(b, (-1, 1))
    T, d = Y.shape
    if d > _SCAN_COLUMNS:
        coefs = repeat(a) if np.ndim(a) == 0 else a.tolist()
        y = np.zeros(d)
        for c, row in zip(coefs, Y):
            row += y * c
            y = row
        return Y
    for j in range(d):
        coefs = repeat(float(a)) if np.ndim(a) == 0 else memoryview(a)
        Y[:, j] = np.fromiter(_recur(coefs, memoryview(Y[:, j])), np.float64, T)
    return Y


def _held_until(held, steps, t: int) -> int:
    """The first round at or after t whose step fails ``held(s, 0.0)``, or
    len(steps) if none does, searched in blocks doubling from
    ``_DESCENT_BLOCK`` rounds."""
    size = _DESCENT_BLOCK
    while t < len(steps):
        block = held(steps[t : t + size], 0.0)
        i = block.argmin()
        if not block[i]:
            return t + int(i)
        t += len(block)
        size = min(2 * size, _DESCENT_BLOCK_MAX)
    return t


def _descent(x: float, steps: np.ndarray, lo: float | None, hi: float | None) -> np.ndarray:
    """The path x, then x <- clip(x - s, lo, hi) for each step s of ``steps``
    (T,), as a (T + 1,) array; no clip when lo is None.  Ties keep x - s,
    as np.clip does, and x itself is never clipped.

    The path is a sequence of stretches, each found by a vectorized search.
    A free stretch is one ``np.subtract.accumulate`` from the current x,
    which subtracts in order, so each value is bit-identical to the scalar
    loop's x - s.  It ends at the first value outside [lo, hi], which
    becomes lo or hi.  A pinned stretch holds x at lo while s > 0, and at
    hi while s < 0: x - s then lies beyond the bound, or rounds onto a
    nonzero bound and so has its bits.  The signs are strict, so a +-0.0 or
    NaN step goes through the free stretch's arithmetic, and the sign of a
    zero changes exactly as in the scalar loop, also at a bound of +-0.0.
    A lo of +inf or a hi of -inf is never pinned: there x - s is NaN when
    s is that same infinity.

    Each search takes blocks of ``_DESCENT_BLOCK`` rounds, doubled after a
    block without a stop up to ``_DESCENT_BLOCK_MAX``.  After a clip the
    free stretch's first block is twice the last stretch, so the rounds
    computed past each clip stay proportional to it.  A stretch costs a few
    numpy calls, about as much as 50 rounds of the scalar loop on a 2-core
    x86-64 VM, so the search gains on long stretches and loses on short
    ones."""
    T = len(steps)
    path = np.empty(T + 1)
    path[0] = x
    if lo is None:
        path[1:] = steps
        return np.subtract.accumulate(path, out=path)
    t, size = 0, _DESCENT_BLOCK
    while t < T:
        x = path[t]
        if x == lo and lo < np.inf and steps[t] > 0:
            end = _held_until(np.greater, steps, t)
            path[t + 1 : end + 1] = lo
            t = end
        if x == hi and hi > -np.inf and t < T and steps[t] < 0:
            end = _held_until(np.less, steps, t)
            path[t + 1 : end + 1] = hi
            t = end
        start = t
        while t < T:
            k = min(size, T - t)
            block = path[t : t + k + 1]
            block[1:] = steps[t : t + k]
            u = np.subtract.accumulate(block, out=block)[1:]
            out = (u < lo) | (u > hi)
            i = int(out.argmax())
            if out[i]:
                u[i] = lo if u[i] < lo else hi
                t += i + 1
                size = min(max(2 * (t - start), _DESCENT_BLOCK), _DESCENT_BLOCK_MAX)
                break
            t += k
            size = min(2 * size, _DESCENT_BLOCK_MAX)
    return path


class _Stream:
    """A gradient stream G (T, d) fixed in advance, with the scans that the
    configs run on it share, each built at its first use and read-only: the
    momentum per ``MomentumSchedule``, and the running average
    v_t = a_t v_{t-1} + b_t |g_t|^p1 per (weight schedule, p1), before
    amsgrad's running max and the bias divisor."""

    def __init__(self, G: np.ndarray):
        self.G = G
        self.scans = {}

    def momentum(self, mom: MomentumSchedule) -> np.ndarray:
        def build():
            b1 = mom.beta1 if mom.lam == 1.0 else schedules.per_round(schedules.beta1_at, mom, len(self.G))
            return _scan(b1, 1.0 - b1, self.G.copy())

        return self._shared(mom, build)

    def average(self, weight: WeightSchedule, p1: int) -> np.ndarray:
        def build():
            return _scan(*_coefs(weight, np.arange(1, len(self.G) + 1)), abs_pow(self.G, p1))

        return self._shared((weight, p1), build)

    def _shared(self, key, build) -> np.ndarray:
        if key not in self.scans:
            scan = self.scans[key] = build()
            scan.flags.writeable = False
        return self.scans[key]


def _directions(s: _Stream, cfg: OptimizerConfig):
    """(V, U) for every round of the stream ``s``: the applied
    preconditioners, read-only, and the directions u_t with
    x_{t+1} = Project(x_t - alpha_t u_t), read-only where they are the
    shared momentum (plain_sgd)."""
    stream = _RULES[cfg.engine][1]
    V = stream(s, cfg) if stream else None
    M = None if cfg.engine == "sign" else s.momentum(cfg.momentum)
    bias1 = None
    if cfg.bias_correction:
        bias1 = schedules.per_round(_bias, cfg.momentum.beta1, s.G.shape[0])[:, None]
    V, U = _tail(cfg, s.G, M, V, bias1)
    V.flags.writeable = False
    return V, U


def _config_run(x1: np.ndarray, V, U: np.ndarray, cfg: OptimizerConfig, fset: FeasibleSet):
    """(path, V, alpha) of ``cfg`` from its group's (V, U): its step sizes,
    its steps s_t = alpha_t u_t and one ``_descent`` per coordinate."""
    T, d = U.shape
    alphas = schedules.alpha(cfg.step, np.arange(1, T + 1))
    steps = alphas[:, None] * U
    path = np.empty((T + 1, d))
    for j in range(d):
        lo, hi = (float(fset.lo[j]), float(fset.hi[j])) if fset.is_box else (None, None)
        path[:, j] = _descent(float(x1[j]), steps[:, j], lo, hi)
    return path, V, alphas


def _runs(x1: np.ndarray, G: np.ndarray, cfgs: tuple, fset: FeasibleSet):
    check_gradient(G, 1)
    s = _Stream(G)
    for group in alpha_groups(cfgs):
        V, U = _directions(s, cfgs[group.start])
        if group.stop == len(cfgs):
            s.scans.clear()  # no later group reads them
        for c in cfgs[group]:
            yield _config_run(x1, V, U, c, fset)


def run_stream(x1, G: np.ndarray, cfg, fset: FeasibleSet):
    """All T rounds of one config, or of each config of a tuple, on one
    gradient stream fixed in advance.

    For oracles whose g_t does not depend on x_t.  m_t, v_t, V_t and the
    directions m_t / V_t are built as arrays, and each is shared, read-only,
    by every config that reads it: the momentum scan per
    ``MomentumSchedule`` and the running-average scan per (weight schedule,
    p1) (``_Stream``), and V_t and the directions per run of consecutive
    configs that are equal apart from their step size (``alpha_groups``).
    Per config there remain only alpha_t (``schedules.alpha`` on the array
    of rounds), the steps s_t = alpha_t * m_t / V_t and the clipped running
    sum x_{t+1} = clip(x_t - s_t, lo, hi), one ``_descent`` per coordinate.
    ``_scan`` and ``_descent`` keep the per-round operation order, so every
    value is bit-identical to T calls of ``step``.  Measured on a 2-core
    x86-64 VM at d = 1 and T = 6000 (spike stream in [-1, 1], medians of
    300), adam alone takes 1.0 ms, and after it a further adam alpha 0.10
    ms, amsgrad, whose scans are built, 0.16 ms, and wada, which needs its
    own running average, 0.62 ms; the per-round numpy step takes 19-28 us
    per round.  Every linear oracle here has d = 1, so there is no
    dimension gate.

    Returns (path, V, alpha) for one config: path (T + 1, d) holds x_1,
    ..., x_{T+1}, V (T, d) the applied preconditioners (epsilon included),
    read-only and shared by the configs of a group, and alpha (T,) the step
    sizes.  For a tuple it returns an iterator of them in config order, each
    built when it is asked for, so a caller that drops each run before
    asking for the next holds one config's arrays at a time.  The scans go
    once the last group's directions are built, and the directions when the
    caller closes the iterator.  The stream is checked for non-finite
    gradients when the first run is asked for.
    """
    cfgs = cfg if isinstance(cfg, tuple) else (cfg,)
    runs = _runs(as_vector(x1), np.asarray(G, dtype=np.float64), cfgs, fset)
    return runs if isinstance(cfg, tuple) else next(runs)
