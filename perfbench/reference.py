"""Per-round reference loop behind the benchmark's correctness gate.

Recomputes every cell of a generated experiment config with plain NumPy and
no wagmf code: the problem streams from their documented seeding (Philox
keyed by (seed, purpose)), the three presets the workloads use (adam,
amsgrad, wada), each cell's selection metric, the thm1 and corollary1 bound
totals, and each optimizer's selected alpha.  The program under test must
match it to within ``RTOL``.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-8
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


def _philox(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


class _Spike:
    """Slope 1010 with probability 1/100, else -10, on [-1, 1]; x* = -1."""

    linear = True

    def __init__(self, seed: int, T: int):
        u = _philox(seed, 0).random(T)
        self._g = np.where(u < 0.01, 1010.0, -10.0)[:, None]
        self.x_star = np.array([-1.0])
        self.x0 = np.zeros(1)

    def __call__(self, t: int, x: np.ndarray):
        g = self._g[t - 1]
        return float(g[0] * x[0]), g


class _Quadratic:
    """0.5 * sum a_i (x_i - x*_i)^2 with a random instance and a random x0."""

    linear = False

    def __init__(self, spec: dict, seed: int, lo: np.ndarray, hi: np.ndarray):
        gen = _philox(int(spec["instance_seed"]), 4)
        dim = int(spec["dim"])
        self.a = 0.5 + 1.5 * gen.random(dim)
        self.x_star = -0.5 + gen.random(dim)
        self.x0 = lo + _philox(seed, 3).random(dim) * (hi - lo)

    def __call__(self, t: int, x: np.ndarray):
        diff = x - self.x_star
        g = self.a * diff
        return 0.5 * float(g @ diff), g


class _SoftmaxMinibatch:
    """Multinomial logistic loss on Gaussian blobs, one minibatch per round,
    batches drawn per epoch from a seeded permutation."""

    linear = False
    x_star = None

    def __init__(self, spec: dict, seed: int):
        blobs = spec["data"]["blobs"]
        n, d, k = int(blobs["n"]), int(blobs["d"]), int(blobs["k"])
        gen = _philox(int(blobs["seed"]), 2)
        centers = gen.standard_normal((k, d))
        self.y = gen.permutation(np.arange(n) % k)
        self.X = centers[self.y] + gen.standard_normal((n, d))
        self.k, self.d, self.n = k, d, n
        self.batch = min(int(spec["batch_size"]), n)
        self.per_epoch = math.ceil(n / self.batch)
        self.seed = seed
        self._epoch = None
        self.x0 = np.zeros(k * (d + 1))

    def loss_grad(self, x: np.ndarray, rows: np.ndarray | None):
        X = self.X if rows is None else self.X[rows]
        y = self.y if rows is None else self.y[rows]
        kd = self.k * self.d
        W, b = x[:kd].reshape(self.k, self.d), x[kd:]
        logits = X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits).sum(axis=1))
        hit = np.arange(y.size)
        loss = float(np.mean(lse - logits[hit, y]))
        resid = np.exp(logits - lse[:, None])
        resid[hit, y] -= 1.0
        resid /= y.size
        return loss, np.concatenate([(resid.T @ X).ravel(), resid.sum(axis=0)])

    def __call__(self, t: int, x: np.ndarray):
        epoch, slot = divmod(t - 1, self.per_epoch)
        if epoch != self._epoch:
            self._perm = _philox(self.seed, 1, epoch).permutation(self.n)
            self._epoch = epoch
        return self.loss_grad(x, self._perm[slot * self.batch : (slot + 1) * self.batch])


def _problem(spec: dict, seed: int, T: int):
    kind = spec["kind"]
    if kind == "reddi_stochastic":
        return _Spike(seed, T), np.array([-1.0]), np.array([1.0])
    if kind == "quadratic":
        lo, hi = np.full(int(spec["dim"]), -1.0), np.full(int(spec["dim"]), 1.0)
        return _Quadratic(spec, seed, lo, hi), lo, hi
    if kind == "softmax":
        return _SoftmaxMinibatch(spec, seed), None, None
    raise ValueError(f"no reference for problem kind {kind!r}")


def _run_cell(oracle, lo, hi, name: str, alpha: float, lam: float, T: int):
    """The recursion m_t, v_t, V_t and the projected step, one round at a time."""
    x = oracle.x0.copy()
    d = x.size
    m, v, v_max = np.zeros(d), np.zeros(d), np.zeros(d)
    g_all, m_all, V_all = np.empty((T, d)), np.empty((T, d)), np.empty((T, d))
    losses, alphas = np.empty(T), np.empty(T)
    for t in range(1, T + 1):
        loss, g = oracle(t, x)
        b1 = BETA1 if lam == 1.0 else BETA1 * lam ** (t - 1)
        m = b1 * m + (1.0 - b1) * g
        if name == "wada":  # linear weights, p1 = 2, fourth root
            c = 2.0 / (t + 1.0)
            v = v * (1.0 - c) + c * (g * g)
            V = np.sqrt(np.sqrt(v)) + EPS
        else:  # adam / amsgrad: EMA of g^2, amsgrad keeps its running max
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            if name == "amsgrad":
                v_max = np.maximum(v_max, v)
            V = np.sqrt(v_max if name == "amsgrad" else v) + EPS
        a_t = alpha / math.sqrt(t)
        x = x - a_t * (m / V)
        if lo is not None:
            x = np.clip(x, lo, hi)
        losses[t - 1], alphas[t - 1] = loss, a_t
        g_all[t - 1], m_all[t - 1], V_all[t - 1] = g, m, V
    return x, losses, alphas, g_all, m_all, V_all


def _bounds(lo, hi, alpha, lam, alphas, g, m, V) -> tuple[float, float]:
    """Totals of the thm1 bound and the closed-form corollary1 bound."""
    T, d = g.shape
    D2 = float(np.max(hi - lo)) ** 2
    t = np.arange(1, T + 1, dtype=np.float64)
    b1 = BETA1 * lam ** (t - 1.0)
    V_prev = np.concatenate([[0.0], V[:-1].sum(axis=1)])
    thm1 = (
        D2 / (2.0 * alphas[-1] * (1.0 - BETA1)) * V[-1].sum()
        + 0.5 * D2 * np.sum(b1 * V_prev / ((1.0 - b1) * alphas))
        + np.sum(alphas * (m * m / V).sum(axis=1)) / (1.0 - BETA1)
    )
    g_inf = float(np.abs(g).max())
    w = float(np.sum(((t[:, None] * g * g).sum(axis=0)) ** 0.25))
    cor1 = (
        D2 / (2.0 * (1.0 - BETA1)) * w
        + BETA1 * D2 * math.sqrt(g_inf) / (2.0 * (1.0 - BETA1) * (1.0 - lam) ** 2)
        + alpha * d * g_inf / (1.0 - BETA1) ** 2 * w
    )
    return float(thm1), float(cor1)


def expected(config: dict) -> dict:
    """Reference outputs of a generated config.

    Returns {"cells": {(optimizer, alpha, seed): {"selection": ...,
    "thm1": ..., "corollary1": ...}}, "best": {optimizer: alpha}}; the bound
    entries are None without ``bound_eval``.
    """
    T = int(config["T"])
    lam = float(config.get("overrides", {}).get("lambda", 1.0))
    cells = {}
    for opt in config["optimizers"]:
        for alpha in opt["alphas"]:
            for seed in config["seeds"]:
                oracle, lo, hi = _problem(config["problem"], seed, T)
                x, losses, alphas, g, m, V = _run_cell(oracle, lo, hi, opt["name"], alpha, lam, T)
                if oracle.x_star is None:
                    selection = oracle.loss_grad(x, None)[0]
                else:
                    star = g @ oracle.x_star if oracle.linear else oracle(1, oracle.x_star)[0]
                    selection = float(np.cumsum(losses - star)[-1] / T)
                thm1 = cor1 = None
                if config.get("bound_eval"):
                    thm1, cor1 = _bounds(lo, hi, alpha, lam, alphas, g, m, V)
                cells[(opt["name"], alpha, seed)] = {
                    "selection": selection,
                    "thm1": thm1,
                    "corollary1": cor1,
                }
    return {"cells": cells, "best": select_best(cells)}


def select_best(cells: dict) -> dict:
    """Per optimizer, the alpha with the lowest mean selection metric over
    seeds; ties go to the smaller alpha."""
    per: dict[str, dict[float, list[float]]] = {}
    for (name, alpha, _), out in cells.items():
        per.setdefault(name, {}).setdefault(alpha, []).append(out["selection"])
    return {
        name: min(sorted(table), key=lambda a: (float(np.mean(table[a])), a))
        for name, table in per.items()
    }


def close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return got == want or abs(got - want) <= RTOL * abs(want)
