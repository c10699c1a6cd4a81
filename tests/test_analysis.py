import math

import numpy as np
import pytest
from conftest import same_bits

from wagmf import schedules
from wagmf.analysis import (
    RunTrace,
    adagrad_dd_term,
    corollary1_bound,
    fd_gradient_check,
    lemma3_check,
    regret,
    students_t_test,
    thm1_bound,
    weighted_dd_term,
)
from wagmf.errors import (
    DimMismatch,
    DomainViolation,
    LambdaOne,
    MissingBranchRecord,
    UnboundedSet,
)
from wagmf.feasible import FeasibleSet
from wagmf.presets import make_preset
from wagmf.steps import _Stream, init_state, step
from wagmf.schedules import MomentumSchedule, beta1_at
from wagmf.problems import (
    MinibatchOracle,
    Quadratic,
    ReddiOnline,
    ReddiStochastic,
    RoundRng,
    SoftmaxObjective,
    gaussian_blobs,
)


def fixed_trace(xs, gs, losses, alphas, Vs, **kw):
    return RunTrace(
        x=np.asarray(xs, dtype=float),
        g=np.asarray(gs, dtype=float),
        loss=np.asarray(losses, dtype=float),
        alpha=np.asarray(alphas, dtype=float),
        V=np.asarray(Vs, dtype=float),
        **kw,
    )


def run_preset(preset_name, alpha, oracle, T, seed, box=1.0, overrides=None):
    """Tiny driver mirroring the runner: returns the trace for analysis."""
    cfg = make_preset(preset_name, alpha, overrides)
    fs = FeasibleSet.box([-box] * oracle.dim, [box] * oracle.dim)
    st = init_state(np.zeros(oracle.dim), cfg)
    rng = RoundRng(seed)
    xs = np.empty((T, oracle.dim))
    gs = np.empty((T, oracle.dim))
    ls = np.empty(T)
    Vs = np.empty((T, oracle.dim))
    als = np.empty(T)
    for t in range(1, T + 1):
        xs[t - 1] = st.x
        loss, g = oracle.evaluate(t, st.x, rng)
        ls[t - 1] = loss
        gs[t - 1] = g
        step(st, g, cfg, fs)
        Vs[t - 1] = st.last_V
        als[t - 1] = schedules.alpha(cfg.step, t)
    return RunTrace(x=xs, g=gs, loss=ls, alpha=als, V=Vs, seed=seed)


# ---------------------------------------------------------------- traces


def test_trace_validation():
    ok = fixed_trace([[0.0]], [[1.0]], [0.0], [0.1], [[1.0]])
    assert ok.T == 1 and ok.dim == 1
    assert np.array_equal(ok.t, [1])
    with pytest.raises(ValueError):
        RunTrace(
            x=np.zeros((2, 1)),
            g=np.zeros((3, 1)),
            loss=np.zeros(2),
            alpha=np.ones(2),
            V=np.ones((2, 1)),
        )
    empty = np.zeros((0, 1))
    with pytest.raises(ValueError, match="at least one round"):
        RunTrace(x=empty, g=empty, loss=np.zeros(0), alpha=np.ones(0), V=empty)
    column = np.zeros((2, 1))
    with pytest.raises(ValueError, match="loss must have shape"):
        RunTrace(x=column, g=column, loss=column, alpha=np.ones(2), V=column)


# ---------------------------------------------------------------- regret


def test_regret_single_linear_round():
    # x1 = 1, g = [1], x* = 0: R(1) = f(x1) - f(x*) = 1 - 0 = 1
    tr = fixed_trace([[1.0]], [[1.0]], [1.0], [0.1], [[1.0]])
    orc = ReddiOnline()
    rs = regret(tr, orc, np.array([0.0]))
    assert rs.cumulative[0] == 1.0
    assert rs.average[0] == 1.0


def test_regret_online_period_at_plus_one():
    # sit at x = +1 for one full period: losses 1010, then 100 * (-10);
    # at x* = -1 they are -1010, then 100 * 10, so R(101) = 10 - (-10) = 20
    orc = ReddiOnline()
    T = 101
    gs = [[1010.0 if t % 101 == 1 else -10.0] for t in range(1, T + 1)]
    losses = [g[0] * 1.0 for g in gs]
    tr = fixed_trace([[1.0]] * T, gs, losses, [0.1] * T, [[1.0]] * T)
    rs = regret(tr, orc, np.array([-1.0]))
    assert rs.cumulative[-1] == pytest.approx(20.0)
    assert rs.average[-1] == pytest.approx(20.0 / 101)


def test_regret_time_invariant_route():
    orc = Quadratic([1.0, 1.0], [0.0, 0.0])
    # single round at x = (1, 1): f = 1.0, f(x*) = 0
    tr = fixed_trace([[1.0, 1.0]], [[1.0, 1.0]], [1.0], [0.1], [[1.0, 1.0]])
    rs = regret(tr, orc, np.array([0.0, 0.0]))
    assert rs.cumulative[0] == 1.0


def test_regret_stochastic_replay_and_missing_seed():
    orc = ReddiStochastic()
    tr = run_preset("wada", 0.5, orc, 300, seed=11)
    rs = regret(tr, orc, orc.known_optimum)
    # linear oracle: star losses come from recorded slopes, no seed needed
    manual = np.cumsum(tr.loss - tr.g[:, 0] * -1.0)
    assert np.allclose(rs.cumulative, manual)

    # a nonlinear stochastic oracle without a recorded seed cannot be replayed
    ds = gaussian_blobs(n=12, d=2, k=2, seed=1)
    mb = MinibatchOracle(SoftmaxObjective(ds, reg=0.0), batch_size=4)
    tr2 = run_preset("adagrad", 0.1, mb, 6, seed=3, box=10.0)
    tr2_noseed = RunTrace(x=tr2.x, g=tr2.g, loss=tr2.loss, alpha=tr2.alpha, V=tr2.V)
    with pytest.raises(MissingBranchRecord):
        regret(tr2_noseed, mb, np.zeros(mb.dim))
    # with the seed the replay sees the same batches the run saw
    rs2 = regret(tr2, mb, np.zeros(mb.dim))
    assert np.all(np.isfinite(rs2.cumulative))


def test_regret_shape_guard():
    tr = fixed_trace([[0.0]], [[1.0]], [0.0], [0.1], [[1.0]])
    with pytest.raises(DimMismatch):
        regret(tr, ReddiOnline(), np.array([0.0, 0.0]))


# ---------------------------------------------------------------- momentum


def test_momentum_stream_matches_live_state():
    orc = ReddiOnline()
    tr = run_preset("adam", 0.3, orc, 250, seed=0)
    m = _Stream(tr.g).momentum(MomentumSchedule(0.9, 1.0))
    # recompute independently
    mm, cur = [], np.zeros(1)
    for g in tr.g:
        cur = 0.9 * cur + 0.1 * g
        mm.append(cur.copy())
    assert np.allclose(m, np.array(mm), rtol=1e-14)


@pytest.mark.parametrize("lam", [1.0, 0.99])
@pytest.mark.parametrize("d", [3, 40])  # both passes of steps._scan
def test_momentum_stream_is_the_steps_momentum_bit_for_bit(d, lam):
    orc = Quadratic(np.linspace(0.5, 2.0, d), np.linspace(-0.3, 0.3, d))
    cfg = make_preset("wada", 0.5, {"lambda": lam})
    st = init_state(np.zeros(d), cfg)
    fs = FeasibleSet.box([-1.0] * d, [1.0] * d)
    gs, ms = np.empty((300, d)), np.empty((300, d))
    for t in range(1, 301):
        _, gs[t - 1] = orc.evaluate(t, st.x)
        step(st, gs[t - 1], cfg, fs)
        ms[t - 1] = st.m
    assert np.array_equal(_Stream(gs).momentum(cfg.momentum), ms)


def test_momentum_stream_with_decay():
    m = _Stream(np.ones((3, 1))).momentum(MomentumSchedule(0.9, 0.5))
    # beta1_t = 0.9 * 0.5^(t-1): 0.9, 0.45, 0.225
    m1 = 0.1
    m2 = 0.45 * m1 + 0.55
    m3 = 0.225 * m2 + 0.775
    assert np.allclose(m[:, 0], [m1, m2, m3], rtol=1e-14)


# ---------------------------------------------------------------- bounds


def test_thm1_bound_dominates_regret_on_sum_family_runs():
    orc = ReddiOnline()
    for name in ("wada", "adagrad", "adamnc"):
        tr = run_preset(name, 0.5, orc, 400, seed=2)
        mom = make_preset(name, 0.5).momentum
        rep = thm1_bound(tr, 2.0, mom.beta1, mom.lam)
        assert rep.term1 >= 0 and rep.term2 >= 0 and rep.term3 >= 0
        assert rep.total == pytest.approx(rep.term1 + rep.term2 + rep.term3)
        rs = regret(tr, orc, orc.known_optimum)
        assert rs.cumulative[-1] <= rep.total, name


def test_thm1_bound_zero_momentum_kills_term2():
    orc = ReddiOnline()
    tr = run_preset("adagrad", 0.5, orc, 50, seed=2)
    rep = thm1_bound(tr, 2.0, 0.0, 1.0)
    assert rep.term2 == 0.0


def test_thm1_term2_uses_beta1_at_bit_for_bit():
    tr = run_preset("wada", 0.5, ReddiOnline(), 300, seed=2, overrides={"lambda": 0.99})
    rep = thm1_bound(tr, 2.0, 0.9, 0.99)
    mom = MomentumSchedule(0.9, 0.99)
    b1t = np.array([beta1_at(mom, t) for t in range(1, tr.T + 1)])
    v_prev = np.concatenate([[0.0], tr.V[:-1].sum(axis=1)])
    assert rep.term2 == 0.5 * 4.0 * float(np.sum(b1t * v_prev / ((1.0 - b1t) * tr.alpha)))


def test_thm1_bound_requires_bounded_set():
    tr = fixed_trace([[0.0]], [[1.0]], [0.0], [0.1], [[1.0]])
    with pytest.raises(UnboundedSet):
        thm1_bound(tr, math.inf, 0.9, 1.0)


def test_thm1_bound_rejects_momentum_outside_its_range():
    tr = fixed_trace([[0.0]], [[1.0]], [0.0], [0.1], [[1.0]])
    with pytest.raises(UnboundedSet):  # the diameter is checked first
        thm1_bound(tr, math.inf, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^beta1 must lie in \[0, 1\), got 1.0$"):
        thm1_bound(tr, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^lam must lie in \(0, 1\], got 0.0$"):
        thm1_bound(tr, 2.0, 0.9, 0.0)


def test_dd_terms_closed_forms():
    T, d, G = 64, 3, 2.5
    grads = np.full((T, d), G)
    # equal-magnitude gradients: sum_j j G^2 = G^2 T(T+1)/2 per coordinate
    expect_w = d * math.sqrt(G) * (T * (T + 1) / 2.0) ** 0.25
    assert weighted_dd_term(grads) == pytest.approx(expect_w, rel=1e-12)
    assert adagrad_dd_term(grads) == pytest.approx(d * G * math.sqrt(T), rel=1e-12)
    with pytest.raises(ValueError):
        weighted_dd_term(np.zeros(5))


def test_dd_terms_keep_their_bits():
    # both terms share one body, called with linear and with equal weights;
    # compare with the terms written out, on gradients with exact zeros
    rng = np.random.default_rng(12)
    grads = rng.standard_normal((500, 4)) * rng.choice([0.0, 1.0, 40.0], size=(500, 4))
    j, sq = np.arange(1, 501, dtype=np.float64), grads * grads
    assert same_bits(weighted_dd_term(grads), np.sum(np.sqrt(np.sqrt((j[:, None] * sq).sum(axis=0)))))
    assert same_bits(adagrad_dd_term(grads), np.sum(np.sqrt(sq.sum(axis=0))))


def test_dd_term_comparison_crossover():
    # the fourth-root term scales as sqrt(G) (T^2)^(1/4) vs the unweighted
    # G sqrt(T): for large constant gradients the weighted term is far
    # smaller, while for rapidly decaying gradients the round weights j make
    # it larger -- both directions are worth pinning down
    T = 10_000
    big = np.full((T, 1), 1010.0)
    assert weighted_dd_term(big) < 0.05 * adagrad_dd_term(big)
    j = np.arange(1, T + 1, dtype=float)
    decaying = (1.0 / np.sqrt(j))[:, None]
    assert weighted_dd_term(decaying) > adagrad_dd_term(decaying)


def test_dd_term_comparison_scale_threshold():
    # g_j = G j^-q at d = 1: W/A scales as G^(-1/2), so the weighted term W
    # is below AdaGrad's A exactly when G > G* = (W/A at G = 1)^2.  For
    # q > 1, G* tends to zeta(2q-1)^(1/2) / zeta(2q), a constant in T; for
    # q <= 1 it grows with T.
    def w_over_a(g):
        return weighted_dd_term(g) / adagrad_dd_term(g)

    zeta = {2: math.pi**2 / 6, 3: 1.2020569031595942, 4: math.pi**4 / 90}
    table = {0.5: (10.22, 69.48), 1.0: (1.902, 2.306), 1.5: (1.067, 1.067), 2.0: (1.013, 1.013)}
    for q, g_stars in table.items():
        for T, expect in zip((10_000, 1_000_000), g_stars):
            g = (np.arange(1, T + 1, dtype=np.float64) ** -q)[:, None]
            g_star = w_over_a(g) ** 2
            assert g_star == pytest.approx(expect, rel=1e-3), (q, T)
            if q > 1:
                limit = math.sqrt(zeta[round(2 * q - 1)]) / zeta[round(2 * q)]
                assert g_star == pytest.approx(limit, rel=1e-3), (q, T)
            for c in (0.01, 1010.0):
                assert w_over_a(c * g) == pytest.approx(w_over_a(g) / math.sqrt(c), rel=1e-12)


def test_corollary1_structure_and_lambda_guard():
    rng = np.random.default_rng(0)
    grads = rng.uniform(-1, 1, size=(100, 2))
    rep = corollary1_bound(grads, 2.0, 1.0, 0.5, 0.9, 0.99)
    w = weighted_dd_term(grads)
    assert rep.term1 == pytest.approx(4.0 / (2 * 0.1) * w)
    assert rep.term2 == pytest.approx(0.9 * 4.0 * 1.0 / (2 * 0.1 * 0.01**2))
    assert rep.term3 == pytest.approx(0.5 * 2 * 1.0 / 0.01 * w)
    with pytest.raises(LambdaOne):
        corollary1_bound(grads, 2.0, 1.0, 0.5, 0.9, 1.0)
    with pytest.raises(UnboundedSet):
        corollary1_bound(grads, math.inf, 1.0, 0.5, 0.9, 0.99)
    with pytest.raises(ValueError):
        corollary1_bound(grads, 2.0, 1.0, 0.5, 0.9, 1.5)


# ---------------------------------------------------------------- lemma 3


def test_lemma3_base_case_is_tight():
    M = 3.0
    holds, lhs, rhs = lemma3_check(np.array([M * M]), M)
    assert holds
    assert lhs == pytest.approx(M**1.5, rel=1e-12)
    assert rhs == pytest.approx(M**1.5, rel=1e-12)


def test_lemma3_claim_has_counterexamples_but_factor_four_holds():
    # the stated inequality is false beyond n = 1: already at x = (1, 1),
    # M = 1 the left side is 1 + 3^(-1/4) > 3^(1/4).  (Its inductive proof
    # drops the 1/4 when differentiating the fourth root; redoing the step
    # with the factor shows a multiple of 4 on the right side suffices, and
    # constant sequences approach ratio 2*sqrt(2) from below.)  The checker
    # reports both sides so callers can see exactly this.
    holds, lhs, rhs = lemma3_check(np.array([1.0, 1.0]), 1.0)
    assert not holds
    assert lhs == pytest.approx(1.0 + 3.0**-0.25, rel=1e-12)
    assert rhs == pytest.approx(3.0**0.25, rel=1e-12)

    rng = np.random.default_rng(17)
    seen_violation = False
    for _ in range(500):
        M = float(rng.uniform(1.0, 10.0))
        n = int(rng.integers(1, 200))
        xs = rng.uniform(0.0, M * M, n)
        if rng.uniform() < 0.3:
            xs[rng.uniform(size=n) < 0.5] = 0.0  # plenty of zero entries
        holds, lhs, rhs = lemma3_check(xs, M)
        seen_violation |= not holds
        assert lhs <= 4.0 * rhs + 1e-12, (M, n, lhs, rhs)
        assert lhs <= 2.0 * math.sqrt(2.0) * rhs + 1e-12, (M, n, lhs, rhs)
    assert seen_violation

    # the sweep understates the worst case: the all-ones sequence at M = 1
    # (the ratio does not depend on M) climbs toward 2*sqrt(2) as n grows
    ratios = []
    for n in (2, 200, 10_000, 1_000_000):
        _, lhs, rhs = lemma3_check(np.ones(n), 1.0)
        ratios.append(lhs / rhs)
    assert ratios == pytest.approx([1.3372, 2.6342, 2.8005, 2.8256], abs=1e-4)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert 2.82 < ratios[-1] <= 2.0 * math.sqrt(2.0)


def test_lemma3_domain_errors():
    with pytest.raises(DomainViolation):
        lemma3_check(np.array([5.0]), 2.0)  # 5 > M^2 = 4
    with pytest.raises(DomainViolation):
        lemma3_check(np.array([-0.1]), 2.0)
    with pytest.raises(ValueError):
        lemma3_check(np.array([1.0]), 0.5)  # M < 1
    with pytest.raises(ValueError, match="non-empty 1-d array"):
        lemma3_check([], 1.0)


# ---------------------------------------------------------------- fd + t-test


def test_fd_check_accepts_true_gradient_and_flags_wrong_one():
    orc = Quadratic([1.0, 3.0], [0.2, -0.4])

    def good(x):
        return orc.evaluate(1, x)

    def bad(x):
        loss, g = orc.evaluate(1, x)
        return loss, 1.02 * g

    x = np.array([1.0, 2.0])
    assert fd_gradient_check(good, x) < 1e-7
    assert fd_gradient_check(bad, x) > 1e-3


def test_t_test_reference_value():
    t, p = students_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert t == pytest.approx(-1.0, rel=1e-12)
    assert p == pytest.approx(0.34659350708733416, rel=1e-12)
    t2, p2 = students_t_test([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
    assert t2 == -t and p2 == p


def test_t_test_degenerate_cases():
    assert students_t_test([3.0, 3.0], [3.0, 3.0]) == (0.0, 1.0)
    t, p = students_t_test([1.0, 1.0], [2.0, 2.0])
    assert t == -math.inf and p == 0.0
    with pytest.raises(ValueError):
        students_t_test([1.0], [2.0, 3.0])


def test_t_test_distinguishes_separated_samples():
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 1.0, 30)
    b = rng.normal(3.0, 1.0, 30)
    _, p = students_t_test(a, b)
    assert p < 1e-6
    c = rng.normal(0.0, 1.0, 30)
    _, p_same = students_t_test(a, c)
    assert p_same > 0.01
