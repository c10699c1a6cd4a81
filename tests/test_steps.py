import math
import re

import numpy as np
import pytest
from conftest import same_bits

from wagmf.errors import NonFiniteGradient, NonFinitePreconditioner
from wagmf.feasible import FeasibleSet
from wagmf.presets import make_preset
from wagmf.schedules import MomentumSchedule, StepSizeSchedule, WeightSchedule
from wagmf.steps import OptimizerConfig, init_state, run_stream, step

FREE = FeasibleSet.unconstrained()


def cfg_sum(weight=None, beta1=0.9, lam=1.0, p1=2, p2=2, eps=0.0, alpha=1.0, kind="constant"):
    return OptimizerConfig(
        weight=weight or WeightSchedule.equal(),
        step=StepSizeSchedule(alpha, kind),
        momentum=MomentumSchedule(beta1, lam),
        p1=p1,
        p2=p2,
        epsilon=eps,
        engine="wagmf_sum",
    )


def cfg_stable(beta1=0.9, p1=2, eps=0.0, alpha=1.0, kind="constant"):
    return OptimizerConfig(
        weight=WeightSchedule.linear(),
        step=StepSizeSchedule(alpha, kind),
        momentum=MomentumSchedule(beta1),
        p1=p1,
        p2=4,
        epsilon=eps,
        engine="wagmf_stable",
    )


def cfg_generic(
    engine, beta1=0.9, beta2=0.999, eps=0.0, alpha=1.0, kind="constant", bias=False, p1=2, p2=2
):
    return OptimizerConfig(
        weight=WeightSchedule.exponential(beta2),
        step=StepSizeSchedule(alpha, kind),
        momentum=MomentumSchedule(beta1),
        p1=p1,
        p2=p2,
        epsilon=eps,
        engine=engine,
        bias_correction=bias,
    )


def test_single_step_linear_weights_fourth_root():
    # gamma_t = t, p1=2, p2=4, beta1=0, alpha=1, eps=0, x1=0, g=[2]:
    # m=[2], v=[4], b=1, V=(4)^(1/4)=sqrt(2), x2=-2/sqrt(2)=-sqrt(2)
    cfg = cfg_sum(weight=WeightSchedule.linear(), beta1=0.0, p2=4)
    st = init_state([0.0], cfg)
    step(st, np.array([2.0]), cfg, FREE)
    assert st.m[0] == 2.0
    assert st.v[0] == 4.0
    assert st.weight_sum == 1.0
    assert st.last_V[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert st.x[0] == pytest.approx(-math.sqrt(2.0), abs=1e-15)


def test_zero_gradients_keep_everything_at_rest():
    cfg = cfg_sum(eps=1e-7)
    st = init_state([0.7], cfg)
    for _ in range(5):
        step(st, np.zeros(1), cfg, FREE)
    assert st.x[0] == 0.7
    assert st.v[0] == 0.0
    assert st.last_V[0] == 1e-7
    # with eps = 0 the 0/0 coordinate must stay untouched rather than go NaN
    cfg0 = cfg_sum(eps=0.0)
    st0 = init_state([0.7], cfg0)
    for _ in range(5):
        step(st0, np.zeros(1), cfg0, FREE)
    assert st0.x[0] == 0.7


def test_two_step_stable_matches_weighted_sum():
    # g1=[2], g2=[1]: stable v2 = (1/3)*4 + (2/3)*1 = 2
    # sum path: v2 = 1*4 + 2*1 = 6, b2 = 1/3, v2*b2 = 2
    a = cfg_sum(weight=WeightSchedule.linear(), beta1=0.0, p2=4)
    b = cfg_stable(beta1=0.0)
    sa, sb = init_state([0.0], a), init_state([0.0], b)
    for g in (2.0, 1.0):
        step(sa, np.array([g]), a, FREE)
        step(sb, np.array([g]), b, FREE)
    assert sb.v[0] == pytest.approx(2.0, rel=1e-15)
    assert sa.v[0] * (1.0 / sa.weight_sum) == pytest.approx(2.0, rel=1e-15)
    assert sa.x[0] == pytest.approx(sb.x[0], rel=1e-14)


def test_stable_equals_sum_on_random_streams():
    rng = np.random.default_rng(99)
    a = cfg_sum(weight=WeightSchedule.linear(), p2=4, eps=1e-7, alpha=0.5, kind="inv_sqrt")
    b = cfg_stable(eps=1e-7, alpha=0.5, kind="inv_sqrt")
    for _ in range(5):
        d = int(rng.integers(1, 6))
        sa, sb = init_state(np.zeros(d), a), init_state(np.zeros(d), b)
        for _t in range(500):
            g = rng.uniform(-100.0, 100.0, d)
            step(sa, g, a, FREE)
            step(sb, g, b, FREE)
            denom = np.maximum(1.0, np.maximum(np.abs(sa.x), np.abs(sb.x)))
            assert np.max(np.abs(sa.x - sb.x) / denom) < 1e-10


def test_epsilon_added_after_the_root():
    # g=[2] gives V = (4)^(1/4) + eps = sqrt(2) + eps, not (4 + eps)^(1/4)
    eps = 1e-3
    cfg = cfg_sum(weight=WeightSchedule.linear(), beta1=0.0, p2=4, eps=eps)
    st = init_state([0.0], cfg)
    step(st, np.array([2.0]), cfg, FREE)
    assert st.last_V[0] == math.sqrt(2.0) + eps


def test_equal_weights_reproduce_adagrad_reference():
    # equal weights, p1=p2=2, beta1=0, eps=0, alpha_t = alpha/sqrt(t):
    # the update is alpha * g / sqrt(sum g^2) -- classic accumulated-squares
    rng = np.random.default_rng(5)
    alpha = 0.37
    cfg = cfg_sum(beta1=0.0, alpha=alpha, kind="inv_sqrt")
    d = 4
    st = init_state(np.zeros(d), cfg)
    x_ref = np.zeros(d)
    acc = np.zeros(d)
    for _t in range(1, 301):
        g = rng.standard_normal(d)
        x_prev = st.x.copy()
        step(st, g, cfg, FREE)
        acc += g * g
        ref_delta = alpha * g / np.sqrt(acc)
        got_delta = x_prev - st.x
        # differencing the iterates rounds at the scale of x, not of the delta
        tol = 4 * np.spacing(np.maximum(np.abs(ref_delta), np.abs(x_prev)))
        assert np.all(np.abs(got_delta - ref_delta) <= tol)
        x_ref -= ref_delta
    assert np.allclose(st.x, x_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p1,p2", [(2, 2), (3, 3), (4, 2)])
def test_ema_recursion_matches_explicit_weighted_sums(p1, p2):
    beta2 = 0.9
    gs = [1.5, -0.3, 2.0, 0.7, -1.2]
    cfg = cfg_generic("ema", beta1=0.0, beta2=beta2, p1=p1, p2=p2)
    st = init_state([0.0], cfg)
    cfg_a = cfg_generic("amsgrad", beta1=0.0, beta2=beta2, p1=p1, p2=p2)
    sa = init_state([0.0], cfg_a)
    peak = 0.0
    # sum path with gamma_t = (1/beta2)^t
    cfg_s = cfg_sum(weight=WeightSchedule.exponential(beta2), beta1=0.0, p1=p1, p2=p2)
    ss = init_state([0.0], cfg_s)
    for t, g in enumerate(gs, start=1):
        step(st, np.array([g]), cfg, FREE)
        step(ss, np.array([g]), cfg_s, FREE)
        step(sa, np.array([g]), cfg_a, FREE)
        explicit = (1 - beta2) * sum(beta2 ** (t - i) * abs(gi) ** p1 for i, gi in enumerate(gs[:t], 1))
        assert st.v[0] == pytest.approx(explicit, rel=1e-14)
        assert st.last_V[0] == pytest.approx(explicit ** (1 / p2), rel=1e-14)
        # amsgrad takes the same root of the running max
        peak = max(peak, explicit)
        assert sa.last_V[0] == pytest.approx(peak ** (1 / p2), rel=1e-14)
        # the normalized weighted average is the EMA with the bias 1-beta2^t divided out
        avg = ss.v[0] * (1.0 / ss.weight_sum)
        assert avg == pytest.approx(st.v[0] / (1 - beta2**t), rel=1e-13)


def reference_average(G, cfg):
    """m_t, v_t (the raw average), the amsgrad running max and the applied
    V_t for every round of G (T, d), from plain loops m = m * b1 + (1 - b1) * g
    and v = v * a + b * |g|^p1 with the coefficients written out."""
    m, v, peak = (np.zeros(G.shape[1]) for _ in range(3))
    ms, vs, peaks, Vs = (np.empty(G.shape) for _ in range(4))
    beta1, lam, beta2 = cfg.momentum.beta1, cfg.momentum.lam, cfg.weight.beta2
    for t, g in enumerate(G, start=1):
        b1 = beta1 if lam == 1.0 else beta1 * lam ** (t - 1)
        m = m * b1 + (1.0 - b1) * g
        if cfg.weight.kind == "linear":
            a, b = 1.0 - 2.0 / (t + 1.0), 2.0 / (t + 1.0)
        else:
            a, b = beta2, 1.0 - beta2
        v = v * a + b * np.abs(g) ** cfg.p1
        peak = np.maximum(peak, v)
        w = peak if cfg.engine == "amsgrad" else v
        if cfg.bias_correction:
            w = w / (1.0 - beta2**t)
        V = np.sqrt(w) if cfg.p2 == 2 else np.sqrt(np.sqrt(w))
        ms[t - 1], vs[t - 1], peaks[t - 1], Vs[t - 1] = m, v, peak, V + cfg.epsilon
    return ms, vs, peaks, Vs


# beta2 = 0.3 < 0.5, where 1 - (1 - beta2) is not beta2 itself
AVERAGE_CASES = [
    ("wada", {}),
    ("wada_v3", {}),
    ("wada", {"lambda": 0.99}),
    ("adam", {}),
    ("rmsprop", {}),
    ("amsgrad", {}),
    ("adam", {"bias_correction": True}),
    ("amsgrad", {"bias_correction": True}),
    ("adam", {"beta2": 0.3}),
    ("amsgrad", {"beta2": 0.3}),
    ("adam", {"beta2": 0.3, "bias_correction": True}),
]


@pytest.mark.parametrize("d", [3, 20])  # both passes of steps._scan
@pytest.mark.parametrize(
    "name,overrides",
    AVERAGE_CASES,
    ids=["-".join([name, *(f"{k}={v}" for k, v in o.items())]) for name, o in AVERAGE_CASES],
)
def test_running_averages_match_reference_loops_bit_for_bit(name, overrides, d):
    rng = np.random.default_rng(17)
    G = rng.standard_normal((300, d)) * rng.choice([0.0, 1.0, 30.0], size=(300, d), p=[0.2, 0.7, 0.1])
    cfg = make_preset(name, 0.1, overrides)
    ms, vs, peaks, Vs = reference_average(G, cfg)
    st = init_state(np.zeros(d), cfg)
    for t, g in enumerate(G):
        step(st, g, cfg, FREE)
        assert same_bits(st.m, ms[t]), t
        assert same_bits(st.v, vs[t]), t
        assert same_bits(st.last_V, Vs[t]), t
        if cfg.engine == "amsgrad":
            assert same_bits(st.v_hat, peaks[t]), t
    assert same_bits(run_stream(np.zeros(d), G, cfg, FREE)[1], Vs)


def test_sign_steps_keep_no_momentum():
    cfg = make_preset("sign_sgd", 0.1)
    st = init_state(np.zeros((2, 3)), cfg)  # a group of two runs
    for g in np.random.default_rng(4).standard_normal((20, 2, 3)):
        step(st, g, cfg, FREE, a_t=np.array([[0.1], [0.2]]))
    assert same_bits(st.m, np.zeros((2, 3)))


def test_amsgrad_keeps_running_max():
    cfg = cfg_generic("amsgrad", beta1=0.0, beta2=0.5, eps=0.0)
    st = init_state([0.0], cfg)
    step(st, np.array([2.0]), cfg, FREE)  # v = 2, vhat = 2
    assert st.v_hat[0] == pytest.approx(2.0)
    step(st, np.array([0.0]), cfg, FREE)  # v = 1, vhat stays 2
    assert st.v[0] == pytest.approx(1.0)
    assert st.v_hat[0] == pytest.approx(2.0)
    assert st.last_V[0] == pytest.approx(math.sqrt(2.0))


def test_sign_engine_moves_by_alpha():
    cfg = cfg_generic("sign", alpha=0.25)
    st = init_state([0.0, 0.0, 0.0], cfg)
    step(st, np.array([3.0, -0.001, 0.0]), cfg, FREE)
    assert np.array_equal(st.x, [-0.25, 0.25, 0.0])
    # effective preconditioner diagnostic is |g|
    assert np.array_equal(st.last_V, [3.0, 0.001, 0.0])


def test_plain_sgd_is_momentum_sgd():
    cfg = cfg_generic("plain_sgd", beta1=0.9, alpha=0.1)
    st = init_state([1.0], cfg)
    step(st, np.array([2.0]), cfg, FREE)
    # m1 = 0.1*2 = 0.2, x2 = 1 - 0.1*0.2 = 0.98
    assert st.x[0] == pytest.approx(0.98, rel=1e-15)
    assert np.array_equal(st.last_V, [1.0])


def test_bias_correction_first_step():
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    cfg = cfg_generic("ema", beta1=beta1, beta2=beta2, eps=eps, alpha=0.5, bias=True)
    st = init_state([0.0], cfg)
    step(st, np.array([3.0]), cfg, FREE)
    # mhat = m/(1-beta1) = g, vhat = v/(1-beta2) = g^2 -> step = alpha*g/(|g|+eps)
    assert st.x[0] == pytest.approx(-0.5 * 3.0 / (3.0 + eps), rel=1e-14)


def test_momentum_stays_in_hull_including_zero_start():
    # m_t is a convex combination of {0, g_1, ..., g_t}; with all-positive
    # gradients the first momentum values sit below min g because of m_0 = 0
    rng = np.random.default_rng(21)
    cfg = cfg_sum(beta1=0.9)
    st = init_state([0.0], cfg)
    seen = []
    for _ in range(200):
        g = float(rng.uniform(-3.0, 3.0))
        seen.append(g)
        step(st, np.array([g]), cfg, FREE)
        lo = min(0.0, min(seen))
        hi = max(0.0, max(seen))
        assert lo - 1e-12 <= st.m[0] <= hi + 1e-12


def test_accumulator_nondecreasing_for_all_p1():
    rng = np.random.default_rng(8)
    for p1 in (2, 3, 4):
        cfg = OptimizerConfig(
            weight=WeightSchedule.linear(),
            step=StepSizeSchedule(1.0, "constant"),
            momentum=MomentumSchedule(0.9),
            p1=p1,
            p2=2,
            engine="wagmf_sum",
        )
        st = init_state(np.zeros(3), cfg)
        prev = st.v.copy()
        for _ in range(100):
            step(st, rng.standard_normal(3), cfg, FREE)
            assert np.all(st.v >= prev)
            prev = st.v.copy()


def test_odd_p1_uses_absolute_gradients():
    cfg = cfg_stable(beta1=0.0, p1=3)
    st = init_state([0.0], cfg)
    step(st, np.array([-2.0]), cfg, FREE)
    # v1 = |g|^3 = 8 (a signed power would have poisoned the fourth root)
    assert st.v[0] == pytest.approx(8.0)
    assert st.last_V[0] == pytest.approx(8.0**0.25, rel=1e-15)


def test_box_projection_applied_each_step():
    fs = FeasibleSet.box([-1.0], [1.0])
    cfg = cfg_sum(beta1=0.0, alpha=50.0)
    st = init_state([0.0], cfg)
    step(st, np.array([1.0]), cfg, fs)
    assert st.x[0] == -1.0
    step(st, np.array([-1.0]), cfg, fs)
    assert -1.0 <= st.x[0] <= 1.0


def test_nonfinite_gradient_rejected():
    cfg = cfg_sum()
    st = init_state([0.0], cfg)
    with pytest.raises(NonFiniteGradient):
        step(st, np.array([np.nan]), cfg, FREE)
    with pytest.raises(NonFiniteGradient):
        step(st, np.array([np.inf]), cfg, FREE)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_preconditioner_rejected():
    cfg = cfg_sum()
    st = init_state([0.0], cfg)
    step(st, np.array([1.0]), cfg, FREE)
    with pytest.raises(NonFinitePreconditioner, match="round 2:"):
        step(st, np.array([1e200]), cfg, FREE)


def test_config_validation():
    with pytest.raises(ValueError):
        # stable engine demands linear weights and p2 = 4
        OptimizerConfig(
            weight=WeightSchedule.equal(),
            step=StepSizeSchedule(1.0),
            momentum=MomentumSchedule(),
            engine="wagmf_stable",
        )
    with pytest.raises(ValueError):
        OptimizerConfig(
            weight=WeightSchedule.equal(),
            step=StepSizeSchedule(1.0),
            momentum=MomentumSchedule(),
            engine="ema",
        )
    with pytest.raises(ValueError):
        OptimizerConfig(
            weight=WeightSchedule.equal(),
            step=StepSizeSchedule(1.0),
            momentum=MomentumSchedule(),
            engine="plain_sgd",
            bias_correction=True,
        )
    with pytest.raises(ValueError):
        OptimizerConfig(
            weight=WeightSchedule.equal(),
            step=StepSizeSchedule(1.0),
            momentum=MomentumSchedule(),
            p2=0,
        )
    for field, message in (
        ({"engine": "adamw"}, "unknown engine 'adamw'"),
        ({"p1": 2.0}, "p1 must be a positive integer, got 2.0"),
        ({"epsilon": -1e-8}, "epsilon must be finite and >= 0, got -1e-08"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerConfig(WeightSchedule.equal(), StepSizeSchedule(1.0), MomentumSchedule(), **field)

