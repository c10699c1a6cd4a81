import math
import sys

import numpy as np
import pytest

from wagmf.schedules import (
    MomentumSchedule,
    StepSizeSchedule,
    WeightSchedule,
    alpha,
    balance,
    beta1_at,
    check_nonincrease,
    exponential_weight_sum,
    gamma,
    per_round,
)


def test_alpha_inv_sqrt_and_constant():
    s = StepSizeSchedule(0.5, "inv_sqrt")
    assert alpha(s, 1) == 0.5
    assert alpha(s, 4) == 0.25
    c = StepSizeSchedule(0.3, "constant")
    assert alpha(c, 1) == alpha(c, 1000) == 0.3


def test_step_schedule_validation():
    with pytest.raises(ValueError):
        StepSizeSchedule(0.0)
    with pytest.raises(ValueError):
        StepSizeSchedule(1.0, "linear_decay")


def test_beta1_constant_and_decaying():
    m = MomentumSchedule(0.9, 1.0)
    assert beta1_at(m, 1) == beta1_at(m, 10**6) == 0.9
    d = MomentumSchedule(0.9, 0.99)
    assert beta1_at(d, 1) == 0.9
    # 0.9 * 0.99^2
    assert beta1_at(d, 3) == pytest.approx(0.9 * 0.99**2, rel=1e-15)
    assert beta1_at(d, 500) < 0.01


def test_momentum_validation():
    with pytest.raises(ValueError):
        MomentumSchedule(1.0)
    with pytest.raises(ValueError):
        MomentumSchedule(0.5, 0.0)
    with pytest.raises(ValueError):
        MomentumSchedule(-0.1)


def test_gamma_families():
    assert gamma(WeightSchedule.equal(), 17) == 1.0
    assert gamma(WeightSchedule.linear(), 17) == 17.0
    w = WeightSchedule.exponential(0.5)
    assert gamma(w, 3) == 8.0  # (1/0.5)^3
    h = WeightSchedule.hyper_harmonic(0.5)
    assert gamma(h, 4) == pytest.approx(0.5, rel=1e-15)  # 4^-0.5
    assert gamma(WeightSchedule.hyper_harmonic(0.0), 9) == 1.0


def test_gamma_monotonicity():
    ts = np.arange(1, 200)
    lin = [gamma(WeightSchedule.linear(), int(t)) for t in ts]
    assert all(b > a for a, b in zip(lin, lin[1:]))
    ex = [gamma(WeightSchedule.exponential(0.9), int(t)) for t in ts]
    assert all(b > a for a, b in zip(ex, ex[1:]))
    hh = [gamma(WeightSchedule.hyper_harmonic(1.0), int(t)) for t in ts]
    assert all(b < a for a, b in zip(hh, hh[1:]))


def test_gamma_exponential_overflow_raises():
    w = WeightSchedule.exponential(0.5)
    # (1/0.5)^t = 2^t overflows float64 past t = 1023
    assert math.isfinite(gamma(w, 1023))
    with pytest.raises(OverflowError):
        gamma(w, 1100)


def test_per_round_tabulates_the_scalar_schedule():
    m = MomentumSchedule(0.9, 0.99)
    b = per_round(beta1_at, m, 50)
    assert b.dtype == np.float64 and b.shape == (50,)
    assert b.tolist() == [beta1_at(m, t) for t in range(1, 51)]


@pytest.mark.parametrize("beta2", [0.5, 0.9, 0.999])
def test_exponential_weight_sum_overflows_with_the_running_sum(beta2):
    # the closed form overflows at the same round as the running float sum
    # the engines accumulate, some rounds before gamma_t itself does
    w = WeightSchedule.exponential(beta2)
    n = int(math.log(sys.float_info.max) / math.log(1.0 / beta2)) - 1  # gamma_n is finite
    with np.errstate(over="ignore"):
        running = np.cumsum(per_round(gamma, w, n))
    edge = int(np.argmax(np.isinf(running))) + 1
    assert math.isfinite(gamma(w, edge))
    assert exponential_weight_sum(w, edge - 1) == pytest.approx(running[edge - 2], rel=1e-12)
    with pytest.raises(OverflowError):
        exponential_weight_sum(w, edge)
    with pytest.raises(ValueError):
        exponential_weight_sum(WeightSchedule.linear(), 10)


def test_gamma_validation():
    with pytest.raises(ValueError):
        WeightSchedule.exponential(1.0)
    with pytest.raises(ValueError):
        WeightSchedule.hyper_harmonic(-0.5)
    with pytest.raises(ValueError):
        WeightSchedule("geometric")
    with pytest.raises(ValueError):
        gamma(WeightSchedule.equal(), 0)


def test_balance_inverts_running_sum():
    w = WeightSchedule.linear()
    assert balance(w, 3, 6.0) == pytest.approx(1.0 / 6.0, rel=1e-16)
    with pytest.raises(ValueError):
        balance(w, 1, 0.0)


def test_balance_linear_exact_to_2_ulps():
    # partial sums of 1..t are exact integers in float64 up to well past 1e6
    t = np.arange(1, 1_000_001, dtype=np.float64)
    sums = np.cumsum(t)
    for tt in (1, 2, 10, 999, 31623, 1_000_000):
        s = sums[tt - 1]
        prod = balance(WeightSchedule.linear(), tt, float(s)) * s
        assert abs(prod - 1.0) <= 2 * np.spacing(1.0)


def test_check_nonincrease_wada_example():
    # linear weights, p2=4, alpha_t = alpha/sqrt(t): b1=1, b2=1/3
    # 3^4/(a/sqrt(2)) = 81*sqrt(2)/a >= 1/a
    a = 0.37
    assert check_nonincrease(1.0, 1.0 / 3.0, a, a / math.sqrt(2), 4)


def test_check_nonincrease_direction():
    # growing balance term with fixed alpha means the ratio dropped
    assert not check_nonincrease(1.0 / 3.0, 1.0, 0.1, 0.1, 4)
    with pytest.raises(ValueError):
        check_nonincrease(0.0, 1.0, 0.1, 0.1, 2)


@pytest.mark.parametrize(
    "w",
    [
        WeightSchedule.equal(),
        WeightSchedule.linear(),
        WeightSchedule.exponential(0.999),
        WeightSchedule.hyper_harmonic(0.5),
        WeightSchedule.hyper_harmonic(2.0),
    ],
)
@pytest.mark.parametrize("p2", [2, 4])
def test_nonincrease_holds_for_weight_families(w, p2):
    # with alpha_t = alpha/sqrt(t) the balance condition holds for every
    # numeric weight family at every t <= 1e4
    s = StepSizeSchedule(0.2, "inv_sqrt")
    running = gamma(w, 1)
    b_prev = balance(w, 1, running)
    for t in range(2, 10_001):
        try:
            running += gamma(w, t)
        except OverflowError:
            break
        b_curr = balance(w, t, running)
        assert check_nonincrease(b_prev, b_curr, alpha(s, t - 1), alpha(s, t), p2)
        b_prev = b_curr
