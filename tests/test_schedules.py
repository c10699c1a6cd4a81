import math
import sys

import numpy as np
import pytest

from wagmf.schedules import (
    MomentumSchedule,
    StepSizeSchedule,
    WeightSchedule,
    alpha,
    beta1_at,
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


@pytest.mark.parametrize(
    "kind,base", [("inv_sqrt", 0.1), ("inv_sqrt", 1.0 / 3.0), ("inv_sqrt", 7e-3), ("constant", 0.1)]
)
def test_alpha_array_form_is_the_scalar_schedule_bit_for_bit(kind, base):
    s = StepSizeSchedule(base, kind)
    T = 10**6
    table = alpha(s, np.arange(1, T + 1))
    assert table.dtype == np.float64 and table.shape == (T,)
    assert table.tobytes() == per_round(alpha, s, T).tobytes()


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
    # (1/0.5)^t = 2^t overflows float64 past t = 1023; at t = 1024,
    # t * log(2) equals log(float max) to the last bit
    assert gamma(w, 1023) == 2.0**1023
    for t in (1024, 1025, 1100):
        with pytest.raises(OverflowError, match=rf"\(1/0.5\)\*\*{t} overflows float64"):
            gamma(w, t)


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
    # the schedule half of the analysis's step condition: with
    # alpha_t = alpha/sqrt(t) and W_t = sum_{i<=t} gamma_i, W_t**p2 / alpha_t
    # does not decrease for any numeric weight family at any t <= 1e4
    s = StepSizeSchedule(0.2, "inv_sqrt")
    running = gamma(w, 1)
    prev = running**p2 / alpha(s, 1)
    for t in range(2, 10_001):
        try:
            running += gamma(w, t)
            curr = running**p2 / alpha(s, t)
        except OverflowError:
            break
        assert curr >= prev
        prev = curr
