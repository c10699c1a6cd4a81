"""Property test: T calls of ``steps.step`` and one ``steps.run_stream`` on
the same gradient stream agree bit for bit, for every engine, at d > 1 and
on streams with exact zeros (the epsilon = 0, V = 0 branch), and on both
sides of ``steps._scan``'s column limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wagmf.feasible import FeasibleSet
from wagmf.schedules import STEP_KINDS, MomentumSchedule, StepSizeSchedule, WeightSchedule
from wagmf.steps import _SCAN_COLUMNS, ENGINES, OptimizerConfig, init_state, run_stream, step

BETA2 = st.floats(0.5, 0.999)
WEIGHTS = st.one_of(
    st.just(WeightSchedule.equal()),
    st.just(WeightSchedule.linear()),
    BETA2.map(WeightSchedule.exponential),
    st.floats(0.0, 2.0).map(WeightSchedule.hyper_harmonic),
)
GRADS = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


@st.composite
def cases(draw):
    engine = draw(st.sampled_from(ENGINES))
    p2 = draw(st.integers(1, 4))
    if engine == "wagmf_stable":
        weight, p2 = WeightSchedule.linear(), 4
    elif engine in ("ema", "amsgrad"):
        weight = WeightSchedule.exponential(draw(BETA2))
    else:
        weight = draw(WEIGHTS)
    cfg = OptimizerConfig(
        weight=weight,
        step=StepSizeSchedule(draw(st.floats(1e-3, 10.0)), draw(st.sampled_from(STEP_KINDS))),
        momentum=MomentumSchedule(draw(st.floats(0.0, 0.99)), draw(st.sampled_from([1.0, 0.9]))),
        p1=draw(st.integers(1, 4)),
        p2=p2,
        epsilon=draw(st.sampled_from([0.0, 1e-7])),
        engine=engine,
        bias_correction=engine in ("ema", "amsgrad") and draw(st.booleans()),
    )
    T, d = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    G = draw(arrays(np.float64, (T, d), elements=GRADS))
    x1 = draw(arrays(np.float64, d, elements=st.floats(-2.0, 2.0)))
    fset = FeasibleSet.unconstrained()
    if draw(st.booleans()):
        lo = draw(arrays(np.float64, d, elements=st.floats(-2.0, 0.0)))
        fset = FeasibleSet.box(lo, lo + draw(arrays(np.float64, d, elements=st.floats(0.0, 3.0))))
    return cfg, G, x1, fset


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_step_loop_equals_run_stream_bit_for_bit(case):
    cfg, G, x1, fset = case
    state = init_state(x1, cfg)
    xs, Vs, alphas = [state.x.copy()], [], []
    for g in G:
        step(state, g, cfg, fset)
        xs.append(state.x.copy())
        Vs.append(state.last_V.copy())
        alphas.append(state.last_alpha)
    path, V, alpha = run_stream(x1, G, cfg, fset)
    assert same_bits(xs, path)
    assert same_bits(Vs, V)
    assert same_bits(alphas, alpha)


@pytest.mark.parametrize("lam", [1.0, 0.99])
@pytest.mark.parametrize("d", [17, 40])
@pytest.mark.parametrize("engine", ENGINES)
def test_wide_streams_equal_the_step_loop_bit_for_bit(engine, d, lam):
    # the hypothesis cases stop at d = 4, inside _scan's column pass
    assert d > _SCAN_COLUMNS
    weight = {
        "wagmf_stable": WeightSchedule.linear(),
        "ema": WeightSchedule.exponential(0.99),
        "amsgrad": WeightSchedule.exponential(0.99),
    }.get(engine, WeightSchedule.linear())
    cfg = OptimizerConfig(
        weight=weight,
        step=StepSizeSchedule(0.1),
        momentum=MomentumSchedule(0.9, lam),
        p1=3 if engine == "wagmf_sum" else 2,
        p2=4 if engine == "wagmf_stable" else 2,
        engine=engine,
        bias_correction=engine == "amsgrad",
    )
    rng = np.random.default_rng(d)
    G = rng.standard_normal((200, d))
    G[rng.random(G.shape) < 0.1] = 0.0
    fset = FeasibleSet.box(np.full(d, -0.5), np.full(d, 0.5))
    x1 = rng.uniform(-0.5, 0.5, d)
    state = init_state(x1, cfg)
    xs, Vs = [state.x.copy()], []
    for g in G:
        step(state, g, cfg, fset)
        xs.append(state.x.copy())
        Vs.append(state.last_V.copy())
    path, V, _ = run_stream(x1, G, cfg, fset)
    assert same_bits(xs, path)
    assert same_bits(Vs, V)
