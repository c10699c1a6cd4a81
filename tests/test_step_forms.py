"""Property test: T calls of ``steps.step`` and one ``steps.run_stream`` on
the same gradient stream agree bit for bit, for every engine, at d > 1 and
on streams with exact zeros (the epsilon = 0, V = 0 branch), and on both
sides of ``steps._scan``'s column limit.  ``steps._descent``, the clipped
descent of the array form, agrees bit for bit with the scalar loop it
replaced, across its search blocks and at signed-zero and infinite bounds."""

import numpy as np
import pytest
from conftest import same_bits
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wagmf import presets, schedules, steps
from wagmf.errors import NonFiniteGradient
from wagmf.feasible import FeasibleSet
from wagmf.problems import ReddiStochastic, RoundRng
from wagmf.schedules import STEP_KINDS, MomentumSchedule, StepSizeSchedule, WeightSchedule
from wagmf.steps import _SCAN_COLUMNS, ENGINES, OptimizerConfig, _descent, init_state, run_stream, step

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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_step_loop_equals_run_stream_bit_for_bit(case):
    cfg, G, x1, fset = case
    state = init_state(x1, cfg)
    xs, Vs, alphas = [state.x.copy()], [], []
    for t, g in enumerate(G, 1):
        step(state, g, cfg, fset)
        xs.append(state.x.copy())
        Vs.append(state.last_V.copy())
        alphas.append(schedules.alpha(cfg.step, t))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("engine", ENGINES)
def test_both_forms_name_the_same_nonfinite_gradient_round(engine, bad):
    weight = WeightSchedule.exponential(0.99) if engine in ("ema", "amsgrad") else WeightSchedule.linear()
    cfg = OptimizerConfig(
        weight=weight,
        step=StepSizeSchedule(0.1),
        momentum=MomentumSchedule(0.9),
        p2=4 if engine == "wagmf_stable" else 2,
        engine=engine,
    )
    G = np.random.default_rng(3).standard_normal((12, 3))
    G[6, 2] = bad  # round 7, and a later round too
    G[9, 0] = np.nan
    fset = FeasibleSet.box(np.full(3, -1.0), np.full(3, 1.0))
    message = r"^gradient contains NaN or Inf at round 7$"
    with pytest.raises(NonFiniteGradient, match=message):
        run_stream(np.zeros(3), G, cfg, fset)
    state = init_state(np.zeros(3), cfg)
    with pytest.raises(NonFiniteGradient, match=message):
        for g in G:
            step(state, g, cfg, fset)
    assert state.t == 6


def scalar_descent(x, steps, lo, hi):
    """The clipped descent over Python floats, one round at a time: x, then
    x <- clip(x - s, lo, hi) for each step s, with ties keeping x - s; no
    clip when lo is None.  ``_descent`` must reproduce it bit for bit."""
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


def expected_descent(x, steps, lo, hi):
    return np.fromiter(scalar_descent(x, steps.tolist(), lo, hi), np.float64, len(steps) + 1)


# steps: dyadic values and signed zeros (drawn most often, with the dyadic
# bounds and starts below, so running sums land exactly on a bound), any
# float in [-2, 2], and the infinities and NaN
EXACT_STEPS = st.sampled_from([0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 0.0, -0.0])
STEPS = st.one_of(EXACT_STEPS, EXACT_STEPS, st.floats(-2.0, 2.0), st.sampled_from([np.inf, -np.inf, np.nan]))
BOUNDS = [-np.inf, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.inf]
# (first search block, largest block): the module's own, then blocks far
# shorter than the runs below, so pinned and free stretches cross many
BLOCKS = [(steps._DESCENT_BLOCK, steps._DESCENT_BLOCK_MAX), (1, 1), (1, 4), (2, 8), (3, 5)]


@st.composite
def descents(draw):
    # the steps come in runs of one value, so pinned runs outlast the blocks
    runs = draw(st.lists(st.tuples(STEPS, st.integers(1, 40)), max_size=24))
    s = np.array([v for v, n in runs for _ in range(n)], dtype=np.float64)
    x = draw(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan]))
    lo = hi = None
    if draw(st.integers(0, 5)):  # no box in one case of six
        lo, hi = sorted(draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2)))
    return x, s, lo, hi, draw(st.sampled_from(BLOCKS))


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(descents())
def test_descent_equals_the_scalar_loop_bit_for_bit(case):
    x, s, lo, hi, (first, largest) = case
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(steps, "_DESCENT_BLOCK", first)
        mp.setattr(steps, "_DESCENT_BLOCK_MAX", largest)
        path = _descent(x, s, lo, hi)
    assert same_bits(expected_descent(x, s, lo, hi), path)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.0, 0.0), (0.0, 0.0)])
def test_descent_pinned_longer_than_the_largest_block(lo, hi):
    # at the module's own block sizes: runs pinned at each bound for more
    # than _DESCENT_BLOCK_MAX rounds, each left by a zero step and by a
    # step that moves x off the bound and back
    n = steps._DESCENT_BLOCK_MAX + 3
    s = np.concatenate([[0.75], np.full(n, 0.5), [-0.0, -0.25, 0.0], np.full(n, -0.5), [0.0, 0.25, -0.25, 3.0]])
    assert same_bits(expected_descent(0.25, s, lo, hi), _descent(0.25, s, lo, hi))


@pytest.mark.parametrize("name, alpha", [("adam", 1.0), ("wada", 0.1), ("amsgrad", 1.0), ("sgd", 1.0)])
def test_spike_stream_run_stream_equals_the_step_loop(name, alpha):
    # 6000 rounds cross many of the descent's search blocks; each config
    # reaches a bound of [-1, 1] at least ten times
    G = ReddiStochastic().gradients(6000, RoundRng(7))
    cfg = presets.make_preset(name, alpha)
    fset = FeasibleSet.box([-1.0], [1.0])
    state = init_state(np.zeros(1), cfg)
    xs = [state.x.copy()]
    for g in G:
        xs.append(step(state, g, cfg, fset).x.copy())
    path = run_stream(np.zeros(1), G, cfg, fset)[0]
    assert same_bits(xs, path)
    at_bound = np.abs(path[:, 0]) == 1.0
    assert np.count_nonzero(at_bound[1:] & ~at_bound[:-1]) >= 10
