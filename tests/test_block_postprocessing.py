"""Post-processing a config's seeds as one block: the tuple form of
``thm1_bound`` (one beta1_t table and one momentum replay), the CSV rows
built around shared t and alpha_t text, the exact array forms of the
weights, the problem that ``parse_config`` builds once for ``run``, and the
uniform cache's size."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from wagmf import runner
from wagmf.analysis import BoundReport, RunTrace, thm1_bound
from wagmf.feasible import FeasibleSet
from wagmf.presets import make_preset
from wagmf.problems import RoundRng
from wagmf.runner import TRACE_HEADER, csv_row_text, parse_config, run, trace_row_indices, write_trace_csv
from wagmf.schedules import MomentumSchedule, WeightSchedule, beta1_at, gamma, per_round
from wagmf.steps import run_stream


def report_bits(rep: BoundReport) -> bytes:
    return np.array(astuple(rep)).tobytes()


def replay_thm1(trace, d_inf, beta1, lam):
    """The bound with m_t replayed round by round, as the step updates it."""
    mom = MomentumSchedule(beta1, lam)
    b1t = np.array([beta1_at(mom, t) for t in trace.t.tolist()])
    ms, m = np.empty_like(trace.g), np.zeros(trace.dim)
    for i, g in enumerate(trace.g):
        m = m * b1t[i] + (1.0 - b1t[i]) * g
        ms[i] = m
    d2 = d_inf * d_inf
    term1 = d2 / (2.0 * trace.alpha[-1] * (1.0 - beta1)) * float(trace.V[-1].sum())
    v_prev_sums = np.concatenate([[0.0], trace.V[:-1].sum(axis=1)])
    term2 = 0.5 * d2 * float(np.sum(b1t * v_prev_sums / ((1.0 - b1t) * trace.alpha)))
    m2_over_v = np.divide(ms * ms, trace.V, out=np.zeros_like(ms), where=trace.V > 0.0)
    term3 = float(np.sum(trace.alpha * m2_over_v.sum(axis=1))) / (1.0 - beta1)
    return BoundReport(term1, term2, term3, term1 + term2 + term3)


def block_traces(name, overrides, S, d, T=60):
    """S runs of preset ``name`` on gradient streams of mixed magnitudes
    whose columns start with runs of zeros (one column stays zero), so that
    with epsilon 0 the recorded V is 0 on those rounds."""
    cfg = make_preset(name, 0.3, overrides)
    fset = FeasibleSet.box([-1.0] * d, [1.0] * d)
    gen = np.random.default_rng([S, d, T])
    traces = []
    for k in range(S):
        G = gen.standard_normal((T, d)) * 10.0 ** gen.integers(-3, 3, (T, d))
        for j in range(d):
            G[: gen.integers(0, T // 2), j] = 0.0
        if k % 3 == 0:
            G[:, k % d] = 0.0
        path, V, alpha = run_stream(np.zeros(d), G, cfg, fset)
        traces.append(RunTrace(path[:T], G, gen.random(T), alpha, V, seed=k))
    return tuple(traces), cfg.momentum


@pytest.mark.parametrize("S, d", [(3, 1), (3, 5), (20, 1), (4, 5)])  # S*d <= 16 and > 16
@pytest.mark.parametrize("overrides", [{}, {"lambda": 0.99}, {"epsilon": 0.0}, {"lambda": 0.99, "epsilon": 0.0}])
@pytest.mark.parametrize("name", ["adamnc", "wada"])  # wagmf_sum and wagmf_stable
def test_thm1_tuple_matches_single_calls_and_a_round_by_round_replay(name, overrides, S, d):
    traces, mom = block_traces(name, overrides, S, d)
    if overrides.get("epsilon") == 0.0:
        assert any((tr.V == 0.0).any() for tr in traces)
    reports = thm1_bound(traces, 2.0, mom.beta1, mom.lam)
    assert isinstance(reports, list) and len(reports) == S
    for tr, rep in zip(traces, reports):
        single = thm1_bound(tr, 2.0, mom.beta1, mom.lam)
        assert isinstance(single, BoundReport)
        assert report_bits(rep) == report_bits(single)
        assert report_bits(rep) == report_bits(thm1_bound((tr,), 2.0, mom.beta1, mom.lam)[0])
        assert report_bits(rep) == report_bits(replay_thm1(tr, 2.0, mom.beta1, mom.lam))


def test_thm1_tuple_needs_one_horizon():
    (short,), mom = block_traces("wada", {}, 1, 2, T=30)
    (long,), _ = block_traces("wada", {}, 1, 2, T=40)
    with pytest.raises(ValueError):
        thm1_bound((short, long), 2.0, mom.beta1, mom.lam)


# ---------------------------------------------------------------- CSV rows


def csv_row_by_row(trace, avg_regret):
    """The CSV text with one ``"%d,%.17g,..."`` format per row."""
    idx = trace_row_indices(trace.T)
    x_norm = np.sqrt((trace.x[idx] ** 2).sum(axis=1))
    g_norm = np.sqrt((trace.g[idx] ** 2).sum(axis=1))
    avg = avg_regret[idx] if avg_regret is not None else np.full(idx.size, math.nan)
    cols = (trace.t[idx], trace.loss[idx], avg, x_norm, g_norm, trace.alpha[idx])
    rows = zip(*(c.tolist() for c in cols))
    return TRACE_HEADER + "\n" + "".join("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)


@pytest.mark.parametrize("with_regret", [True, False])
@pytest.mark.parametrize("T", [1, 7, 128, 129, runner._MAX_TRACE_ROWS + 3])
def test_csv_bytes_with_own_and_shared_row_text(tmp_path, T, with_regret):
    gen = np.random.default_rng(T)
    alpha = 0.3 / np.sqrt(np.arange(1, T + 1))

    def trace():
        x, g, V = (gen.standard_normal((T, 3)) for _ in range(3))
        x[gen.integers(T), 1], g[-1, 0] = -0.0, math.inf
        return RunTrace(x, g, gen.standard_normal(T) * 1e5, alpha, np.abs(V))

    a, b = trace(), trace()  # two seeds of one config: the same t and alpha_t
    avg = gen.standard_normal(T) if with_regret else None
    expected = csv_row_by_row(a, avg).encode()
    write_trace_csv(a, tmp_path / "own.csv", avg)
    write_trace_csv(a, tmp_path / "shared.csv", avg, csv_row_text(b))
    assert (tmp_path / "own.csv").read_bytes() == expected
    assert (tmp_path / "shared.csv").read_bytes() == expected


# ---------------------------------------------------------------- weights


@pytest.mark.parametrize("weight", [WeightSchedule.equal(), WeightSchedule.linear()])
def test_exact_weight_arrays_match_the_scalar_table(weight):
    T = 10**6
    table = gamma(weight, np.arange(1, T + 1))
    assert table.dtype == np.float64 and table.tobytes() == per_round(gamma, weight, T).tobytes()


@pytest.mark.parametrize(
    "weight", [WeightSchedule.exponential(0.999), WeightSchedule.hyper_harmonic(0.5)]
)
def test_pow_weight_arrays_are_the_scalar_table(weight):
    T = 5000
    assert gamma(weight, np.arange(1, T + 1)).tobytes() == per_round(gamma, weight, T).tobytes()


# ---------------------------------------------------------------- set-up


def test_run_takes_the_problem_parse_config_built(monkeypatch):
    built = []
    real = runner.build_problem
    monkeypatch.setattr(runner, "build_problem", lambda cfg: built.append(cfg) or real(cfg))
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    raw = {
        "problem": {"kind": "quadratic", "dim": 3, "instance_seed": 1},
        "optimizers": [{"name": "wada", "alphas": [0.1, 0.5]}],
        "seeds": [0, 1],
        "T": 40,
        "bound_eval": True,
    }
    config = parse_config(raw)
    assert len(built) == 1
    summary = run(config)
    assert len(built) == 1  # the serial run reused the problem
    assert run(config) == summary and len(built) == 2  # a further run builds its own
    # a problem table changed after parsing is built again, and used
    config = parse_config(raw)
    config.problem["instance_seed"] = 2
    changed = run(config)
    assert len(built) == 4
    assert changed == run(parse_config(dict(raw, problem=dict(raw["problem"], instance_seed=2))))
    assert changed != summary


# ---------------------------------------------------------------- uniforms


def test_uniform_cache_grows_to_the_next_power_of_two():
    full = RoundRng(5).uniforms(20_000)
    for T, size in [(1, 1), (2, 2), (3, 4), (6000, 8192), (8193, 16384)]:
        rng = RoundRng(5)
        u = rng.uniforms(T)
        assert rng._uniforms.size == size
        assert u.tobytes() == full[:T].tobytes()
