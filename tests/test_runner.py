"""Orchestration tests: problem construction, the round loop, trace files,
config validation, grid selection, significance, and determinism across
worker counts."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wagmf
from wagmf import runner
from wagmf.analysis import RunTrace
from wagmf.errors import ConfigError, InsufficientSeeds, NonFinitePreconditioner
from wagmf.problems import MinibatchOracle, Quadratic
from wagmf.runner import (
    ExperimentConfig,
    TRACE_HEADER,
    build_problem,
    initial_point,
    parse_config,
    run,
    run_rounds,
    select_best,
    significance,
    trace_row_indices,
    validate_config,
    write_trace_csv,
    write_trace_npy,
)
from wagmf.runner import _worker_count
from wagmf import presets, steps

from conftest import QUAD as BOXED_QUAD


QUAD = {"kind": "quadratic", "a_diag": [1.0, 2.0], "x_star": [0.25, -0.5], "x0": [0.0, 0.0]}


def minimal_raw(**kw):
    raw = {
        "problem": dict(QUAD),
        "optimizers": [{"name": "adagrad", "alphas": [0.5]}],
        "T": 50,
    }
    raw.update(kw)
    return raw


# ---------------------------------------------------------------------------
# build_problem


def test_build_problem_reddi_defaults():
    setup = build_problem({"kind": "reddi_stochastic"})
    assert setup.feasible.is_box
    assert np.array_equal(setup.feasible.lo, [-1.0])
    assert np.array_equal(setup.feasible.hi, [1.0])
    assert np.array_equal(setup.x0, [0.0])
    assert np.array_equal(setup.oracle.known_optimum, [-1.0])


def test_build_problem_quadratic_explicit():
    setup = build_problem(dict(QUAD))
    assert isinstance(setup.oracle, Quadratic)
    assert np.array_equal(setup.oracle.known_optimum, [0.25, -0.5])
    assert setup.name == "quadratic"
    named = build_problem({**QUAD, "name": "toy"})
    assert named.name == "toy"


def test_build_problem_quadratic_random_instance_is_deterministic():
    a = build_problem({"kind": "quadratic", "dim": 4, "instance_seed": 7})
    b = build_problem({"kind": "quadratic", "dim": 4, "instance_seed": 7})
    c = build_problem({"kind": "quadratic", "dim": 4, "instance_seed": 8})
    assert np.array_equal(a.oracle.a, b.oracle.a)
    assert np.array_equal(a.oracle.known_optimum, b.oracle.known_optimum)
    assert not np.array_equal(a.oracle.a, c.oracle.a)
    # curvatures stay in the generator's documented range
    assert np.all(a.oracle.a >= 0.5) and np.all(a.oracle.a <= 2.0)


def test_build_problem_softmax_blobs():
    setup = build_problem(
        {
            "kind": "softmax",
            "data": {"blobs": {"n": 30, "d": 3, "k": 2, "seed": 1}},
            "reg": 1e-3,
        }
    )
    assert setup.oracle.dim == (3 + 1) * 2
    assert setup.oracle.known_optimum is None
    assert not setup.feasible.is_box


def test_build_problem_rejects_bad_configs():
    with pytest.raises(ConfigError):
        build_problem({"kind": "escalator"})
    with pytest.raises(ConfigError):
        build_problem(["not", "a", "table"])
    with pytest.raises(ConfigError):
        build_problem({"kind": "quadratic", "a_diag": [1.0, -1.0], "x_star": [0.0, 0.0]})
    with pytest.raises(ConfigError):
        build_problem({**QUAD, "x0": [0.0, 0.0, 0.0]})  # wrong dimension
    with pytest.raises(ConfigError):
        build_problem({"kind": "softmax", "data": {}})
    with pytest.raises(ConfigError):
        # per-seed random start needs a bounded box to draw from
        build_problem(
            {"kind": "quadratic", "a_diag": [1.0], "x_star": [0.0], "feasible": "unconstrained"}
        )


SOFTMAX = {"kind": "softmax", "data": {"blobs": {"n": 20, "d": 2, "k": 2}}}
ONLINE = {"kind": "reddi_online"}


def blobs(**kw):
    return {"kind": "softmax", "data": {"blobs": {"n": 20, "d": 2, "k": 2, **kw}}}


@pytest.mark.parametrize(
    "table, message",
    [
        ({"kind": "quadratic", "dim": 2.7}, "dim: 2.7 is not an integer"),
        ({"kind": "quadratic", "dim": True}, "dim: True is not an integer"),
        ({"kind": "quadratic", "dim": 0}, "dim must be >= 1, got 0"),
        ({"kind": "quadratic", "instance_seed": -1}, "instance_seed must be >= 0, got -1"),
        ({"kind": "quadratic", "instance_seed": "3"}, "instance_seed: '3' is not an integer"),
        (blobs(n=20.9), "bad blobs spec: n: 20.9 is not an integer"),
        (blobs(d=True), "bad blobs spec: d: True is not an integer"),
        (blobs(k=0), "bad blobs spec: k must be >= 1, got 0"),
        (blobs(seed=-1), "bad blobs spec: seed must be >= 0, got -1"),
        (blobs(spread="2"), "bad blobs spec: spread: '2' is not a finite number"),
        (blobs(center_scale=True), "bad blobs spec: center_scale: True is not a finite number"),
        ({**SOFTMAX, "batch_size": True}, "batch_size: True is not an integer"),
        ({**SOFTMAX, "batch_size": "4"}, "batch_size: '4' is not an integer"),
        ({**SOFTMAX, "batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({**SOFTMAX, "batch_size": -1}, "batch_size must be >= 1, got -1"),
        ({**SOFTMAX, "reg": "0.1"}, "reg: '0.1' is not a finite number"),
        ({**SOFTMAX, "reg": math.nan}, "reg: nan is not a finite number"),
        ({**SOFTMAX, "reg": -1}, "reg must be >= 0, got -1"),
        ({**ONLINE, "x0": ["0.5"]}, "x0: '0.5' is not a finite number"),
        ({**ONLINE, "x0": [True]}, "x0: True is not a finite number"),
        ({**ONLINE, "x0": [math.nan]}, "x0: nan is not a finite number"),
        ({**ONLINE, "x0": []}, "x0 must be a non-empty list of finite numbers, got []"),
        ({**QUAD, "x0": [0.0, "0"]}, "x0: '0' is not a finite number"),
        ({**SOFTMAX, "x0": [True] * 6}, "x0: True is not a finite number"),
        (
            {**ONLINE, "feasible": {"lo": ["-1"], "hi": [True]}},
            "bad feasible set: lo: '-1' is not a finite number",
        ),
        (
            {**ONLINE, "feasible": {"lo": [-1.0], "hi": [True]}},
            "bad feasible set: hi: True is not a finite number",
        ),
        (
            {"kind": "quadratic", "a_diag": ["1"], "x_star": [True]},
            "bad quadratic problem: a_diag: '1' is not a finite number",
        ),
        (
            {"kind": "quadratic", "a_diag": [1.0], "x_star": [True]},
            "bad quadratic problem: x_star: True is not a finite number",
        ),
        (
            {"kind": "quadratic", "a_diag": [1, 2], "x_star": [0, 0], "dim": 5},
            "bad quadratic problem: 'dim' cannot go with 'a_diag' and 'x_star'",
        ),
        (
            {"kind": "quadratic", "a_diag": [1], "x_star": [0], "instance_seed": 3},
            "bad quadratic problem: 'instance_seed' cannot go with 'a_diag' and 'x_star'",
        ),
        ({"kind": "quadratic", "a_diag": [1.0]}, "bad quadratic problem: missing 'x_star'"),
        ({"kind": "quadratic", "x_star": [0.0], "dim": 1}, "bad quadratic problem: missing 'a_diag'"),
        ({**ONLINE, "name": 5}, "problem name must be a string, got 5"),
        ({"kind": ["softmax"]}, "unknown problem kind ['softmax']"),
        (
            {"kind": "softmax", "data": {"path": "x.csv", "format": "parquet"}},
            "cannot load dataset: unknown dataset format 'parquet'",
        ),
        ({"kind": "softmax", "data": {"path": 5}}, "dataset path must be a string, got 5"),
        (
            {"kind": "softmax", "data": {"blobs": {"n": 20, "d": 2, "k": 2}, "path": "x.csv"}},
            "dataset spec takes either 'blobs' or 'path' and 'format', not both",
        ),
        (
            {"kind": "softmax", "data": {"blobs": {"n": 20, "d": 2, "k": 2}, "format": "csv"}},
            "dataset spec takes either 'blobs' or 'path' and 'format', not both",
        ),
        ({"kind": "softmax", "data": {"blobs": 5}}, "bad blobs spec: blobs must be a table, got 5"),
        ({"kind": "quadratic", "dimm": 3}, "unknown quadratic problem keys: ['dimm']"),
        ({**SOFTMAX, "batchsize": 4}, "unknown softmax problem keys: ['batchsize']"),
        ({**ONLINE, "dim": 3}, "unknown reddi_online problem keys: ['dim']"),
        (blobs(sead=3), "bad blobs spec: unknown blobs keys: ['sead']"),
        (
            {"kind": "softmax", "data": {"blobs": {"n": 20, "d": 2, "k": 2}, "shuffle": True}},
            "unknown data keys: ['shuffle']",
        ),
        (
            {**ONLINE, "feasible": {"lo": [-1.0], "hi": [1.0], "mid": [0.0]}},
            "bad feasible set: unknown feasible keys: ['mid']",
        ),
        (
            {**ONLINE, "feasible": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
            "box has shape (2,), problem dimension is 1",
        ),
        (
            {"kind": "quadratic", "dim": 3, "feasible": {"lo": [-1.0], "hi": [1.0]}},
            "box has shape (1,), problem dimension is 3",
        ),
        # a problem name starts each trace file's name under out
        (
            {**ONLINE, "name": "../escaped"},
            "problem name must not contain a path separator or NUL, got '../escaped'",
        ),
        (
            {**ONLINE, "name": "a/b"},
            "problem name must not contain a path separator or NUL, got 'a/b'",
        ),
        (
            {**ONLINE, "name": "a\0b"},
            "problem name must not contain a path separator or NUL, got 'a\\x00b'",
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_problem_tables_reject_values_they_used_to_coerce(table, message):
    # each of these was truncated, coerced, run full-batch, silently
    # ignored, or escaped as a bare ValueError, TypeError or AttributeError
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_problem(table)


def test_integral_problem_values_build_the_same_problem():
    a = build_problem({"kind": "quadratic", "dim": 3.0, "instance_seed": 2.0})
    b = build_problem({"kind": "quadratic", "dim": 3, "instance_seed": 2})
    assert np.array_equal(a.oracle.a, b.oracle.a)
    mb = build_problem({**SOFTMAX, "batch_size": 4.0, "reg": 0})
    assert mb.oracle.batch_size == 4 and mb.oracle.objective.reg == 0.0


# ---------------------------------------------------------------------------
# initial points and the round loop


def test_initial_point_fixed_x0_is_copied():
    setup = build_problem(dict(QUAD))
    p = initial_point(setup, seed=0)
    p[0] = 99.0
    assert setup.x0[0] == 0.0


def test_initial_point_random_draw_is_seeded_and_feasible():
    setup = build_problem({"kind": "quadratic", "dim": 3, "instance_seed": 0})
    assert setup.x0 is None
    a = initial_point(setup, seed=5)
    b = initial_point(setup, seed=5)
    c = initial_point(setup, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= setup.feasible.lo) and np.all(a <= setup.feasible.hi)


def test_run_rounds_trace_contents():
    setup = build_problem(dict(QUAD))
    preset = presets.make_preset("adagrad", 0.5)
    trace, x_after = run_rounds(setup, preset, T=20, seed=3)
    assert np.array_equal(trace.t, np.arange(1, 21))
    assert trace.x.shape == (20, 2) and trace.g.shape == (20, 2)
    # inverse-sqrt schedule recorded per round
    assert np.allclose(trace.alpha, 0.5 / np.sqrt(np.arange(1, 21)))
    # the held point continues one update past the last traced iterate
    assert not np.array_equal(x_after, trace.x[-1])
    # losses match the oracle at the traced iterates
    for i in (0, 7, 19):
        loss, _ = setup.oracle.evaluate(int(trace.t[i]), trace.x[i], None)
        assert loss == trace.loss[i]


def test_run_rounds_is_reproducible():
    setup = build_problem({"kind": "reddi_stochastic"})
    preset = presets.make_preset("wada", 0.1)
    t1, x1 = run_rounds(setup, preset, T=200, seed=11)
    t2, x2 = run_rounds(setup, preset, T=200, seed=11)
    assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.g, t2.g)
    assert np.array_equal(x1, x2)
    t3, _ = run_rounds(setup, preset, T=200, seed=12)
    assert not np.array_equal(t1.g, t3.g)


def test_run_rounds_rejects_bad_horizon():
    setup = build_problem(dict(QUAD))
    preset = presets.make_preset("adagrad", 0.5)
    with pytest.raises(ValueError):
        run_rounds(setup, preset, T=0)


# ---------------------------------------------------------------------------
# trace files


def test_trace_row_indices_small_horizon_keeps_every_row():
    idx = trace_row_indices(1000)
    assert np.array_equal(idx, np.arange(1000))


def test_trace_row_indices_subsamples_large_horizon():
    T = 250_000
    idx = trace_row_indices(T)
    stride = math.ceil(T / 100_000)
    assert stride == 3
    assert idx[0] == 0 and idx[-1] == T - 1
    assert np.all(np.diff(idx[:-1]) == stride)
    assert idx.size <= 100_000 + 1


def make_trace(T=10, d=2, seed=0):
    gen = np.random.default_rng(seed)
    return RunTrace(
        gen.standard_normal((T, d)),
        gen.standard_normal((T, d)),
        gen.random(T),
        1.0 / np.sqrt(np.arange(1, T + 1)),
        np.ones((T, d)),
        seed=seed,
    )


def test_write_trace_csv_header_and_roundtrip(tmp_path):
    trace = make_trace(T=12)
    avg = np.linspace(1.0, 0.5, 12)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, avg)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER == "t,loss,avg_regret,x_norm,g_norm,alpha_t"
    assert len(lines) == 13
    t5 = lines[5].split(",")
    assert int(t5[0]) == 5
    assert float(t5[1]) == trace.loss[4]
    assert float(t5[2]) == avg[4]
    assert float(t5[3]) == pytest.approx(np.sqrt((trace.x[4] ** 2).sum()), rel=1e-15)
    assert float(t5[5]) == trace.alpha[4]


def test_write_trace_csv_without_regret_emits_nan(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(make_trace(), path, None)
    row = path.read_text().strip().split("\n")[1].split(",")
    assert math.isnan(float(row[2]))


def test_write_trace_npy_rows(tmp_path):
    trace = make_trace(T=6, d=3)
    path = tmp_path / "trace.npy"
    write_trace_npy(trace, path)
    rec = np.load(path, allow_pickle=False)
    assert rec.dtype == npy_dtype(3) and rec.shape == (6,)
    assert rec["t"].tolist() == list(range(1, 7))
    for name in ("x", "g", "V", "loss", "alpha"):
        assert np.array_equal(rec[name], getattr(trace, name)), name


def test_npy_sidecar_loads_without_pickle(tmp_path):
    # a record covering a d = 16 trace holds no object field, so it loads
    # with pickling off
    trace = make_trace(T=300, d=runner._SIDECAR_MAX_DIM)
    write_trace_npy(trace, tmp_path / "t.npy")
    rec = np.load(tmp_path / "t.npy", allow_pickle=False)
    assert not rec.dtype.hasobject
    assert rec.dtype.names == ("t", "x", "g", "V", "loss", "alpha")
    assert rec["x"].shape == (300, 16)
    assert np.array_equal(rec["x"], trace.x)


def reference_csv(trace, avg_regret):
    """The CSV text, value by value."""
    idx = trace_row_indices(trace.T)
    x_norm = np.sqrt((trace.x[idx] ** 2).sum(axis=1))
    g_norm = np.sqrt((trace.g[idx] ** 2).sum(axis=1))
    avg = avg_regret[idx] if avg_regret is not None else np.full(idx.size, math.nan)
    lines = [TRACE_HEADER + "\n"]
    for row, i in enumerate(idx):
        lines.append(
            f"{trace.t[i]},{trace.loss[i]:.17g},{avg[row]:.17g},"
            f"{x_norm[row]:.17g},{g_norm[row]:.17g},{trace.alpha[i]:.17g}\n"
        )
    return "".join(lines)


def npy_dtype(d):
    return np.dtype(
        [("t", "<i8"), ("x", "<f8", (d,)), ("g", "<f8", (d,)), ("V", "<f8", (d,)), ("loss", "<f8"), ("alpha", "<f8")]
    )


def reference_npy(trace):
    """The record built row by row, and the bytes of ``np.save`` of it."""
    idx = trace_row_indices(trace.T)
    rec = np.empty(idx.size, npy_dtype(trace.dim))
    for row, i in enumerate(idx):
        rec[row] = (trace.t[i], trace.x[i], trace.g[i], trace.V[i], trace.loss[i], trace.alpha[i])
    buf = io.BytesIO()
    np.save(buf, rec, allow_pickle=False)
    return rec, buf.getvalue()


def assert_same_bits(a, b):
    """Equal fields, compared as bit patterns so NaN payloads and -0.0 count."""
    assert a.dtype == b.dtype and a.shape == b.shape
    for name in a.dtype.names:
        assert np.array_equal(a[name].view(np.uint64), b[name].view(np.uint64)), name


def assert_writers_match_reference(trace, avg_regret, write_rows):
    csv = reference_csv(trace, avg_regret).encode()
    rec, npy = reference_npy(trace)
    with tempfile.TemporaryDirectory() as tmp:
        for rows in write_rows:
            with mock.patch.object(runner, "_WRITE_ROWS", rows):
                write_trace_csv(trace, Path(tmp) / "t.csv", avg_regret)
                write_trace_npy(trace, Path(tmp) / "t.npy")
            assert (Path(tmp) / "t.csv").read_bytes() == csv
            assert (Path(tmp) / "t.npy").read_bytes() == npy
            assert_same_bits(np.load(Path(tmp) / "t.npy", allow_pickle=False), rec)


# non-finite values, signed zero, subnormals, and where repr and .17g switch
# to exponent form
EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308,
    1e-5, 9.999999999999999e-05, 1e-4, 1e16, 9999999999999998.0, 1e17, -1e17,
]
trace_values = st.one_of(st.floats(), st.sampled_from(EDGE_VALUES))


@st.composite
def traces(draw):
    T = draw(st.integers(1, 30))
    d = draw(st.integers(1, 16))
    x, g = (draw(arrays(np.float64, (T, d), elements=trace_values)) for _ in range(2))
    loss, alpha = (draw(arrays(np.float64, T, elements=trace_values)) for _ in range(2))
    avg = draw(st.none() | arrays(np.float64, T, elements=trace_values))
    V = draw(arrays(np.float64, (T, d), elements=trace_values))
    return RunTrace(x, g, loss, alpha, V), avg


@pytest.mark.filterwarnings("ignore:overflow")
@settings(max_examples=60, deadline=None)
@given(traces())
def test_trace_writers_match_the_value_by_value_text(case):
    trace, avg = case
    assert_writers_match_reference(trace, avg, (1, 7, trace.T))


def test_trace_writers_match_the_value_by_value_text_past_the_row_cap():
    # stride 2 over T = 100002 rounds, plus the final round appended
    trace = make_trace(T=runner._MAX_TRACE_ROWS + 2, d=3)
    trace.x[4, 1], trace.g[-1, 0], trace.loss[-1] = math.nan, -math.inf, 1e16
    assert trace_row_indices(trace.T)[-2:].tolist() == [100_000, 100_001]
    assert_writers_match_reference(trace, np.linspace(2.0, 1e-5, trace.T), (runner._WRITE_ROWS,))


def test_npy_writer_memory_stays_bounded(tmp_path):
    # 83335 rows of 50 values: one whole record would be 34 MB
    T, d = 250_001, 16
    gen = np.random.default_rng(0)
    x, g = gen.standard_normal((T, d)), gen.standard_normal((T, d))
    trace = RunTrace(x, g, gen.random(T), np.ones(T), np.broadcast_to(1.0, (T, d)))
    tracemalloc.start()
    try:
        write_trace_npy(trace, tmp_path / "t.npy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row index and its copy in np.append (0.7 MB each) set the peak; one
    # whole x column of the subsample would be 10.7 MB
    assert peak < 4 * 2**20


def test_cells_write_traces_through_the_module_functions(monkeypatch, tmp_path):
    # the benchmark's tracer times trace I/O by patching the writers by name
    calls = []

    def counted(name):
        real = getattr(runner, name)

        def write(trace, path, *args):
            calls.append((name, Path(path).name))
            real(trace, path, *args)

        return write

    for name in ("write_trace_csv", "write_trace_npy"):
        monkeypatch.setattr(runner, name, counted(name))
    config = parse_config(minimal_raw(out=str(tmp_path), seeds=[0, 1, 2]))
    results = runner._execute_job(config, ((("adagrad", 0.5),), (0, 1, 2)))
    stems = [f"quadratic__adagrad__a0.5__s{s}" for s in (0, 1, 2)]
    assert sorted(calls) == sorted(
        [("write_trace_csv", f"{s}.csv") for s in stems]
        + [("write_trace_npy", f"{s}.npy") for s in stems]
    )
    assert [Path(r["trace_csv"]).stem for r in results] == stems


# the names perfbench/tracer.py wraps that a grid reaches: (config keys, its
# oracle's class, the runner names only that grid reaches); every grid runs
# each engine, so it reaches each STEP_FN entry
EVERY_ENGINE = ["sgd", "sign_sgd", "adagrad", "adam", "amsgrad", "wada"]
TRACED_GRIDS = {
    "quadratic": (
        {
            "problem": {"kind": "quadratic", "dim": 3, "instance_seed": 1},
            "overrides": {"lambda": 0.99},
            "bound_eval": True,
        },
        Quadratic,
        ("regret", "thm1_bound", "corollary1_bound", "write_trace_csv"),
    ),
    "minibatch": (
        {"problem": {"kind": "softmax", "data": {"blobs": {"n": 30, "d": 3, "k": 3}}, "batch_size": 8}},
        MinibatchOracle,
        (),
    ),
}


@pytest.mark.parametrize("grid", sorted(TRACED_GRIDS))
def test_serial_run_reaches_every_traced_name(monkeypatch, tmp_path, grid):
    # the tracer times a layer by wrapping its name; a job that stops calling
    # one (say, run_rounds on a non-linear oracle) blanks that layer's metrics
    # while every output stays right.  Evaluate, step and project count only
    # inside run_rounds, whose span the tracer charges them to.
    keys, oracle_cls, only_here = TRACED_GRIDS[grid]
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    calls, open_spans = {}, []

    def count(real, label, in_rounds=False):
        calls[label] = 0

        def counted(*args, **kwargs):
            calls[label] += not in_rounds or "runner.run_rounds" in open_spans
            open_spans.append(label)
            try:
                return real(*args, **kwargs)
            finally:
                open_spans.pop()

        return counted

    for name in ("run_rounds", "build_problem", *only_here):
        monkeypatch.setattr(runner, name, count(getattr(runner, name), f"runner.{name}"))
    monkeypatch.setattr(presets, "make_preset", count(presets.make_preset, "presets.make_preset"))
    monkeypatch.setattr(steps, "project", count(steps.project, "steps.project", True))
    for engine, step in list(presets.STEP_FN.items()):
        monkeypatch.setitem(presets.STEP_FN, engine, count(step, f"presets.STEP_FN[{engine}]", True))
    label = f"{oracle_cls.__name__}.evaluate"
    monkeypatch.setattr(oracle_cls, "evaluate", count(oracle_cls.evaluate, label, True))

    raw = keys | {"optimizers": EVERY_ENGINE, "T": 20, "seeds": [0, 1]}
    if "write_trace_csv" in only_here:
        raw["out"] = str(tmp_path)
    run(parse_config(raw))
    assert [label for label, n in calls.items() if n == 0] == []


# ---------------------------------------------------------------------------
# config parsing / validation


def test_parse_config_minimal():
    cfg = parse_config(minimal_raw())
    assert cfg.T == 50
    assert cfg.seeds == [0]
    assert cfg.optimizers == [{"name": "adagrad", "alphas": [0.5]}]


def test_parse_config_normalizes_string_optimizers():
    cfg = parse_config(minimal_raw(optimizers=["adagrad", "wada"]))
    assert cfg.optimizers == [
        {"name": "adagrad", "alphas": [0.1]},
        {"name": "wada", "alphas": [0.1]},
    ]


@pytest.mark.parametrize(
    "mutation",
    [
        {"T": None},
        {"T": "many"},
        {"T": 0},
        {"optimizers": []},
        {"optimizers": [{"alphas": [0.1]}]},
        {"optimizers": [{"name": "adagrad", "alphas": []}]},
        {"optimizers": [{"name": "adagrad", "alphas": [0.1, -0.5]}]},
        {"seeds": []},
        {"seeds": [1, 1]},
        {"seeds": [-3]},
        {"seeds": ["x"]},
        {"overrides": "beta1=0"},
        {"checkpoints": [0]},
        {"checkpoints": [999]},
        {"surprise": True},
        {"overrides": {"debug_checks": True}},
        {"optimizers": [{"name": "adagrad", "alphas": [0.1, math.nan]}]},
    ],
)
def test_parse_config_rejects(mutation):
    raw = minimal_raw()
    raw.update(mutation)
    raw = {k: v for k, v in raw.items() if v is not None}
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"T": 2.7}, "T: 2.7 is not an integer"),
        ({"T": True}, "T: True is not an integer"),
        ({"seeds": [1.9]}, "seeds: 1.9 is not an integer"),
        ({"checkpoints": [1.5]}, "checkpoints: 1.5 is not an integer"),
        ({"optimizers": [{"name": "adagrad", "alphas": [True]}]}, "non-numeric alpha"),
        ({"bound_eval": "false"}, "bound_eval must be true or false"),
        ({"significance": "false", "seeds": [0, 1]}, "significance must be true or false"),
        ({"overrides": {"epsilon": "x"}}, "override 'epsilon' must be a number"),
        ({"overrides": {"beta1": "0.5"}}, "override 'beta1' must be a number"),
        ({"overrides": {"lambda": True}}, "override 'lambda' must be a number"),
        ({"overrides": {"p1": True}}, "override 'p1' must be an integer"),
        ({"overrides": {"bias_correction": "false"}}, "override 'bias_correction' must be true"),
        ({"out": 5}, "out must be a string, got 5"),
        ({"optimizers": [{"name": 5}]}, "bad optimizer entry {'name': 5}: needs a string 'name'"),
        (
            {"optimizers": [{"name": "adam", "alpha": [0.3]}]},
            "unknown optimizer 'adam' keys: ['alpha']",
        ),
        (
            {"optimizers": [{"name": "wada", "alphas": [0.1, 0.1000001]}]},
            "optimizer 'wada' has alphas 0.1 and 0.1000001, which share the label '0.1'",
        ),
        (
            {"optimizers": [{"name": "wada", "alphas": [0.1, 0.5, 0.1]}]},
            "optimizer 'wada' has alphas 0.1 and 0.1, which share the label '0.1'",
        ),
        (
            {
                "optimizers": [
                    {"name": "wada", "alphas": [0.5]},
                    {"name": "wada", "alphas": [0.2, 0.5]},
                ]
            },
            "optimizer 'wada' has alphas 0.5 and 0.5, which share the label '0.5'",
        ),
        ({"checkpoints": 10}, "checkpoints must be a list"),
    ],
)
def test_parse_config_rejects_values_it_used_to_coerce(mutation, message):
    # each of these was truncated, coerced, silently ignored, or escaped as a
    # bare TypeError
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(minimal_raw(**mutation))


def test_integral_numbers_parse_as_ints():
    cfg = parse_config(minimal_raw(T=50.0, seeds=[1.0, 2], checkpoints=[1e1]))
    assert (cfg.T, cfg.seeds, cfg.checkpoints) == (50, [1, 2], [10])
    assert all(type(v) is int for v in [cfg.T, *cfg.seeds, *cfg.checkpoints])


def test_parse_config_requires_core_keys():
    for key in ("problem", "optimizers", "T"):
        raw = minimal_raw()
        del raw[key]
        with pytest.raises(ConfigError):
            parse_config(raw)


def test_validate_config_checks_presets_and_modes():
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(optimizers=[{"name": "nesterov", "alphas": [0.1]}]))
    with pytest.raises(ConfigError):
        # bound evaluation needs a bounded feasible set
        parse_config(
            minimal_raw(
                problem={
                    "kind": "softmax",
                    "data": {"blobs": {"n": 20, "d": 2, "k": 2}},
                },
                bound_eval=True,
            )
        )
    with pytest.raises(ConfigError):
        parse_config(minimal_raw(significance=True, seeds=[0]))
    with pytest.raises(ConfigError, match="checkpoints need a problem with a known optimum"):
        # checkpoints record the average regret, which softmax cannot
        parse_config(
            minimal_raw(
                problem={"kind": "softmax", "data": {"blobs": {"n": 20, "d": 2, "k": 2}}},
                checkpoints=[10],
            )
        )
    setup = validate_config(parse_config(minimal_raw()))
    assert setup.oracle.dim == 2


def adam_sum_raw(T):
    return minimal_raw(
        problem={"kind": "reddi_stochastic"},
        optimizers=[{"name": "adam", "alphas": [0.1]}],
        overrides={"engine": "wagmf_sum"},
        T=T,
    )


def test_exponential_weight_overflow_fails_at_parse_time():
    # the running sum of (1/0.999)**t overflows float64 first at t = 702524,
    # the weight itself at t = 709428
    assert parse_config(adam_sum_raw(702_523)).T == 702_523
    for T in (702_524, 709_428):
        with pytest.raises(ConfigError, match="'adam'"):
            parse_config(adam_sum_raw(T))


def test_exponential_weight_overflow_edge_names_the_weight():
    # beta2 = 0.5: gamma_1024 = 2**1024 overflows, where a test on
    # t * log(1/beta2) passed it on to a bare "Numerical result out of range"
    raw = adam_sum_raw(1024)
    raw["overrides"]["beta2"] = 0.5
    with pytest.raises(ConfigError, match=r"'adam'.*\(1/0.5\)\*\*1024 overflows float64"):
        parse_config(raw)


@pytest.mark.parametrize("alpha", ["x", None])
def test_non_numeric_alpha_names_its_optimizer(alpha):
    raw = minimal_raw(optimizers=[{"name": "adagrad", "alphas": [0.1, alpha]}])
    with pytest.raises(ConfigError, match="optimizer 'adagrad' has a non-numeric alpha"):
        parse_config(raw)


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_preconditioner_names_its_round():
    # the weight sum stays finite, but sum_i gamma_i g_i^2 with |g| up to
    # 1010 overflows, and V_t turns infinite at round 693328 on this stream
    cfg = parse_config(adam_sum_raw(700_000))
    with pytest.raises(NonFinitePreconditioner, match="round 693328"):
        run(cfg)


def test_checkpoints_are_sorted_and_recorded():
    cfg = parse_config(minimal_raw(checkpoints=[40, 10]))
    assert cfg.checkpoints == [10, 40]
    summary = run(cfg)
    at = summary["runs"][0]["avg_regret_at"]
    assert set(at) == {"10", "40"}
    assert at["40"] < at["10"]  # average regret shrinks on this easy problem


# ---------------------------------------------------------------------------
# execution, selection, significance


def test_run_summary_shape_and_selection_metric():
    cfg = parse_config(
        minimal_raw(
            optimizers=[
                {"name": "adagrad", "alphas": [0.1, 0.5]},
                {"name": "wada", "alphas": [0.5]},
            ],
            seeds=[0, 1],
        )
    )
    summary = run(cfg)
    assert len(summary["runs"]) == 3 * 2
    for r in summary["runs"]:
        assert r["selection_metric"] == r["final_avg_regret"]
        assert len(r["final_x"]) == 2
    best = summary["best"]
    assert set(best) == {"adagrad", "wada"}
    grid = best["adagrad"]["grid"]
    assert set(grid) == {"0.1", "0.5"}
    assert best["adagrad"]["metric"] == min(grid.values())


def test_select_best_breaks_ties_toward_smaller_alpha():
    results = [
        {"optimizer": "o", "alpha": 0.5, "seed": 0, "selection_metric": 1.0},
        {"optimizer": "o", "alpha": 0.1, "seed": 0, "selection_metric": 1.0},
    ]
    assert select_best(results)["o"]["alpha"] == 0.1


def test_horizon_one_ties_resolve_to_smallest_alpha():
    # after a single round the selection metric only depends on x0, so every
    # alpha in the grid scores identically
    cfg = parse_config(
        minimal_raw(T=1, optimizers=[{"name": "adagrad", "alphas": [2.0, 0.25, 0.5]}])
    )
    assert run(cfg)["best"]["adagrad"]["alpha"] == 0.25


def test_significance_table_and_seed_guard():
    cfg = parse_config(
        minimal_raw(
            optimizers=[
                {"name": "adagrad", "alphas": [0.5]},
                {"name": "sgd", "alphas": [0.5]},
            ],
            seeds=[0, 1, 2],
            significance=True,
            problem={"kind": "quadratic", "dim": 3, "instance_seed": 2},
        )
    )
    summary = run(cfg)
    cell = summary["significance"]["adagrad vs sgd"]
    assert 0.0 <= cell["p"] <= 1.0
    assert cell["significant"] == (cell["p"] < 0.05)

    lone = [{"optimizer": "o", "alpha": 0.1, "seed": 0, "selection_metric": 1.0}]
    with pytest.raises(InsufficientSeeds):
        significance(lone, select_best(lone))


def test_softmax_minibatch_selects_on_full_batch_loss():
    cfg = parse_config(
        minimal_raw(
            problem={
                "kind": "softmax",
                "data": {"blobs": {"n": 40, "d": 3, "k": 2, "seed": 4}},
                "reg": 1e-3,
                "batch_size": 8,
            },
            optimizers=[{"name": "adagrad", "alphas": [0.5]}],
            T=30,
        )
    )
    summary = run(cfg)
    r = summary["runs"][0]
    assert r["selection_metric"] == r["final_full_loss"]
    assert "final_avg_regret" not in r


def test_bound_eval_reports_terms_or_skips(tmp_path):
    cfg = parse_config(
        minimal_raw(
            optimizers=[
                {"name": "wada", "alphas": [0.5]},
                {"name": "adam", "alphas": [0.5]},
            ],
            overrides={"lambda": 0.99},
            bound_eval=True,
            T=40,
        )
    )
    summary = run(cfg)
    by_name = {r["optimizer"]: r for r in summary["runs"]}
    wada_bounds = by_name["wada"]["bounds"]
    assert wada_bounds["thm1"]["total"] == pytest.approx(
        wada_bounds["thm1"]["term1"]
        + wada_bounds["thm1"]["term2"]
        + wada_bounds["thm1"]["term3"]
    )
    # wada with decayed momentum also gets the closed-form bound
    assert wada_bounds["corollary1"]["total"] > 0.0
    assert set(wada_bounds["thm1"]) == {"term1", "term2", "term3", "total"}
    assert set(wada_bounds["corollary1"]) == {"term1", "term2", "term3", "total", "g_inf"}
    assert "skipped" in by_name["adam"]["bounds"]


@pytest.mark.parametrize(
    "name, overrides",
    [("wada", {}), ("wada_v3", {}), ("wada_v4", {}), ("wada", {"p1": 3}), ("wada", {"step_kind": "constant"})],
)
def test_corollary1_only_where_its_closed_form_was_derived(name, overrides):
    # the closed form assumes p1 = 2, p2 = 4 and alpha_t = alpha / sqrt(t);
    # every other config of the analyzed family keeps thm1 alone
    cfg = parse_config(
        minimal_raw(
            optimizers=[{"name": name, "alphas": [0.5]}],
            overrides={"lambda": 0.99, **overrides},
            bound_eval=True,
            T=40,
        )
    )
    bounds = run(cfg)["runs"][0]["bounds"]
    assert "thm1" in bounds
    assert ("corollary1" in bounds) == (name == "wada" and not overrides)


def test_regret_compares_with_the_best_feasible_point(tmp_path):
    # BOXED_QUAD's x* lies outside the default box [-1, 1] in two coordinates;
    # the diagonal quadratic's minimizer on the box is x* clipped to it
    T = 2000
    summary = run(
        parse_config(
            {
                "problem": BOXED_QUAD,
                "T": T,
                "seeds": [0],
                "checkpoints": [T // 2],
                "optimizers": [{"name": n, "alphas": [0.1, 0.5]} for n in ("wada", "adam", "amsgrad")],
                "out": str(tmp_path),
            }
        )
    )
    oracle = build_problem(BOXED_QUAD).oracle
    f_best, _ = oracle.evaluate(1, np.clip(BOXED_QUAD["x_star"], -1.0, 1.0))
    t = np.arange(1, T + 1)
    for r in summary["runs"]:
        loss = np.load(r["trace_npy"])["loss"]
        avg = np.cumsum(loss - f_best) / t
        assert r["final_avg_regret"] == avg[-1] and r["avg_regret_at"] == {str(T // 2): avg[T // 2 - 1]}
        csv = np.loadtxt(r["trace_csv"], delimiter=",", skiprows=1)
        assert np.array_equal(csv[:, 2], avg)
        assert 0.0 <= avg[-1] < 0.1


def test_output_directory_layout(tmp_path):
    out = tmp_path / "results"
    cfg = parse_config(minimal_raw(out=str(out), seeds=[0, 1]))
    run(cfg)
    files = sorted(p.name for p in out.iterdir())
    assert "summary.json" in files
    assert "quadratic__adagrad__a0.5__s0.csv" in files
    assert "quadratic__adagrad__a0.5__s1.npy" in files
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["best"]["adagrad"]["alpha"] == 0.5


def test_high_dimensional_runs_skip_npy_sidecar(tmp_path):
    out = tmp_path / "results"
    cfg = parse_config(
        minimal_raw(
            problem={
                "kind": "softmax",
                "data": {"blobs": {"n": 30, "d": 4, "k": 4, "seed": 0}},
            },
            out=str(out),
            T=10,
        )
    )
    summary = run(cfg)
    r = summary["runs"][0]
    assert "trace_csv" in r and "trace_npy" not in r
    assert "final_x" not in r  # dim 20 > the sidecar limit
    assert not list(out.glob("*.npy"))


def test_grid_search_returns_best_only():
    cfg = parse_config(
        minimal_raw(optimizers=[{"name": "adagrad", "alphas": [0.1, 0.5, 2.0]}])
    )
    best = run(cfg)["best"]
    assert set(best) == {"adagrad"}
    assert best["adagrad"]["alpha"] in (0.1, 0.5, 2.0)


# ---------------------------------------------------------------------------
# determinism across worker counts


def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("WAGMF_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("WAGMF_THREADS", "zero")
    with pytest.raises(ConfigError):
        _worker_count()
    monkeypatch.setenv("WAGMF_THREADS", "0")
    with pytest.raises(ConfigError):
        _worker_count()


def test_pool_has_no_more_workers_than_jobs(monkeypatch):
    # the fork context starts every worker at the first submit, so a pool
    # wider than the grid would fork processes that never get a job
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
    raw = minimal_raw(optimizers=[{"name": "adagrad", "alphas": [0.1, 0.5]}], T=10)
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    serial = run(parse_config(raw))
    assert sizes == []
    monkeypatch.setenv("WAGMF_THREADS", "8")
    assert run(parse_config(raw)) == serial
    monkeypatch.setenv("WAGMF_THREADS", "2")
    run(parse_config({**raw, "optimizers": [{"name": "adagrad", "alphas": [0.1, 0.5, 2.0]}]}))
    assert sizes == [2, 2]


def test_run_is_identical_across_worker_counts(monkeypatch, tmp_path):
    # pool workers read out, bound_eval and checkpoints from the config they
    # are handed; wada with lambda < 1 also runs corollary 1
    out = tmp_path / "out"
    raw = minimal_raw(
        optimizers=[{"name": "adagrad", "alphas": [0.1, 0.5]}, {"name": "wada", "alphas": [0.5]}],
        seeds=[0, 1],
        T=30,
        out=str(out),
        bound_eval=True,
        checkpoints=[10, 30],
        overrides={"lambda": 0.99},
    )

    def files():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    serial = run(parse_config(raw))
    serial_files = files()
    for threads in ("2", "3"):
        monkeypatch.setenv("WAGMF_THREADS", threads)
        pooled = run(parse_config(raw))
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)
        assert files() == serial_files
    assert len(serial_files) == 1 + 2 * 6  # summary.json plus a CSV and a .npy per cell
    runs = serial["runs"]
    assert all("avg_regret_at" in r and "thm1" in r["bounds"] for r in runs)
    assert sum("corollary1" in r["bounds"] for r in runs) == 2

    # a dim-5 bound_eval grid with trace files, whose configs replay momentum
    # over S*d = 20 columns (steps._scan's row pass), at lambda 1 and 0.99
    out = tmp_path / "wide"
    for lam in (1.0, 0.99):
        wide = dict(
            raw,
            problem={"kind": "quadratic", "dim": 5, "instance_seed": 1},
            optimizers=[{"name": "wada", "alphas": [0.5]}, {"name": "adamnc", "alphas": [0.1, 0.2]}],
            seeds=[0, 1, 2, 3],
            overrides={"lambda": lam},
            out=str(out),
        )
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
        serial = json.dumps(run(parse_config(wide)), sort_keys=True)
        serial_files = files()
        assert len(serial_files) == 1 + 2 * 12
        for threads in ("2", "3"):
            monkeypatch.setenv("WAGMF_THREADS", threads)
            assert json.dumps(run(parse_config(wide)), sort_keys=True) == serial
            assert files() == serial_files


def test_cells_sharing_a_minibatch_oracle_match_fresh_ones():
    # serial cells share one oracle and its epoch-permutation cache; every
    # cell here stays in epoch 0, so a cache that ignored the seed would
    # hand seed 1 the permutation of seed 0
    def raw(seeds):
        return minimal_raw(
            problem={
                "kind": "softmax",
                "data": {"blobs": {"n": 60, "d": 3, "k": 3, "seed": 4}},
                "batch_size": 16,
            },
            optimizers=[{"name": "adam", "alphas": [0.1, 0.3]}, {"name": "wada", "alphas": [0.1]}],
            seeds=seeds,
            T=3,
        )

    shared = run(parse_config(raw([0, 1])))["runs"]
    for seed in (0, 1):
        alone = run(parse_config(raw([seed])))["runs"]
        assert [r for r in shared if r["seed"] == seed] == alone


def test_scipy_loads_only_for_significance():
    script = (
        "import sys\n"
        "import wagmf\n"
        "from wagmf.runner import parse_config, run\n"
        "raw = {'problem': {'kind': 'quadratic', 'dim': 2}, 'T': 20, 'seeds': [0, 1],\n"
        "       'optimizers': [{'name': 'adagrad', 'alphas': [0.5]}, 'sgd']}\n"
        "run(parse_config(raw))\n"
        "print('scipy' in sys.modules)\n"
        "summary = run(parse_config(dict(raw, significance=True)))\n"
        "print('scipy' in sys.modules, 0.0 <= summary['significance']['adagrad vs sgd']['p'] <= 1.0)\n"
    )
    src = str(Path(wagmf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("WAGMF_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["False", "True True"]


def test_repeat_runs_write_identical_summaries(tmp_path):
    raws = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = parse_config(minimal_raw(out=str(out), seeds=[0, 1], T=25))
        run(cfg)
        text = (out / "summary.json").read_text().replace(str(out), "OUT")
        raws.append(text)
    assert raws[0] == raws[1]
