"""Gate for lockstep cells: run_rounds given a tuple of configs and seeds
runs them as the rows of one loop, with one oracle call per round (one per
seed on a minibatch oracle, on that seed's rows), and each row's trace and
final point must equal its own run bit for bit.  The stacked softmax core
behind that call must give every row the bytes of that row's own call."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from conftest import QUAD, UNEVEN_BOX, grid_outputs, same_bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wagmf import presets, runner, schedules
from wagmf.analysis import RunTrace
from wagmf.errors import NonFiniteGradient
from wagmf.problems import MinibatchOracle, RoundRng, SoftmaxObjective, gaussian_blobs
from wagmf.runner import LeanTrace, build_problem, parse_config, run, run_rounds


def reference_core(W, b, X, y, reg):
    """One point's loss and flat gradient in the 2-d (k, m) layout, operation
    for operation."""
    k, d = W.shape
    m = X.shape[0]
    Z = W @ X.T
    Z += b[:, None]
    Z -= Z.max(axis=0)
    P = np.exp(Z)
    denom = P.sum(axis=0)
    cols = np.arange(m)
    loss = float(np.mean(np.log(denom) - Z[y, cols]))
    P /= denom
    P[y, cols] -= 1.0
    P /= m
    grad = np.empty(k * d + k)
    np.matmul(P, X, out=grad[: k * d].reshape(k, d))
    np.sum(P, axis=1, out=grad[k * d :])
    if reg:
        loss += reg * float(np.sum(W * W))
        grad[: k * d] += (2.0 * reg) * W.ravel()
    return loss, grad


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 11),
    d=st.integers(1, 40),
    batch=st.integers(1, 40),
    batches=st.integers(1, 4),
    short=st.integers(0, 39),
    C=st.integers(1, 5),
    reg=st.sampled_from([0.0, 1e-3, 0.5]),
    scale=st.sampled_from([0.0, 0.3, 3.0, 1e3]),
    seed=st.integers(0, 2**16),
)
@example(k=3, d=2, batch=1, batches=3, short=0, C=4, reg=0.0, scale=0.3, seed=1)  # m = 1
@example(k=4, d=5, batch=7, batches=2, short=1, C=3, reg=0.5, scale=1e3, seed=2)  # last batch of 1
@example(k=1, d=3, batch=5, batches=2, short=2, C=3, reg=1e-3, scale=0.3, seed=4)  # one class
# exp underflows to exactly 0 on 147 logits of the first batch and 25 of the last
@example(k=6, d=12, batch=16, batches=2, short=3, C=2, reg=0.0, scale=1e3, seed=7)
def test_stacked_core_equals_per_point_calls(k, d, batch, batches, short, C, reg, scale, seed):
    # n is not a multiple of the batch when short > 0, so the epoch's last
    # batch is short; scale 1e3 makes logits in the thousands, where only
    # the max shift keeps exp finite
    n = max(k, batch * batches + short % batch)
    data = gaussian_blobs(n=n, d=d, k=k, seed=seed)
    oracle = MinibatchOracle(SoftmaxObjective(data, reg=reg), batch_size=batch)
    points = scale * np.random.default_rng(seed).standard_normal((C, oracle.dim))
    rng = RoundRng(seed)
    for t in (1, oracle.batches_per_epoch):  # a full batch and the epoch's last
        losses, grads = oracle.evaluate(t, points, rng)
        assert losses.shape == (C,) and grads.shape == (C, oracle.dim)
        idx = rng._perm[(t - 1) * oracle.batch_size : t * oracle.batch_size]
        for x, loss, grad in zip(points, losses, grads):
            one, g_one = oracle.evaluate(t, x, rng)
            assert isinstance(one, float)
            assert same_bits(loss, one) and same_bits(grad, g_one)
            W, b = x[: k * d].reshape(k, d), x[k * d :]
            ref, g_ref = reference_core(W, b, data.features[idx], data.labels[idx], reg)
            assert same_bits(loss, ref) and same_bits(grad, g_ref)
    full = oracle.full_loss(points)
    assert same_bits(full, [oracle.full_loss(x) for x in points])


def test_stacked_full_loss_chunks_keep_every_row(monkeypatch):
    data = gaussian_blobs(n=50, d=3, k=4, seed=2)
    oracle = MinibatchOracle(SoftmaxObjective(data, reg=1e-3), batch_size=8)
    points = np.random.default_rng(0).standard_normal((7, oracle.dim))
    whole = oracle.full_loss(points)
    import wagmf.problems as problems

    monkeypatch.setattr(problems, "_FULL_LOSS_LOGITS", 3 * 4 * 50)  # chunks of 3 rows
    assert same_bits(oracle.full_loss(points), whole)
    assert same_bits(whole, [oracle.full_loss(x) for x in points])


def softmax_problem(**kw):
    # 37 samples in batches of 8: four full batches and a short one of 5
    return {
        "kind": "softmax",
        "data": {"blobs": {"n": 37, "d": 3, "k": 4, "seed": 6}},
        "reg": 1e-3,
        "batch_size": 8,
        **kw,
    }


SETUPS = {
    "unconstrained": build_problem(softmax_problem()),
    "box": build_problem(softmax_problem(feasible={"lo": [-0.05] * 16, "hi": [0.05] * 16})),
    # x* outside the default box [-1, 1] in two coordinates, x0 drawn per seed
    "quadratic-box-random-x0": build_problem(QUAD),
    # bounds differ per coordinate, and x* lies outside them in the first two
    "quadratic-uneven-box-random-x0": build_problem(QUAD | {"feasible": UNEVEN_BOX}),
    "quadratic-unconstrained": build_problem(QUAD | {"x0": [0.9, -0.9, 0.0], "feasible": "unconstrained"}),
    # a config's softmax x0 is fixed, so the per-seed x0 is set on the setup
    "full-batch-box-random-x0": dataclasses.replace(
        build_problem(
            {
                "kind": "softmax",
                "data": softmax_problem()["data"],
                "reg": 1e-3,
                "feasible": {"lo": [-0.05] * 16, "hi": [0.05] * 16},
            }
        ),
        x0=None,
    ),
}
# every preset, plus Adam-style bias correction, in one block of mixed
# engines, each config with its own alpha
CASES = [(name, {}) for name in sorted(presets._TABLE)] + [
    ("adam", {"bias_correction": True}),
    ("amsgrad", {"bias_correction": True}),
    ("wada", {"lambda": 0.99}),
    ("adagrad", {"epsilon": 0}),
    ("nostalgic(0.5)", {}),
]
CONFIGS = tuple(presets.make_preset(name, 0.05 + 0.01 * k, o) for k, (name, o) in enumerate(CASES))
T = 23  # past the first epoch of five batches


@pytest.mark.parametrize("label", SETUPS)
def test_lockstep_cells_match_their_own_runs(label):
    # one loop of configs x seeds; on an oracle that draws, each round
    # evaluates each seed's rows with that seed's draws
    setup = SETUPS[label]
    seeds = (3, 11, 0)
    dense = run_rounds(setup, CONFIGS, T, seeds)
    lean = run_rounds(setup, CONFIGS, T, seeds, dense=False)
    assert len(dense) == len(lean) == len(CONFIGS) * len(seeds)
    pairs = [(cfg, seed) for cfg in CONFIGS for seed in seeds]  # configs outer
    for (cfg, seed), (trace, x_after), (record, x_lean) in zip(pairs, dense, lean):
        ref, x_ref = run_rounds(setup, cfg, T, seed)
        assert trace.seed == record.seed == seed
        for f in ("x", "g", "V", "loss", "alpha"):
            assert same_bits(getattr(trace, f), getattr(ref, f)), (cfg.engine, seed, f)
        assert same_bits(x_after, x_ref) and same_bits(x_lean, x_ref)
        assert isinstance(record, LeanTrace)
        assert same_bits(record.loss, ref.loss) and same_bits(record.alpha, ref.alpha)
        assert same_bits(record.x_T, ref.x[-1])
        assert same_bits(run_rounds(setup, cfg, T, seed, dense=False)[0].loss, ref.loss)


def count_steps(monkeypatch) -> list:
    """Wrap every engine's entry of ``presets.STEP_FN`` with a counter; the
    returned list holds one entry per step call."""
    calls = []
    for engine, fn in list(presets.STEP_FN.items()):

        def counted(*args, fn=fn, engine=engine):
            calls.append(engine)
            return fn(*args)

        monkeypatch.setitem(presets.STEP_FN, engine, counted)
    return calls


# every case above with an alpha grid of two or three step sizes, adagrad
# directly before rmsprop_avg (the same configuration, so one group), two
# constant-step cases, then adam, wada, adam: a repeat that is not adjacent
GRID_NAMES = sorted(set(presets._TABLE) - {"rmsprop_avg"})
GRID_NAMES.insert(GRID_NAMES.index("adagrad") + 1, "rmsprop_avg")
GRID_CASES = [(name, {}) for name in GRID_NAMES] + CASES[len(presets._TABLE) :] + [
    ("adam", {"step_kind": "constant"}),
    ("wada", {"step_kind": "constant"}),
]
GRID_CONFIGS = tuple(
    presets.make_preset(name, alpha, o)
    for k, (name, o) in enumerate(GRID_CASES)
    for alpha in (0.02, 0.05, 0.1)[: 2 + k % 2]
) + tuple(presets.make_preset(name, a) for name, a in (("adam", 0.07), ("wada", 0.07), ("adam", 0.03)))
GRID_GROUPS = len(GRID_CASES) - 1 + 3  # adagrad and rmsprop_avg share one


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("label", SETUPS)
def test_alpha_groups_match_their_own_runs(monkeypatch, label, S):
    # each run of configs equal apart from alpha steps as one state; every
    # pair's trace must still be its own run's, bit for bit
    setup = SETUPS[label]
    seeds = (3, 11, 0)[:S]
    calls = count_steps(monkeypatch)
    dense = run_rounds(setup, GRID_CONFIGS, T, seeds)
    assert len(calls) == GRID_GROUPS * T
    lean = run_rounds(setup, GRID_CONFIGS, T, seeds, dense=False)
    pairs = [(cfg, seed) for cfg in GRID_CONFIGS for seed in seeds]
    assert len(dense) == len(lean) == len(pairs)
    for (cfg, seed), (trace, x_after), (record, x_lean) in zip(pairs, dense, lean):
        ref, x_ref = run_rounds(setup, cfg, T, seed)
        for f in ("x", "g", "V", "loss", "alpha"):
            assert same_bits(getattr(trace, f), getattr(ref, f)), (cfg, seed, f)
        assert same_bits(trace.alpha, schedules.per_round(schedules.alpha, cfg.step, T))
        assert same_bits(x_after, x_ref) and same_bits(x_lean, x_ref)
        assert same_bits(record.loss, ref.loss) and same_bits(record.alpha, ref.alpha)
        assert same_bits(record.x_T, ref.x[-1])


def test_batch_orders_are_drawn_once_per_seed_and_epoch(monkeypatch):
    # three seeds alternate within every round; each seed's RoundRng keeps
    # its epoch's batch order, so none is redrawn, and the oracle that the
    # runs share keeps no state of them
    setup = SETUPS["unconstrained"]
    oracle = setup.oracle
    epochs = -(-T // oracle.batches_per_epoch)
    assert epochs >= 2
    before = dict(vars(oracle))
    drawn = []
    child = RoundRng.child

    def counted(self, k):
        drawn.append((self.seed, k))
        return child(self, k)

    monkeypatch.setattr(RoundRng, "child", counted)
    seeds = (3, 11, 0)
    run_rounds(setup, GRID_CONFIGS, T, seeds)
    assert sorted(drawn) == sorted((s, e) for s in seeds for e in range(epochs))
    after = vars(oracle)
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def test_step_calls_count_groups_not_configs(monkeypatch):
    # the benchmark's softmax grid: adam and wada with two alphas each, one
    # seed, so two steps and one evaluate per round
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    raw = {
        "problem": {
            "kind": "softmax",
            "data": {"blobs": {"n": 4000, "d": 64, "k": 10, "seed": 5}},
            "batch_size": 256,
        },
        "T": 50,
        "seeds": [9],
        "optimizers": [
            {"name": "adam", "alphas": [0.01, 0.03]},
            {"name": "wada", "alphas": [0.003, 0.01]},
        ],
    }
    config = parse_config(raw)
    evaluate = MinibatchOracle.evaluate
    evaluations = []

    def counted(self, *args):
        evaluations.append(args[0])
        return evaluate(self, *args)

    monkeypatch.setattr(MinibatchOracle, "evaluate", counted)
    calls = count_steps(monkeypatch)
    assert len(run(config)["runs"]) == 4
    assert calls == ["ema", "wagmf_stable"] * 50 and evaluations == list(range(1, 51))
    # four engines are four groups
    del calls[:]
    cfgs = tuple(presets.make_preset(name, 0.1) for name in ("adam", "wada", "amsgrad", "sgd"))
    run_rounds(SETUPS["quadratic-unconstrained"], cfgs, T, (0, 1))
    assert len(calls) == 4 * T


@pytest.mark.parametrize(
    "problem",
    [{"kind": "reddi_stochastic"}, {"kind": "softmax", "data": softmax_problem()["data"]}],
    ids=["array-path", "full-batch"],
)
def test_lean_records_match_dense_ones_off_the_lockstep_path(problem):
    # the one-row loop keeps the same columns; the linear array path returns
    # its full record, the dense run's bit for bit, whatever ``dense`` is
    setup = build_problem(problem)
    cfg = presets.make_preset("wada", 0.1)
    (ref, x_ref), (record, x_after) = (run_rounds(setup, cfg, 40, 2, dense=d) for d in (True, False))
    if setup.oracle.linear:
        assert isinstance(record, RunTrace) and record.seed == 2
        for f in ("x", "g", "V", "loss", "alpha"):
            assert same_bits(getattr(record, f), getattr(ref, f)), f
        assert same_bits(x_after, x_ref)
        return
    assert isinstance(record, LeanTrace) and record.seed == 2
    assert same_bits(record.loss, ref.loss) and same_bits(record.alpha, ref.alpha)
    assert same_bits(record.x_T, ref.x[-1]) and same_bits(x_after, x_ref)


def minibatch_raw(**kw):
    raw = {
        "problem": softmax_problem(),
        "T": 30,
        "seeds": [4, 1],
        "optimizers": [
            {"name": "adam", "alphas": [0.01, 0.1]},
            {"name": "wada", "alphas": [0.03]},
            {"name": "amsgrad", "alphas": [0.1]},
            "sgd",
            "sign_sgd",
        ],
    }
    return raw | kw


def test_minibatch_jobs_stack_cells_within_the_budget_and_the_pool(monkeypatch):
    config = parse_config(minibatch_raw())
    oracle = build_problem(config.problem).oracle
    cells = [(o["name"], a) for o in config.optimizers for a in o["alphas"]]
    seeds = tuple(config.seeds)

    def jobs(workers):
        got = runner._jobs(config, oracle, workers)
        assert [(c, s) for job_cells, job_seeds in got for c in job_cells for s in job_seeds] == [
            (c, s) for c in cells for s in seeds
        ]  # grid order
        return got

    assert jobs(1) == [(tuple(cells), seeds)]
    assert jobs(2) == [(tuple(cells[:3]), seeds), (tuple(cells[3:]), seeds)]
    assert len(jobs(6)) == 6
    # more workers than cells: one (cell, seed) per job
    assert jobs(7) == [((c,), (s,)) for c in cells for s in seeds]
    # lean rows count T values: two rows per job leave one cell per job
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", 2 * 30)
    assert jobs(1) == [((c,), seeds) for c in cells]
    # one cell's seeds overflow the budget: one (cell, seed) per job
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", 30)
    assert jobs(1) == [((c,), (s,)) for c in cells for s in seeds]
    # dense rows count T * d values
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", 4 * 30 * oracle.dim)
    dense = parse_config(minibatch_raw(out="unused"))
    assert runner._jobs(dense, oracle, 1) == [
        (tuple(cells[:2]), seeds),
        (tuple(cells[2:4]), seeds),
        (tuple(cells[4:]), seeds),
    ]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("threads", [None, "2"])
def test_lockstep_error_names_the_first_failing_cell(monkeypatch, threads):
    # with reg = 1 each step scales the weights by about alpha / sqrt(t):
    # alpha 1e100 overflows at round 5, alpha 1e10 only at round 37
    raw = {
        "problem": softmax_problem(reg=1.0),
        "T": 60,
        "optimizers": [{"name": "adam", "alphas": [0.1]}, {"name": "sgd", "alphas": [1e10, 1e100]}],
    }
    setup = build_problem(raw["problem"])
    cells = (("adam", 0.1), ("sgd", 1e10), ("sgd", 1e100))
    cfgs = tuple(presets.make_preset(name, alpha) for name, alpha in cells)
    for T, failing in ((4, ()), (5, (1e100,)), (36, (1e100,)), (37, (1e10, 1e100))):
        for (_, alpha), cfg in zip(cells, cfgs):
            try:
                run_rounds(setup, cfg, T, 0)
            except NonFiniteGradient:
                assert alpha in failing, (T, alpha)
            else:
                assert alpha not in failing, (T, alpha)
    # the lockstep block fails in round 5; rerun one at a time, the first
    # failing cell is the second, alpha 1e10
    with pytest.raises(NonFiniteGradient):
        runner._round_loop(setup, cfgs, 5, (0,))
    with pytest.raises(NonFiniteGradient) as first:
        run_rounds(setup, cfgs, 60, (0,))
    assert first.value.pair == 1
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    message = r"^sgd at alpha 1e\+10, seed 0: gradient contains NaN or Inf at round 37$"
    with pytest.raises(NonFiniteGradient, match=message):
        run(parse_config(raw))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("alphas", [[1.0, 1e10], [1e10, 1.0]], ids=["second-fails", "first-fails"])
def test_alpha_group_error_names_the_failing_alpha(monkeypatch, threads, alphas):
    # the two alphas of sgd step as one state; alpha 1e10 diverges and its
    # gradient is no longer finite at round 36, alpha 1 converges
    problem = QUAD | {"x0": [0.9, -0.9, 0.0], "feasible": "unconstrained"}
    raw = {"problem": problem, "T": 60, "seeds": [0, 1], "optimizers": [{"name": "sgd", "alphas": alphas}]}
    setup = build_problem(problem)
    cfgs = tuple(presets.make_preset("sgd", alpha) for alpha in alphas)
    with pytest.raises(NonFiniteGradient) as first:
        run_rounds(setup, cfgs, 60, (0, 1))
    assert first.value.pair == 2 * alphas.index(1e10)  # that alpha's seed 0
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    message = r"^sgd at alpha 1e\+10, seed 0: gradient contains NaN or Inf at round 36$"
    with pytest.raises(NonFiniteGradient, match=message):
        run(parse_config(raw))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("alphas", [[0.1, 1e10], [1e10, 0.1]], ids=["second-fails", "first-fails"])
def test_drawing_block_error_names_the_first_failing_seed(monkeypatch, threads, alphas):
    # one minibatch loop of two cells x two seeds, each seed drawing its own
    # batches; with reg = 1, alpha 1e10 overflows at round 37 on either seed
    problem = softmax_problem(reg=1.0)
    setup = build_problem(problem)
    cfgs = tuple(presets.make_preset("sgd", alpha) for alpha in alphas)
    seeds = (0, 1)
    for seed in seeds:
        with pytest.raises(NonFiniteGradient, match="round 37$"):
            run_rounds(setup, cfgs[alphas.index(1e10)], 60, seed)
        run_rounds(setup, cfgs[alphas.index(0.1)], 60, seed)
    with pytest.raises(NonFiniteGradient, match="round 37$"):
        runner._round_loop(setup, cfgs, 60, seeds)
    with pytest.raises(NonFiniteGradient, match="round 37$") as first:
        run_rounds(setup, cfgs, 60, seeds)
    assert first.value.pair == 2 * alphas.index(1e10)  # that alpha's seed 0
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    raw = {"problem": problem, "T": 60, "seeds": list(seeds), "optimizers": [{"name": "sgd", "alphas": alphas}]}
    message = r"^sgd at alpha 1e\+10, seed 0: gradient contains NaN or Inf at round 37$"
    with pytest.raises(NonFiniteGradient, match=message):
        run(parse_config(raw))


def test_lean_minibatch_grid_memory_stays_below_one_dense_trace():
    # four cells at T * d = 1000 * 1000: one cell's dense x alone is 8 MB,
    # and x, g and V of all four would be 96 MB
    raw = {
        "problem": {
            "kind": "softmax",
            "data": {"blobs": {"n": 64, "d": 99, "k": 10, "seed": 3}},
            "batch_size": 16,
        },
        "T": 1000,
        "optimizers": [
            {"name": "adam", "alphas": [0.01, 0.03]},
            {"name": "wada", "alphas": [0.003, 0.01]},
        ],
    }
    config = parse_config(raw)
    dim = build_problem(raw["problem"]).oracle.dim
    assert config.T * dim == 10**6
    tracemalloc.start()
    try:
        summary = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(summary["runs"]) == 4
    assert peak < config.T * dim * 8, peak


@pytest.mark.parametrize("with_out", [False, True], ids=["lean", "out"])
def test_minibatch_run_is_identical_across_worker_counts(monkeypatch, tmp_path, with_out):
    raw = minibatch_raw()
    out = tmp_path / "out" if with_out else None
    serial = grid_outputs(monkeypatch, raw, None, out)
    assert grid_outputs(monkeypatch, raw, "2", out) == serial
    runs = json.loads(serial[0])["runs"]
    assert [(r["optimizer"], r["alpha"], r["seed"]) for r in runs] == [
        (o["name"], a, s)
        for o in parse_config(raw).optimizers
        for a in o["alphas"]
        for s in raw["seeds"]
    ]
    if with_out:
        assert len(serial[1]) == 1 + 2 * 12  # summary.json plus a CSV and a .npy per cell
    # a lean run's results are the dense run's without the trace paths
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    lean = run(parse_config(minibatch_raw()))["runs"]
    dense = run(parse_config(minibatch_raw(out=str(tmp_path / "dense"))))["runs"]
    assert lean == [{k: v for k, v in r.items() if not k.startswith("trace_")} for r in dense]


@pytest.mark.parametrize("threads", [None, "2"])
def test_minibatch_full_loss_is_each_runs_own(monkeypatch, threads):
    # each cell's full-data losses come from one call on its stacked x_after
    # rows; every row must read its own run's one-row full_loss
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    config = parse_config(minibatch_raw())
    setup = build_problem(config.problem)
    runs = run(config)["runs"]
    assert len(runs) == 6 * 2
    for r in runs:
        cfg = presets.make_preset(r["optimizer"], r["alpha"])
        _, x_after = run_rounds(setup, cfg, config.T, r["seed"])
        assert same_bits(r["final_full_loss"], setup.oracle.full_loss(x_after))
        assert r["selection_metric"] == r["final_full_loss"]
