"""Gate for the array path that linear oracles take through run_rounds: it
must reproduce the per-round STEP_FN loop bit for bit, for one config or
for a whole grid on one drawn stream per seed, whose scans its configs
share read-only, one config's arrays at a time."""

import copy
import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from conftest import grid_outputs, same_bits

from wagmf import presets, runner, steps
from wagmf.errors import NonFinitePreconditioner
from wagmf.problems import ReddiOnline, ReddiStochastic, RoundRng
from wagmf.runner import build_problem, parse_config, run, run_rounds

T = 2000
SEEDS = (5, 31)

# (preset, overrides): every preset bare, then the overrides that change
# which branch of an engine runs
CASES = [(name, {}) for name in presets.preset_names() + ["nostalgic(0.5)"]]
CASES += [
    (name, o)
    for o in ({"lambda": 0.99}, {"epsilon": 0}, {"step_kind": "constant"}, {"p1": 3}, {"p2": 3})
    for name in presets.preset_names() + ["nostalgic(0.5)"]
    if not (o == {"p2": 3} and name.startswith("wada"))  # wagmf_stable needs p2 = 4
]
CASES += [
    ("adam", {"bias_correction": True}),
    ("amsgrad", {"bias_correction": True}),
    ("adam", {"engine": "wagmf_sum"}),
]

SETUPS = {
    f"{kind}-{feas or 'box'}": build_problem({"kind": kind} | ({"feasible": feas} if feas else {}))
    for kind in ("reddi_stochastic", "reddi_online")
    for feas in (None, "unconstrained")
}


def per_round(setup):
    """The same problem with its oracle marked non-linear, so run_rounds
    takes the per-round loop."""
    oracle = copy.copy(setup.oracle)
    oracle.linear = False
    return dataclasses.replace(setup, oracle=oracle)


@pytest.mark.parametrize("name,overrides", CASES, ids=[f"{n}{o or ''}" for n, o in CASES])
def test_array_path_matches_per_round_loop(name, overrides):
    preset = presets.make_preset(name, 0.1, overrides)
    for label, setup in SETUPS.items():
        # the online stream ignores the seed
        for seed in SEEDS if setup.oracle.stochastic else SEEDS[:1]:
            fast, x_fast = run_rounds(setup, preset, T, seed)
            ref, x_ref = run_rounds(per_round(setup), preset, T, seed)
            for f in ("x", "g", "V", "loss", "alpha"):
                assert same_bits(getattr(fast, f), getattr(ref, f)), (label, seed, f)
            assert same_bits(x_fast, x_ref), (label, seed)


GRID_T = 200  # five or more spikes on every stream
GRID_ALPHAS = (0.1, 0.3)
NAMES = sorted(presets._TABLE) + ["nostalgic(0.5)"]
# overrides that change which branch of an engine runs, each with the
# presets it applies to
GRID_CASES = [
    ({}, NAMES),
    ({"lambda": 0.99}, NAMES),
    ({"epsilon": 0}, NAMES),
    ({"step_kind": "constant"}, NAMES),
    ({"bias_correction": True}, ["adam", "amsgrad"]),
]


@pytest.mark.parametrize("overrides,names", GRID_CASES, ids=[str(o) for o, _ in GRID_CASES])
def test_alpha_grid_matches_each_pair_and_the_per_round_loop(overrides, names):
    # alphas outer, so the configs that share a stream build interleave and
    # every tuple mixes engines (adam with wada, and the rest)
    cfgs = tuple(presets.make_preset(n, a, overrides) for a in GRID_ALPHAS for n in names)
    for label, setup in SETUPS.items():
        runs = run_rounds(setup, cfgs, GRID_T, SEEDS)
        assert len(runs) == len(cfgs) * len(SEEDS)
        pairs = [(c, s) for c in cfgs for s in SEEDS]
        refs = {}
        for (c, s), (trace, x_after) in zip(pairs, runs):
            assert trace.seed == s
            own, x_own = run_rounds(setup, c, GRID_T, s)
            # the online stream ignores the seed: one reference serves both
            key = (c, s if setup.oracle.stochastic else None)
            if key not in refs:
                refs[key] = run_rounds(per_round(setup), c, GRID_T, s)
            ref, x_ref = refs[key]
            for f in ("x", "g", "V", "loss", "alpha"):
                got = getattr(trace, f)
                assert same_bits(got, getattr(own, f)), (label, c, s, f)
                assert same_bits(got, getattr(ref, f)), (label, c, s, f)
            assert same_bits(x_after, x_own) and same_bits(x_after, x_ref), (label, c, s)


def test_grid_traces_share_read_only_g_and_V():
    setup = SETUPS["reddi_stochastic-box"]
    cfgs = tuple(presets.make_preset("adam", a) for a in GRID_ALPHAS)
    (a, _), (b, _) = run_rounds(setup, cfgs, GRID_T, 3)
    assert a.g is b.g and a.V is b.V
    assert not np.array_equal(a.x, b.x)
    for f in ("g", "V"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, f)[0, 0] = 0.0


# a mixed grid of configs that read the same scans and configs that differ
# in one key of them: every preset bare, then the overrides that change the
# momentum key (lambda, beta1) or the running-average key (beta2, p1), and
# three that share both scans but change what follows them: no epsilon, a
# bias divisor, or the root of order 1, which must copy.
# Neighbours never read the same set of scans, so each scan is shared
# across a distance.
SHARING = [(name, {}) for name in NAMES]
SHARING += [
    ("adam", {"epsilon": 0}),
    ("sgd", {"lambda": 0.99}),
    ("amsgrad", {"epsilon": 0}),
    ("rmsprop", {"lambda": 0.99}),
    ("adam", {"bias_correction": True}),
    ("wada", {"lambda": 0.99}),
    ("amsgrad", {"bias_correction": True}),
    ("adam", {"lambda": 0.99}),
    ("wada", {"epsilon": 0}),
    ("adam", {"p2": 1}),
]
SHARING += [(name, {"beta1": 0.5}) for name in ("adam", "sgd", "amsgrad", "wada")]
SHARING += [(name, {"beta2": 0.99}) for name in ("adam", "rmsprop", "amsgrad")]
SHARING += [(name, {"p1": 3}) for name in ("adam", "wada", "amsgrad", "rmsprop")]


def scan_keys(cfg):
    """The keys of the scans ``cfg`` reads from its stream: its momentum
    schedule, and its running average's (weight schedule, p1)."""
    keys = set() if cfg.engine == "sign" else {cfg.momentum}
    if cfg.engine in ("wagmf_stable", "ema", "amsgrad"):
        keys.add((cfg.weight, cfg.p1))
    return keys


def test_mixed_configs_share_each_scan_read_only_and_bit_for_bit(monkeypatch):
    cfgs = tuple(presets.make_preset(n, (0.1, 0.3)[k % 2], o) for k, (n, o) in enumerate(SHARING))
    assert all(scan_keys(a) != scan_keys(b) for a, b in zip(cfgs, cfgs[1:]))
    keys = set().union(*map(scan_keys, cfgs))
    reads, scans = [], []

    class Recorded(steps._Stream):
        def _shared(self, key, build):
            reads.append((self, key, super()._shared(key, build)))
            return reads[-1][2]

    def counted(*args):
        scans.append(args)
        return scan(*args)

    scan = steps._scan
    for label, setup in SETUPS.items():
        reads.clear(), scans.clear()
        with monkeypatch.context() as m:
            m.setattr(steps, "_Stream", Recorded)
            m.setattr(steps, "_scan", counted)
            runs = run_rounds(setup, cfgs, GRID_T, SEEDS)
        # one stream per seed, each reading a scan of every key, and one
        # scan pass per key on each, whose output no one may write
        streams = {id(stream): stream for stream, _, _ in reads}
        assert len(streams) == len(SEEDS) and len(scans) == len(SEEDS) * len(keys), label
        for stream in streams.values():
            assert {key for s, key, _ in reads if s is stream} == keys, label
        assert not any(a.flags.writeable for _, _, a in reads), label
        pairs = [(c, s) for c in cfgs for s in SEEDS]
        for (c, s), (trace, x_after) in zip(pairs, runs):
            assert not trace.g.flags.writeable and not trace.V.flags.writeable
            own, x_own = run_rounds(setup, c, GRID_T, s)
            for f in ("x", "g", "V", "loss", "alpha"):
                assert same_bits(getattr(trace, f), getattr(own, f)), (label, c, s, f)
            assert same_bits(x_after, x_own), (label, c, s)


def test_linear_job_holds_one_configs_arrays_at_a_time(monkeypatch):
    # each config's runs become results before the next config's exist, so
    # sixteen alphas in one job hold no more than four do, bar the results
    monkeypatch.delenv("WAGMF_THREADS", raising=False)
    T = 20_000

    def peak(n):
        alphas = [0.01 * (k + 1) for k in range(n)]
        config = parse_config(
            {
                "problem": {"kind": "reddi_stochastic"},
                "T": T,
                "seeds": [3],
                "checkpoints": [T // 2],
                "optimizers": [{"name": "adam", "alphas": alphas}],
            }
        )
        assert len(runner._jobs(config, build_problem(config.problem).oracle, 1)) == 1
        tracemalloc.start()
        try:
            run(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) - peak(4) < 8 * T  # one config's (T,) float64 array


def test_linear_job_drops_each_streams_scans_and_directions_before_its_last_results(monkeypatch):
    # at a long horizon a job is often one config: a stream that kept its
    # scans and directions to the end would hold three more (T, d) arrays
    # than the config's run needs while its results are made
    streams, iterators = [], []

    class Recorded(steps._Stream):
        def __init__(self, G):
            super().__init__(G)
            streams.append(self)

    def recorded(*args):
        iterators.append(run_stream(*args))
        return iterators[-1]

    run_stream = runner.run_stream
    monkeypatch.setattr(steps, "_Stream", Recorded)
    monkeypatch.setattr(runner, "run_stream", recorded)
    cfgs = tuple(presets.make_preset(n, 0.1) for n in ("adam", "wada", "adam"))
    pairs = runner._array_path(SETUPS["reddi_stochastic-box"], cfgs, GRID_T, SEEDS)
    for _ in range(2 * len(SEEDS)):
        next(pairs)
    # the last group, adam again, still reads both scans of its seed's stream
    assert all(stream.scans for stream in streams) and len(streams) == len(SEEDS)
    for stream in streams:
        next(pairs)
        assert not stream.scans
    assert all(inspect.getgeneratorstate(runs) == inspect.GEN_CLOSED for runs in iterators)


# under these overrides wada and sgd run the sum rule on linear and equal
# weights, which stay finite; adam's gamma_t = 2**t overflows
OVERFLOW = {"engine": "wagmf_sum", "beta2": 0.5}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("threads", [None, "2"])
def test_merged_linear_job_names_the_first_failing_pair(monkeypatch, threads):
    # the online stream overflows at round 1011 on every seed (as in
    # test_both_paths_name_the_same_overflow_round)
    raw = {
        "problem": {"kind": "reddi_online"},
        "T": 1022,
        "seeds": [0, 1],
        "overrides": OVERFLOW,
        "optimizers": ["wada", "sgd", {"name": "adam", "alphas": [0.1, 0.3]}],
    }
    assert len(runner._jobs(parse_config(raw), ReddiOnline(), 1)) == 1
    # on the stochastic stream at T = 1016 adam overflows at round 1012 on
    # seed 10 and not at all on seed 0, so its seed 10 is the first failing pair
    stochastic = raw | {"problem": {"kind": "reddi_stochastic"}, "T": 1016, "seeds": [0, 10]}
    cfgs = tuple(presets.make_preset(n, 0.1, OVERFLOW) for n in ("wada", "sgd", "adam"))
    run_rounds(SETUPS["reddi_stochastic-box"], cfgs[2], 1016, 0)
    with pytest.raises(NonFinitePreconditioner, match="round 1012:") as first:
        run_rounds(SETUPS["reddi_stochastic-box"], cfgs, 1016, (0, 10))
    assert first.value.pair == 5
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    with pytest.raises(NonFinitePreconditioner, match=r"^adam at alpha 0\.1, seed 0: .* round 1011:"):
        run(parse_config(raw))
    with pytest.raises(NonFinitePreconditioner, match=r"^adam at alpha 0\.1, seed 10: .* round 1012:"):
        run(parse_config(stochastic))


def test_linear_jobs_chunk_the_grid_across_entries(monkeypatch):
    T = 40
    config = parse_config(
        {
            "problem": {"kind": "reddi_stochastic"},
            "T": T,
            "seeds": [5, 3, 9],
            "optimizers": [
                {"name": "adam", "alphas": [0.1, 0.3, 1.0]},
                {"name": "wada", "alphas": [0.01, 0.03]},
            ],
        }
    )
    oracle = build_problem(config.problem).oracle
    adam = [("adam", a) for a in (0.1, 0.3, 1.0)]
    wada = [("wada", a) for a in (0.01, 0.03)]
    seeds = (5, 3, 9)

    def jobs(workers, budget):
        monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", budget)
        got = runner._jobs(config, oracle, workers)
        # grid order, and every job within the budget
        pairs = [(c, s) for cells, ss in got for c in cells for s in ss]
        assert pairs == [(c, s) for c in adam + wada for s in seeds]
        assert all(len(cells) * len(ss) * T <= max(budget, T) for cells, ss in got)
        return got

    # the general rule: one job for the whole grid, across optimizer entries
    assert jobs(1, 1 << 20) == [(tuple(adam + wada), seeds)]
    # at least one job per worker
    assert jobs(4, 1 << 20) == [
        (tuple(adam[:1]), seeds),
        (tuple(adam[1:2]), seeds),
        (tuple(adam[2:]), seeds),
        (tuple(wada), seeds),
    ]
    # room for two cells' seeds, then three, where a chunk spans both entries
    assert jobs(1, 6 * T) == [(tuple(adam[:1]), seeds), (tuple(adam[1:]), seeds), (tuple(wada), seeds)]
    assert jobs(1, 9 * T) == [(tuple(adam[:2]), seeds), (tuple(adam[2:] + wada), seeds)]
    # no room for a cell's seeds, or more workers than cells: one cell with a
    # chunk of them
    assert jobs(1, 2 * T) == [((c,), ss) for c in adam + wada for ss in ((5,), (3, 9))]
    assert jobs(6, 1 << 20) == [((c,), ss) for c in adam + wada for ss in ((5,), (3, 9))]


def test_linear_grid_outputs_are_identical_across_layouts_and_workers(monkeypatch, tmp_path):
    raw = {
        "problem": {"kind": "reddi_online"},
        "T": GRID_T,
        "seeds": [2, 1],
        "checkpoints": [100, GRID_T],
        "optimizers": [
            {"name": "adam", "alphas": [0.1, 0.3]},
            {"name": "wada", "alphas": [0.01, 0.03, 0.1]},
        ],
    }

    whole = grid_outputs(monkeypatch, raw, None, tmp_path / "whole")
    assert len(whole[1]) == 1 + 2 * 5 * 2  # summary.json plus a CSV and a .npy per run
    for threads in ("2", "3"):
        assert grid_outputs(monkeypatch, raw, threads, tmp_path / f"pooled-{threads}") == whole, threads
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", GRID_T)  # one (cell, seed) per job
    assert len(runner._jobs(parse_config(raw), build_problem(raw["problem"]).oracle, 1)) == 10
    assert grid_outputs(monkeypatch, raw, None, tmp_path / "pairs") == whole


@pytest.mark.parametrize("oracle", [ReddiStochastic(), ReddiOnline()], ids=["stochastic", "online"])
def test_gradients_match_evaluate_row_by_row(oracle):
    G = oracle.gradients(T, RoundRng(3))
    assert G.shape == (T, 1)
    rng = RoundRng(3)
    x = np.array([0.25])
    for t in range(1, T + 1):
        loss, g = oracle.evaluate(t, x, rng)
        assert np.array_equal(G[t - 1], g)
        assert loss == G[t - 1, 0] * x[0]


def test_trace_loss_is_gradient_dot_iterate():
    setup = SETUPS["reddi_stochastic-box"]
    trace, _ = run_rounds(setup, presets.make_preset("amsgrad", 0.3), T, seed=9)
    assert np.array_equal(trace.loss, trace.g[:, 0] * trace.x[:, 0])
    # round 1 is charged at x = 0 with g = -10: the loss sum starts from
    # +0.0, so it records 0.0, not the product's -0.0
    assert trace.x[0, 0] == 0.0 and trace.g[0, 0] == -10.0
    assert same_bits(trace.loss[:1], np.zeros(1))


def test_uniforms_serve_the_uniform_cache():
    n = 70_000  # past the first cache size, so the cache regrows
    a = RoundRng(4)
    u = a.uniforms(n)
    b = RoundRng(4)
    picks = [1, 2, 65_536, 65_537, n]
    # a cache grown one round at a time serves the whole stream, and the reverse
    assert [b.uniforms(t)[t - 1] for t in picks] == [u[t - 1] for t in picks]
    assert same_bits(b.uniforms(n), u)
    assert same_bits(RoundRng(4).uniforms(10), u[:10])
    assert all(a.uniforms(t)[t - 1] == u[t - 1] for t in range(1, 2001))


@pytest.mark.filterwarnings("ignore:overflow")
def test_both_paths_name_the_same_overflow_round():
    # gamma_t = 2**t: the weight sum stays finite through T = 1022, but the
    # spike g = 1010 of round 1011 overflows 2**1011 * 1010**2
    preset = presets.make_preset("adam", 0.1, {"engine": "wagmf_sum", "beta2": 0.5})
    assert parse_config(
        {"problem": {"kind": "reddi_online"}, "optimizers": ["adam"], "T": 1022,
         "overrides": {"engine": "wagmf_sum", "beta2": 0.5}}
    ).T == 1022
    setup = SETUPS["reddi_online-box"]
    for s in (setup, per_round(setup)):
        with pytest.raises(NonFinitePreconditioner, match="round 1011:"):
            run_rounds(s, preset, 1022, 0)
