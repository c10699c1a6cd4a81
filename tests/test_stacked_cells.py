"""Gate for stacked cells: run_rounds given a tuple of seeds runs them as one
optimizer state on an oracle that draws nothing, and each seed's trace and
final point must equal its own single-seed run bit for bit.  The runner
splits a cell's seeds into blocks, which must not change any output byte."""

import json

import numpy as np
import pytest
from conftest import same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from wagmf import presets, runner
from wagmf.errors import NonFinitePreconditioner
from wagmf.problems import Quadratic
from wagmf.runner import build_problem, parse_config, run, run_rounds

T = 60
SEEDS = (7, 0, 3, 12, 5, 40, 9, 1, 2, 30, 11, 8, 6, 4, 21, 13, 17, 10, 99, 14)
BLOCKS = (SEEDS[:2], SEEDS[2:5], SEEDS)  # C = 2, 3 and 20

# (preset, overrides): every preset bare, with decaying momentum and with
# epsilon 0, plus Adam-style bias correction
NAMES = sorted(presets._TABLE)
CASES = [(name, o) for o in ({}, {"lambda": 0.99}, {"epsilon": 0}) for name in NAMES]
CASES += [("adam", {"bias_correction": True}), ("amsgrad", {"bias_correction": True})]

# x* lies outside the default box [-1, 1] in two coordinates, so the box clips
QUAD = {"kind": "quadratic", "a_diag": [1.0, 4.0, 0.25], "x_star": [0.5, -1.5, 2.0]}
UNEVEN_BOX = {"lo": [-1.0, -0.2, 0.5], "hi": [0.3, 1.0, 2.5]}
SETUPS = {
    "box-x0": build_problem(QUAD | {"x0": [0.9, -0.9, 0.0]}),
    "box-random-x0": build_problem(QUAD),
    # bounds differ per coordinate, and x* lies outside them in the first two
    "uneven-box-random-x0": build_problem(QUAD | {"feasible": UNEVEN_BOX}),
    "unconstrained-x0": build_problem(QUAD | {"x0": [0.9, -0.9, 0.0], "feasible": "unconstrained"}),
}


def assert_same_runs(setup, preset, seeds, T):
    stacked = run_rounds(setup, preset, T, tuple(seeds))
    assert len(stacked) == len(seeds)
    for seed, (trace, x_after) in zip(seeds, stacked):
        ref, x_ref = run_rounds(setup, preset, T, seed)
        assert trace.seed == seed
        for f in ("x", "g", "V", "loss", "alpha"):
            assert same_bits(getattr(trace, f), getattr(ref, f)), (seed, f)
        assert same_bits(x_after, x_ref), seed


@pytest.mark.parametrize("name,overrides", CASES, ids=[f"{n}{o or ''}" for n, o in CASES])
def test_stacked_seeds_match_single_seed_runs(name, overrides):
    preset = presets.make_preset(name, 0.3, overrides)
    for label, setup in SETUPS.items():
        singles = {s: run_rounds(setup, preset, T, s) for s in SEEDS}
        for block in BLOCKS:
            for seed, (trace, x_after) in zip(block, run_rounds(setup, preset, T, block)):
                ref, x_ref = singles[seed]
                for f in ("x", "g", "V", "loss", "alpha"):
                    assert same_bits(getattr(trace, f), getattr(ref, f)), (label, len(block), seed, f)
                assert same_bits(x_after, x_ref), (label, len(block), seed)


@st.composite
def quadratics(draw):
    d = draw(st.integers(1, 6))
    coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
    problem = {
        "kind": "quadratic",
        "a_diag": draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d)),
        "x_star": draw(coords),
    }
    if draw(st.booleans()):
        problem["x0"] = draw(coords)
        if draw(st.booleans()):
            problem["feasible"] = "unconstrained"
    return problem


@settings(max_examples=60, deadline=None)
@given(
    problem=quadratics(),
    name=st.sampled_from(NAMES),
    lam=st.sampled_from([1.0, 0.9]),
    alpha=st.floats(1e-3, 3.0),
    seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=5, unique=True),
)
def test_stacked_seeds_match_single_seed_runs_property(problem, name, lam, alpha, seeds):
    preset = presets.make_preset(name, alpha, {"lambda": lam})
    assert_same_runs(build_problem(problem), preset, seeds, 25)


def test_quadratic_rows_keep_the_dot_product_loss():
    # each row of a stacked call, and a one-point call, keep the loss bytes
    # of the dot product 0.5 * g @ (x - x*)
    gen = np.random.default_rng(5)
    for d in (1, 2, 3, 5, 8, 17, 64, 650):
        orc = Quadratic(0.5 + gen.random(d), gen.standard_normal(d))
        X = gen.uniform(-3.0, 3.0, (7, d))
        losses, G = orc.evaluate(1, X)
        assert losses.shape == (7,) and G.shape == (7, d)
        for x, loss, g in zip(X, losses, G):
            one, g_one = orc.evaluate(1, x)
            diff = x - orc.known_optimum
            assert loss == one == 0.5 * float((orc.a * diff) @ diff), d
            assert same_bits(g, g_one)


def test_non_block_oracles_run_seed_by_seed():
    # linear oracles keep the array path, one seed at a time
    preset = presets.make_preset("wada", 0.1)
    assert_same_runs(build_problem({"kind": "reddi_stochastic"}), preset, (4, 1, 8), 500)


OVERFLOW = {
    # gamma_t = 2**t and a huge curvature: each seed's weighted sum of g**2
    # overflows at a round set by its random start
    "problem": {"kind": "quadratic", "a_diag": [1e150], "x_star": [0.0]},
    "T": 60,
    "seeds": [0, 1, 2],
    "optimizers": ["adam"],
    "overrides": {"engine": "wagmf_sum", "beta2": 0.5},
}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("threads", [None, "2"])
def test_block_error_names_the_first_failing_seed(monkeypatch, threads):
    # a healthy cell ahead of the failing one: under these overrides sgd runs
    # the sum rule on equal weights, whose sum does not overflow
    config = parse_config(OVERFLOW | {"optimizers": ["sgd", "adam"]})
    setup = build_problem(config.problem)
    healthy, preset = (presets.make_preset(name, 0.1, config.overrides) for name in ("sgd", "adam"))
    # seed 0 overflows at round 31, seeds 1 and 2 at round 30, so the block
    # as a whole fails at round 30
    with pytest.raises(NonFinitePreconditioner, match="round 30:"):
        runner._round_loop(setup, (healthy, preset), 60, (0, 1, 2))
    with pytest.raises(NonFinitePreconditioner, match="round 31:"):
        run_rounds(setup, preset, 60, (0, 1, 2))
    # rerun one pair at a time, the first failing pair of the mixed block is
    # adam's seed 0, its fourth
    with pytest.raises(NonFinitePreconditioner, match="round 31:") as first:
        run_rounds(setup, (healthy, preset), 60, (0, 1, 2))
    assert first.value.pair == 3
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    with pytest.raises(NonFinitePreconditioner, match=r"^adam at alpha 0\.1, seed 0: .* round 31:"):
        run(config)


@pytest.mark.filterwarnings("ignore:overflow")
def test_one_pair_block_raises_without_a_rerun(monkeypatch):
    config = parse_config(OVERFLOW)
    setup = build_problem(config.problem)
    preset = presets.make_preset("adam", 0.1, config.overrides)
    loops = []

    def counted(*args):
        loops.append(args[3])
        return round_loop(*args)

    round_loop = runner._round_loop
    monkeypatch.setattr(runner, "_round_loop", counted)
    with pytest.raises(NonFinitePreconditioner, match="round 31:") as error:
        run_rounds(setup, (preset,), 60, (0,))
    assert error.value.pair == 0 and loops == [(0,)]


def test_seed_blocks_respect_the_budget_and_the_pool(monkeypatch):
    config = parse_config(
        {
            "problem": {"kind": "quadratic", "dim": 2},
            "T": 40,
            "seeds": [5, 3, 9, 1, 7],
            "optimizers": [{"name": "wada", "alphas": [0.1, 0.5]}, "sgd"],
        }
    )
    oracle = build_problem(config.problem).oracle
    cells = [("wada", 0.1), ("wada", 0.5), ("sgd", 0.1)]

    def chunks(workers, config=config, oracle=oracle):
        jobs = runner._jobs(config, oracle, workers)
        assert [job_cells for job_cells, _ in jobs] == [(c,) for c in cells for _ in range(len(jobs) // 3)]
        assert [s for _, seeds in jobs for s in seeds] == 3 * config.seeds
        return [seeds for _, seeds in jobs[: len(jobs) // 3]]

    # one worker: the three cells share one job, run with every seed
    assert runner._jobs(config, oracle, 1) == [(tuple(cells), tuple(config.seeds))]
    assert chunks(3) == [(5, 3, 9, 1, 7)]
    assert chunks(4) == [(5, 3), (9, 1, 7)]  # at least one job per worker
    assert len(chunks(100)) == 5
    # an oracle that draws splits its seeds the same way when there are more
    # workers than cells
    minibatch = parse_config(
        {
            "problem": {
                "kind": "softmax",
                "data": {"blobs": {"n": 20, "d": 2, "k": 3}},
                "batch_size": 4,
            },
            "T": 40,
            "seeds": config.seeds,
            "optimizers": [{"name": "wada", "alphas": [0.1, 0.5]}, "sgd"],
        }
    )
    assert chunks(4, minibatch, build_problem(minibatch.problem).oracle) == [(5, 3), (9, 1, 7)]
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", 2 * 40 * 2)  # two seeds' (T, d) arrays
    assert chunks(1) == [(5,), (3, 9), (1, 7)]
    # a linear oracle with room for one (T,) trace runs one seed per job
    reddi = build_problem({"kind": "reddi_online"}).oracle
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", 40)
    assert [seeds for _, seeds in runner._jobs(config, reddi, 1)] == 3 * [(s,) for s in config.seeds]


def test_run_is_identical_across_chunks_and_worker_counts(monkeypatch, tmp_path):
    raw = {
        "problem": {"kind": "quadratic", "dim": 2, "instance_seed": 3},
        "T": 40,
        "seeds": [5, 3, 9, 1, 7],
        "optimizers": [{"name": "wada", "alphas": [0.5]}],
        "overrides": {"lambda": 0.99},
        "bound_eval": True,
        "checkpoints": [10, 40],
    }

    def outputs(tag, threads):
        out = tmp_path / tag
        if threads:
            monkeypatch.setenv("WAGMF_THREADS", threads)
        else:
            monkeypatch.delenv("WAGMF_THREADS", raising=False)
        summary = run(parse_config(raw | {"out": str(out)}))
        text = json.dumps(summary, sort_keys=True).replace(str(out), "OUT")
        files = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT") for p in sorted(out.iterdir())}
        return text, files

    whole = outputs("whole", None)
    assert len(whole[1]) == 1 + 2 * 5  # summary.json plus a CSV and a .npy per seed
    runs = json.loads(whole[0])["runs"]
    assert [r["seed"] for r in runs] == raw["seeds"]
    assert all("avg_regret_at" in r and "corollary1" in r["bounds"] for r in runs)
    monkeypatch.setattr(runner, "_BLOCK_ELEMENTS", 2 * 40 * 2)  # blocks of at most two seeds
    assert len(runner._jobs(parse_config(raw), build_problem(raw["problem"]).oracle, 1)) == 3
    for threads in (None, "2", "3"):
        assert outputs(f"chunked-{threads}", threads) == whole, threads
