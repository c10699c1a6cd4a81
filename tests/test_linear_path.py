"""Gate for the array path that linear oracles take through run_rounds: it
must reproduce the per-round STEP_FN loop bit for bit."""

import copy
import dataclasses

import numpy as np
import pytest

from wagmf import presets
from wagmf.errors import NonFinitePreconditioner
from wagmf.problems import ReddiOnline, ReddiStochastic, RoundRng
from wagmf.runner import build_problem, parse_config, run_rounds

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
                assert np.array_equal(getattr(fast, f), getattr(ref, f)), (label, seed, f)
            assert np.array_equal(x_fast, x_ref), (label, seed)


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


def test_uniforms_serve_the_uniform_cache():
    n = 70_000  # past the first cache size, so the cache regrows
    a = RoundRng(4)
    u = a.uniforms(n)
    b = RoundRng(4)
    picks = [1, 2, 65_536, 65_537, n]
    assert [b.uniform(t) for t in picks] == [u[t - 1] for t in picks]
    # a cache grown by uniform() serves uniforms() and the reverse
    assert np.array_equal(b.uniforms(n), u)
    assert np.array_equal(RoundRng(4).uniforms(10), u[:10])
    assert all(a.uniform(t) == u[t - 1] for t in range(1, 2001))


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
