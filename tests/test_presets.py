import re
from pathlib import Path

import numpy as np
import pytest

from wagmf.analysis import RunTrace, ratio_violations
from wagmf.errors import InvalidOverride, UnknownPreset
from wagmf.feasible import FeasibleSet
from wagmf.presets import (
    _OVERRIDE_KEYS,
    DEFAULT_BETA1,
    DEFAULT_BETA2,
    DEFAULT_EPSILON,
    preset_names,
    init_state,
    make_preset,
)
from wagmf.steps import step

FREE = FeasibleSet.unconstrained()


def drive(preset, grads, x0=None):
    """Run a gradient sequence and return the list of iterates x_2..x_{T+1}."""
    st = init_state(preset, x0 if x0 is not None else np.zeros(np.atleast_1d(grads[0]).shape))
    out = []
    for g in grads:
        step(st, np.atleast_1d(np.asarray(g, dtype=float)), preset.config, FREE)
        out.append(st.x.copy())
    return out, st


def test_catalog_contents():
    names = preset_names()
    for expected in (
        "sgd",
        "sign_sgd",
        "adagrad",
        "rmsprop",
        "rmsprop_avg",
        "adam",
        "adamnc",
        "amsgrad",
        "wada",
        "wada_v3",
        "wada_v4",
        "nostalgic",
    ):
        assert expected in names


def readme_preset_rows() -> dict[str, list[str]]:
    """The README preset table: preset name -> [weights, p1, p2, beta1 default]."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("## Presets")
    rows = {}
    for line in lines[start:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[0].startswith("`"):
            rows[cells[0].strip("`").split("(")[0]] = cells[1:5]
        elif rows and not line.startswith("|"):
            break
    return rows


def test_readme_preset_table_matches_presets():
    rows = readme_preset_rows()
    assert sorted(rows) == preset_names()
    for name, (_, p1, p2, beta1) in rows.items():
        cfg = make_preset(name, 1.0).config
        if cfg.engine in ("plain_sgd", "sign"):
            # these engines build no preconditioner, so p1 and p2 do not apply
            assert (p1, p2) == ("—", "—"), name
        else:
            assert (int(p1), int(p2)) == (cfg.p1, cfg.p2), name
        if cfg.engine == "sign":
            assert beta1 == "—", name  # the sign step ignores momentum
        else:
            assert float(beta1) == cfg.momentum.beta1, name


def test_readme_override_list_matches_presets():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Overrides (config key"))
    para = " ".join(lines[start : lines.index("", start)])
    # the list runs from the colon to the first full stop
    listed = re.findall(r"`(\w+)`", para.split(":", 1)[1].split(".", 1)[0])
    assert sorted(listed) == sorted(_OVERRIDE_KEYS)


def test_unknown_name_and_bad_overrides():
    with pytest.raises(UnknownPreset):
        make_preset("adamw", 0.1)
    with pytest.raises(InvalidOverride):
        make_preset("adam", 0.1, {"beta3": 0.5})
    with pytest.raises(InvalidOverride):
        make_preset("adam", 0.1, {"beta1": 1.5})
    with pytest.raises(InvalidOverride):
        make_preset("adam", 0.1, {"step_kind": "bogus"})


def test_wiring_of_core_presets():
    adam = make_preset("adam", 0.1)
    assert adam.config.engine == "ema"
    assert adam.config.momentum.beta1 == DEFAULT_BETA1
    assert adam.config.weight.beta2 == DEFAULT_BETA2
    assert adam.config.epsilon == DEFAULT_EPSILON
    assert adam.config.step.kind == "inv_sqrt"

    ada = make_preset("adagrad", 0.1)
    assert ada.config.engine == "wagmf_sum"
    assert ada.config.weight.kind == "equal"
    assert ada.config.momentum.beta1 == 0.0
    assert ada.config.p1 == 2 and ada.config.p2 == 2

    wada = make_preset("wada", 0.1)
    assert wada.config.engine == "wagmf_stable"
    assert wada.config.weight.kind == "linear"
    assert wada.config.p1 == 2 and wada.config.p2 == 4

    sgd = make_preset("sgd", 0.1)
    assert sgd.config.engine == "plain_sgd"
    sign = make_preset("sign_sgd", 0.1)
    assert sign.config.engine == "sign"
    ams = make_preset("amsgrad", 0.1)
    assert ams.config.engine == "amsgrad"
    anc = make_preset("adamnc", 0.1)
    assert anc.config.engine == "wagmf_sum"
    assert anc.config.weight.kind == "equal"
    assert anc.config.momentum.beta1 == DEFAULT_BETA1


def test_rmsprop_avg_is_equal_weight_adagrad_config():
    a = make_preset("adagrad", 0.2)
    b = make_preset("rmsprop_avg", 0.2)
    assert a.config == b.config
    rng = np.random.default_rng(3)
    gs = [rng.standard_normal(3) for _ in range(50)]
    xa, _ = drive(a, gs, np.zeros(3))
    xb, _ = drive(b, gs, np.zeros(3))
    assert all(np.array_equal(p, q) for p, q in zip(xa, xb))


def test_overrides_flow_through():
    p = make_preset("adam", 0.1, {"beta1": 0.5, "beta2": 0.9, "epsilon": 1e-3})
    assert p.config.momentum.beta1 == 0.5
    assert p.config.weight.beta2 == 0.9
    assert p.config.epsilon == 1e-3
    q = make_preset("wada", 0.1, {"engine": "wagmf_sum"})
    assert q.config.engine == "wagmf_sum"
    r = make_preset("adam", 0.1, {"bias_correction": True})
    assert r.config.bias_correction is True
    s = make_preset("sgd", 0.1, {"step_kind": "constant"})
    assert s.config.step.kind == "constant"


def test_nostalgic_eta_parsing():
    p = make_preset("nostalgic(0.5)", 0.1)
    assert p.config.weight.kind == "hyper_harmonic"
    assert p.config.weight.eta == 0.5
    assert p.config.momentum.beta1 == DEFAULT_BETA1
    q = make_preset("nostalgic", 0.1)
    assert q.config.weight.eta == 1.0
    with pytest.raises(InvalidOverride):
        make_preset("nostalgic(-1)", 0.1)  # parses, but the exponent is rejected
    with pytest.raises(UnknownPreset):
        make_preset("nostalgic(abc)", 0.1)
    # explicit override wins over the inline value
    r = make_preset("nostalgic(0.5)", 0.1, {"eta": 2.0})
    assert r.config.weight.eta == 2.0


def test_wada_variants_agree_on_binary_gradients():
    # on gradients in {0, 1}, |g|^2 = |g|^3 = |g|^4, so the three variants
    # accumulate identical v and must produce identical iterates
    rng = np.random.default_rng(11)
    gs = [np.array([float(rng.integers(0, 2))]) for _ in range(300)]
    runs = {}
    for name in ("wada", "wada_v3", "wada_v4"):
        xs, _ = drive(make_preset(name, 0.3), gs, np.zeros(1))
        runs[name] = np.array(xs)
    assert np.allclose(runs["wada"], runs["wada_v3"], rtol=1e-12, atol=1e-15)
    assert np.allclose(runs["wada"], runs["wada_v4"], rtol=1e-12, atol=1e-15)


def test_wada_variants_differ_on_general_gradients():
    gs = [np.array([2.0]), np.array([0.5]), np.array([1.5])]
    x2, _ = drive(make_preset("wada", 0.3), gs, np.zeros(1))
    x3, _ = drive(make_preset("wada_v3", 0.3), gs, np.zeros(1))
    assert not np.allclose(x2[-1], x3[-1], rtol=1e-6)


def test_amsgrad_preconditioner_never_shrinks():
    rng = np.random.default_rng(42)
    p = make_preset("amsgrad", 0.1)
    st = init_state(p, np.zeros(2))
    prev = None
    for t in range(1, 100_001):
        # heavy-tailed-ish stream: rare large spikes
        g = rng.standard_normal(2) * (100.0 if rng.uniform() < 0.005 else 1.0)
        step(st, g, p.config, FREE)
        if prev is not None:
            assert np.all(st.last_V >= prev - 1e-15)
        prev = st.last_V.copy()


def make_trace(preset_name, alpha, gs):
    p = make_preset(preset_name, alpha)
    d = np.atleast_1d(gs[0]).size
    st = init_state(p, np.zeros(d))
    T = len(gs)
    xs = np.empty((T, d))
    Vs = np.empty((T, d))
    als = np.empty(T)
    for i, g in enumerate(gs):
        xs[i] = st.x
        step(st, np.atleast_1d(np.asarray(g, dtype=float)), p.config, FREE)
        Vs[i] = st.last_V
        als[i] = st.last_alpha
    return RunTrace(
        t=np.arange(1, T + 1),
        x=xs,
        g=np.array([np.atleast_1d(np.asarray(g, float)) for g in gs]),
        loss=np.zeros(T),
        alpha=als,
        V=Vs,
        preset=preset_name,
        problem="synthetic",
        seed=0,
    )


def test_ratio_monotonicity_split():
    # alternating large/small gradients: EMA-style preconditioners forget the
    # spike and V_t/alpha_t dips; weighted-average families never do.  The
    # alpha/sqrt(t) decay hides the dip until roughly t > 1/(2(1-sqrt(beta2)))
    # ~ 1000 for beta2=0.999, so run well past that point.
    gs = [np.array([1.0 if t % 2 == 0 else 1e-3]) for t in range(3000)]
    for name in ("adam", "rmsprop", "sign_sgd"):
        tr = make_trace(name, 0.1, gs)
        assert ratio_violations(tr).size > 0, name
    for name in ("wada", "wada_v3", "wada_v4", "adamnc", "adagrad", "amsgrad", "sgd"):
        tr = make_trace(name, 0.1, gs)
        assert ratio_violations(tr).size == 0, name
