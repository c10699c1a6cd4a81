"""Experiment orchestration: problem construction from a config tree, the
round loop, trace serialization, grid search over step sizes, optional bound
evaluation, and seed-level significance testing.

Everything here is deterministic given (config, seeds): traces are
byte-identical across repeat invocations and worker counts.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import presets as presets_mod
from .analysis import RunTrace, corollary1_bound, regret, students_t_test, thm1_bound
from .errors import ConfigError, InsufficientSeeds, UnknownPreset, InvalidOverride, WagmfError
from .feasible import FeasibleSet, diameter_inf
from .problems import (
    Dataset,
    LossOracle,
    MinibatchOracle,
    Quadratic,
    ReddiOnline,
    ReddiStochastic,
    RoundRng,
    SoftmaxObjective,
    gaussian_blobs,
    load_dataset,
)
from .schedules import exponential_weight_sum
from .steps import OptimizerConfig, init_state, run_stream

TRACE_HEADER = "t,loss,avg_regret,x_norm,g_norm,alpha_t"
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
_MAX_TRACE_ROWS = 100_000
_SIDECAR_MAX_DIM = 16
_ALPHA_SIG = 0.05
# float64 elements (8 MB) in each dense (seeds, T, d) trace array of a seed block
_BLOCK_ELEMENTS = 1 << 20
# trace rows formatted per write: a d = 16 JSONL slice's text stays under
# glibc's 128 KB mmap threshold and its row lists under the GC's 700-object
# threshold, so each slice reuses the memory the last one freed
_WRITE_ROWS = 128


@dataclass
class ProblemSetup:
    name: str
    oracle: LossOracle
    feasible: FeasibleSet
    x0: np.ndarray | None  # None: draw uniformly from the box per run seed


_COMMON_KEYS = ("kind", "name", "feasible", "x0")
# problem kind -> the keys its table may hold
_PROBLEM_KEYS = {
    "reddi_stochastic": _COMMON_KEYS,
    "reddi_online": _COMMON_KEYS,
    "quadratic": (*_COMMON_KEYS, "a_diag", "x_star", "dim", "instance_seed"),
    "softmax": (*_COMMON_KEYS, "data", "reg", "batch_size"),
}


def build_problem(cfg: dict) -> ProblemSetup:
    """Construct a problem instance from its config subtree.

    Instances are fully determined by the subtree (any randomness comes from
    ``instance_seed``/``data`` seeds inside it), so every worker rebuilds the
    same problem.
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("problem config must be a table with a 'kind' entry")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _PROBLEM_KEYS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {sorted(_PROBLEM_KEYS)}")
    _table(f"{kind} problem", cfg, _PROBLEM_KEYS[kind])
    name = cfg.get("name", kind)
    if not isinstance(name, str):
        raise ConfigError(f"problem name must be a string, got {name!r}")

    if kind in ("reddi_stochastic", "reddi_online"):
        oracle = ReddiStochastic() if kind == "reddi_stochastic" else ReddiOnline()
        fset = _parse_feasible(cfg, default=FeasibleSet.box([-1.0], [1.0]))
        x0 = _vector("x0", cfg.get("x0", [0.0]))
    elif kind == "quadratic":
        if "a_diag" in cfg or "x_star" in cfg:
            try:
                a_diag, x_star = _vector("a_diag", cfg["a_diag"]), _vector("x_star", cfg["x_star"])
                oracle = Quadratic(a_diag, x_star)
            except (KeyError, WagmfError, ValueError) as e:
                raise ConfigError(f"bad quadratic problem: {e}") from None
        else:
            dim = _integer("dim", cfg.get("dim", 5), least=1)
            inst = _integer("instance_seed", cfg.get("instance_seed", 0), least=0)
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([inst, 4])))
            a = 0.5 + 1.5 * gen.random(dim)
            x_star = -0.5 + gen.random(dim)
            oracle = Quadratic(a, x_star)
        d = oracle.dim
        fset = _parse_feasible(
            cfg, default=FeasibleSet.box(np.full(d, -1.0), np.full(d, 1.0))
        )
        x0 = _vector("x0", cfg["x0"]) if "x0" in cfg else None
    else:  # softmax
        data = _parse_dataset(cfg.get("data"))
        try:
            oracle = SoftmaxObjective(data, _real("reg", cfg.get("reg", 0.0)))
            if "batch_size" in cfg:
                oracle = MinibatchOracle(oracle, _integer("batch_size", cfg["batch_size"]))
        except ValueError as e:
            raise ConfigError(f"bad softmax problem: {e}") from None
        fset = _parse_feasible(cfg, default=FeasibleSet.unconstrained())
        x0 = _vector("x0", cfg["x0"]) if "x0" in cfg else np.zeros(oracle.dim)

    if x0 is not None and x0.shape != (oracle.dim,):
        raise ConfigError(f"x0 has shape {x0.shape}, problem dimension is {oracle.dim}")
    if fset.is_box and fset.lo.shape != (oracle.dim,):
        raise ConfigError(f"box has shape {fset.lo.shape}, problem dimension is {oracle.dim}")
    if x0 is None and not fset.is_box:
        raise ConfigError("per-seed random x0 needs a bounded feasible box")
    return ProblemSetup(name=name, oracle=oracle, feasible=fset, x0=x0)


def _parse_feasible(cfg: dict, default: FeasibleSet) -> FeasibleSet:
    spec = cfg.get("feasible")
    if spec is None:
        return default
    if spec == "unconstrained":
        return FeasibleSet.unconstrained()
    try:
        _table("feasible", spec, ("lo", "hi"))
        return FeasibleSet.box(_vector("lo", spec["lo"]), _vector("hi", spec["hi"]))
    except (KeyError, WagmfError, ValueError) as e:
        raise ConfigError(f"bad feasible set: {e}") from None


def _parse_dataset(spec) -> Dataset:
    _table("data", spec, ("blobs", "path", "format"))
    if "blobs" in spec:
        try:
            b = _table("blobs", spec["blobs"], ("n", "d", "k", "seed", "spread", "center_scale"))
            return gaussian_blobs(
                _integer("n", b["n"], least=1),
                _integer("d", b["d"], least=1),
                _integer("k", b["k"], least=1),
                _integer("seed", b.get("seed", 0), least=0),
                spread=_real("spread", b.get("spread", 1.0)),
                center_scale=_real("center_scale", b.get("center_scale", 1.0)),
            )
        except (KeyError, ValueError, WagmfError) as e:
            raise ConfigError(f"bad blobs spec: {e}") from None
    if "path" in spec:
        if not isinstance(spec["path"], str):
            raise ConfigError(f"dataset path must be a string, got {spec['path']!r}")
        try:
            return load_dataset(spec["path"], spec.get("format", "csv"))
        except (OSError, ValueError, WagmfError) as e:
            raise ConfigError(f"cannot load dataset: {e}") from None
    raise ConfigError("dataset spec needs either 'blobs' or 'path'")


def initial_point(setup: ProblemSetup, seed: int) -> np.ndarray:
    if setup.x0 is not None:
        return np.array(setup.x0, copy=True)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 3])))
    lo, hi = setup.feasible.lo, setup.feasible.hi
    return lo + gen.random(lo.shape[0]) * (hi - lo)


def run_rounds(setup: ProblemSetup, cfg: OptimizerConfig, T: int, seed: int | tuple[int, ...] = 0):
    """Run one (problem, optimizer, seed) experiment for T rounds.

    Returns (trace, x_after): the full in-memory trace plus the point held
    after the final update (the trace's x column stops at x_T, the iterate
    the last loss was charged at).

    Given a tuple of seeds, returns one (trace, x_after) pair per seed, each
    bit-identical to that seed's own call.  On a block oracle the seeds run
    as one optimizer state (``_round_loop``); if that raises a WagmfError
    they rerun one at a time, so the error that escapes is the first failing
    seed's.  Other oracles run the seeds one after another.

    Linear oracles take the array path: their gradient stream is drawn once
    and the engine runs over it in array form (``steps.run_stream``), with
    the same trace, bit for bit, as the per-round loop.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not isinstance(seed, tuple):
        return _run_seed(setup, cfg, T, seed)
    if setup.oracle.block and len(seed) > 1:
        try:
            return _round_loop(setup, cfg, T, seed)
        except WagmfError:
            pass
    return [_run_seed(setup, cfg, T, s) for s in seed]


def _run_seed(setup: ProblemSetup, cfg: OptimizerConfig, T: int, seed: int):
    """One seed: the array path on a linear oracle, else the per-round loop."""
    oracle = setup.oracle
    if not oracle.linear:
        return _round_loop(setup, cfg, T, (seed,))[0]
    gs = oracle.gradients(T, RoundRng(seed))
    path, Vs, alphas = run_stream(initial_point(setup, seed), gs, cfg, setup.feasible)
    xs = path[:T]
    losses = (gs * xs).sum(axis=1)
    return RunTrace(xs, gs, losses, alphas, Vs, seed=seed), path[T].copy()


def _round_loop(setup: ProblemSetup, cfg: OptimizerConfig, T: int, seeds: tuple[int, ...]):
    """The per-round loop over C seeds as one optimizer state of width C*d,
    seed k in coordinates k*d ... k*d + d - 1, for one seed or a block
    oracle.  Every operation of ``steps.step`` is per coordinate, and its
    scalars (alpha_t, beta1_t, the weight sum) are the same for every seed,
    so each seed's values are bit-identical to its own run's.

    Returns one (trace, x_after) pair per seed.  Seed k's trace arrays are
    the contiguous slices [k] of (C, T, ...) arrays.
    """
    oracle = setup.oracle
    C = len(seeds)
    state = init_state(np.concatenate([initial_point(setup, s) for s in seeds]), cfg)
    d = state.x.shape[0] // C
    fset = setup.feasible
    if C > 1 and fset.is_box:
        fset = FeasibleSet.box(np.tile(fset.lo, C), np.tile(fset.hi, C))
    rng = RoundRng(seeds[0]) if C == 1 else None  # block oracles draw nothing
    xs = np.empty((C, T, d))
    gs = np.empty((C, T, d))
    Vs = np.empty((C, T, d))
    losses = np.empty((C, T))
    alphas = np.empty(T)
    # x is what evaluate takes, and *_rows are the arrays indexed round first
    if C == 1:
        x = state.x
        x_rows, g_rows, V_rows, loss_rows = xs[0], gs[0], Vs[0], losses[0]
    else:  # views: steps update state.x in place
        x = state.x.reshape(C, d)
        x_rows, g_rows, V_rows, loss_rows = (a.swapaxes(0, 1) for a in (xs, gs, Vs, losses))
    step_fn = presets_mod.STEP_FN[cfg.engine]
    evaluate = oracle.evaluate
    for t in range(1, T + 1):
        i = t - 1
        loss, g = evaluate(t, x, rng)
        x_rows[i] = x
        g_rows[i] = g
        loss_rows[i] = loss
        step_fn(state, g.reshape(-1), cfg, fset)
        V_rows[i] = state.last_V.reshape(x.shape)
        alphas[i] = state.last_alpha
    x_after = state.x.reshape(C, d)
    return [
        (RunTrace(xs[k], gs[k], losses[k], alphas.copy(), Vs[k], seed=s), x_after[k].copy())
        for k, s in enumerate(seeds)
    ]


# ---------------------------------------------------------------------------
# trace serialization


def trace_row_indices(T: int) -> np.ndarray:
    """Row subsample for serialization: every ceil(T / 100000)-th round plus
    the final one."""
    stride = max(1, math.ceil(T / _MAX_TRACE_ROWS))
    idx = np.arange(0, T, stride)
    if idx[-1] != T - 1:
        idx = np.append(idx, T - 1)
    return idx


def _row_slices(T: int):
    """The serialized rows' indices in slices of at most ``_WRITE_ROWS``, so
    a writer holds one slice's Python floats and text at a time."""
    idx = trace_row_indices(T)
    return (idx[lo : lo + _WRITE_ROWS] for lo in range(0, idx.size, _WRITE_ROWS))


def write_trace_csv(trace: RunTrace, path, avg_regret: np.ndarray | None = None) -> None:
    """One ``TRACE_HEADER`` row per serialized round, values as ``%.17g``."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(TRACE_HEADER + "\n")
        for rows in _row_slices(trace.T):
            x_norm = np.sqrt((trace.x[rows] ** 2).sum(axis=1))
            g_norm = np.sqrt((trace.g[rows] ** 2).sum(axis=1))
            avg = avg_regret[rows] if avg_regret is not None else np.full(rows.size, math.nan)
            cols = (trace.t[rows], trace.loss[rows], avg, x_norm, g_norm, trace.alpha[rows])
            f.write("".join(_CSV_ROW % row for row in zip(*(c.tolist() for c in cols))))


def write_trace_jsonl(trace: RunTrace, path) -> None:
    """One ``{"t", "x", "g"}`` object per serialized round, in json's float text."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rows in _row_slices(trace.T):
            text = "".join(
                f'{{"t": {t}, "x": {x}, "g": {g}}}\n'
                for t, x, g in zip(*(a[rows].tolist() for a in (trace.t, trace.x, trace.g)))
            )
            # str() of a float list is json's text, except for non-finite values
            f.write(text.replace("nan", "NaN").replace("inf", "Infinity"))


# ---------------------------------------------------------------------------
# experiment config


@dataclass
class ExperimentConfig:
    problem: dict
    optimizers: list[dict]  # each {"name": str, "alphas": [float, ...]}
    T: int
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str | None = None
    bound_eval: bool = False
    significance: bool = False
    overrides: dict = field(default_factory=dict)
    checkpoints: list[int] = field(default_factory=list)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config tree; every problem is reported as ConfigError."""
    _table("config", raw, [f.name for f in fields(ExperimentConfig)])
    for key in ("problem", "optimizers", "T"):
        if key not in raw:
            raise ConfigError(f"config is missing {key!r}")

    T = _integer("T", raw["T"], least=1)

    opts = raw["optimizers"]
    if not isinstance(opts, list) or not opts:
        raise ConfigError("config needs a non-empty optimizer list")
    optimizers = []
    labels: dict[tuple[str, str], float] = {}  # (name, alpha label) -> alpha
    for entry in opts:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ConfigError(f"bad optimizer entry {entry!r}: needs a string 'name'")
        _table(f"optimizer {entry['name']!r}", entry, ("name", "alphas"))
        alphas = entry.get("alphas", [0.1])
        if not isinstance(alphas, list) or not alphas:
            raise ConfigError(f"optimizer {entry['name']!r} needs a non-empty alpha grid")
        if not all(isinstance(a, numbers.Real) and not isinstance(a, bool) for a in alphas):
            raise ConfigError(
                f"optimizer {entry['name']!r} has a non-numeric alpha in {alphas!r}"
            )
        alphas = [float(a) for a in alphas]
        if not all(0.0 < a < math.inf for a in alphas):
            raise ConfigError(
                f"optimizer {entry['name']!r} has a non-positive or non-finite alpha"
            )
        # a cell's trace files and its best.grid key are named by f"{alpha:g}"
        for a in alphas:
            key = (entry["name"], f"{a:g}")
            if key in labels:
                raise ConfigError(
                    f"optimizer {key[0]!r} has alphas {labels[key]!r} and {a!r}, which share "
                    f"the label {key[1]!r}; each grid cell needs its own"
                )
            labels[key] = a
        optimizers.append({"name": entry["name"], "alphas": alphas})

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list")
    seeds = [_integer("seeds", s) for s in seeds]
    if any(s < 0 for s in seeds) or len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct and >= 0")

    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("overrides must be a table")

    checkpoints = raw.get("checkpoints", [])
    if not isinstance(checkpoints, list):
        raise ConfigError("checkpoints must be a list")
    checkpoints = sorted(_integer("checkpoints", c) for c in checkpoints)
    if any(c < 1 or c > T for c in checkpoints):
        raise ConfigError("checkpoints must lie in [1, T]")

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a string, got {out!r}")

    cfg = ExperimentConfig(
        problem=raw["problem"],
        optimizers=optimizers,
        T=T,
        seeds=seeds,
        out=out,
        bound_eval=_switch(raw, "bound_eval"),
        significance=_switch(raw, "significance"),
        overrides=overrides,
        checkpoints=checkpoints,
    )
    validate_config(cfg)
    return cfg


def _integer(key: str, value, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``.  Integral floats (JSON
    ``1e5``) pass; bools, fractions, non-numbers and values below ``least``
    are a ConfigError naming ``key``, where ``int()`` would truncate or
    coerce them."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{key}: {value!r} is not an integer")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return int(value)


def _real(key: str, value) -> float:
    """``value`` as a float; bools, strings, NaN and infinities are a
    ConfigError naming ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{key}: {value!r} is not a finite number")


def _vector(key: str, value) -> np.ndarray:
    """``value`` as a float64 vector; anything but a non-empty list of finite
    numbers is a ConfigError naming ``key``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a non-empty list of finite numbers, got {value!r}")
    return np.array([_real(key, v) for v in value])


def _table(where: str, value, allowed) -> dict:
    """``value`` as a table; a non-table or a key outside ``allowed`` is a
    ConfigError naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a table, got {value!r}")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return value


def _switch(raw: dict, key: str) -> bool:
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def validate_config(cfg: ExperimentConfig) -> ProblemSetup:
    """Config-time checks that need the constructed problem/presets."""
    setup = build_problem(cfg.problem)
    for entry in cfg.optimizers:
        try:
            opt = presets_mod.make_preset(entry["name"], entry["alphas"][0], cfg.overrides)
            if opt.engine == "wagmf_sum" and opt.weight.kind == "exponential":
                # only growing weights overflow, and their running sum first
                exponential_weight_sum(opt.weight, cfg.T)
        except (UnknownPreset, InvalidOverride, ValueError, OverflowError) as e:
            raise ConfigError(f"optimizer {entry['name']!r}: {e}") from None
    if cfg.bound_eval and not setup.feasible.is_box:
        raise ConfigError("bound_eval needs a bounded feasible set")
    if cfg.significance and len(cfg.seeds) < 2:
        raise ConfigError("significance testing needs at least two seeds")
    return setup


# ---------------------------------------------------------------------------
# execution


def _safe_name(name: str) -> str:
    return name.replace("(", "_").replace(")", "").replace(",", "_")


def _execute_job(
    config: ExperimentConfig, job: tuple[str, float, tuple[int, ...]], setup: ProblemSetup | None = None
) -> list[dict]:
    """Run one (optimizer, alpha, seeds) block of the grid and return one
    result per seed; used directly and via the pool.

    Serial callers pass the problem they already built; pool workers build
    their own from ``config.problem``.
    """
    name, alpha, seeds = job
    if setup is None:
        setup = build_problem(config.problem)
    cfg = presets_mod.make_preset(name, alpha, config.overrides)
    if len(seeds) == 1:
        runs = [run_rounds(setup, cfg, config.T, seeds[0])]
    else:
        runs = run_rounds(setup, cfg, config.T, seeds)
    return [_cell_result(config, setup, cfg, (name, alpha, seed), *run) for seed, run in zip(seeds, runs)]


def _cell_result(
    config: ExperimentConfig,
    setup: ProblemSetup,
    cfg: OptimizerConfig,
    cell: tuple[str, float, int],
    trace: RunTrace,
    x_after: np.ndarray,
) -> dict:
    """The result of one (optimizer, alpha, seed) cell from its run, with its
    trace files written when ``config.out`` is set."""
    name, alpha, seed = cell
    result = {
        "optimizer": name,
        "alpha": alpha,
        "seed": seed,
        "final_loss": float(trace.loss[-1]),
        "final_x_norm": float(np.sqrt((trace.x[-1] ** 2).sum())),
    }
    if trace.dim <= _SIDECAR_MAX_DIM:
        result["final_x"] = trace.x[-1].tolist()

    avg_series = None
    if setup.oracle.known_optimum is not None:
        avg_series = regret(trace, setup.oracle, setup.oracle.known_optimum).average
        result["final_avg_regret"] = float(avg_series[-1])
        if config.checkpoints:
            result["avg_regret_at"] = {str(c): float(avg_series[c - 1]) for c in config.checkpoints}
        selection = result["final_avg_regret"]
    elif isinstance(setup.oracle, MinibatchOracle):
        result["final_full_loss"] = float(setup.oracle.full_loss(x_after))
        selection = result["final_full_loss"]
    else:
        selection = result["final_loss"]
    result["selection_metric"] = float(selection)

    if config.bound_eval:
        result["bounds"] = _evaluate_bounds(trace, setup, cfg)

    out = config.out
    if out:
        stem = f"{_safe_name(setup.name)}__{_safe_name(name)}__a{alpha:g}__s{seed}"
        csv_path = Path(out) / f"{stem}.csv"
        write_trace_csv(trace, csv_path, avg_series)
        result["trace_csv"] = str(csv_path)
        if trace.dim <= _SIDECAR_MAX_DIM:
            jsonl_path = Path(out) / f"{stem}.jsonl"
            write_trace_jsonl(trace, jsonl_path)
            result["trace_jsonl"] = str(jsonl_path)
    return result


def _evaluate_bounds(trace: RunTrace, setup: ProblemSetup, cfg: OptimizerConfig) -> dict:
    """Bound evaluation for the sum/stable engines (the family the analysis
    covers); the closed-form bound additionally needs linear weights, the
    fourth root, and strict momentum decay."""
    if cfg.engine not in ("wagmf_sum", "wagmf_stable"):
        return {"skipped": f"engine {cfg.engine} is outside the analyzed family"}
    d_inf = diameter_inf(setup.feasible)
    beta1 = cfg.momentum.beta1
    lam = cfg.momentum.lam
    out = {"thm1": asdict(thm1_bound(trace, d_inf, beta1, lam))}
    if cfg.weight.kind == "linear" and cfg.p2 == 4 and lam < 1.0:
        g_inf = float(np.abs(trace.g).max())
        cor = corollary1_bound(trace.g, d_inf, g_inf, cfg.step.base_alpha, beta1, lam)
        out["corollary1"] = {**asdict(cor), "g_inf": g_inf}
    return out


def _worker_count() -> int:
    raw = os.environ.get("WAGMF_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"WAGMF_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"WAGMF_THREADS must be >= 1, got {n}")
    return n


def _seed_blocks(config: ExperimentConfig, oracle: LossOracle, workers: int) -> list[tuple]:
    """The grid as (optimizer, alpha, seeds) jobs in grid order.

    On a block oracle each (optimizer, alpha) cell's seeds split into the
    fewest contiguous chunks whose dense trace arrays stay within
    ``_BLOCK_ELEMENTS``, and into more where a pool of ``workers`` would
    otherwise get fewer jobs than workers.  Other oracles run one seed per
    job.  A seed's results do not depend on its chunk.
    """
    cells = [(entry["name"], a) for entry in config.optimizers for a in entry["alphas"]]
    seeds = config.seeds
    n = len(seeds)
    if oracle.block:
        per_chunk = max(1, _BLOCK_ELEMENTS // (config.T * oracle.dim))
        chunks = math.ceil(n / per_chunk)
        if workers > 1:
            chunks = min(n, max(chunks, math.ceil(workers / len(cells))))
    else:
        chunks = n
    return [
        (name, a, tuple(seeds[k * n // chunks : (k + 1) * n // chunks]))
        for name, a in cells
        for k in range(chunks)
    ]


def run(config: ExperimentConfig) -> dict:
    """Execute the full experiment grid and return the summary tree.

    When ``config.out`` is set, per-run traces and ``summary.json`` are
    written there.  The grid runs as jobs of seed blocks (``_seed_blocks``),
    and output is identical for any worker count and chunking.  Serial jobs
    share the problem that validation built (oracles hold no per-run state
    beyond caches keyed by the run's seed); pool workers build their own.
    """
    setup = validate_config(config)
    if config.out:
        Path(config.out).mkdir(parents=True, exist_ok=True)

    workers = _worker_count()
    jobs = _seed_blocks(config, setup.oracle, workers)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(partial(_execute_job, config), jobs))
    else:
        blocks = [_execute_job(config, job, setup) for job in jobs]
    results = [r for block in blocks for r in block]

    best = select_best(results)
    summary = {
        "problem": config.problem.get("kind"),
        "T": config.T,
        "seeds": config.seeds,
        "runs": results,
        "best": best,
    }
    if config.significance:
        summary["significance"] = significance(results, best)
    if config.out:
        with open(Path(config.out) / "summary.json", "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return summary


def select_best(results: list[dict]) -> dict:
    """Per-optimizer best alpha by mean selection metric across seeds; ties
    break toward the smaller alpha."""
    cells: dict[tuple[str, float], list[float]] = {}
    for r in results:
        cells.setdefault((r["optimizer"], r["alpha"]), []).append(r["selection_metric"])
    best: dict[str, dict] = {}
    scores: dict[str, dict[float, float]] = {}
    for (name, a), vals in cells.items():
        scores.setdefault(name, {})[a] = float(np.mean(vals))
    for name, table in scores.items():
        a_best = min(sorted(table), key=lambda a: (table[a], a))
        best[name] = {
            "alpha": a_best,
            "metric": table[a_best],
            "grid": {f"{a:g}": table[a] for a in sorted(table)},
        }
    return best


def significance(results: list[dict], best: dict) -> dict:
    """Pairwise two-sample t-tests on per-seed selection metrics at each
    optimizer's best alpha; pairs with p < 0.05 are flagged."""
    per_opt: dict[str, list[float]] = {}
    for r in results:
        name = r["optimizer"]
        if name in best and r["alpha"] == best[name]["alpha"]:
            per_opt.setdefault(name, []).append(r["selection_metric"])
    for name, vals in per_opt.items():
        if len(vals) < 2:
            raise InsufficientSeeds(
                f"optimizer {name!r} has {len(vals)} seed(s); need >= 2"
            )
    table = {}
    for a in sorted(per_opt):
        for b in sorted(per_opt):
            if a >= b:
                continue
            t, p = students_t_test(per_opt[a], per_opt[b])
            table[f"{a} vs {b}"] = {
                "t": t,
                "p": p,
                "significant": bool(p < _ALPHA_SIG),
            }
    return table
