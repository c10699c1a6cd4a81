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
from itertools import islice
from pathlib import Path

import numpy as np

from . import presets as presets_mod
from . import schedules
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
    linear_loss,
    load_dataset,
)
from .schedules import exponential_weight_sum
from .steps import OptimizerConfig, alpha_groups, check_gradient, init_state, run_stream

TRACE_HEADER = "t,loss,avg_regret,x_norm,g_norm,alpha_t"
_CSV_ROW = "%s%.17g,%.17g,%.17g,%.17g%s"  # around the shared text of t and alpha_t
_MAX_TRACE_ROWS = 100_000
_SIDECAR_MAX_DIM = 16
_ALPHA_SIG = 0.05
# float64 elements (8 MB) in each per-round (rows, T, ...) trace array of a job
_BLOCK_ELEMENTS = 1 << 20
# trace rows serialized per write: a d = 16 .npy slice (52 KB) stays under
# glibc's 128 KB mmap threshold and a CSV slice's row tuples under the GC's
# 700-object threshold, so each slice reuses the memory the last one freed
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
    # the name starts each trace file's name, which must stay inside ``out``
    if any(c in name for c in ("/", os.sep, "\0")):
        raise ConfigError(f"problem name must not contain a path separator or NUL, got {name!r}")

    if kind in ("reddi_stochastic", "reddi_online"):
        oracle = ReddiStochastic() if kind == "reddi_stochastic" else ReddiOnline()
        fset = _parse_feasible(cfg, default=FeasibleSet.box([-1.0], [1.0]))
        x0 = _vector("x0", cfg.get("x0", [0.0]))
    elif kind == "quadratic":
        if "a_diag" in cfg or "x_star" in cfg:
            for key in ("a_diag", "x_star"):
                if key not in cfg:
                    raise ConfigError(f"bad quadratic problem: missing {key!r}")
            for key in ("dim", "instance_seed"):
                if key in cfg:
                    raise ConfigError(
                        f"bad quadratic problem: {key!r} cannot go with 'a_diag' and 'x_star'"
                    )
            try:
                oracle = Quadratic(_vector("a_diag", cfg["a_diag"]), _vector("x_star", cfg["x_star"]))
            except (WagmfError, ValueError) as e:
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
        if "path" in spec or "format" in spec:
            raise ConfigError("dataset spec takes either 'blobs' or 'path' and 'format', not both")
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


@dataclass
class LeanTrace:
    """What a cell's result reads when no output needs the dense x, g and V,
    as the per-round loop records it: the per-round loss and alpha, and x_T,
    the iterate the last loss was charged at."""

    loss: np.ndarray
    alpha: np.ndarray
    x_T: np.ndarray
    seed: int | None = None


def run_rounds(
    setup: ProblemSetup,
    cfg: OptimizerConfig | tuple[OptimizerConfig, ...],
    T: int,
    seed: int | tuple[int, ...] = 0,
    *,
    dense: bool = True,
):
    """Run one (problem, optimizer, seed) experiment for T rounds.

    Returns (trace, x_after): the full in-memory trace plus the point held
    after the final update (the trace's x column stops at x_T, the iterate
    the last loss was charged at).  ``dense`` only reaches the per-round
    loop: with ``dense=False`` it records no x, g or V and returns a
    ``LeanTrace``.  The array path always returns a full ``RunTrace``, which
    costs it nothing (x is a view of the path, g and V are shared).

    Given a tuple of configs (``cfg``) and/or of seeds, returns one
    (trace, x_after) pair per (config, seed), configs outer, each
    bit-identical to that pair's own call.  A linear oracle takes the array
    path (``_array_path``), where every config runs over each seed's drawn
    gradient stream in array form (``steps.run_stream``), the per-round
    loop's trace bit for bit; it builds the pairs one at a time, so a
    failing pair is the first to fail.  Any other oracle runs the pairs as
    the rows of one ``_round_loop``; if a loop of more than one pair raises
    a WagmfError the pairs rerun one at a time.  Either way the error that
    escapes is the first failing pair's, with that pair's index in its
    ``pair`` attribute.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    cfgs = cfg if isinstance(cfg, tuple) else (cfg,)
    seeds = seed if isinstance(seed, tuple) else (seed,)
    runs = None
    if setup.oracle.linear:
        runs = list(_array_path(setup, cfgs, T, seeds))
    else:
        try:
            runs = _round_loop(setup, cfgs, T, seeds, dense)
        except WagmfError as e:
            if len(cfgs) * len(seeds) == 1:
                e.pair = 0
                raise
    if runs is None:
        runs = []
        for c in cfgs:
            for s in seeds:
                try:
                    runs.extend(_round_loop(setup, (c,), T, (s,), dense))
                except WagmfError as e:
                    e.pair = len(runs)
                    raise
    return runs if isinstance(cfg, tuple) or isinstance(seed, tuple) else runs[0]


def _array_path(setup: ProblemSetup, cfgs: tuple, T: int, seeds: tuple[int, ...]):
    """A linear oracle's runs: one (RunTrace, x_after) pair per (config,
    seed), configs outer, each built when it is asked for.  Each seed's
    gradient stream is drawn once, read-only, and run by every config
    through one ``steps.run_stream`` iterator, so its scans are shared and
    a caller that drops each config's pairs before asking for the next
    holds one config's arrays at a time.  A WagmfError carries the index of
    the pair that raised it, the first failing one, as ``pair``."""
    pair = 0
    try:
        streams = []
        for seed in seeds:
            gs = setup.oracle.gradients(T, RoundRng(seed))
            gs.flags.writeable = False
            streams.append((seed, gs, run_stream(initial_point(setup, seed), gs, cfgs, setup.feasible)))
        for k in range(len(cfgs)):
            for seed, gs, runs in streams:
                path, V, alphas = next(runs)
                if k == len(cfgs) - 1:
                    runs.close()  # its directions, before the last results are made
                yield RunTrace(path[:T], gs, linear_loss(gs, path[:T]), alphas, V, seed=seed), path[T].copy()
                pair += 1
    except WagmfError as e:
        e.pair = pair
        raise


def _round_loop(setup: ProblemSetup, cfgs: tuple, T: int, seeds: tuple[int, ...], dense: bool = True):
    """The per-round loop over the rows configs x seeds, configs outer, each
    row one (config, seed) run: row r runs seed ``seeds[r % S]``.  The loop
    decides which rows share a draw.  Each round an oracle that draws gets
    one ``evaluate`` call per seed, on that seed's rows with its
    ``RoundRng``, and any other one call on the (rows, d) stack X of every
    row; the round's gradients are checked once.

    Each run of consecutive configs equal apart from alpha
    (``steps.alpha_groups``) keeps one optimizer state over all its seeds'
    rows: its x is the view of its rows of X, and it steps once per round on
    the same rows of the gradient and of the round's column of step sizes
    (``schedules.alpha``).  Every operation of ``steps.step`` is per
    coordinate and its scalars (beta1_t, the weight sum) are shared by the
    rows, so each row is bit-identical to its own run in any mix of engines.

    Returns one (trace, x_after) pair per row.  Row r's per-round arrays are
    the contiguous slices [r] of (rows, T, ...) arrays; with ``dense=False``
    only the loss and alpha columns are kept, with x_T.
    """
    S = len(seeds)
    X = np.stack([initial_point(setup, s) for _ in cfgs for s in seeds])
    R, d = X.shape
    losses = np.empty((R, T))
    rounds = np.arange(1, T + 1)
    A = np.repeat([schedules.alpha(c.step, rounds) for c in cfgs], S, axis=0)  # (R, T)
    if dense:
        xs, gs, Vs = (np.empty((R, T, d)) for _ in range(3))
        x_rows, g_rows, V_rows = (a.swapaxes(0, 1) for a in (xs, gs, Vs))  # indexed round first
    groups = []
    for group in alpha_groups(cfgs):
        c = cfgs[group.start]
        rows = slice(group.start * S, group.stop * S)
        state = init_state(X[rows], c)
        state.x = X[rows]  # a view: steps update the stack in place
        groups.append((rows, state, c, presets_mod.STEP_FN[c.engine]))
    draws = [(slice(j, None, S), RoundRng(s)) for j, s in enumerate(seeds)]  # seed j's rows
    g = np.empty((R, d))
    loss_rows = losses.swapaxes(0, 1)
    evaluate = setup.oracle.evaluate
    for t in range(1, T + 1):
        i = t - 1
        if setup.oracle.stochastic:
            for seed_rows, rng in draws:
                loss_rows[i, seed_rows], g[seed_rows] = evaluate(t, X[seed_rows], rng)
        else:
            loss_rows[i], g = evaluate(t, X)
        check_gradient(g.reshape(-1), t)
        if dense:
            x_rows[i] = X
            g_rows[i] = g
        elif t == T:
            x_T = X.copy()
        for rows, state, c, step_fn in groups:
            step_fn(state, g[rows], c, setup.feasible, A[rows, i, None])
            if dense:
                V_rows[i, rows] = state.last_V
    runs = []
    for r, s in enumerate(seeds * len(cfgs)):
        if dense:
            trace = RunTrace(xs[r], gs[r], losses[r], A[r], Vs[r], seed=s)
        else:
            trace = LeanTrace(losses[r], A[r], x_T[r], seed=s)
        runs.append((trace, X[r].copy()))
    return runs


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


def csv_row_text(trace: RunTrace) -> tuple[list[str], list[str]]:
    """The ``"%d,"`` text of t and ``",%.17g\\n"`` text of alpha_t of each serialized row."""
    idx = trace_row_indices(trace.T)
    return ["%d," % t for t in trace.t[idx].tolist()], [",%.17g\n" % a for a in trace.alpha[idx].tolist()]


def write_trace_csv(trace: RunTrace, path, avg_regret: np.ndarray | None = None, row_text=None) -> None:
    """One ``TRACE_HEADER`` row per serialized round, values as ``%.17g``; t and
    alpha_t come as ``row_text``, the ``csv_row_text`` of any trace sharing them."""
    heads, tails = row_text or csv_row_text(trace)
    idx = trace_row_indices(trace.T)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(TRACE_HEADER + "\n")
        for lo in range(0, idx.size, _WRITE_ROWS):
            rows, hi = idx[lo : lo + _WRITE_ROWS], lo + _WRITE_ROWS
            x_norm = np.sqrt((trace.x[rows] ** 2).sum(axis=1))
            g_norm = np.sqrt((trace.g[rows] ** 2).sum(axis=1))
            avg = avg_regret[rows] if avg_regret is not None else np.full(rows.size, math.nan)
            cols = (c.tolist() for c in (trace.loss[rows], avg, x_norm, g_norm))
            f.write("".join(_CSV_ROW % row for row in zip(heads[lo:hi], *cols, tails[lo:hi])))


def write_trace_npy(trace: RunTrace, path) -> None:
    """The serialized rounds' t, x, g, V, loss and alpha as one little-endian
    structured record, byte for byte ``np.save`` of the whole record."""
    cols = {name: getattr(trace, name) for name in ("t", "x", "g", "V", "loss", "alpha")}
    dtype = np.dtype([(name, a.dtype.newbyteorder("<"), a.shape[1:]) for name, a in cols.items()])
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False}
    idx = trace_row_indices(trace.T)
    buf = np.empty(_WRITE_ROWS, dtype)  # one slice of the record, refilled per slice
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(f, header | {"shape": (idx.size,)})
        for lo in range(0, idx.size, _WRITE_ROWS):
            rows = idx[lo : lo + _WRITE_ROWS]
            rec = buf[: rows.size]
            for name, a in cols.items():
                rec[name] = a[rows]
            f.write(rec.tobytes())


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
    cfg._built = (repr(cfg.problem), validate_config(cfg))
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


def validate_config(cfg: ExperimentConfig, setup: ProblemSetup | None = None) -> ProblemSetup:
    """Config-time checks that need the constructed problem (``setup``, built
    from ``cfg.problem`` when not given) and presets."""
    setup = setup or build_problem(cfg.problem)
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
    if cfg.checkpoints and setup.oracle.known_optimum is None:
        # checkpoints record the average regret, which needs the optimum
        raise ConfigError("checkpoints need a problem with a known optimum")
    return setup


# ---------------------------------------------------------------------------
# execution


def _safe_name(name: str) -> str:
    return name.replace("(", "_").replace(")", "").replace(",", "_")


def _execute_job(
    config: ExperimentConfig, job: tuple, setup: ProblemSetup | None = None
) -> list[dict]:
    """Run one (cells, seeds) job of the grid, cells as (optimizer, alpha),
    and return one result per (cell, seed), cells outer; used directly and
    via the pool.

    The job's (trace, x_after) pairs, configs outer, come from a linear
    oracle's array path (``_array_path``), which builds each cell's pairs
    when they are taken, or else from one ``run_rounds`` call.  Each cell's
    pairs become its results before the next cell's are taken, so a linear
    job holds one config's arrays at a time.  A failing run's error names its
    cell and seed, found from the pair index the producer sets.

    Serial callers pass the problem they already built; pool workers build
    their own from ``config.problem``.
    """
    cells, seeds = job
    if setup is None:
        setup = build_problem(config.problem)
    cfgs = tuple(presets_mod.make_preset(name, alpha, config.overrides) for name, alpha in cells)
    S = len(seeds)
    results = []
    try:
        if setup.oracle.linear:
            runs = _array_path(setup, cfgs, config.T, seeds)
        else:
            runs = iter(run_rounds(setup, cfgs, config.T, seeds, dense=_needs_dense(config, setup.oracle)))
        for cell, cfg in zip(cells, cfgs):
            results += _cell_results(config, setup, cfg, cell, seeds, tuple(islice(runs, S)))
    except WagmfError as e:
        if not hasattr(e, "pair"):  # not a run's error
            raise
        (name, alpha), seed = cells[e.pair // S], seeds[e.pair % S]
        e.args = (f"{name} at alpha {alpha:g}, seed {seed}: {e}",)
        raise
    return results


def _needs_dense(config: ExperimentConfig, oracle: LossOracle) -> bool:
    """Whether a cell's result reads its dense x, g and V: for trace files,
    bounds or regret against a known optimum."""
    return bool(config.out) or config.bound_eval or oracle.known_optimum is not None


def _cell_results(config, setup, cfg, cell, seeds, runs):
    """Yield one (optimizer, alpha) cell's result per seed of its (trace,
    x_after) ``runs``, with trace files under ``config.out``.  The seeds share
    alpha_t, so their bounds and the CSV text of t and alpha_t are built once;
    a minibatch oracle's full-data losses are one call on the stacked x_after."""
    name, alpha = cell
    traces = tuple(trace for trace, _ in runs)
    bounds = _evaluate_bounds(traces, setup, cfg) if config.bound_eval else None
    row_text = csv_row_text(traces[0]) if config.out else None
    full_losses = None
    if isinstance(setup.oracle, MinibatchOracle):
        full_losses = setup.oracle.full_loss(np.stack([x_after for _, x_after in runs])).tolist()
    for k, (seed, trace) in enumerate(zip(seeds, traces)):
        x_T = trace.x_T if isinstance(trace, LeanTrace) else trace.x[-1]
        result = {
            "optimizer": name,
            "alpha": alpha,
            "seed": seed,
            "final_loss": float(trace.loss[-1]),
            "final_x_norm": float(np.sqrt((x_T**2).sum())),
        }
        if x_T.size <= _SIDECAR_MAX_DIM:
            result["final_x"] = x_T.tolist()
        avg_series = None
        if setup.oracle.known_optimum is not None:
            avg_series = regret(trace, setup.oracle, setup.oracle.known_optimum).average
            result["final_avg_regret"] = float(avg_series[-1])
            if config.checkpoints:
                result["avg_regret_at"] = {str(c): float(avg_series[c - 1]) for c in config.checkpoints}
            selection = result["final_avg_regret"]
        elif full_losses is not None:
            result["final_full_loss"] = full_losses[k]
            selection = result["final_full_loss"]
        else:
            selection = result["final_loss"]
        result["selection_metric"] = float(selection)
        if config.bound_eval:
            result["bounds"] = bounds[k]
        out = config.out
        if out:
            stem = f"{_safe_name(setup.name)}__{_safe_name(name)}__a{alpha:g}__s{seed}"
            csv_path = Path(out) / f"{stem}.csv"
            write_trace_csv(trace, csv_path, avg_series, row_text)
            result["trace_csv"] = str(csv_path)
            if trace.dim <= _SIDECAR_MAX_DIM:
                npy_path = Path(out) / f"{stem}.npy"
                write_trace_npy(trace, npy_path)
                result["trace_npy"] = str(npy_path)
        yield result


def _evaluate_bounds(traces: tuple[RunTrace, ...], setup: ProblemSetup, cfg: OptimizerConfig) -> list[dict]:
    """Bound evaluation of one config's traces, one dict each, for the
    sum/stable engines (the family the analysis covers); the closed-form bound
    additionally needs linear weights, the fourth root, and strict momentum decay."""
    if cfg.engine not in ("wagmf_sum", "wagmf_stable"):
        return [{"skipped": f"engine {cfg.engine} is outside the analyzed family"} for _ in traces]
    d_inf = diameter_inf(setup.feasible)
    beta1 = cfg.momentum.beta1
    lam = cfg.momentum.lam
    outs = [{"thm1": asdict(rep)} for rep in thm1_bound(traces, d_inf, beta1, lam)]
    if cfg.weight.kind == "linear" and cfg.p2 == 4 and lam < 1.0:
        for out, trace in zip(outs, traces):
            g_inf = float(np.abs(trace.g).max())
            cor = corollary1_bound(trace.g, d_inf, g_inf, cfg.step.base_alpha, beta1, lam)
            out["corollary1"] = {**asdict(cor), "g_inf": g_inf}
    return outs


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


def _jobs(config: ExperimentConfig, oracle: LossOracle, workers: int) -> list[tuple]:
    """The grid as (cells, seeds) jobs, cells as (optimizer, alpha), whose
    results joined in job order are in grid order.

    A job's per-round trace arrays hold T values per row and round, or T*d
    when a result reads the dense trace (``_needs_dense``), and stay within
    ``_BLOCK_ELEMENTS``.  When every seed of a cell fits and a pool has no
    more ``workers`` than cells, jobs are chunks of the grid's cells run
    with every seed; on a linear oracle such a chunk shares each seed's
    drawn stream and its scans across optimizer entries, and holds one
    config's arrays at a time (``_execute_job``).  Otherwise each job is one
    cell with a chunk of its seeds.  Chunks are contiguous and the fewest
    that fit, or more where the pool would otherwise get fewer jobs than
    workers.  A run's results do not depend on its job.
    """
    cells = [(entry["name"], a) for entry in config.optimizers for a in entry["alphas"]]
    seeds = tuple(config.seeds)
    width = oracle.dim if _needs_dense(config, oracle) else 1
    rows = max(1, _BLOCK_ELEMENTS // (config.T * width))
    if rows >= len(seeds) and workers <= len(cells):
        return [(chunk, seeds) for chunk in _chunks(cells, rows // len(seeds), workers, 1)]
    return [((cell,), chunk) for cell in cells for chunk in _chunks(seeds, rows, workers, len(cells))]


def _chunks(items, size: int, workers: int, jobs_per_chunk: int) -> list[tuple]:
    """``items`` in the fewest contiguous chunks of at most ``size``, and in
    more where ``workers`` would otherwise get fewer than one job each, with
    ``jobs_per_chunk`` jobs for every chunk."""
    n = len(items)
    chunks = math.ceil(n / size)
    if workers > 1:
        chunks = min(n, max(chunks, math.ceil(workers / jobs_per_chunk)))
    return [tuple(items[k * n // chunks : (k + 1) * n // chunks]) for k in range(chunks)]


def run(config: ExperimentConfig) -> dict:
    """Execute the full experiment grid and return the summary tree.

    When ``config.out`` is set, per-run traces and ``summary.json`` are
    written there.  The grid runs as (cells, seeds) jobs (``_jobs``),
    and output is identical for any worker count and chunking.  Serial jobs
    share the problem that validation built (oracles hold no per-run state;
    a run's caches live on its ``RoundRng``); pool workers build their own.
    A config from ``parse_config`` hands its first run the problem it built.
    """
    problem, setup = vars(config).pop("_built", (None, None))
    setup = validate_config(config, setup if problem == repr(config.problem) else None)
    if config.out:
        Path(config.out).mkdir(parents=True, exist_ok=True)

    workers = _worker_count()
    jobs = _jobs(config, setup.oracle, workers)
    if workers > 1 and len(jobs) > 1:
        # fork starts every worker at the first submit, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
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
