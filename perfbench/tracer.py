"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

The recorder wraps wagmf's public functions at run time from outside the
package: each wrapped call appends one span (name, start, end, parent index,
value) to an in-memory list.  A name is patched in every wagmf module
namespace that holds the function, so each caller resolves the wrapper
whichever module it looks the name up in.  A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
import time

# arrays a dense RunTrace holds per cell
_TRACE_ARRAYS = ("x", "g", "V", "loss", "alpha")


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        """Return ``fn`` wrapped in a span; ``value(args, kwargs, result)``,
        when given, is stored with the span and evaluated after it ends."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0)
            if value is not None:
                spans[idx] = (name, start, end, parent, value(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, value=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.wrap(name, fn, value)
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "wagmf"]:
            for key, obj in list(vars(mod).items()):
                if obj is fn:
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        """Wrap the layers' public functions; call after ``import wagmf``."""
        import wagmf.analysis as analysis
        import wagmf.feasible as feasible
        import wagmf.presets as presets
        import wagmf.problems as problems
        import wagmf.runner as runner

        self.patch(runner, "run_rounds", "runner.run_rounds", _trace_bytes)
        self.patch(runner, "build_problem", "runner.build_problem")
        self.patch(runner, "regret", "analysis.regret")
        self.patch(runner, "thm1_bound", "analysis.thm1_bound")
        self.patch(runner, "corollary1_bound", "analysis.corollary1_bound")
        self.patch(runner, "write_trace_csv", "runner.trace_io", _file_bytes)
        self.patch(runner, "write_trace_jsonl", "runner.trace_io", _file_bytes)
        self.patch(analysis, "reconstruct_momentum", "analysis.reconstruct_momentum")
        self.patch(presets, "make_preset", "presets.make_preset")
        self.patch(feasible, "project", "feasible.project")
        step_fn = getattr(presets, "STEP_FN", None)
        if step_fn is None:
            self.missing.append("wagmf.presets.STEP_FN")
        else:  # the same dict object as steps.STEP_FN
            for engine, fn in list(step_fn.items()):
                step_fn[engine] = self.wrap("steps.step", fn)
        oracles = [problems.LossOracle]
        while oracles:
            cls = oracles.pop()
            oracles.extend(cls.__subclasses__())
            if "evaluate" in vars(cls):
                cls.evaluate = self.wrap("problems.evaluate", vars(cls)["evaluate"])


def _trace_bytes(args, kwargs, result) -> int:
    """Bytes of the dense per-round arrays in the trace run_rounds returns,
    computed from their shapes."""
    trace = result[0]
    return sum(getattr(getattr(trace, a, None), "nbytes", 0) for a in _TRACE_ARRAYS)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1])  # the writers take (trace, path, ...)


def aggregate(spans) -> dict:
    """Fold spans into per-(parent name, name) totals.

    Returns {"<parent>><name>": {"calls", "total_s", "self_s", "value_sum"}};
    a root span's parent name is empty.  Self time is the span's duration
    minus the summed durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, value) in enumerate(spans):
        key = f"{spans[parent][0] if parent >= 0 else ''}>{name}"
        a = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value_sum": 0})
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += end - start - child_s[i]
        a["value_sum"] += value
    return out


def _sum(agg: dict, name: str, field: str, parent: str | None = None):
    return sum(
        v[field]
        for k, v in agg.items()
        if k.split(">")[1] == name and (parent is None or k.split(">")[0] == parent)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "steps.step.calls": "count",
    "steps.step.us_per_round": "us",
    "steps.step.share": "ratio",
    "problems.evaluate.calls": "count",
    "problems.evaluate.us_per_call": "us",
    "problems.evaluate.share": "ratio",
    "runner.run_rounds.self_us_per_round": "us",
    "runner.trace.bytes_computed": "B",
    "analysis.regret.self_s": "s",
    "analysis.thm1_bound.self_s": "s",
    "analysis.reconstruct_momentum.self_s": "s",
    "analysis.corollary1_bound.self_s": "s",
    "runner.trace_io.self_s": "s",
    "runner.trace_io.bytes": "B",
    "runner.trace_io.files": "count",
    "runner.build_problem.calls": "count",
    "runner.build_problem.self_s": "s",
    "presets.make_preset.calls": "count",
    "runner.pool.speedup": "ratio",
    "feasible.project.calls": "count",
    "trace.overhead_s": "s",
}
# the metrics that are counts of work and must repeat exactly across runs
EXACT = (
    "steps.step.calls",
    "problems.evaluate.calls",
    "runner.trace.bytes_computed",
    "runner.trace_io.bytes",
    "runner.trace_io.files",
    "runner.build_problem.calls",
    "presets.make_preset.calls",
    "feasible.project.calls",
)


def layer_metrics(agg: dict, rounds: int) -> dict:
    """Per-layer metrics of one traced grid from its aggregated spans.

    ``rounds`` is the sum over cells of T.  Evaluate counts and times are
    those inside the round loop; shares are of the round loop's total time;
    trace bytes are per cell (every cell of a grid has the same T and d).
    ``runner.pool.speedup`` and ``trace.overhead_s`` need untraced runs and
    are filled in by the caller.
    """
    loop = "runner.run_rounds"
    loop_s = _sum(agg, loop, "total_s")
    step_s = _sum(agg, "steps.step", "total_s")
    eval_calls = _sum(agg, "problems.evaluate", "calls", parent=loop)
    eval_s = _sum(agg, "problems.evaluate", "total_s", parent=loop)
    return {
        "steps.step.calls": _sum(agg, "steps.step", "calls"),
        "steps.step.us_per_round": 1e6 * _ratio(step_s, rounds),
        "steps.step.share": _ratio(step_s, loop_s),
        "problems.evaluate.calls": eval_calls,
        "problems.evaluate.us_per_call": 1e6 * _ratio(eval_s, eval_calls),
        "problems.evaluate.share": _ratio(eval_s, loop_s),
        "runner.run_rounds.self_us_per_round": 1e6 * _ratio(_sum(agg, loop, "self_s"), rounds),
        "runner.trace.bytes_computed": _ratio(_sum(agg, loop, "value_sum"), _sum(agg, loop, "calls")),
        "analysis.regret.self_s": _sum(agg, "analysis.regret", "self_s"),
        "analysis.thm1_bound.self_s": _sum(agg, "analysis.thm1_bound", "self_s"),
        "analysis.reconstruct_momentum.self_s": _sum(agg, "analysis.reconstruct_momentum", "self_s"),
        "analysis.corollary1_bound.self_s": _sum(agg, "analysis.corollary1_bound", "self_s"),
        "runner.trace_io.self_s": _sum(agg, "runner.trace_io", "self_s"),
        "runner.trace_io.bytes": _sum(agg, "runner.trace_io", "value_sum"),
        "runner.trace_io.files": _sum(agg, "runner.trace_io", "calls"),
        "runner.build_problem.calls": _sum(agg, "runner.build_problem", "calls"),
        "runner.build_problem.self_s": _sum(agg, "runner.build_problem", "self_s"),
        "presets.make_preset.calls": _sum(agg, "presets.make_preset", "calls"),
        "feasible.project.calls": _sum(agg, "feasible.project", "calls"),
    }
