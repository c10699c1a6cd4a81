"""Quick check of the benchmark itself.

    python3 perfbench/selftest.py

1. Self-time arithmetic on a synthetic nested span set, and span parents as
   the live recorder nests them.
2. The reference loop reproduces the outputs wagmf gave at the commit that
   introduced the benchmark (``recorded.json``, seeds 1 and 2 of each
   workload at full size).
3. A tiny-T run of every workload, untraced and traced: the result is
   correct, and every metric BENCHMARK.json names, and ``fail_ratio``, is
   printed with its unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import reference
import run
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def check_self_time() -> None:
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9];
    # E [12, 15] holds a second B [14, 14.5].
    spans = [
        ("A", 0.0, 10.0, -1, 0),
        ("B", 1.0, 4.0, 0, 5),
        ("C", 2.0, 3.0, 1, 0),
        ("D", 5.0, 9.0, 0, 7),
        ("E", 12.0, 15.0, -1, 0),
        ("B", 14.0, 14.5, 4, 2),
    ]
    agg = tracer.aggregate(spans)
    self_s = {k: v["self_s"] for k, v in agg.items()}
    assert self_s == {">A": 3.0, "A>B": 2.0, "B>C": 1.0, "A>D": 4.0, ">E": 2.5, "E>B": 0.5}, self_s
    assert tracer._sum(agg, "B", "calls") == 2 and tracer._sum(agg, "B", "total_s") == 3.5
    assert tracer._sum(agg, "B", "value_sum") == 7
    assert tracer._sum(agg, "B", "calls", parent="A") == 1

    rec = tracer.Recorder()
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: [inner(), inner()])
    outer()
    inner()
    assert [(s[0], s[3]) for s in rec.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0), ("inner", -1)
    ], rec.spans
    agg = tracer.aggregate(rec.spans)
    outer_total = agg[">outer"]["total_s"]
    covered = agg["outer>inner"]["total_s"]
    assert math.isclose(agg[">outer"]["self_s"], outer_total - covered, abs_tol=1e-12)


def check_recorded() -> None:
    recorded = json.loads((HERE / "recorded.json").read_text(encoding="utf-8"))
    for name, by_seed in recorded.items():
        for seed, want in by_seed.items():
            got = reference.expected(WORKLOADS[name].config(int(seed)))
            assert got["best"] == want["best"], (name, seed, got["best"], want["best"])
            assert run.failed_cells(want, got) == 0, (name, seed)


def check_smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        for name in WORKLOADS:
            result = run.measure(name, seed=0, seconds=0, trace=trace, T=30)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.report(result)
            lines = out.getvalue().splitlines()
            final = json.loads(lines[-1])
            assert final["correct"] and final["failed"] == 0, (name, trace, lines)
            got = {k: m["unit"] for k, m in final["metrics"].items()}
            assert got == declared, (name, trace, got)
            assert all(math.isfinite(m["value"]) for m in final["metrics"].values())
            printed = {p[0]: p[2] for p in map(str.split, lines[:-1]) if len(p) >= 3}
            for metric, unit in {**declared, "fail_ratio": "ratio"}.items():
                assert printed.get(metric) == unit, (name, metric, lines)
            if trace:
                assert any(n.startswith("count self-check ok") for n in lines), lines


def main() -> int:
    for check in (check_self_time, check_recorded, check_smoke):
        check()
        print(f"{check.__name__}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
