"""wagmf benchmark: end-to-end grid metrics per workload, or, traced, the
per-layer split.

    python3 perfbench/run.py --workload spike_grid --seed 1 --seconds 20 --trace 0

Run from the root of a wagmf checkout; the package is imported from its
``src``.  Each grid runs in a fresh child process (``child.py``) so set-up
time and peak memory are those a user of one run sees.  A run first computes
the reference outputs for the seed's inputs (``reference.py``), then runs a
short warm-up grid, then repeats grids while another round of them still
ends within ``--seconds``.  Every grid is checked against the reference, and
every grid of a run must leave a byte-identical ``summary.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced grids with traced ones (spans from ``tracer.py``) and prints the
per-layer metrics; on a pooled workload it also runs serial untraced grids,
for the pool speed-up and the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# numpy's OpenBLAS is threaded; one thread per process keeps pool workers
# from oversubscribing the cores.  Children inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 40  # a full grid takes about 2 s
GRACE_S = 30  # past --seconds, stop even if a kind has fewer than MIN_GRIDS grids
MIN_GRIDS = 3  # per kind of grid, even when --seconds is shorter
WARM_UP_T = 30

E2E_UNITS = {"setup_s": "s", "grid_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def spawn(config_path: Path, mode: str, threads: int) -> dict:
    """Run one grid in a fresh process; {"error": ...} if it fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), WAGMF_THREADS=str(threads))
    t0 = time.monotonic()
    # its own session, so a grid that overruns is killed with its pool workers
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(config_path), mode, repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"grid took more than {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        lines = stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit code {proc.returncode}"}
    return json.loads(stdout.strip().splitlines()[-1])


def failed_cells(result: dict, expected: dict) -> int:
    """Cells of one grid that raised, sit in an optimizer whose selected
    alpha differs from the reference, or miss a reference value."""
    n_cells = len(expected["cells"])
    if "error" in result:
        return n_cells
    wrong = {name for name, a in expected["best"].items() if result["best"].get(name) != a}
    failed = 0
    for c in result["cells"]:
        want = expected["cells"].get((c["optimizer"], c["alpha"], c["seed"]))
        if (
            want is None
            or c["optimizer"] in wrong
            or not all(reference.close(c[k], want[k]) for k in ("selection", "thm1", "corollary1"))
        ):
            failed += 1
    return failed + max(0, n_cells - len(result["cells"]))


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool, T: int | None = None) -> dict:
    """One benchmark run; returns the result object the last line prints,
    plus "notes" (lines to print before it)."""
    if not (ROOT / "src" / "wagmf" / "__init__.py").is_file():
        raise BenchError(f"no wagmf package under {ROOT / 'src'}")
    w = WORKLOADS[workload]
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(w, seed, seconds, trace, T, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:  # unless another run is using it
            work.parent.rmdir()
        except OSError:
            pass


def _measure(w: Workload, seed: int, seconds: float, trace: bool, T: int | None, work: Path) -> dict:
    out_dir = work / "out"

    def write_config(path: Path, T: int | None) -> dict:
        config = w.config(seed, T)
        if w.writes_traces:  # relative, so summaries name the same paths
            config["out"] = str(out_dir.relative_to(ROOT))
        path.write_text(json.dumps(config), encoding="utf-8")
        return config

    config_path, warm_path = work / "config.json", work / "warm-up.json"
    config = write_config(config_path, T)
    write_config(warm_path, WARM_UP_T)
    rounds = Workload.rounds(config)
    expected = reference.expected(config)

    # kind of grid -> (child mode, worker count)
    kinds = {"plain": ("plain", w.threads)}
    if trace:
        kinds["traced"] = ("traced", 1)
        if w.threads > 1:
            kinds["serial"] = ("plain", 1)
    samples: dict[str, list[dict]] = {k: [] for k in kinds}
    attempted = failed = 0
    digests = set()
    errors = []

    def grid(kind: str) -> dict:
        nonlocal attempted, failed
        shutil.rmtree(out_dir, ignore_errors=True)
        result = spawn(config_path, *kinds[kind])
        attempted += len(expected["cells"])
        failed += failed_cells(result, expected)
        if "error" in result:
            errors.append(f"{kind}: {result['error']}")
        else:
            digests.add(result["summary_sha256"])
        return result

    # warm-up on a short horizon: compiles bytecode and fills the file cache
    shutil.rmtree(out_dir, ignore_errors=True)
    warm = spawn(warm_path, *kinds["plain"])
    if "error" in warm:
        raise BenchError(f"{w.name}: warm-up grid failed: {warm['error']}")
    start = time.monotonic()
    while True:
        lap = time.monotonic()
        for kind in kinds:
            result = grid(kind)
            if "error" not in result:
                samples[kind].append(result)
        now = time.monotonic()
        # stop before another round of grids would overrun --seconds
        if all(len(s) >= MIN_GRIDS for s in samples.values()) and 2 * now - lap - start > seconds:
            break
        if now - start > seconds + GRACE_S:
            if not all(samples.values()):
                raise BenchError(f"{w.name}: every grid of a kind failed; first error: {errors[0]}")
            break

    notes = [f"{w.name} seed {seed}, grid_s per grid:"]
    for kind, ss in samples.items():
        notes.append(f"  {kind} (n={len(ss)}): " + " ".join(f"{s['grid_s']:.4f}" for s in ss))
    notes += [f"grid failed: {e}" for e in errors[:5]]
    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        notes.append(f"summary.json differs between grids of one run: {len(digests)} variants")

    plain = samples["plain"]
    if not trace:
        # The host's speed drifts in phases of seconds, so per-grid times are
        # bimodal and their median jumps between the modes; the mean (total
        # time over grids) moves smoothly with the share of slow grids.
        grid_s = statistics.fmean(s["grid_s"] for s in plain)
        values = {
            "setup_s": median(s["setup_s"] for s in plain),
            "grid_s": grid_s,
            "rounds_per_s": rounds / grid_s,
            "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
        }
        times = sorted(s["grid_s"] for s in plain)
        notes.append(
            f"grid_s over {len(times)} grids: mean {grid_s:.4f}, median {median(times):.4f}, "
            f"min {times[0]:.4f}, max {times[-1]:.4f}"
        )
        units = E2E_UNITS
    else:
        per = [tracer.layer_metrics(s["spans"], rounds) for s in samples["traced"]]
        for name in tracer.EXACT:
            if len({p[name] for p in per}) > 1:
                correct = False
                notes.append(f"{name} differs between traced grids: {sorted({p[name] for p in per})}")
        values = {name: median(p[name] for p in per) for name in per[0]}
        serial = samples.get("serial", plain)
        # a workload without a pool runs serially: speed-up 1 by definition
        values["runner.pool.speedup"] = median(s["grid_s"] for s in serial) / median(
            s["grid_s"] for s in plain
        )
        # traced and untraced grids of one round ran back to back; pairing
        # them keeps the host's drift out of the difference
        values["trace.overhead_s"] = median(
            t["grid_s"] - u["grid_s"] for t, u in zip(samples["traced"], serial)
        )
        steps, evals = values["steps.step.calls"], values["problems.evaluate.calls"]
        status = "ok" if steps == evals == rounds else "MISMATCH"
        notes.append(
            f"count self-check {status}: steps.step.calls {steps:g}, "
            f"problems.evaluate.calls {evals:g}, sum of cells x T {rounds}"
        )
        missing = sorted({m for s in samples["traced"] for m in s["missing"]})
        if missing:
            notes.append(f"not traced (not found): {', '.join(missing)}")
        units = tracer.LAYER_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "notes": notes,
    }


def report(result: dict) -> None:
    """Print a run's notes, each metric with its unit, the failed share of
    cells, the provenance, and last the JSON result."""
    for line in result.pop("notes"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':40s} {fail_ratio:.6g} ratio ({result['failed']} of {result['attempted']} cells)")
    print("provenance " + json.dumps(provenance()))
    print(json.dumps(result))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
