"""Digests of the outputs of the benchmark's workload configs, for checking
that a change keeps every output byte (opt-in, outside Tier-1).

Each config of ``perfbench/workloads.py`` runs in this process for every
seed, once writing traces under ``out`` and once lean (no ``out``), each
with ``WAGMF_THREADS`` unset and at 2. One line is printed per run:

    <workload> <seed> <out|lean> <threads> <sha256>

The digest covers ``summary.json`` and, with ``out``, every trace file's
name and bytes, with the out directory's path replaced by a fixed token; a
lean run digests the bytes ``run`` would have written to ``summary.json``.
Run it on two checkouts and diff the output:

    PYTHONPATH=src python scripts/output_digest.py [--seeds 1 2] [--T 50]

It exits 1 if a run's digest depends on the worker count.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

from wagmf.runner import parse_config, run

ROOT = Path(__file__).resolve().parents[1]
THREADS = (None, "2")  # WAGMF_THREADS: unset, then two workers


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _digest(raw: dict, threads: str | None, out: Path | None) -> str:
    saved = os.environ.pop("WAGMF_THREADS", None)
    if threads is not None:
        os.environ["WAGMF_THREADS"] = threads
    try:
        summary = run(parse_config({**raw, "out": str(out)} if out else raw))
    finally:
        os.environ.pop("WAGMF_THREADS", None)
        if saved is not None:
            os.environ["WAGMF_THREADS"] = saved
    h = hashlib.sha256()
    if out is None:
        h.update((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
        return h.hexdigest()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes().replace(str(out).encode(), b"<out>"))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="workload seeds (default 1 2)")
    parser.add_argument("--T", type=int, default=None, help="rounds per run (default: each workload's own)")
    args = parser.parse_args(argv)
    disagree = []
    for name, workload in _workloads().items():
        for seed in args.seeds:
            raw = workload.config(seed, args.T)
            for mode in ("out", "lean"):
                digests = set()
                for threads in THREADS:
                    if mode == "out":
                        with tempfile.TemporaryDirectory() as tmp:
                            digest = _digest(raw, threads, Path(tmp))
                    else:
                        digest = _digest(raw, threads, None)
                    digests.add(digest)
                    print(f"{name} {seed} {mode} {threads or 'unset'} {digest}", flush=True)
                if len(digests) > 1:
                    disagree.append(f"{name} {seed} {mode}")
    for run_name in disagree:
        print(f"worker counts disagree: {run_name}", file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
