"""One benchmark grid in a fresh process.

    python3 child.py CONFIG_JSON MODE T0

MODE is ``plain`` or ``traced``; T0 is the parent's ``time.monotonic()``
just before it started this process.  The child imports wagmf, parses the
config (the set-up a user waits for), runs the whole grid, and prints one
JSON line: set-up and grid times, peak RSS, each cell's outputs, each
optimizer's selected alpha, a digest of the summary, and in traced mode
the aggregated spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main(config_path: str, mode: str, t0: float) -> dict:
    import wagmf.runner as runner

    recorder = None
    if mode == "traced":
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
    config = runner.parse_config(raw)
    setup_s = time.monotonic() - t0

    start = time.perf_counter()
    summary = runner.run(config)
    grid_s = time.perf_counter() - start

    if config.out:
        summary_bytes = (Path(config.out) / "summary.json").read_bytes()
    else:  # the bytes run() would write to summary.json
        summary_bytes = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    cells = []
    for r in summary["runs"]:
        bounds = r.get("bounds", {})
        cells.append(
            {
                "optimizer": r["optimizer"],
                "alpha": r["alpha"],
                "seed": r["seed"],
                "selection": r["selection_metric"],
                "thm1": bounds.get("thm1", {}).get("total"),
                "corollary1": bounds.get("corollary1", {}).get("total"),
            }
        )
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "setup_s": setup_s,
        "grid_s": grid_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "cells": cells,
        "best": {name: b["alpha"] for name, b in summary["best"].items()},
        "summary_sha256": hashlib.sha256(summary_bytes).hexdigest(),
    }
    if recorder is not None:
        out["spans"] = tracer.aggregate(recorder.spans)
        out["missing"] = recorder.missing
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], float(sys.argv[3]))))
