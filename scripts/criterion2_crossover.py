"""Criterion 2's grid past the crossover horizon (opt-in, outside Tier-1).

Criterion 2 (``tests/test_acceptance.py``) runs the periodic online stream
for 500k rounds, where wada's average regret is still above adam's. On that
grid wada's R/T falls below adam's between T = 2.0M and 2.1M rounds. This
script runs the same grid at T = 2.1M (or at ``--T``, at least its last
checkpoint, 100k) and checks both halves of the criterion there: wada's
final R/T is below adam's, and wada's checkpoints fall strictly.

    PYTHONPATH=src python scripts/criterion2_crossover.py [--T 2100000]

It prints one line, ending with the grid's wall time and the peak RSS of
its largest process, and exits 1 if a check fails. At 2.1M rounds it took
4.7-4.9 s and 182 MB serially on a 2-core x86-64 VM.
"""

import argparse
import resource
import sys
import time

from wagmf.runner import parse_config, run

CHECKPOINTS = [10_000, 100_000]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=2_100_000, help="rounds (default 2100000)")
    T = parser.parse_args(argv).T
    if T < CHECKPOINTS[-1]:
        parser.error(f"--T must be at least the last checkpoint, {CHECKPOINTS[-1]}")
    t0 = time.monotonic()
    summary = run(
        parse_config(
            {
                "problem": {"kind": "reddi_online"},
                "T": T,
                "seeds": [0],
                "checkpoints": CHECKPOINTS,
                "optimizers": [
                    {"name": "adam", "alphas": [0.03, 0.1, 0.3, 1.0]},
                    {"name": "wada", "alphas": [0.003, 0.01, 0.03, 0.1]},
                ],
            }
        )
    )
    wall = time.monotonic() - t0
    # the largest process's peak, pool workers included; ru_maxrss is in KiB on Linux
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    best = {name: summary["best"][name]["alpha"] for name in ("adam", "wada")}
    adam, wada = (
        next(r for r in summary["runs"] if r["optimizer"] == name and r["alpha"] == best[name])
        for name in ("adam", "wada")
    )
    adam_rt, wada_rt = adam["final_avg_regret"], wada["final_avg_regret"]
    c1, c2 = (wada["avg_regret_at"][str(c)] for c in CHECKPOINTS)
    beats = wada_rt < adam_rt
    falls = c1 > c2 > wada_rt
    print(
        f"T={T}: wada R/T={wada_rt:.4f} (a*={best['wada']:g}) "
        f"{'<' if beats else '>='} adam R/T={adam_rt:.4f} (a*={best['adam']:g}); "
        f"wada checkpoints {c1:.4f} > {c2:.4f} > {wada_rt:.4f} "
        f"{'fall strictly' if falls else 'do NOT fall strictly'}; "
        f"grid {wall:.1f} s, peak RSS {peak_kib / 1024:.0f} MB"
    )
    return 0 if beats and falls else 1


if __name__ == "__main__":
    sys.exit(main())
