"""Command-line front end.

    wagmf run --config experiment.json [--optimizer NAME]... [--alpha GRID]
              [--T N] [--seed S]... [--out DIR] [--bound-eval] [--significance]

The config file is a JSON tree (see the README for the schema); flags
override the corresponding config entries.  Exit codes: 0 success, 1 config
error, 2 runtime failure (a failing run, a pool worker that died, or memory
running out).  The WAGMF_THREADS environment variable caps the
worker pool used for independent runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor

from . import runner
from .errors import ConfigError, WagmfError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wagmf")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment grid from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument(
        "--optimizer",
        action="append",
        default=None,
        metavar="NAME",
        help="replace the config's optimizer list (repeatable)",
    )
    p_run.add_argument(
        "--alpha",
        default=None,
        metavar="GRID",
        help="comma-separated step-size grid applied to every optimizer",
    )
    p_run.add_argument("--T", type=int, default=None, help="number of rounds")
    p_run.add_argument(
        "--seed",
        action="append",
        type=int,
        default=None,
        metavar="S",
        help="run seed (repeatable)",
    )
    p_run.add_argument("--out", default=None, help="output directory for traces/summary")
    p_run.add_argument(
        "--bound-eval", action="store_true", help="evaluate regret bounds per run"
    )
    p_run.add_argument(
        "--significance",
        action="store_true",
        help="pairwise t-tests on per-seed metrics at the selected alphas",
    )
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} is not valid JSON: {e}") from None


def _apply_flags(raw: dict, args: argparse.Namespace) -> dict:
    raw = dict(raw)
    if args.alpha is not None:
        try:
            grid = [float(a) for a in args.alpha.split(",") if a.strip()]
        except ValueError:
            raise ConfigError(f"bad --alpha grid {args.alpha!r}") from None
        if not grid:
            raise ConfigError("--alpha grid is empty")
    else:
        grid = None
    if args.optimizer is not None:
        raw["optimizers"] = [
            {"name": n, "alphas": grid} if grid else {"name": n} for n in args.optimizer
        ]
    elif grid is not None:
        raw["optimizers"] = [
            {**(o if isinstance(o, dict) else {"name": o}), "alphas": grid}
            for o in raw.get("optimizers", [])
        ]
    if args.T is not None:
        raw["T"] = args.T
    if args.seed is not None:
        raw["seeds"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    if args.bound_eval:
        raw["bound_eval"] = True
    if args.significance:
        raw["significance"] = True
    return raw


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _apply_flags(_load_config(args.config), args)
        config = runner.parse_config(raw)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        summary = runner.run(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (WagmfError, OSError, ValueError, OverflowError, MemoryError, BrokenExecutor) as e:
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    best = summary.get("best", {})
    for name in sorted(best):
        entry = best[name]
        print(f"{name}: alpha={entry['alpha']:g} metric={entry['metric']:.6g}")
    if "significance" in summary:
        for pair in sorted(summary["significance"]):
            cell = summary["significance"][pair]
            mark = "*" if cell["significant"] else " "
            print(f"{mark} {pair}: p={cell['p']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
