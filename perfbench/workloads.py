"""The benchmark's workloads: each turns a workload seed into one wagmf
experiment config plus the worker count it runs with.

Only the generated configs reach wagmf; the workload seed picks the random
stream, dataset and problem instance, so every seed gives different inputs
of the same size and cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # WAGMF_THREADS for the end-to-end run
    writes_traces: bool  # cells write CSV/JSONL traces into an out dir
    make: Callable[[random.Random, int | None], dict]  # (rng, T override) -> config

    def config(self, seed: int, T: int | None = None) -> dict:
        return self.make(random.Random(seed), T)

    @staticmethod
    def rounds(config: dict) -> int:
        """Sum over cells of T: the rounds one grid runs."""
        cells = sum(len(o["alphas"]) for o in config["optimizers"]) * len(config["seeds"])
        return cells * config["T"]


def _spike_grid(rng: random.Random, T: int | None) -> dict:
    # criterion 1's grid on the stochastic spike stream, at a shorter horizon
    T = T or 6000
    return {
        "problem": {"kind": "reddi_stochastic", "feasible": {"lo": [-1.0], "hi": [1.0]}},
        "T": T,
        "seeds": [rng.randrange(1 << 31)],
        "checkpoints": [max(1, T // 10)],
        "optimizers": [
            {"name": "adam", "alphas": [0.03, 0.1, 0.3, 1.0]},
            {"name": "wada", "alphas": [0.003, 0.01, 0.03, 0.1]},
            {"name": "amsgrad", "alphas": [0.03, 0.1, 0.3, 1.0]},
        ],
    }


def _softmax_minibatch(rng: random.Random, T: int | None) -> dict:
    # n = 4000, d = 64, k = 10: 650 parameters, batch 256
    return {
        "problem": {
            "kind": "softmax",
            "data": {"blobs": {"n": 4000, "d": 64, "k": 10, "seed": rng.randrange(1 << 31)}},
            "batch_size": 256,
        },
        "T": T or 1600,
        "seeds": [rng.randrange(1 << 31)],
        "optimizers": [
            {"name": "adam", "alphas": [0.01, 0.03]},
            {"name": "wada", "alphas": [0.003, 0.01]},
        ],
    }


def _bound_sweep(rng: random.Random, T: int | None) -> dict:
    # criterion 4's shape on one random constrained quadratic, 20 seeds
    return {
        "problem": {"kind": "quadratic", "dim": 5, "instance_seed": rng.randrange(1 << 31)},
        "T": T or 1000,
        "seeds": sorted(rng.sample(range(1 << 31), 20)),
        "optimizers": [{"name": "wada", "alphas": [0.1, 0.5]}],
        "overrides": {"lambda": 0.99},
        "bound_eval": True,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spike_grid", 1, False, _spike_grid),
        Workload("softmax_minibatch", 1, False, _softmax_minibatch),
        Workload("bound_sweep", 2, True, _bound_sweep),
    )
}
