"""Smoke tests of the opt-in scripts under scripts/, run in-process at a
short horizon so that an API change that breaks them fails here."""

import importlib.util
import os
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion2_crossover_runs_from_its_last_checkpoint_on(capsys):
    script = _load("criterion2_crossover")
    assert script.main(["--T", "100000"]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.match(r"T=100000: wada R/T=\d\.\d{4} .* adam R/T=\d\.\d{4} ", lines[0])
    # a shorter horizon is a usage error, not a traceback from the runner
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--T", "99999"])
    assert exit_info.value.code == 2
    assert "--T must be at least the last checkpoint, 100000" in capsys.readouterr().err


def test_output_digest_prints_one_line_per_run_and_agrees_across_worker_counts(capsys, monkeypatch):
    monkeypatch.setenv("WAGMF_THREADS", "3")  # restored after each run
    script = _load("output_digest")
    assert script.main(["--T", "50", "--seeds", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[:4] for row in rows] == [
        [name, "1", mode, threads]
        for name in ("spike_grid", "softmax_minibatch", "bound_sweep")
        for mode in ("out", "lean")
        for threads in ("unset", "2")
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", row[4]) for row in rows)
    digests = [row[4] for row in rows]
    assert digests[::2] == digests[1::2] and len(set(digests)) == 6
    assert os.environ["WAGMF_THREADS"] == "3"
