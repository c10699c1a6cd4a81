"""Command-line front-end tests: flag plumbing, exit codes, and printed
output."""

import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import wagmf

from wagmf import runner
from wagmf.cli import main


QUAD = {"kind": "quadratic", "a_diag": [1.0, 2.0], "x_star": [0.25, -0.5], "x0": [0.0, 0.0]}


def write_config(tmp_path, **kw):
    raw = {
        "problem": dict(QUAD),
        "optimizers": [{"name": "adagrad", "alphas": [0.5]}],
        "T": 40,
    }
    raw.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_prints_selected_alphas(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        optimizers=[
            {"name": "adagrad", "alphas": [0.1, 0.5]},
            {"name": "wada", "alphas": [0.5]},
        ],
    )
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("adagrad: alpha=")
    assert out[1].startswith("wada: alpha=")
    assert "metric=" in out[0]


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("[1, 2]", (), "config error: config must be a table, got [1, 2]"),
        ('"abc"', (), "config error: config must be a table, got 'abc'"),
        ("[]", (), "config error: config must be a table, got []"),
        (
            json.dumps({"problem": QUAD, "optimizers": "adam", "T": 40}),
            ("--alpha", "0.1"),
            "config error: config needs a non-empty optimizer list",
        ),
    ],
    ids=["list", "string", "empty_list", "string_optimizers"],
)
def test_non_table_config_exits_one_without_traceback(tmp_path, text, flags, message):
    # the first two used to escape _apply_flags as a bare TypeError and
    # ValueError, the empty list read as a table missing 'problem', and
    # --alpha over a string optimizer list read its characters as presets
    path = tmp_path / "config.json"
    path.write_text(text)
    out = run_module(str(path), *flags)
    assert out.returncode == 1
    assert out.stderr == message + "\n"


def test_bad_schema_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, surprise=True)
    assert main(["run", "--config", cfg]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_unknown_preset_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, optimizers=["nesterov"])
    assert main(["run", "--config", cfg]) == 1
    assert "nesterov" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_runtime_failure_exits_two(tmp_path, capsys):
    # overflowing curvature passes validation but the first gradient is
    # non-finite, which surfaces as a runtime failure
    cfg = write_config(
        tmp_path,
        problem={
            "kind": "quadratic",
            "a_diag": [1e308],
            "x_star": [0.0],
            "x0": [1e10],
            "feasible": {"lo": [-1e30], "hi": [1e30]},
        },
    )
    assert main(["run", "--config", cfg]) == 2
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("error", [BrokenProcessPool, MemoryError])
def test_dead_pool_worker_exits_two(tmp_path, capsys, monkeypatch, error):
    # a pool worker killed mid-grid (say by the OOM killer) surfaces as
    # BrokenProcessPool from the pool's map; no real pool starts here
    class DeadPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            raise error("a worker died")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", DeadPool)
    monkeypatch.setenv("WAGMF_THREADS", "2")
    cfg = write_config(
        tmp_path,
        problem={"kind": "reddi_online"},
        optimizers=["adam", "wada"],
        seeds=[1, 2],
    )
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"run failed: {error.__name__}: a worker died\n"


def test_flag_overrides_replace_config_entries(tmp_path, capsys):
    out = tmp_path / "results"
    cfg = write_config(tmp_path)
    code = main(
        [
            "run",
            "--config",
            cfg,
            "--optimizer",
            "wada",
            "--optimizer",
            "sgd",
            "--alpha",
            "0.25,1.0",
            "--T",
            "20",
            "--seed",
            "3",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert summary["T"] == 20
    assert summary["seeds"] == [3, 4]
    names = {r["optimizer"] for r in summary["runs"]}
    assert names == {"wada", "sgd"}
    assert len(summary["runs"]) == 2 * 2 * 2
    assert {r["alpha"] for r in summary["runs"]} == {0.25, 1.0}


def test_alpha_flag_alone_rewrites_every_grid(tmp_path):
    out = tmp_path / "results"
    cfg = write_config(
        tmp_path,
        optimizers=[{"name": "adagrad", "alphas": [9.0]}, "wada"],
    )
    assert main(["run", "--config", cfg, "--alpha", "0.5", "--out", str(out)]) == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert {r["alpha"] for r in summary["runs"]} == {0.5}


def test_bad_alpha_grid_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--alpha", "0.1,zap"]) == 1
    assert "--alpha" in capsys.readouterr().err


def run_module(cfg, *flags):
    """``python -m wagmf.cli run --config cfg [flags]`` in a child process."""
    src = str(Path(wagmf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "wagmf.cli", "run", "--config", cfg, *flags],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("alpha", ["x", None])
def test_non_numeric_config_alpha_exits_one_without_traceback(tmp_path, alpha):
    out = run_module(write_config(tmp_path, optimizers=[{"name": "adagrad", "alphas": [alpha]}]))
    assert out.returncode == 1
    assert out.stderr.startswith("config error: optimizer 'adagrad' has a non-numeric alpha")
    assert "Traceback" not in out.stderr


def test_mistyped_override_exits_one_without_traceback(tmp_path):
    # a string epsilon used to escape parse_config as a bare TypeError
    out = run_module(write_config(tmp_path, overrides={"epsilon": "1e-8"}))
    assert out.returncode == 1
    assert out.stderr.startswith(
        "config error: optimizer 'adagrad': override 'epsilon' must be a number"
    )
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"problem": {"kind": "softmax", "data": {"blobs": {"n": 8, "d": 2, "k": 2}},
                         "batch_size": -1}},
            "config error: bad softmax problem: batch_size must be >= 1, got -1",
        ),
        ({"out": 5}, "config error: out must be a string, got 5"),
        (
            {"problem": {**QUAD, "name": 5}, "out": "results"},
            "config error: problem name must be a string, got 5",
        ),
        (
            {"problem": {**QUAD, "name": "../escaped"}, "out": "results"},
            "config error: problem name must not contain a path separator or NUL, "
            "got '../escaped'",
        ),
        (
            {"problem": {**QUAD, "name": "a/b"}, "out": "results"},
            "config error: problem name must not contain a path separator or NUL, got 'a/b'",
        ),
        (
            {"problem": {**QUAD, "name": "a\0b"}, "out": "results"},
            "config error: problem name must not contain a path separator or NUL, "
            "got 'a\\x00b'",
        ),
    ],
    ids=["batch_size", "out", "problem_name", "name_parent", "name_slash", "name_nul"],
)
def test_bad_problem_or_out_exits_one_without_traceback(tmp_path, entry, message):
    # each used to escape as a bare ValueError, TypeError, AttributeError or
    # FileNotFoundError, or, for '../escaped', to write traces outside out
    out = run_module(write_config(tmp_path, **entry))
    assert out.returncode == 1
    assert out.stderr.startswith(message)
    assert "Traceback" not in out.stderr


def test_significance_flag_prints_pairs(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        optimizers=[{"name": "adagrad", "alphas": [0.5]}, {"name": "sgd", "alphas": [0.5]}],
        seeds=[0, 1, 2],
    )
    assert main(["run", "--config", cfg, "--significance"]) == 0
    out = capsys.readouterr().out
    assert "adagrad vs sgd: p=" in out


def test_significance_needs_multiple_seeds(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=[0])
    assert main(["run", "--config", cfg, "--significance"]) == 1
    assert "two seeds" in capsys.readouterr().err


def test_bound_eval_flag_attaches_bounds(tmp_path):
    out = tmp_path / "results"
    cfg = write_config(tmp_path, optimizers=["wada"])
    assert main(["run", "--config", cfg, "--bound-eval", "--out", str(out)]) == 0
    with open(out / "summary.json") as f:
        summary = json.load(f)
    assert "thm1" in summary["runs"][0]["bounds"]
