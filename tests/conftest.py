"""Helpers and setups shared by the test modules."""

import json

import numpy as np

from wagmf.runner import parse_config, run

# a dim-3 diagonal quadratic whose x* lies outside the default box [-1, 1]
# in two coordinates, so the box clips
QUAD = {"kind": "quadratic", "a_diag": [1.0, 4.0, 0.25], "x_star": [0.5, -1.5, 2.0]}
# bounds that differ per coordinate, with QUAD's x* outside them in the first two
UNEVEN_BOX = {"lo": [-1.0, -0.2, 0.5], "hi": [0.3, 1.0, 2.5]}


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits: -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def grid_outputs(monkeypatch, raw, threads=None, out=None):
    """``run`` of the config ``raw`` at WAGMF_THREADS = ``threads`` (unset
    for None): the summary as sorted JSON text and, given an ``out``
    directory, each output file's bytes by name, with ``out``'s path
    written as OUT in both."""
    if threads:
        monkeypatch.setenv("WAGMF_THREADS", threads)
    else:
        monkeypatch.delenv("WAGMF_THREADS", raising=False)
    if out is None:
        return json.dumps(run(parse_config(raw)), sort_keys=True), {}
    summary = run(parse_config(raw | {"out": str(out)}))
    text = json.dumps(summary, sort_keys=True).replace(str(out), "OUT")
    files = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT") for p in sorted(out.iterdir())}
    return text, files
