import math

import numpy as np
import pytest

from wagmf.errors import DimMismatch
from wagmf.feasible import FeasibleSet, diameter_inf, project


def test_unconstrained_passthrough():
    fs = FeasibleSet.unconstrained()
    y = np.array([5.0, -3.0])
    assert project(fs, np.ones(2), y) is y
    assert diameter_inf(fs) == math.inf


def test_box_clamp():
    fs = FeasibleSet.box([-1.0, 0.0], [1.0, 2.0])
    out = project(fs, np.ones(2), np.array([3.0, -1.0]))
    assert np.array_equal(out, [1.0, 0.0])
    inside = np.array([0.25, 1.5])
    assert np.array_equal(project(fs, np.ones(2), inside), inside)
    assert diameter_inf(fs) == 2.0


def test_box_validation():
    with pytest.raises(ValueError, match="box needs both lo and hi"):
        FeasibleSet(lo=np.zeros(1))
    with pytest.raises(ValueError):
        FeasibleSet.box([1.0], [0.0])
    with pytest.raises(ValueError):
        FeasibleSet.box([0.0], [np.inf])
    with pytest.raises(DimMismatch):
        FeasibleSet.box([0.0, 1.0], [2.0])
    with pytest.raises(DimMismatch):
        project(FeasibleSet.box([0.0], [1.0]), np.ones(2), np.ones(2))


def test_projection_properties_random_sweep():
    # idempotence, membership, metric-independence, and non-expansiveness
    # ||P(x)-P(y)||_V <= ||x-y||_V over random boxes/metrics/points
    rng = np.random.default_rng(1234)
    for _ in range(2000):
        d = int(rng.integers(1, 8))
        lo = rng.standard_normal(d) * 2.0
        hi = lo + rng.random(d) * 3.0
        fs = FeasibleSet.box(lo, hi)
        V = 10.0 ** rng.uniform(-3, 3, d)
        x = rng.standard_normal(d) * 4.0
        y = rng.standard_normal(d) * 4.0
        px = project(fs, V, x)
        py = project(fs, V, y)
        assert fs.contains(px) and fs.contains(py)
        assert np.array_equal(project(fs, V, px), px)
        # the clamp ignores the metric entirely
        assert np.array_equal(project(fs, 10.0 ** rng.uniform(-3, 3, d), x), px)
        # per-coordinate contraction makes the weighted norms ordered
        assert np.all(np.abs(px - py) <= np.abs(x - y))
        lhs = (V * (px - py) * (px - py)).sum()
        rhs = (V * (x - y) * (x - y)).sum()
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-300
