import numpy as np
import pytest

from wagmf.errors import DimMismatch, NegativeRadicand, NonFiniteInput, ShapeMismatch
from wagmf.numerics import as_vector, elem_pow, elem_root, weighted_norm_sq


def test_as_vector_coerces_and_validates():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ShapeMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(NonFiniteInput):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteInput):
        as_vector([np.inf])


def test_elem_pow_small_cases():
    v = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(elem_pow(v, 1), v)
    assert np.array_equal(elem_pow(v, 2), [4.0, 0.0, 9.0])
    # odd powers keep sign
    assert np.array_equal(elem_pow(v, 3), [-8.0, 0.0, 27.0])
    with pytest.raises(ValueError):
        elem_pow(v, 0)


def test_elem_root_values():
    # 2^(1/4) = 1.189207115002721
    out = elem_root(np.array([2.0]), 4)
    assert out[0] == pytest.approx(1.189207115002721, abs=1e-15)
    assert elem_root(np.array([16.0]), 4)[0] == 2.0
    assert elem_root(np.array([-8.0]), 3)[0] == pytest.approx(-2.0, abs=1e-15)
    with pytest.raises(NegativeRadicand):
        elem_root(np.array([-1.0]), 2)
    with pytest.raises(NegativeRadicand):
        elem_root(np.array([1.0, -1e-300]), 4)


def test_root_of_power_within_4_ulps():
    rng = np.random.default_rng(7)
    for p in (2, 4, 8):
        for scale in (1e-3, 1.0, 1e3):
            v = scale * rng.random(1000)
            back = elem_root(elem_pow(v, p), p)
            assert np.all(np.abs(back - v) <= 4 * np.spacing(v))


def test_root_of_power_odd_keeps_sign():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(500)
    back = elem_root(elem_pow(v, 3), 3)
    assert np.allclose(back, v, rtol=1e-13, atol=0)


def test_weighted_norm_sq():
    # 2*1^2 + 3*(-2)^2 = 14
    assert weighted_norm_sq(np.array([1.0, -2.0]), np.array([2.0, 3.0])) == 14.0
    assert weighted_norm_sq(np.zeros(4), np.ones(4)) == 0.0
    with pytest.raises(DimMismatch):
        weighted_norm_sq(np.ones(3), np.ones(2))


def test_weighted_norm_sq_reduces_to_euclidean():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64)
    assert weighted_norm_sq(x, np.ones(64)) == pytest.approx(float(x @ x), rel=1e-15)
