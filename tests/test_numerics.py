import numpy as np
import pytest

from wagmf.errors import NonFiniteInput, ShapeMismatch
from wagmf.numerics import abs_pow, as_vector, root


def test_as_vector_coerces_and_validates():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ShapeMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(NonFiniteInput):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteInput):
        as_vector([np.inf])


def test_abs_pow_small_cases():
    v = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(abs_pow(v, 1), [2.0, 0.0, 3.0])
    assert np.array_equal(abs_pow(v, 2), [4.0, 0.0, 9.0])
    # odd powers take the magnitude, so the radicand stays non-negative
    assert np.array_equal(abs_pow(v, 3), [8.0, 0.0, 27.0])
    assert np.array_equal(abs_pow(v, 4), [16.0, 0.0, 81.0])


def test_root_values():
    # 2^(1/4) = 1.189207115002721
    out = root(np.array([2.0]), 4)
    assert out[0] == pytest.approx(1.189207115002721, abs=1e-15)
    assert root(np.array([16.0]), 4)[0] == 2.0
    assert root(np.array([8.0]), 3)[0] == pytest.approx(2.0, abs=1e-15)
    assert root(np.array([256.0]), 8)[0] == 2.0


def test_root_of_power_within_4_ulps():
    rng = np.random.default_rng(7)
    for p in (2, 4, 8):
        for scale in (1e-3, 1.0, 1e3):
            v = scale * rng.random(1000)
            back = root(abs_pow(v, p), p)
            assert np.all(np.abs(back - v) <= 4 * np.spacing(v))


def test_root_of_odd_power_is_the_magnitude():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(500)
    back = root(abs_pow(v, 3), 3)
    assert np.allclose(back, np.abs(v), rtol=1e-13, atol=0)
