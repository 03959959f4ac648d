import numpy as np
import pytest

from reprogram.errors import ShapeError
from reprogram.numerics import softmax


class TestSoftmax:
    def test_two_zeros(self):
        assert np.allclose(softmax([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_single_logit(self):
        assert np.allclose(softmax([[4.2]]), [[1.0]])

    def test_direct_formula_oracle(self):
        # Frozen from an extended-precision exp/sum computation of (1,2,3).
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        assert np.allclose(softmax([[1.0, 2.0, 3.0]]), [expected], rtol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 10))
        assert np.allclose(softmax(x), softmax(x + 123.0), rtol=1e-12)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(scale=50, size=(1, rng.integers(1, 30)))
            p = softmax(x)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0) and np.all(p <= 1)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax([[]])

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            softmax([1.0, 2.0])
