"""Table I metrics."""

import numpy as np
import pytest

from repro.nn.metrics import max_absolute_error, mean_absolute_error


class TestMAE:
    def test_value(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[1.5, 2.0], [2.0, 4.0]])
        assert mean_absolute_error(pred, target) == pytest.approx(0.375)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 8))
        assert mean_absolute_error(a, b) == mean_absolute_error(b, a)

    def test_zero_for_identical(self):
        a = np.random.default_rng(1).normal(size=(4, 4))
        assert mean_absolute_error(a, a) == 0.0


class TestMaxError:
    def test_value(self):
        pred = np.array([[0.0, 0.1], [5.0, 0.0]])
        target = np.zeros((2, 2))
        assert max_absolute_error(pred, target) == 5.0

    def test_max_at_least_mean(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 30))
        assert max_absolute_error(a, b) >= mean_absolute_error(a, b)


class TestValidation:
    @pytest.mark.parametrize("fn", [mean_absolute_error, max_absolute_error])
    def test_shape_mismatch(self, fn):
        with pytest.raises(ValueError):
            fn(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("fn", [mean_absolute_error, max_absolute_error])
    def test_empty(self, fn):
        with pytest.raises(ValueError):
            fn(np.zeros(0), np.zeros(0))
