"""The MSE loss and its gradient."""

import numpy as np
import pytest

from gradcheck import numerical_gradient
from repro.nn.losses import MSELoss


class TestMSE:
    def test_value(self):
        loss = MSELoss()
        assert loss.forward(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)

    def test_zero_at_perfect_prediction(self):
        loss = MSELoss()
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert loss.forward(x, x) == 0.0

    def test_gradient_matches_finite_differences(self):
        loss = MSELoss()
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        loss.forward(pred, target)
        analytic = loss.backward()
        numeric = numerical_gradient(lambda p: loss.forward(p, target), pred.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            MSELoss().backward()


class TestValidation:
    @pytest.mark.parametrize("loss", [MSELoss()])
    def test_shape_mismatch_rejected(self, loss):
        with pytest.raises(ValueError):
            loss.forward(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("loss", [MSELoss()])
    def test_empty_rejected(self, loss):
        with pytest.raises(ValueError):
            loss.forward(np.zeros(0), np.zeros(0))

    def test_callable_interface(self):
        assert MSELoss()(np.ones(2), np.zeros(2)) == pytest.approx(1.0)
