"""Exhaustive finite-difference gradient verification of every layer."""

import numpy as np
import pytest

from gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
    numerical_gradient,
)
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU

TOL = 1e-6


def _x(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestNumericalGradient:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda z: float(np.sum(z**2)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-6)

    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        numerical_gradient(lambda z: float(z.sum()), x)
        np.testing.assert_array_equal(x, [1.0, 2.0])


class TestInputGradients:
    @pytest.mark.parametrize(
        "layer,shape",
        [
            (Dense(6, 4, rng=0), (3, 6)),
            (Dense(1, 1, rng=1), (1, 1)),
            (ReLU(), (4, 5)),
            (Flatten(), (2, 3, 4)),
            (Conv2D(1, 2, 3, padding="same", rng=2), (2, 1, 6, 6)),
            (Conv2D(3, 2, 3, padding="valid", rng=3), (2, 3, 5, 7)),
            (Conv2D(2, 2, (3, 5), padding="same", rng=4), (1, 2, 6, 8)),
            (Conv2D(1, 1, 1, padding="valid", rng=5), (2, 1, 4, 4)),
            (MaxPool2D(2), (2, 3, 4, 6)),
            (MaxPool2D((1, 2)), (1, 2, 3, 4)),
        ],
        ids=[
            "dense", "dense-1x1", "relu", "flatten",
            "conv-same", "conv-valid", "conv-rect", "conv-1x1",
            "pool-2x2", "pool-1x2",
        ],
    )
    def test_input_gradient_matches_finite_differences(self, layer, shape):
        assert check_layer_input_gradient(layer, _x(shape)) < TOL


class TestParameterGradients:
    @pytest.mark.parametrize(
        "layer,shape",
        [
            (Dense(5, 3, rng=0), (4, 5)),
            (Conv2D(1, 2, 3, padding="same", rng=1), (2, 1, 6, 6)),
            (Conv2D(2, 3, 3, padding="valid", rng=2), (2, 2, 6, 6)),
        ],
        ids=["dense", "conv-same", "conv-valid"],
    )
    def test_param_gradients_match_finite_differences(self, layer, shape):
        errors = check_layer_param_gradients(layer, _x(shape))
        for name, err in errors.items():
            assert err < TOL, f"{name}: {err}"


class TestCompositeGradients:
    def test_mlp_end_to_end_gradient(self):
        """Backprop through a whole Sequential matches finite differences."""
        from repro.nn.losses import MSELoss
        from repro.nn.network import Sequential

        model = Sequential([Dense(4, 8, rng=0), ReLU(), Dense(8, 3, rng=1)])
        loss = MSELoss()
        x = _x((5, 4), seed=6)
        y = _x((5, 3), seed=7)

        def scalar(inp):
            return loss.forward(model.forward(inp), y)

        loss.forward(model.forward(x, training=True), y)
        analytic = model.backward(loss.backward())
        numeric = numerical_gradient(scalar, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_cnn_end_to_end_parameter_gradient(self):
        """The first conv kernel's gradient through conv+pool+dense."""
        from repro.nn.losses import MSELoss
        from repro.nn.network import Sequential

        conv = Conv2D(1, 2, 3, padding="same", rng=0)
        model = Sequential([conv, ReLU(), MaxPool2D(2), Flatten(), Dense(2 * 2 * 2, 3, rng=1)])
        loss = MSELoss()
        x = _x((2, 1, 4, 4), seed=8)
        y = _x((2, 3), seed=9)

        model.zero_grad()
        loss.forward(model.forward(x, training=True), y)
        model.backward(loss.backward())
        analytic = conv.grads["W"].copy()

        def scalar(w):
            conv.params["W"][...] = w
            return loss.forward(model.forward(x), y)

        w0 = conv.params["W"].copy()
        numeric = numerical_gradient(scalar, w0.copy())
        conv.params["W"][...] = w0
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)
