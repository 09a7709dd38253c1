"""Finite-difference gradient checks shared by the layer and loss tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.layers import Layer


def numerical_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def check_layer_input_gradient(
    layer: Layer, x: np.ndarray, eps: float = 1e-6, seed: int = 0
) -> float:
    """Max abs difference between analytic and numeric input gradients.

    Projects the layer output onto a fixed random direction to obtain a
    scalar loss ``L = sum(R * layer(x))``; the analytic gradient is then
    ``backward(R)``.
    """
    rng = np.random.default_rng(seed)
    # training=True: backward state is only cached by training forwards.
    y = layer.forward(np.array(x, copy=True), training=True)
    direction = rng.normal(size=y.shape)

    def scalar_loss(inp: np.ndarray) -> float:
        return float(np.sum(direction * layer.forward(inp, training=True)))

    layer.forward(np.array(x, copy=True), training=True)
    analytic = layer.backward(direction)
    numeric = numerical_gradient(scalar_loss, np.array(x, copy=True), eps=eps)
    return float(np.max(np.abs(analytic - numeric)))


def check_layer_param_gradients(
    layer: Layer, x: np.ndarray, eps: float = 1e-6, seed: int = 0
) -> dict[str, float]:
    """Max abs analytic-vs-numeric difference for each parameter array."""
    rng = np.random.default_rng(seed)
    # training=True: backward state is only cached by training forwards.
    y = layer.forward(np.array(x, copy=True), training=True)
    direction = rng.normal(size=y.shape)
    layer.zero_grad()
    layer.forward(np.array(x, copy=True), training=True)
    layer.backward(direction)
    analytic = {k: g.copy() for k, g in layer.grads.items()}

    errors: dict[str, float] = {}
    for name, param in layer.params.items():

        def scalar_loss(p: np.ndarray, _name: str = name) -> float:
            saved = layer.params[_name].copy()
            layer.params[_name][...] = p
            out = float(np.sum(direction * layer.forward(np.array(x, copy=True), training=True)))
            layer.params[_name][...] = saved
            return out

        numeric = numerical_gradient(scalar_loss, param.copy(), eps=eps)
        errors[name] = float(np.max(np.abs(analytic[name] - numeric)))
    return errors
