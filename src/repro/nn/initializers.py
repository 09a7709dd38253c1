"""Weight initialization.

Keras defaults (what the paper's code would have used) are Glorot
uniform for both Dense and Conv2D kernels, with zero biases; every
layer draws its kernel from :func:`glorot_uniform`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import as_generator


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Fan-in/fan-out for dense ``(in, out)`` and conv ``(O, C, kh, kw)``."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def glorot_uniform(
    shape: tuple[int, ...], rng: "int | np.random.Generator | None" = None
) -> np.ndarray:
    """Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6/(fi+fo))."""
    rng = as_generator(rng)
    fan_in, fan_out = _fan_in_out(shape)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)

