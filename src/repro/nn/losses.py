"""Regression loss.

The paper trains with the standard regression setup (Keras default
MSE) and *evaluates* with MAE (Table I, see :mod:`repro.nn.metrics`).
"""

from __future__ import annotations

import numpy as np


class MSELoss:
    """Mean squared error over all elements.

    ``forward`` returns the scalar loss; ``backward`` returns its
    gradient with respect to the most recent ``forward``'s prediction.
    """

    def __init__(self) -> None:
        self._diff: "np.ndarray | None" = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        p = np.asarray(prediction, dtype=np.float64)
        t = np.asarray(target, dtype=np.float64)
        if p.shape != t.shape:
            raise ValueError(f"prediction {p.shape} and target {t.shape} differ")
        if p.size == 0:
            raise ValueError("empty loss input")
        self._diff = p - t
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)
