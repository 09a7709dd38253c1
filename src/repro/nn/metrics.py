"""Evaluation metrics for the field-regression task.

Table I of the paper reports the Mean Absolute Error (its Eq. 6) and
the Max Error of each network on two test sets.
"""

from __future__ import annotations

import numpy as np


def _validate(prediction: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(prediction, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"prediction {p.shape} and target {t.shape} differ")
    if p.size == 0:
        raise ValueError("empty metric input")
    return p, t


def mean_absolute_error(prediction: np.ndarray, target: np.ndarray) -> float:
    """Paper Eq. 6: mean of |E_pred - E| over all samples and cells."""
    p, t = _validate(prediction, target)
    return float(np.mean(np.abs(p - t)))


def max_absolute_error(prediction: np.ndarray, target: np.ndarray) -> float:
    """Table I "Max Error": the largest absolute cell error in the set."""
    p, t = _validate(prediction, target)
    return float(np.max(np.abs(p - t)))

