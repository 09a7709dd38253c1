"""Mini-batch iteration.

The paper shuffles its samples every epoch and trains on batches of
64 (Sec. IV-A); the train/validation/test split happens upstream, in
``repro.datagen.FieldDataset.split``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import as_generator


class DataLoader:
    """Iterates shuffled ``(X, y)`` mini-batches.

    ``X`` and ``y`` must share their first (sample) dimension.  A new
    permutation is drawn from ``rng`` at every iteration, so epochs see
    different batch compositions; the last batch of an epoch holds the
    remainder when ``batch_size`` does not divide the sample count.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int = 64,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"X has {x.shape[0]} samples but y has {y.shape[0]}")
        if x.shape[0] == 0:
            raise ValueError("empty dataset")
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.x = x
        self.y = y
        self.batch_size = batch_size
        self.rng = as_generator(rng)

    @property
    def n_samples(self) -> int:
        """Number of samples in the underlying arrays."""
        return self.x.shape[0]

    def __len__(self) -> int:
        """Number of batches per epoch."""
        return (self.n_samples + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = self.rng.permutation(self.n_samples)
        for start in range(0, self.n_samples, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.x[idx], self.y[idx]
