"""Training loop.

Reproduces the paper's protocol: mini-batch Adam (batch 64, lr 1e-4)
for a fixed number of epochs (the paper trains 150/100) with a
validation set monitored each epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.nn.data import DataLoader
from repro.nn.losses import MSELoss
from repro.nn.metrics import mean_absolute_error
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam


@dataclass
class TrainingHistory:
    """Per-epoch series recorded during :meth:`Trainer.fit`."""

    loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_mae: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.loss)


class Trainer:
    """Binds a model, a loss and an optimizer into a training loop."""

    def __init__(
        self,
        model: Sequential,
        loss: "MSELoss | None" = None,
        optimizer: "Adam | None" = None,
    ) -> None:
        self.model = model
        self.loss = loss if loss is not None else MSELoss()
        self.optimizer = optimizer if optimizer is not None else Adam(lr=1e-4)

    def train_step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        """One mini-batch update; returns the batch loss."""
        self.model.zero_grad()
        pred = self.model.forward(xb, training=True)
        value = self.loss.forward(pred, yb)
        self.model.backward(self.loss.backward())
        self.optimizer.step(self.model.param_grad_pairs())
        return value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int = 64,
        validation: "tuple[np.ndarray, np.ndarray] | None" = None,
        rng: "int | np.random.Generator | None" = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs, reshuffling the batches each epoch."""
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        loader = DataLoader(x, y, batch_size=batch_size, rng=rng)
        history = TrainingHistory()
        for epoch in range(epochs):
            start = time.perf_counter()
            batch_losses = [self.train_step(xb, yb) for xb, yb in loader]
            history.loss.append(float(np.mean(batch_losses)))
            history.epoch_seconds.append(time.perf_counter() - start)
            if validation is not None:
                val_pred = self.model.predict(validation[0])
                history.val_loss.append(self.loss.forward(val_pred, validation[1]))
                history.val_mae.append(mean_absolute_error(val_pred, validation[1]))
            if verbose:
                msg = f"epoch {epoch + 1:3d}/{epochs}  loss={history.loss[-1]:.3e}"
                if validation is not None:
                    msg += f"  val_loss={history.val_loss[-1]:.3e}  val_mae={history.val_mae[-1]:.3e}"
                print(msg)
        return history
