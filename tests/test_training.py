"""Trainer: convergence and validation tracking over fixed epochs."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU
from repro.nn.losses import MSELoss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer


def _regression_problem(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    w = rng.normal(size=(4, 2))
    return x, x @ w


def _model(seed=0):
    return Sequential([Dense(4, 24, rng=seed), ReLU(), Dense(24, 2, rng=seed + 1)])


class TestFit:
    def test_loss_decreases(self):
        x, y = _regression_problem()
        trainer = Trainer(_model(), MSELoss(), Adam(lr=3e-3))
        history = trainer.fit(x, y, epochs=25, batch_size=32, rng=1)
        assert history.loss[-1] < 0.1 * history.loss[0]

    def test_history_lengths(self):
        x, y = _regression_problem()
        trainer = Trainer(_model())
        history = trainer.fit(x, y, epochs=4, batch_size=64, rng=0,
                              validation=(x[:20], y[:20]))
        assert history.n_epochs == 4
        assert len(history.val_loss) == 4
        assert len(history.val_mae) == 4
        assert len(history.epoch_seconds) == 4

    def test_no_validation_leaves_val_series_empty(self):
        x, y = _regression_problem(60)
        history = Trainer(_model()).fit(x, y, epochs=2, rng=0)
        assert history.val_loss == []

    def test_reproducible_with_same_seed(self):
        x, y = _regression_problem()
        h1 = Trainer(_model(seed=5), MSELoss(), Adam(lr=1e-3)).fit(
            x, y, epochs=3, batch_size=32, rng=42
        )
        h2 = Trainer(_model(seed=5), MSELoss(), Adam(lr=1e-3)).fit(
            x, y, epochs=3, batch_size=32, rng=42
        )
        np.testing.assert_allclose(h1.loss, h2.loss, rtol=1e-12)

    def test_zero_epochs(self):
        x, y = _regression_problem(30)
        history = Trainer(_model()).fit(x, y, epochs=0, rng=0)
        assert history.n_epochs == 0

    def test_negative_epochs_rejected(self):
        x, y = _regression_problem(30)
        with pytest.raises(ValueError):
            Trainer(_model()).fit(x, y, epochs=-1)

    def test_train_step_returns_scalar_loss(self):
        x, y = _regression_problem(30)
        trainer = Trainer(_model())
        value = trainer.train_step(x[:8], y[:8])
        assert np.isscalar(value) and value > 0

    def test_verbose_prints(self, capsys):
        x, y = _regression_problem(40)
        Trainer(_model()).fit(x, y, epochs=1, rng=0, verbose=True)
        assert "epoch" in capsys.readouterr().out
