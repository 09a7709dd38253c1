"""The Adam update rule and its convergence behavior."""

import hashlib

import numpy as np
import pytest

from repro.nn.optimizers import Adam


def _pair(value, grad):
    return [(np.array(value, dtype=float), np.array(grad, dtype=float))]


class TestAdam:
    def test_first_step_has_magnitude_lr(self):
        """With bias correction, |step 1| ~= lr regardless of grad scale."""
        for scale in (1e-4, 1.0, 1e4):
            p = np.array([0.0])
            Adam(lr=0.01).step([(p, np.array([scale]))])
            assert p[0] == pytest.approx(-0.01, rel=1e-3)

    def test_step_direction_opposes_gradient(self):
        p = np.array([0.0, 0.0])
        Adam(lr=0.1).step([(p, np.array([1.0, -1.0]))])
        assert p[0] < 0 < p[1]

    def test_matches_reference_implementation(self):
        """Two steps compared against the canonical Kingma-Ba equations."""
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [np.array([0.3]), np.array([-0.2])]
        p = np.array([1.0])
        opt = Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)

        p_ref, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step([(p, g.copy())])
        assert p[0] == pytest.approx(p_ref, rel=1e-12)

    def test_converges_on_quadratic(self):
        p = np.array([5.0, -3.0])
        opt = Adam(lr=0.1)
        for _ in range(500):
            opt.step([(p, 2 * p)])  # grad of |p|^2
        np.testing.assert_allclose(p, 0.0, atol=1e-3)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            Adam(eps=0.0)

    def test_state_mismatch_detected(self):
        opt = Adam()
        opt.step(_pair([1.0], [1.0]))
        with pytest.raises(ValueError):
            opt.step(_pair([1.0], [1.0]) + _pair([2.0], [1.0]))

    def test_paper_mlp_update_is_pinned(self):
        """Three Adam steps on the paper MLP's 6,360,128 parameters, bit for bit.

        The gradients are drawn, not computed, so no matmul (and no BLAS)
        enters the digest: only the update rule's ufunc sequence does.
        """
        from repro.models.architectures import build_mlp

        pairs = build_mlp(rng=0).param_grad_pairs()
        assert sum(p.size for p, _ in pairs) == 6_360_128
        rng = np.random.default_rng(1)
        opt = Adam(lr=1e-4)
        for _ in range(3):
            for _, g in pairs:
                g[...] = rng.standard_normal(g.shape)
            opt.step(pairs)
        digest = hashlib.sha256()
        for p, _ in pairs:
            digest.update(p.tobytes())
        assert digest.hexdigest() == (
            "1ae0980f53da9c1802f4803e9dac91d86aab129c9d8f9e4b07e760ce39415835"
        )


class TestOptimizerOnModel:
    def test_reduces_loss_on_regression_task(self):
        from repro.nn.layers import Dense, ReLU
        from repro.nn.losses import MSELoss
        from repro.nn.network import Sequential
        from repro.nn.training import Trainer

        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 3))
        y = x @ rng.normal(size=(3, 2))
        model = Sequential([Dense(3, 16, rng=1), ReLU(), Dense(16, 2, rng=2)])
        trainer = Trainer(model, MSELoss(), Adam(lr=0.01))
        history = trainer.fit(x, y, epochs=30, batch_size=32, rng=3)
        assert history.loss[-1] < 0.2 * history.loss[0]
