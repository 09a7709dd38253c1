"""Glorot-uniform weight initialization."""

import numpy as np
import pytest

from repro.nn.initializers import glorot_uniform


class TestGlorot:
    def test_dense_limit(self):
        w = glorot_uniform((100, 50), rng=0)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.8 * limit  # actually fills the range

    def test_conv_fan_includes_receptive_field(self):
        w = glorot_uniform((8, 4, 3, 3), rng=1)
        limit = np.sqrt(6.0 / (4 * 9 + 8 * 9))
        assert np.all(np.abs(w) <= limit)

    def test_roughly_zero_mean(self):
        w = glorot_uniform((200, 200), rng=2)
        assert abs(w.mean()) < 0.005

    def test_seeded_determinism(self):
        np.testing.assert_array_equal(glorot_uniform((5, 5), rng=7), glorot_uniform((5, 5), rng=7))

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            glorot_uniform((3,), rng=0)
