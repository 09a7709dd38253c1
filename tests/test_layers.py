"""Layer forward semantics (gradients are covered in test_gradcheck)."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU


class TestDense:
    def test_affine_map(self):
        layer = Dense(2, 3, rng=0)
        layer.params["W"][...] = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        layer.params["b"][...] = np.array([0.5, -0.5, 0.0])
        out = layer.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[1.5, 1.5, 0.0]])

    def test_batch_independence(self):
        layer = Dense(4, 2, rng=1)
        x = np.random.default_rng(0).normal(size=(6, 4))
        full = layer.forward(x)
        row = layer.forward(x[2:3])
        np.testing.assert_allclose(full[2:3], row)

    def test_parameter_count(self):
        assert Dense(10, 7, rng=0).n_parameters == 10 * 7 + 7

    def test_wrong_input_width_rejected(self):
        with pytest.raises(ValueError):
            Dense(3, 2, rng=0).forward(np.zeros((1, 5)))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 2, rng=0)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng=0).backward(np.zeros((1, 2)))

    def test_zero_grad_resets(self):
        layer = Dense(2, 2, rng=0)
        layer.forward(np.ones((1, 2)), training=True)
        layer.backward(np.ones((1, 2)))
        assert np.any(layer.grads["W"] != 0)
        layer.zero_grad()
        assert np.all(layer.grads["W"] == 0)

    def test_gradients_accumulate_across_backwards(self):
        layer = Dense(2, 2, rng=0)
        layer.forward(np.ones((1, 2)), training=True)
        layer.backward(np.ones((1, 2)))
        g1 = layer.grads["W"].copy()
        layer.forward(np.ones((1, 2)), training=True)
        layer.backward(np.ones((1, 2)))
        np.testing.assert_allclose(layer.grads["W"], 2 * g1)


class TestActivations:
    def test_relu_clips_negative(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 3.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(grad, [[0.0, 5.0]])

    def test_activation_has_no_parameters(self):
        assert ReLU().n_parameters == 0


class TestFlatten:
    def test_flatten_and_restore(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        flat = layer.forward(x, training=True)
        assert flat.shape == (2, 12)
        grad = layer.backward(np.ones_like(flat))
        assert grad.shape == x.shape

    def test_flatten_preserves_order(self):
        x = np.arange(8, dtype=float).reshape(1, 2, 4)
        np.testing.assert_array_equal(Flatten().forward(x)[0], np.arange(8))


class TestConv2D:
    def test_identity_kernel(self):
        layer = Conv2D(1, 1, 3, padding="same", rng=0)
        layer.params["W"][...] = 0.0
        layer.params["W"][0, 0, 1, 1] = 1.0  # delta kernel
        layer.params["b"][...] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 1, 5, 6))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-12)

    def test_averaging_kernel_on_constant_input(self):
        layer = Conv2D(1, 1, 3, padding="valid", rng=0)
        layer.params["W"][...] = 1.0 / 9.0
        layer.params["b"][...] = 0.0
        x = np.full((1, 1, 5, 5), 4.0)
        out = layer.forward(x)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_allclose(out, 4.0)

    def test_same_padding_preserves_shape(self):
        layer = Conv2D(3, 5, 3, padding="same", rng=0)
        out = layer.forward(np.zeros((2, 3, 8, 10)))
        assert out.shape == (2, 5, 8, 10)

    def test_valid_padding_shrinks(self):
        layer = Conv2D(1, 2, (3, 5), padding="valid", rng=0)
        out = layer.forward(np.zeros((1, 1, 8, 10)))
        assert out.shape == (1, 2, 6, 6)

    def test_bias_added_per_channel(self):
        layer = Conv2D(1, 2, 1, padding="valid", rng=0)
        layer.params["W"][...] = 0.0
        layer.params["b"][...] = np.array([1.5, -2.0])
        out = layer.forward(np.zeros((1, 1, 3, 3)))
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_cross_correlation_orientation(self):
        """Kernel is applied un-flipped (cross-correlation, like Keras)."""
        layer = Conv2D(1, 1, 3, padding="valid", rng=0)
        layer.params["W"][...] = 0.0
        layer.params["W"][0, 0, 0, 0] = 1.0  # top-left tap
        layer.params["b"][...] = 0.0
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 0, 0] = 7.0
        out = layer.forward(x)
        assert out[0, 0, 0, 0] == 7.0

    def test_channel_mixing(self):
        layer = Conv2D(2, 1, 1, padding="valid", rng=0)
        layer.params["W"][...] = np.array([[[[2.0]], [[3.0]]]])
        layer.params["b"][...] = 0.0
        x = np.ones((1, 2, 2, 2))
        np.testing.assert_allclose(layer.forward(x), 5.0)

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(2, 1, 3, rng=0).forward(np.zeros((1, 3, 8, 8)))

    def test_even_kernel_same_padding_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, 2, padding="same", rng=0)

    def test_input_smaller_than_kernel_rejected(self):
        layer = Conv2D(1, 1, 5, padding="valid", rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 3, 3)))


class TestMaxPool2D:
    def test_known_pooling(self):
        x = np.array([[[[1.0, 2.0, 5.0, 1.0],
                        [3.0, 4.0, 0.0, 0.0],
                        [7.0, 0.0, 1.0, 1.0],
                        [0.0, 0.0, 1.0, 9.0]]]])
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out, [[[[4.0, 5.0], [7.0, 9.0]]]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[10.0]]]]))
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 10.0
        np.testing.assert_array_equal(grad, expected)

    def test_tie_breaks_to_first_occurrence(self):
        layer = MaxPool2D(2)
        x = np.full((1, 1, 2, 2), 5.0)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[8.0]]]]))
        assert grad[0, 0, 0, 0] == 8.0
        assert grad.sum() == 8.0  # gradient mass preserved, not duplicated

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 4)))

    def test_non_4d_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((2, 4, 4)))

    def test_rectangular_pool(self):
        out = MaxPool2D((1, 2)).forward(np.zeros((1, 1, 3, 4)))
        assert out.shape == (1, 1, 3, 2)


class TestInferenceMode:
    """Evaluation-mode forwards: no backward caches, batch-invariant."""

    def _cached_attrs(self, layer):
        return {
            name: getattr(layer, name)
            for name in ("_x", "_mask", "_shape", "_x_padded", "_x_shape", "_argmax")
            if hasattr(layer, name)
        }

    @pytest.mark.parametrize(
        "layer,shape",
        [
            (Dense(6, 4, rng=0), (3, 6)),
            (ReLU(), (3, 5)),
            (Flatten(), (2, 3, 4)),
            (Conv2D(1, 2, 3, padding="same", rng=1), (2, 1, 6, 6)),
            (MaxPool2D(2), (2, 1, 4, 4)),
        ],
        ids=["dense", "relu", "flatten", "conv", "pool"],
    )
    def test_eval_forward_caches_nothing_and_backward_raises(self, layer, shape):
        x = np.random.default_rng(0).normal(size=shape)
        layer.forward(x, training=False)
        for name, value in self._cached_attrs(layer).items():
            assert value is None, f"{type(layer).__name__}.{name} cached in eval mode"
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(layer.forward(x, training=False)))

    @pytest.mark.parametrize(
        "layer,shape",
        [
            (Dense(6, 4, rng=0), (3, 6)),
            (Conv2D(1, 2, 3, padding="same", rng=1), (2, 1, 6, 6)),
            (MaxPool2D(2), (2, 1, 4, 4)),
        ],
        ids=["dense", "conv", "pool"],
    )
    def test_eval_forward_matches_training_forward(self, layer, shape):
        x = np.random.default_rng(1).normal(size=shape)
        np.testing.assert_allclose(
            layer.forward(x, training=False), layer.forward(x, training=True), rtol=1e-12
        )

    def test_eval_forward_clears_stale_training_cache(self):
        layer = Dense(3, 2, rng=0)
        layer.forward(np.ones((2, 3)), training=True)
        layer.forward(np.ones((2, 3)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))

    @pytest.mark.parametrize("rows", [1, 2, 7, 16, 33])
    def test_dense_eval_rows_bitwise_invariant_to_batch_size(self, rows):
        """Row i of any batch equals the same row evaluated alone —
        the fixed-width blocked GEMM contract the DL ensemble relies on."""
        layer = Dense(37, 11, rng=2)
        x = np.random.default_rng(3).normal(size=(rows, 37))
        full = layer.forward(x, training=False)
        for i in range(rows):
            np.testing.assert_array_equal(
                full[i], layer.forward(x[i : i + 1], training=False)[0]
            )

    def test_conv_eval_rows_bitwise_invariant_to_batch_size(self):
        layer = Conv2D(2, 3, 3, padding="same", rng=4)
        x = np.random.default_rng(5).normal(size=(6, 2, 8, 8))
        full = layer.forward(x, training=False)
        for i in range(6):
            np.testing.assert_array_equal(
                full[i], layer.forward(x[i : i + 1], training=False)[0]
            )
