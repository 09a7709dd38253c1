"""Sequential container: wiring, prediction, persistence."""

import json

import numpy as np
import pytest

from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.network import Sequential


@pytest.fixture
def model() -> Sequential:
    return Sequential([Dense(4, 8, rng=0), ReLU(), Dense(8, 2, rng=1)])


class TestForwardBackward:
    def test_forward_chains_layers(self, model):
        x = np.random.default_rng(0).normal(size=(3, 4))
        manual = x
        for layer in model.layers:
            manual = layer.forward(manual)
        np.testing.assert_allclose(model.forward(x), manual)

    def test_callable(self, model):
        x = np.zeros((1, 4))
        np.testing.assert_allclose(model(x), model.forward(x))

    def test_backward_returns_input_gradient_shape(self, model):
        x = np.random.default_rng(1).normal(size=(5, 4))
        y = model.forward(x, training=True)
        grad = model.backward(np.ones_like(y))
        assert grad.shape == x.shape

    def test_non_layer_rejected(self):
        with pytest.raises(TypeError):
            Sequential([Dense(2, 2, rng=0), "relu"])  # type: ignore[list-item]


class TestPredict:
    def test_batched_predict_equals_full_forward(self, model):
        x = np.random.default_rng(2).normal(size=(25, 4))
        np.testing.assert_allclose(model.predict(x, batch_size=4), model.forward(x))

    def test_predict_single_sample(self, model):
        assert model.predict(np.zeros((1, 4))).shape == (1, 2)

    def test_invalid_batch_size(self, model):
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 4)), batch_size=0)

    def test_preallocated_chunking_matches_one_shot(self, model):
        """Multi-chunk predictions (preallocated output) equal the
        single-forward result when chunks align with the GEMM blocks."""
        x = np.random.default_rng(4).normal(size=(40, 4))
        np.testing.assert_array_equal(model.predict(x, batch_size=16), model.predict(x))

    def test_predict_rows_invariant_to_batch_size(self, model):
        x = np.random.default_rng(5).normal(size=(9, 4))
        full = model.predict(x)
        for i in range(9):
            np.testing.assert_array_equal(full[i], model.predict(x[i : i + 1])[0])


class TestParameters:
    def test_n_parameters(self, model):
        assert model.n_parameters == (4 * 8 + 8) + (8 * 2 + 2)

    def test_param_grad_pairs_order_stable(self, model):
        pairs1 = model.param_grad_pairs()
        pairs2 = model.param_grad_pairs()
        for (p1, _), (p2, _) in zip(pairs1, pairs2):
            assert p1 is p2

    def test_zero_grad_clears_all(self, model):
        x = np.ones((2, 4))
        model.forward(x, training=True)
        model.backward(np.ones((2, 2)))
        model.zero_grad()
        for _, g in model.param_grad_pairs():
            assert np.all(g == 0)


def _untrained() -> Sequential:
    """The fixture's architecture with other weights."""
    return Sequential([Dense(4, 8, rng=9), ReLU(), Dense(8, 2, rng=9)])


def _assert_same_weights(got: Sequential, want: Sequential) -> None:
    for key, value in want.state_dict().items():
        assert got.state_dict()[key].dtype == value.dtype
        assert got.state_dict()[key].tobytes() == value.tobytes()


class TestPersistence:
    def test_save_load_roundtrip(self, model, tmp_path):
        x = np.random.default_rng(3).normal(size=(4, 4))
        expected = model.forward(x)
        path = model.save(tmp_path / "model.npz")
        clone = Sequential([Dense(4, 8, rng=9), ReLU(), Dense(8, 2, rng=9)])
        clone.load(path)
        np.testing.assert_allclose(clone.forward(x), expected)

    def test_save_appends_npz_and_returns_the_file_written(self, model, tmp_path):
        path = model.save(tmp_path / "model")
        assert path == tmp_path / "model.npz"
        assert path.is_file()
        _assert_same_weights(_untrained().load(path), model)
        _assert_same_weights(Sequential.from_saved(path), model)

    def test_loads_a_checkpoint_written_by_savez_compressed(self, model, tmp_path):
        """The layout ``save`` wrote before it used ``save_npz_dict``: the
        weights and the fingerprint, with no ``__meta__`` entry."""
        arrays = model.state_dict()
        arrays["__architecture__"] = np.frombuffer(
            json.dumps([repr(layer) for layer in model.layers]).encode(), dtype=np.uint8
        )
        path = tmp_path / "old.npz"
        np.savez_compressed(path, **arrays)
        _assert_same_weights(_untrained().load(path), model)
        _assert_same_weights(Sequential.from_saved(path), model)

    def test_state_dict_keys(self, model):
        keys = set(model.state_dict())
        assert keys == {"0.W", "0.b", "2.W", "2.b"}

    def test_load_state_dict_shape_mismatch(self, model):
        state = model.state_dict()
        state = {k: v.copy() for k, v in state.items()}
        state["0.W"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_load_state_dict_missing_key(self, model):
        state = {k: v for k, v in model.state_dict().items() if k != "0.b"}
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

    def test_load_state_dict_unexpected_key(self, model):
        state = dict(model.state_dict())
        state["9.W"] = np.zeros(2)
        with pytest.raises(ValueError, match="unexpected"):
            model.load_state_dict(state)

    def test_load_into_wrong_architecture_fails(self, model, tmp_path):
        path = model.save(tmp_path / "model.npz")
        other = Sequential([Dense(4, 8, rng=0), ReLU(), Flatten(), Dense(8, 2, rng=0)])
        with pytest.raises(ValueError):
            other.load(path)

    def test_from_saved_rebuilds_architecture_and_weights(self, model, tmp_path):
        x = np.random.default_rng(6).normal(size=(3, 4))
        expected = model.forward(x)
        path = model.save(tmp_path / "model.npz")
        clone = Sequential.from_saved(path)
        assert [repr(a) for a in clone.layers] == [repr(a) for a in model.layers]
        np.testing.assert_array_equal(clone.forward(x), expected)

    def test_from_saved_rejects_unreconstructable_layer(self, model, tmp_path):
        """A layer name the fingerprint whitelist does not hold is refused."""
        import json as _json

        path = model.save(tmp_path / "model.npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        for layer in ["Tanh()", "Sigmoid()", "Dropout(0.5)"]:
            arrays["__architecture__"] = np.frombuffer(
                _json.dumps(["Dense(4, 8)", layer, "Dense(8, 2)"]).encode(), dtype=np.uint8
            )
            np.savez_compressed(path, **arrays)
            with pytest.raises(ValueError, match="fingerprint"):
                Sequential.from_saved(path)

    def test_from_saved_never_executes_fingerprint_code(self, model, tmp_path):
        """A checkpoint is data: hostile fingerprints must be rejected,
        not evaluated."""
        import json as _json

        path = model.save(tmp_path / "model.npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        canary = tmp_path / "pwned"
        for payload in [
            f"__import__('pathlib').Path({str(canary)!r}).touch()",
            "().__class__.__base__.__subclasses__()",
            "Dense(4, 8).forward",
            "[Dense(4, 8) for _ in range(1)][0]",
        ]:
            arrays["__architecture__"] = np.frombuffer(
                _json.dumps([payload, "ReLU()", "Dense(8, 2)"]).encode(), dtype=np.uint8
            )
            np.savez_compressed(path, **arrays)
            with pytest.raises(ValueError, match="fingerprint"):
                Sequential.from_saved(path)
            assert not canary.exists()
