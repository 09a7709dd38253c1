"""DataLoader: shuffled mini-batches, reshuffled every epoch."""

import numpy as np
import pytest

from repro.nn.data import DataLoader


@pytest.fixture
def xy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    y = np.arange(50, dtype=float)
    return x, y


class TestDataLoader:
    def test_number_of_batches(self, xy):
        x, y = xy
        assert len(DataLoader(x, y, batch_size=16)) == 4
        assert len(DataLoader(x, y, batch_size=50)) == 1

    def test_last_partial_batch(self, xy):
        x, y = xy
        batches = list(DataLoader(x, y, batch_size=16, rng=0))
        assert batches[-1][0].shape[0] == 2

    def test_shuffle_is_a_permutation(self, xy):
        x, y = xy
        loader = DataLoader(x, y, batch_size=7, rng=1)
        seen = np.concatenate([yb for _, yb in loader])
        np.testing.assert_array_equal(np.sort(seen), np.sort(y))
        assert not np.array_equal(seen, y)

    def test_shuffle_differs_between_epochs(self, xy):
        x, y = xy
        loader = DataLoader(x, y, batch_size=50, rng=2)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_x_y_rows_stay_paired(self, xy):
        x, y = xy
        loader = DataLoader(x, y, batch_size=8, rng=3)
        for xb, yb in loader:
            np.testing.assert_allclose(xb, x[yb.astype(int)])

    def test_seeded_loader_reproducible(self, xy):
        x, y = xy
        a = np.concatenate([yb for _, yb in DataLoader(x, y, 8, rng=5)])
        b = np.concatenate([yb for _, yb in DataLoader(x, y, 8, rng=5)])
        np.testing.assert_array_equal(a, b)

    def test_validation(self, xy):
        x, y = xy
        with pytest.raises(ValueError):
            DataLoader(x, y[:10])
        with pytest.raises(ValueError):
            DataLoader(x, y, batch_size=0)
        with pytest.raises(ValueError):
            DataLoader(np.zeros((0, 2)), np.zeros(0))
