"""FieldDataset container."""

import numpy as np
import pytest

from repro.datagen.dataset import FieldDataset
from repro.phasespace.binning import PhaseSpaceGrid


@pytest.fixture
def grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(n_x=8, n_v=4)


@pytest.fixture
def dataset(grid) -> FieldDataset:
    rng = np.random.default_rng(0)
    n = 20
    return FieldDataset(
        inputs=rng.poisson(3.0, size=(n, 4, 8)).astype(float),
        targets=rng.normal(size=(n, 16)),
        params=np.column_stack([np.full(n, 0.2), np.full(n, 0.01),
                                np.zeros(n), np.arange(n, dtype=float)]),
        ps_grid=grid,
    )


class TestContainer:
    def test_len(self, dataset):
        assert len(dataset) == 20

    def test_n_cells(self, dataset):
        assert dataset.n_cells == 16

    def test_flat_inputs(self, dataset):
        flat = dataset.flat_inputs()
        assert flat.shape == (20, 32)
        np.testing.assert_array_equal(flat[0], dataset.inputs[0].ravel())

    def test_image_inputs(self, dataset):
        img = dataset.image_inputs()
        assert img.shape == (20, 1, 4, 8)

    def test_inconsistent_counts_rejected(self, grid):
        with pytest.raises(ValueError):
            FieldDataset(
                inputs=np.zeros((3, 4, 8)), targets=np.zeros((2, 16)),
                params=np.zeros((3, 4)), ps_grid=grid,
            )

    def test_wrong_histogram_shape_rejected(self, grid):
        with pytest.raises(ValueError):
            FieldDataset(
                inputs=np.zeros((3, 5, 5)), targets=np.zeros((3, 16)),
                params=np.zeros((3, 4)), ps_grid=grid,
            )


class TestSubsetShuffleSplit:
    def test_subset_copies(self, dataset):
        sub = dataset.subset(np.array([0, 1]))
        sub.inputs[0, 0, 0] = 999.0
        assert dataset.inputs[0, 0, 0] != 999.0

    def test_shuffled_is_permutation(self, dataset):
        shuffled = dataset.shuffled(rng=1)
        assert len(shuffled) == len(dataset)
        np.testing.assert_array_equal(
            np.sort(shuffled.params[:, 3]), np.sort(dataset.params[:, 3])
        )
        assert not np.array_equal(shuffled.params[:, 3], dataset.params[:, 3])

    def test_shuffle_keeps_rows_paired(self, dataset):
        shuffled = dataset.shuffled(rng=2)
        for i in range(len(shuffled)):
            orig = int(shuffled.params[i, 3])
            np.testing.assert_array_equal(shuffled.inputs[i], dataset.inputs[orig])
            np.testing.assert_array_equal(shuffled.targets[i], dataset.targets[orig])

    def test_split_sizes(self, dataset):
        train, val, test = dataset.split(n_val=4, n_test=3, rng=0)
        assert (len(train), len(val), len(test)) == (13, 4, 3)

    def test_split_disjoint(self, dataset):
        train, val, test = dataset.split(n_val=4, n_test=3, rng=0)
        ids = np.concatenate([d.params[:, 3] for d in (train, val, test)])
        assert len(np.unique(ids)) == 20

    def test_split_too_large_rejected(self, dataset):
        with pytest.raises(ValueError):
            dataset.split(n_val=10, n_test=10)


class TestSubsample:
    def test_draws_a_seeded_subset(self, dataset):
        part = dataset.subsample(3, rng=7)
        order = np.random.default_rng(7).permutation(len(dataset))[:3]
        np.testing.assert_array_equal(part.inputs, dataset.inputs[order])
        np.testing.assert_array_equal(part.params, dataset.params[order])

    def test_keeps_everything_when_asked_for_more(self, dataset):
        assert dataset.subsample(len(dataset)) is dataset


class TestConcatenate:
    def test_concat(self, dataset):
        combined = FieldDataset.concatenate([dataset, dataset])
        assert len(combined) == 40

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError):
            FieldDataset.concatenate([])

    def test_concat_mismatched_grids_rejected(self, dataset):
        other_grid = PhaseSpaceGrid(n_x=8, n_v=4, v_min=-2.0, v_max=2.0)
        other = FieldDataset(
            inputs=np.zeros((2, 4, 8)), targets=np.zeros((2, 16)),
            params=np.zeros((2, 4)), ps_grid=other_grid,
        )
        with pytest.raises(ValueError, match="different phase-space grids"):
            FieldDataset.concatenate([dataset, other])


class TestPersistence:
    def test_save_load_roundtrip(self, dataset, tmp_path):
        path = dataset.save(tmp_path / "data.npz")
        loaded = FieldDataset.load(path)
        np.testing.assert_array_equal(loaded.inputs, dataset.inputs)
        np.testing.assert_array_equal(loaded.targets, dataset.targets)
        np.testing.assert_array_equal(loaded.params, dataset.params)
        assert loaded.ps_grid == dataset.ps_grid
