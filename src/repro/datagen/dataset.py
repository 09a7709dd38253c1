"""Container for (phase-space histogram, electric field) sample pairs."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.phasespace.binning import PhaseSpaceGrid
from repro.utils.io import load_npz_dict, save_npz_dict
from repro.utils.rng import as_generator


@dataclass
class FieldDataset:
    """Paired inputs/targets for the DL electric-field solver.

    Attributes
    ----------
    inputs:
        Raw (unnormalized) histograms, shape ``(n, n_v, n_x)``.
    targets:
        Electric field on the grid, shape ``(n, n_cells)``.
    params:
        Per-sample ``(v0, vth, seed, step)`` provenance, shape ``(n, 4)``.
    ps_grid:
        The phase-space discretization the histograms were binned on.
    """

    inputs: np.ndarray
    targets: np.ndarray
    params: np.ndarray
    ps_grid: PhaseSpaceGrid

    def __post_init__(self) -> None:
        # Preserve a float32 pair tier (the raw-speed kernels emit
        # float32 and casting up would fake precision + double memory);
        # everything else — ints from histogram binning included —
        # still normalizes to float64.  Provenance params are always
        # float64: they are labels, not data.
        self.inputs = self._as_float(self.inputs)
        self.targets = self._as_float(self.targets)
        self.params = np.asarray(self.params, dtype=np.float64)
        n = self.inputs.shape[0]
        if self.targets.shape[0] != n or self.params.shape[0] != n:
            raise ValueError(
                f"inconsistent sample counts: inputs {n}, targets {self.targets.shape[0]}, "
                f"params {self.params.shape[0]}"
            )
        if self.inputs.ndim != 3 or self.inputs.shape[1:] != self.ps_grid.shape:
            raise ValueError(
                f"inputs shape {self.inputs.shape} does not match phase-space grid "
                f"{self.ps_grid.shape}"
            )

    @staticmethod
    def _as_float(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.dtype == np.float32:
            return values
        return np.asarray(values, dtype=np.float64)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_cells(self) -> int:
        """Field grid size (the network's output width)."""
        return self.targets.shape[1]

    def flat_inputs(self) -> np.ndarray:
        """Histograms flattened for MLP consumption, ``(n, n_v*n_x)``."""
        return self.inputs.reshape(len(self), -1)

    def image_inputs(self) -> np.ndarray:
        """Histograms as single-channel images, ``(n, 1, n_v, n_x)``."""
        return self.inputs.reshape(len(self), 1, *self.ps_grid.shape)

    def subset(self, indices: np.ndarray) -> "FieldDataset":
        """New dataset restricted to ``indices`` (copies)."""
        idx = np.asarray(indices)
        return FieldDataset(
            inputs=self.inputs[idx].copy(),
            targets=self.targets[idx].copy(),
            params=self.params[idx].copy(),
            ps_grid=self.ps_grid,
        )

    def subsample(
        self, n_samples: int, rng: "int | np.random.Generator | None" = None
    ) -> "FieldDataset":
        """A random ``n_samples``-pair subset; the whole set if it is no larger."""
        if n_samples >= len(self):
            return self
        return self.subset(as_generator(rng).permutation(len(self))[:n_samples])

    def shuffled(self, rng: "int | np.random.Generator | None" = None) -> "FieldDataset":
        """Jointly shuffled copy (the paper shuffles before splitting)."""
        order = as_generator(rng).permutation(len(self))
        return self.subset(order)

    def split(
        self, n_val: int, n_test: int, rng: "int | np.random.Generator | None" = None
    ) -> tuple["FieldDataset", "FieldDataset", "FieldDataset"]:
        """Shuffle and split into (train, val, test) like Sec. IV-A1."""
        if n_val < 0 or n_test < 0 or n_val + n_test >= len(self):
            raise ValueError(f"cannot carve {n_val}+{n_test} samples out of {len(self)}")
        shuffled = self.shuffled(rng)
        test = shuffled.subset(np.arange(0, n_test))
        val = shuffled.subset(np.arange(n_test, n_test + n_val))
        train = shuffled.subset(np.arange(n_test + n_val, len(self)))
        return train, val, test

    @staticmethod
    def concatenate(datasets: "list[FieldDataset]") -> "FieldDataset":
        """Stack several datasets binned on the same phase-space grid."""
        if not datasets:
            raise ValueError("no datasets to concatenate")
        grid = datasets[0].ps_grid
        for d in datasets[1:]:
            if d.ps_grid != grid:
                raise ValueError("datasets use different phase-space grids")
        return FieldDataset(
            inputs=np.concatenate([d.inputs for d in datasets], axis=0),
            targets=np.concatenate([d.targets for d in datasets], axis=0),
            params=np.concatenate([d.params for d in datasets], axis=0),
            ps_grid=grid,
        )

    # -- persistence -----------------------------------------------------
    def save(self, path: "str | Path") -> Path:
        """Write the dataset (arrays + grid metadata) to ``.npz``."""
        return save_npz_dict(
            path,
            {
                "inputs": self.inputs,
                "targets": self.targets,
                "params": self.params,
                "n_x": self.ps_grid.n_x,
                "n_v": self.ps_grid.n_v,
                "box_length": self.ps_grid.box_length,
                "v_min": self.ps_grid.v_min,
                "v_max": self.ps_grid.v_max,
            },
        )

    @classmethod
    def load(cls, path: "str | Path") -> "FieldDataset":
        """Inverse of :meth:`save`."""
        data = load_npz_dict(path)
        grid = PhaseSpaceGrid(
            n_x=int(data["n_x"]),
            n_v=int(data["n_v"]),
            box_length=float(data["box_length"]),
            v_min=float(data["v_min"]),
            v_max=float(data["v_max"]),
        )
        return cls(inputs=data["inputs"], targets=data["targets"], params=data["params"], ps_grid=grid)
