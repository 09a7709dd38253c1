"""The DL electric-field solver (grey boxes of the paper's Fig. 2).

At every PIC cycle the solver (1) bins the particle phase space onto a
2D grid, (2) min-max normalizes the histogram with the statistics
*frozen at training time* (Eq. 5), and (3) evaluates the trained
network to predict the electric field on the 64 grid nodes.  No charge
deposition and no Poisson solve take place.

The solver is batch-native: an ensemble of runs hands it stacked
``(batch, n)`` phase spaces and the whole stage — binning, frozen
normalization, network evaluation — executes once per step for the
entire batch (:meth:`DLFieldSolver.fields`).  One ``bincount`` per
row builds the histograms from indices written into the engine's
workspace, one normalization pass rescales the stack, and ONE network
forward predicts all fields.  A single run is a batch of one, and the
inference stack guarantees each batched row is bitwise identical to
that row's batch of one (see ``repro.nn.layers``).

Binning keeps the paper's CIC gather of the field to the particles,
and at the paper's resolution the phase-space x axis is the field grid:
there the solve builds the gather's CIC stencil itself and bins with
its left nodes, which are exactly the NGP x bins, so one DL step builds
one particle→grid stencil, as the traditional step does.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.kernels import KernelBackend
from repro.kernels.workspace import Workspace
from repro.nn.network import Sequential
from repro.phasespace.binning import PhaseSpaceGrid, bin_phase_space_batch
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.grid import Grid1D
from repro.pic.interpolation import build_stencil

_INPUT_KINDS = ("flat", "image")


class DLFieldSolver:
    """Predicts ``E`` on the grid from the particle phase space.

    Parameters
    ----------
    model:
        A trained network mapping normalized histograms to the field.
    ps_grid:
        Phase-space discretization used at training time (must match).
    normalizer:
        The min-max scaler fitted on the training inputs.
    input_kind:
        ``"flat"`` feeds histograms as ``(N, n_v*n_x)`` vectors (MLP);
        ``"image"`` as ``(N, 1, n_v, n_x)`` tensors (CNN).
    binning:
        Phase-space binning order, ``"ngp"`` (paper) or ``"cic"``.

    The object satisfies the batch-native ``FieldSolver`` protocol of
    ``repro.pic.simulation`` and plugs directly into the PIC cycle of an
    :class:`~repro.pic.simulation.EnsembleSimulation`.  One solver may
    serve several engines on several threads at once (a service runs
    every DL group through its one solver), so it holds only frozen
    weights and preprocessing: each engine hands :meth:`fields` its
    :class:`~repro.kernels.workspace.Workspace` and its kernel backend
    on every call.
    """

    def __init__(
        self,
        model: Sequential,
        ps_grid: PhaseSpaceGrid,
        normalizer: MinMaxNormalizer,
        input_kind: str = "flat",
        binning: str = "ngp",
    ) -> None:
        if input_kind not in _INPUT_KINDS:
            raise ValueError(f"unknown input_kind {input_kind!r}; expected one of {_INPUT_KINDS}")
        if not normalizer.fitted:
            raise ValueError("normalizer must be fitted before building a DLFieldSolver")
        self.model = model
        self.ps_grid = ps_grid
        self.normalizer = normalizer
        self.input_kind = input_kind
        self.binning = binning
        # The float32 serving tier: a deep copy of the model with the
        # weights cast down, built lazily on the first float32 call
        # (the weights are frozen once the solver serves).
        self._model_f32: "Sequential | None" = None

    def _eval_model(self, dtype: np.dtype) -> Sequential:
        """The model matching an input dtype (float32 copy built lazily)."""
        if dtype != np.float32:
            return self.model
        if self._model_f32 is None:
            model = copy.deepcopy(self.model)
            for layer in model.layers:
                for key, value in layer.params.items():
                    layer.params[key] = value.astype(np.float32)
            self._model_f32 = model
        return self._model_f32

    def prepare_inputs(self, histograms: np.ndarray) -> np.ndarray:
        """Normalize stacked histograms and shape them for the network.

        ``histograms`` is ``(batch, n_v, n_x)``; one normalization pass
        covers the whole stack.  Returns ``(batch, n_v*n_x)`` for
        ``"flat"`` models or ``(batch, 1, n_v, n_x)`` for ``"image"``.
        """
        histograms = np.asarray(histograms)
        if histograms.dtype != np.float32:
            histograms = np.asarray(histograms, dtype=np.float64)
        if histograms.ndim != 3 or histograms.shape[1:] != self.ps_grid.shape:
            raise ValueError(
                f"histograms {histograms.shape} do not match "
                f"(batch, {self.ps_grid.n_v}, {self.ps_grid.n_x})"
            )
        norm = self.normalizer.transform(histograms)
        if self.input_kind == "flat":
            return norm.reshape(histograms.shape[0], -1)
        return norm.reshape(histograms.shape[0], 1, *self.ps_grid.shape)

    def predict_from_histograms(self, histograms: np.ndarray) -> np.ndarray:
        """One network forward over stacked raw histograms.

        float32 histograms are evaluated by the float32 weight copy
        (single-precision GEMMs end to end); anything else runs the
        float64 reference model unchanged.
        """
        prepared = self.prepare_inputs(histograms)
        return self._eval_model(prepared.dtype).predict(prepared)

    def fields(
        self,
        x: np.ndarray,
        v: np.ndarray,
        work: "Workspace | None" = None,
        grid: "Grid1D | None" = None,
        gather_order: "str | None" = None,
        backend: "KernelBackend | None" = None,
    ) -> np.ndarray:
        """Predict every ensemble member's field in one fused pass.

        ``x`` and ``v`` are stacked ``(batch, n)`` phase spaces; the
        result is ``(batch, n_cells)``.  The entire DL field-solve
        stage — binning, normalization, network forward — runs once for
        the whole batch, and row ``b`` is bitwise identical to the same
        call on the batch of one ``(x[b:b+1], v[b:b+1])``.

        An engine passes its kernel workspace ``work``, its field
        ``grid``, its ``gather_order`` and its kernel ``backend``.  The
        binning scratch then lives in ``work`` (``None`` bins on a
        throwaway one).  When the stencil can be shared — float64
        positions, NGP binning, a CIC gather and a phase-space x axis
        equal to ``grid`` — the solve builds the CIC stencil of ``x``
        into ``work`` through ``backend`` (``None``: the reference
        slab), where the engine's next gather at ``x`` reads it, and
        bins with its left nodes as the x bins.

        When ``work`` is given, the stacked histograms are left in
        ``work.histograms``, which is where a caller reads them.
        """
        x_index = None
        if (
            work is not None
            and grid is not None
            and x.dtype == np.float64
            and self.binning == "ngp"
            and gather_order == "cic"
            and self.ps_grid.n_x == grid.n_cells
            and self.ps_grid.box_length == grid.length
        ):
            x_index = build_stencil(grid, x, work, "cic", backend)[:, 0]
        hists = bin_phase_space_batch(
            x, v, self.ps_grid, order=self.binning, dtype=x.dtype, work=work,
            x_index=x_index,
        )
        if work is not None:
            work.histograms = hists
        return self.predict_from_histograms(hists)

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``FieldSolver`` protocol entry point used by the PIC cycle.

        Coerces the stacked ``(batch, n)`` phase space to one float
        dtype (float32 stays float32, anything else becomes float64)
        and predicts through :meth:`fields`.
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float64)
        return self.fields(x, np.asarray(v, dtype=x.dtype))

    def fingerprint(self) -> str:
        """Content hash of the solver (architecture + weights + preprocessing).

        Two solvers with the same fingerprint predict identical fields
        for identical inputs, so the simulation service folds this into
        the result-store key of DL runs — results produced by one model
        can never be served for a request against another.
        """
        h = hashlib.sha256()
        h.update(json.dumps([repr(layer) for layer in self.model.layers]).encode("utf-8"))
        state = self.model.state_dict()
        for key in sorted(state):
            h.update(key.encode("utf-8"))
            h.update(np.ascontiguousarray(state[key]).tobytes())
        h.update(json.dumps(self._preprocessing(), sort_keys=True).encode("utf-8"))
        return h.hexdigest()

    def _preprocessing(self) -> dict:
        """The frozen preprocessing: what :meth:`fingerprint` hashes beside
        the network and what ``solver.json`` stores."""
        return {
            "input_kind": self.input_kind,
            "binning": self.binning,
            "normalizer": self.normalizer.to_dict(),
            "ps_grid": dataclasses.asdict(self.ps_grid),
        }

    # -- persistence -----------------------------------------------------
    def save(self, directory: "str | Path") -> Path:
        """Write ``model.npz`` + ``solver.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.model.save(directory / "model.npz")
        (directory / "solver.json").write_text(json.dumps(self._preprocessing(), indent=2))
        return directory

    @classmethod
    def load(cls, directory: "str | Path", model: Sequential) -> "DLFieldSolver":
        """Rebuild a solver; ``model`` must have the saved architecture.

        The caller constructs the (untrained) architecture — e.g. via
        ``repro.models.build_mlp`` — and this method loads the weights
        and the frozen preprocessing state into it.
        """
        directory = Path(directory)
        meta = json.loads((directory / "solver.json").read_text())
        model.load(directory / "model.npz")
        return cls(
            model=model,
            ps_grid=PhaseSpaceGrid(**meta["ps_grid"]),
            normalizer=MinMaxNormalizer.from_dict(meta["normalizer"]),
            input_kind=meta["input_kind"],
            binning=meta["binning"],
        )

    @classmethod
    def load_auto(cls, directory: "str | Path") -> "DLFieldSolver":
        """Rebuild a solver from a saved directory or registry reference.

        Unlike :meth:`load` no pre-built architecture is needed: the
        checkpoint's layer fingerprint reconstructs the network
        (:meth:`Sequential.from_saved`).  This is what lets the CLI run
        ``repro sweep --solver dl --model-dir <dir>`` against any saved
        solver.  ``registry:<fingerprint-prefix>`` (and
        ``registry:<root>:<prefix>``) references resolve through the
        content-addressed model registry (:mod:`repro.registry`) — and
        because every ``model_dir`` consumer funnels through this
        method, registry refs work identically for the CLI, an
        in-process service and spawned executor workers.
        """
        if str(directory).startswith("registry:"):
            # Lazy import: the registry depends on this module.
            from repro.registry import resolve_model_dir

            directory = resolve_model_dir(directory)
        directory = Path(directory)
        return cls.load(directory, Sequential.from_saved(directory / "model.npz"))
