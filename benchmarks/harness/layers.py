"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions each layer exposes by
patching the module and class attributes their callers look up — every
module attribute that names a wrapped function is replaced, so aliases
made by ``from x import f`` are caught too.  A thread-local stack turns
nested wall-clock intervals into self time: a layer's self time is its
inclusive time minus the inclusive time of the wrapped calls made
inside it.  Nothing is patched until :meth:`LayerTracer.install`, and
:meth:`LayerTracer.uninstall` restores every original, so untraced
passes run the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (layer, module, attribute) — the attribute is a module-level function
# or ``Class.method``.  Several targets may feed one layer: every engine
# family's ``step`` is ``engines.step``, and both field solvers are
# ``field_solve`` (the Sec. VII comparison pairs them across workloads).
TIMED = (
    ("pic.gather", "repro.pic.interpolation", "gather"),
    ("pic.push_velocities", "repro.pic.mover", "push_velocities"),
    ("pic.push_positions", "repro.pic.mover", "push_positions"),
    ("pic.deposit", "repro.pic.interpolation", "charge_density"),
    ("pic.poisson_solve", "repro.pic.poisson", "PoissonSolver.solve"),
    ("field_solve", "repro.pic.simulation", "ChargeDepositionFieldSolver.field"),
    ("field_solve", "repro.dlpic.solver", "DLFieldSolver.fields"),
    ("phasespace.bin", "repro.phasespace.binning", "bin_phase_space_batch"),
    ("phasespace.normalize", "repro.phasespace.normalization", "MinMaxNormalizer.transform"),
    ("nn.predict", "repro.nn.network", "Sequential.predict"),
    ("engines.step", "repro.pic.simulation", "EnsembleSimulation.step"),
    ("engines.step", "repro.vlasov.ensemble", "VlasovEnsemble.step"),
    ("engines.step", "repro.pic.energy_conserving", "EnergyConservingEnsemble.step"),
    ("engines.record_frame", "repro.engines.observables", "Observables.record_frame"),
    ("engines.make_engine", "repro.engines.base", "make_engine"),
    ("service.submit", "repro.service.service", "SimulationService.submit_with_status"),
    ("service.store_get", "repro.service.store", "ResultStore.get"),
    ("service.store_put", "repro.service.store", "ResultStore.put"),
    ("service.run_group_task", "repro.service.executor", "run_group_task"),
    ("api.request_encode", "repro.api.envelope", "RunRequest.to_dict"),
    ("api.result_encode", "repro.api.envelope", "RunResult.to_dict"),
    ("api.result_decode", "repro.api.envelope", "RunResult.from_dict"),
    ("datagen.shard_write", "repro.datagen.dataset", "FieldDataset.save"),
    ("datagen.assemble", "repro.datagen.campaign", "dataset_from_result"),
)

# Layers whose inclusive per-call durations are kept for percentiles.
DURATIONS = ("field_solve", "engines.step")

# Counted, not timed: the backend seam sits *inside* gather, deposit
# and the GEMM, so timing it would move their self time into it.
COUNTED = (
    ("kernels.run_rows", "repro.kernels.backends", "KernelBackend.run_rows"),
    ("kernels.run_rows", "repro.kernels.backends", "ThreadedBackend.run_rows"),
)

# Summed return sizes: bytes of every HTTP response the server writes.
SIZED = (
    ("server.response_bytes", "repro.server.http", "response_bytes"),
)


class LayerTracer:
    """Calls, self time and inclusive durations per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object]]" = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused while the entry exists.
        self._originals: "dict[int, tuple[object, object]]" = {}
        self.calls: "dict[str, int]" = defaultdict(int)
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.durations: "dict[str, list[float]]" = defaultdict(list)
        self.sizes: "dict[str, int]" = defaultdict(int)

    # -- wrappers ----------------------------------------------------------
    def _timed(self, layer: str, fn):
        local = self._local
        keep = layer in DURATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # inclusive time of wrapped calls made inside
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.self_s[layer] += elapsed - frame[0]
                    if keep:
                        self.durations[layer].append(elapsed)

        return wrapper

    def _counted(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sized(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            with self._lock:
                self.sizes[layer] += len(out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every target (importing its module first)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted),
                              (SIZED, self._sized)):
            for layer, module_name, attr in targets:
                self._patch(layer, importlib.import_module(module_name), attr, make)

    def _patch(self, layer: str, module, attr: str, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapper = classmethod(make(layer, raw.__func__))
            else:
                wrapper = make(layer, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapper)
            return
        original = getattr(module, attr)
        wrapper = make(layer, original)
        self._originals[id(wrapper)] = (wrapper, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute.

        Modules first imported while the tracer was installed may have
        copied a wrapper with ``from x import f``; those are restored too.
        """
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, name, entry[1])
        self._originals.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
