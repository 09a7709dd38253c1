"""The package docstring's quickstart is the public single-run example;
it stays executable.  And a process that imports the package and serves
requests starts on numpy and the standard library alone: scipy, the one
optional heavy dependency, loads only inside the two reference functions
that call it (``solve_poisson_direct`` and ``solve_dispersion``).  The
network stack (``repro.nn``) imports no engine, and of the kernels only
the GEMM column split."""

import doctest
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def test_package_quickstart_doctest_passes():
    results = doctest.testmod(repro)
    assert results.failed == 0
    assert results.attempted == 5


def _run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter and parse the JSON it prints last.

    A subprocess, so the modules pytest and other tests have imported
    do not count.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


_SCIPY_FREE = """
import json, sys

import repro, repro.api, repro.cli, repro.datagen.stream, repro.experiments.pipeline
import repro.server.app, repro.service, repro.theory
after_imports = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import numpy as np
from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.dlpic import DLFieldSolver
from repro.models import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.server.app import serve_in_thread

base = SimulationConfig(n_cells=16, particles_per_cell=10, n_steps=3, vth=0.01)
grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=base.box_length)
model = build_mlp(input_size=grid.size, output_size=base.n_cells, hidden_size=8, rng=0)
norm = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 20.0})
families = ("traditional", "dl", "vlasov", "energy", "mpi")
with Client(background=False, dl_solver=DLFieldSolver(model, grid, norm)) as client:
    results = client.map([base.with_updates(solver=f) for f in families])
with serve_in_thread() as server, Client.connect(server.url) as remote:
    results.append(remote.run(RunRequest(config=base, id="http")))
print(json.dumps({
    "after_imports": after_imports,
    "results": [[r.solver, r.status, r.error] for r in results],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_imports_and_every_solver_family_run_without_scipy():
    report = _run_fresh(_SCIPY_FREE)
    assert report["after_imports"] == []
    assert report["results"] == [
        [family, "ok", None]
        for family in ("traditional", "dl", "vlasov", "energy", "mpi", "traditional")
    ]
    assert report["scipy"] == []


def test_the_network_stack_reaches_the_kernels_only_for_its_column_split():
    """A network is frozen weights: the engine, not the network, owns a
    kernel backend and a workspace.  ``repro.nn`` imports only the GEMM
    column split of ``repro.kernels`` (``blas``, with the shared pool of
    ``backends`` it runs parts on), and no engine."""
    report = _run_fresh(
        "import json, sys\n"
        "import repro.nn\n"
        "print(json.dumps({'kernels': sorted(m for m in sys.modules"
        " if m.startswith('repro.kernels')), 'engines': sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['repro', 'pic'], ['repro', 'engines'],"
        " ['repro', 'dlpic']))}))"
    )
    assert report == {
        "kernels": ["repro.kernels", "repro.kernels.backends", "repro.kernels.blas"],
        "engines": [],
    }


_SCIPY_PATHS = """
import json, sys

from repro.api import Client
from repro.config import SimulationConfig
from repro.theory import solve_dispersion

before = "scipy" in sys.modules
config = SimulationConfig(
    n_cells=16, particles_per_cell=10, n_steps=4, vth=0.01, poisson_solver="direct"
)
with Client(background=False) as client:
    result = client.run(config)
warm = solve_dispersion(0.9, 0.2, vth=0.02)
stable = solve_dispersion(5.0, 0.2)
print(json.dumps({
    "before": before,
    "after": "scipy" in sys.modules,
    "status": result.status,
    "efield": result.efield.tolist(),
    "roots": [[warm.real, warm.imag], [stable.real, stable.imag]],
}))
"""

# Recorded with scipy imported at module level, before it moved into the
# two functions.  A tolerance, not bits: LAPACK builds may round the
# 16 x 16 LU solve differently.
_DIRECT_EFIELD = [
    -0.04793367368103523, -0.053827559075948814, -0.04305848118356415,
    -0.03626820612285388, -0.012945099165038068, 0.014429416422751824,
    0.026036977331400077, 0.02878025980202887, 0.014879627514855267,
    0.03284425346688019, 0.06111887593638327, 0.04946367031144375,
    0.013480712067616241, -0.003152873786301573, -0.011578938820617403,
    -0.03226896101800037,
]
_DISPERSION_ROOTS = [[0.0, 0.16676526630001948], [1.7320508075688685, 0.0]]


def test_scipy_backed_paths_load_scipy_on_first_use_and_keep_their_values():
    report = _run_fresh(_SCIPY_PATHS)
    assert report["before"] is False
    assert report["after"] is True
    assert report["status"] == "ok"
    np.testing.assert_allclose(report["efield"], _DIRECT_EFIELD, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(report["roots"], _DISPERSION_ROOTS, rtol=1e-12, atol=1e-12)
