"""Noise-free 1D1V Vlasov-Poisson reference solver.

The paper's Sec. VII: "more accurate training data sets can be obtained
by running Vlasov codes that are not affected by the PIC numerical
noise."  This subpackage implements that future-work item: a batched
semi-Lagrangian (Cheng-Knorr split) Vlasov-Poisson solver on a fixed
phase-space grid, served as the ``solver="vlasov"`` engine family (a
solo run is ``make_engine([config])``), plus a harvester producing
:class:`FieldDataset` training pairs compatible with the DL solver
pipeline.
"""

from repro.vlasov.ensemble import VlasovEnsemble
from repro.vlasov.harvest import expected_counts, harvest_vlasov_ensemble

__all__ = [
    "VlasovEnsemble",
    "expected_counts",
    "harvest_vlasov_ensemble",
]
