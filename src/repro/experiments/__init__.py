"""Experiment harness: one entry point per paper table/figure.

* :mod:`repro.experiments.pipeline` — dataset generation + network
  training shared by all experiments (kept in the campaign stream and
  the model registry, so each preset trains once);
* :mod:`repro.experiments.table1` — Table I (MAE / max error);
* :mod:`repro.experiments.fig4` — Fig. 4 (growth-rate validation);
* :mod:`repro.experiments.fig5` — Fig. 5 (energy/momentum);
* :mod:`repro.experiments.fig6` — Fig. 6 (cold-beam stability).
"""

from repro.experiments.pipeline import (
    ExperimentPreset,
    TrainedSolvers,
    fast_preset,
    medium_preset,
    paper_preset,
    train_solvers,
)
from repro.experiments.table1 import Table1Row, run_table1, format_table1
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6

__all__ = [
    "ExperimentPreset",
    "TrainedSolvers",
    "fast_preset",
    "medium_preset",
    "paper_preset",
    "train_solvers",
    "Table1Row",
    "run_table1",
    "format_table1",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
]
