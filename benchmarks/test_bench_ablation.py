"""Ablations called out in the paper's Sec. VII.

* *Binning order* — "the usage of higher-order interpolation functions
  would likely improve the performance of the DL electric field
  solver": compare NGP vs CIC phase-space binning on identical states.
* *PIC interpolation order* — NGP/CIC/TSC deposit noise, the artifact
  source the paper blames for binning noise.
* *Network width* — MLP capacity vs regression error at fixed budget.
* *Vlasov training data* — the paper's proposed noise-free data source
  vs PIC-generated data on the same architecture.
"""

import numpy as np
import pytest
from conftest import dump_result

from repro.config import SimulationConfig
from repro.datagen.campaign import harvest_via_client
from repro.models.architectures import build_mlp
from repro.nn.losses import MSELoss
from repro.nn.metrics import mean_absolute_error
from repro.nn.optimizers import Adam
from repro.nn.training import Trainer
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer

pytestmark = pytest.mark.slow  # needs the medium-preset trained solvers (~15 min cold)


def _train_mlp_on(data, hidden, epochs=25, lr=1e-3, seed=0):
    """Train a small MLP on a dataset; return its held-out MAE."""
    train, _, test = data.split(n_val=1, n_test=max(16, len(data) // 10), rng=seed)
    norm = MinMaxNormalizer().fit(train.inputs)
    model = build_mlp(
        input_size=data.ps_grid.size, output_size=data.n_cells,
        hidden_size=hidden, rng=seed,
    )
    trainer = Trainer(model, MSELoss(), Adam(lr=lr))
    trainer.fit(norm.transform(train.flat_inputs()), train.targets,
                epochs=epochs, batch_size=32, rng=seed)
    pred = model.predict(norm.transform(test.flat_inputs()))
    return mean_absolute_error(pred, test.targets)


@pytest.fixture(scope="module")
def ablation_config():
    return SimulationConfig(n_cells=32, particles_per_cell=150, n_steps=120,
                            v0=0.2, vth=0.01, seed=21)


def test_binning_order_ablation(ablation_config, results_dir, benchmark):
    """CIC phase-space binning reduces histogram noise vs NGP (Sec. VII)."""
    grid = PhaseSpaceGrid(n_x=32, n_v=16, box_length=ablation_config.box_length)

    def run():
        maes = {}
        for order in ("ngp", "cic"):
            data = harvest_via_client([ablation_config], grid, binning=order)
            maes[order] = _train_mlp_on(data, hidden=64)
        return maes

    maes = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  binning MAE: ngp={maes['ngp']:.4e}  cic={maes['cic']:.4e}")
    dump_result(results_dir, "ablation_binning", maes)
    # Both orders must produce a usable regressor; the paper predicts
    # CIC helps — assert it is at least not substantially worse.
    assert maes["cic"] < 1.5 * maes["ngp"]


def test_interpolation_order_noise_ablation(results_dir, benchmark):
    """Deposit shot noise at high k drops with shape-function order."""
    from repro.pic.diagnostics import mode_spectrum
    from repro.pic.simulation import TraditionalPIC

    def run():
        noise = {}
        for order in ("ngp", "cic", "tsc"):
            cfg = SimulationConfig(n_cells=64, particles_per_cell=200, v0=0.2,
                                   vth=0.0, interpolation=order, seed=31)
            sim = TraditionalPIC(cfg)
            noise[order] = float(mode_spectrum(sim.field_solver.last_rho[0])[16:].sum())
        return noise

    noise = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  high-k deposit noise: {noise}")
    dump_result(results_dir, "ablation_interpolation", noise)
    assert noise["tsc"] < noise["cic"] < noise["ngp"]


def test_mlp_width_ablation(ablation_config, results_dir, benchmark):
    """Wider MLPs fit the field map better at fixed epochs."""
    grid = PhaseSpaceGrid(n_x=32, n_v=16, box_length=ablation_config.box_length)
    data = harvest_via_client([ablation_config], grid, binning="ngp")

    def run():
        return {width: _train_mlp_on(data, hidden=width) for width in (16, 64, 256)}

    maes = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  width MAE: {maes}")
    dump_result(results_dir, "ablation_width", {str(k): v for k, v in maes.items()})
    assert maes[256] < maes[16]


def test_vlasov_training_data_ablation(results_dir, benchmark):
    """The paper's future-work idea: noise-free Vlasov training pairs.

    Train the same architecture on (a) PIC-harvested pairs and
    (b) Vlasov-harvested pairs, then evaluate both on noise-free
    Vlasov-generated targets from a *different* beam speed.  Observed
    outcome (recorded for EXPERIMENTS.md): at this scale the noise-free
    single-trajectory Vlasov data generalizes *worse* than the noisy but
    more diverse PIC data — the paper's future-work idea needs a sweep
    of Vlasov runs, not just cleaner samples.
    """
    from repro.vlasov.harvest import harvest_vlasov_ensemble

    vcfg = SimulationConfig(solver="vlasov", n_cells=32, dt=0.2, n_steps=120, v0=0.2,
                            vth=0.03, perturbation=5e-3, extra={"n_v": 32})
    grid = PhaseSpaceGrid(n_x=32, n_v=32, box_length=vcfg.box_length)
    pic_cfg = SimulationConfig(n_cells=32, particles_per_cell=150, n_steps=120,
                               v0=0.2, vth=0.03, seed=41)

    def run():
        n_particles = pic_cfg.n_particles
        vlasov_data = harvest_vlasov_ensemble([vcfg], grid, n_particles=n_particles)
        pic_data = harvest_via_client([pic_cfg], grid, binning="ngp")
        # Evaluate both on a second, later-seeded Vlasov run (smooth truth).
        eval_cfg = vcfg.with_updates(n_steps=80, v0=0.22)
        eval_data = harvest_vlasov_ensemble([eval_cfg], grid, n_particles=n_particles)

        maes = {}
        for name, data in (("vlasov", vlasov_data), ("pic", pic_data)):
            norm = MinMaxNormalizer().fit(data.inputs)
            model = build_mlp(input_size=grid.size, output_size=32,
                              hidden_size=64, rng=7)
            Trainer(model, MSELoss(), Adam(lr=1e-3)).fit(
                norm.transform(data.flat_inputs()), data.targets,
                epochs=25, batch_size=32, rng=7,
            )
            pred = model.predict(norm.transform(eval_data.flat_inputs()))
            maes[name] = mean_absolute_error(pred, eval_data.targets)
        return maes

    maes = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  training-data MAE on smooth eval states: {maes}")
    dump_result(results_dir, "ablation_vlasov_data", maes)
    # Both data sources must yield a usable regressor (same order of
    # magnitude); which one wins is the recorded finding, not asserted.
    assert maes["vlasov"] < 5.0 * maes["pic"]
    assert maes["pic"] < 5.0 * maes["vlasov"]
