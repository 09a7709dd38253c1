"""Dataset-generation campaign (Sec. IV-A1)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.datagen.campaign import (
    CampaignConfig,
    harvest_via_client,
    run_campaign,
)
from repro.phasespace.binning import PhaseSpaceGrid
from repro.utils.rng import spawn_seeds


def _campaign(**overrides) -> CampaignConfig:
    defaults = dict(
        v0_values=(0.1, 0.2),
        vth_values=(0.0, 0.01),
        experiments_per_combo=2,
        base_config=SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=5),
        ps_grid=PhaseSpaceGrid(n_x=8, n_v=4),
        master_seed=99,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaignConfig:
    def test_counts(self):
        c = _campaign()
        assert c.n_simulations == 8
        assert c.n_samples == 8 * 6  # 5 steps + initial state

    def test_counts_without_initial_state(self):
        c = _campaign(include_initial_state=False)
        assert c.n_samples == 8 * 5

    def test_paper_campaign_scale(self):
        from repro.datagen.presets import paper_campaign

        c = paper_campaign()
        assert c.n_simulations == 200
        # 200 runs x 200 steps = the paper's 40,000 samples
        # (+200 initial-state pairs from include_initial_state).
        assert c.n_samples == 200 * 201

    def test_specs_deterministic(self):
        a = _campaign().simulation_specs()
        b = _campaign().simulation_specs()
        assert a == b

    def test_specs_cover_all_combinations(self):
        specs = _campaign().simulation_specs()
        combos = {(v0, vth) for v0, vth, _ in specs}
        assert combos == {(0.1, 0.0), (0.1, 0.01), (0.2, 0.0), (0.2, 0.01)}

    def test_seeds_unique_across_runs(self):
        seeds = [s for _, _, s in _campaign().simulation_specs()]
        assert len(set(seeds)) == len(seeds)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v0_values": ()},
            {"vth_values": ()},
            {"experiments_per_combo": 0},
            {"v0_values": (0.1, -0.2)},
            {"vth_values": (0.0, -0.01)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _campaign(**kwargs)


class TestHarvest:
    def test_shapes(self):
        cfg = SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=5, seed=1)
        grid = PhaseSpaceGrid(n_x=8, n_v=4)
        data = harvest_via_client([cfg], grid)
        assert data.inputs.shape == (6, 4, 8)
        assert data.targets.shape == (6, 16)
        assert data.params.shape == (6, 4)

    def test_histogram_mass_is_particle_count(self):
        cfg = SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=3, seed=2)
        data = harvest_via_client([cfg], PhaseSpaceGrid(n_x=8, n_v=4))
        np.testing.assert_allclose(data.inputs.sum(axis=(1, 2)), cfg.n_particles)

    def test_targets_match_traditional_fields(self):
        """Each target is exactly the field the traditional PIC produced."""
        from repro.engines.observables import Observables, resolve_observables
        from repro.pic.simulation import TraditionalPIC

        cfg = SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=4, seed=3)
        data = harvest_via_client([cfg], PhaseSpaceGrid(n_x=8, n_v=4))
        sim = TraditionalPIC(cfg)
        hist = sim.run(4, history=Observables(
            resolve_observables(["energies", "mode1", "fields"]), squeeze=True))
        np.testing.assert_allclose(data.targets, hist.as_arrays()["fields"], atol=1e-14)

    def test_provenance_params(self):
        cfg = SimulationConfig(
            n_cells=16, particles_per_cell=20, n_steps=3, v0=0.17, vth=0.003, seed=5
        )
        data = harvest_via_client([cfg], PhaseSpaceGrid(n_x=8, n_v=4))
        assert np.all(data.params[:, 0] == 0.17)
        assert np.all(data.params[:, 1] == 0.003)
        assert np.all(data.params[:, 2] == 5.0)
        np.testing.assert_array_equal(data.params[:, 3], np.arange(4))

    def test_without_initial_state(self):
        cfg = SimulationConfig(n_cells=16, particles_per_cell=20, n_steps=3, seed=1)
        data = harvest_via_client([cfg], PhaseSpaceGrid(n_x=8, n_v=4), include_initial_state=False)
        assert len(data) == 3
        assert data.params[0, 3] == 1.0


class TestRunCampaign:
    def test_total_sample_count(self):
        c = _campaign()
        data = run_campaign(c)
        assert len(data) == c.n_samples

    def test_deterministic(self):
        a = run_campaign(_campaign())
        b = run_campaign(_campaign())
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_parallel_matches_serial(self):
        c = _campaign()
        serial = run_campaign(c, n_workers=1)
        parallel = run_campaign(c, n_workers=2)
        np.testing.assert_array_equal(serial.inputs, parallel.inputs)
        np.testing.assert_array_equal(serial.targets, parallel.targets)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_campaign(_campaign(), n_workers=0)

    def test_every_combo_present_in_samples(self):
        data = run_campaign(_campaign())
        combos = {(v0, vth) for v0, vth in zip(data.params[:, 0], data.params[:, 1])}
        assert len(combos) == 4


class TestTestSetII:
    def test_derived_campaign_runs_the_historical_configs(self):
        # Test Set II used to seed one run per (v0, vth) pair itself:
        # spawn_seeds(777, n) over v0-major pairs on the base config.
        c = _campaign()
        v0s, vths = (0.15, 0.25), (0.005, 0.02, 0.03)
        seeds = spawn_seeds(777, len(v0s) * len(vths))
        pairs = [(v0, vth) for v0 in v0s for vth in vths]
        expected = [
            c.base_config.with_updates(v0=v0, vth=vth, seed=seed)
            for (v0, vth), seed in zip(pairs, seeds)
        ]
        derived = c.test_set_ii(v0s, vths)
        assert derived.run_configs() == expected
        assert (derived.ps_grid, derived.binning) == (c.ps_grid, c.binning)
        assert derived.n_simulations == len(pairs)

    def test_unseen_parameters_only(self):
        c = _campaign()
        data = run_campaign(c.test_set_ii([0.15], [0.005])).subsample(4, 777)
        assert len(data) == 4
        assert np.all(data.params[:, 0] == 0.15)

    def test_overlap_with_training_sweep_rejected(self):
        c = _campaign()
        with pytest.raises(ValueError, match="overlap"):
            c.test_set_ii([0.1], [0.0])

    def test_requesting_more_than_available_returns_all(self):
        c = _campaign()
        data = run_campaign(c.test_set_ii([0.15], [0.005])).subsample(10_000, 777)
        assert len(data) == 6  # one 5-step run + initial state
