"""SimulationConfig validation and derived quantities."""

import math

import numpy as np
import pytest

from repro import constants
from repro.config import (
    SimulationConfig,
    paper_coldbeam_config,
    paper_validation_config,
)


class TestDefaults:
    def test_defaults_match_paper_section_iii(self):
        cfg = SimulationConfig()
        assert cfg.n_cells == 64
        assert cfg.particles_per_cell == 1000
        assert cfg.dt == 0.2
        assert cfg.n_steps == 200
        assert abs(cfg.box_length - 2.0 * math.pi / 3.06) < 1e-15

    def test_total_particles(self):
        assert SimulationConfig().n_particles == 64_000

    def test_dx(self):
        cfg = SimulationConfig(n_cells=64)
        assert abs(cfg.dx - cfg.box_length / 64) < 1e-15

    def test_electron_charge_to_mass_is_minus_one(self):
        assert SimulationConfig().qm == -1.0


class TestNormalization:
    def test_mean_electron_density_is_minus_one(self):
        cfg = SimulationConfig()
        total_charge = cfg.particle_charge * cfg.n_particles
        assert abs(total_charge / cfg.box_length + 1.0) < 1e-12

    def test_particle_mass_consistent_with_qm(self):
        cfg = SimulationConfig()
        assert abs(cfg.particle_charge / cfg.particle_mass - cfg.qm) < 1e-12

    def test_particle_mass_positive(self):
        assert SimulationConfig().particle_mass > 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"box_length": 0.0},
            {"box_length": -1.0},
            {"n_cells": 1},
            {"particles_per_cell": 0},
            {"dt": 0.0},
            {"n_steps": -1},
            {"vth": -0.1},
            {"interpolation": "spline"},
            {"poisson_solver": "multigrid"},
            {"gradient": "forward"},
            {"loading": "sobol"},
            {"dt": None},
            {"box_length": "1.0"},
            {"vth": [0.1]},
            {"qm": {"value": -1.0}},
            {"n_cells": None},
            {"seed": "0"},
            {"v0": float("inf")},
            {"perturbation": float("-inf")},
            {"dt": float("nan")},
            {"n_cells": 8.0},
            {"particles_per_cell": 10.0},
            {"n_steps": 2.5},
            {"perturbation_mode": 1.0},
            {"seed": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        (field_name,) = kwargs
        with pytest.raises(ValueError, match=rf"\b{field_name}\b"):
            SimulationConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SimulationConfig(n_cells=np.int64(16), seed=np.int32(3))
        assert cfg.n_cells == 16 and cfg.seed == 3

    @pytest.mark.parametrize("field_name, value", [
        ("seed", np.int64(3)),
        ("n_cells", np.int32(16)),
        ("dt", np.float32(0.2)),
    ])
    def test_numpy_scalars_key_like_their_python_values(self, field_name, value):
        cfg = SimulationConfig(**{field_name: value})
        twin = SimulationConfig(**{field_name: value.item()})
        assert type(getattr(cfg, field_name)) is type(value.item())
        assert cfg == twin
        assert cfg.cache_key() == twin.cache_key()

    def test_numpy_seed_runs_through_the_client(self):
        from repro.api import Client

        cfg = SimulationConfig(n_cells=16, particles_per_cell=10, n_steps=3, seed=np.int64(3))
        with Client(background=False, raise_on_error=False) as client:
            result = client.run(cfg)
        assert result.status == "ok", result.error

    @pytest.mark.parametrize("interp", ["ngp", "cic", "tsc"])
    def test_valid_interpolations_accepted(self, interp):
        assert SimulationConfig(interpolation=interp).interpolation == interp

    @pytest.mark.parametrize("solver", ["spectral", "fd", "direct"])
    def test_valid_poisson_solvers_accepted(self, solver):
        assert SimulationConfig(poisson_solver=solver).poisson_solver == solver


class TestUpdates:
    def test_with_updates_changes_field(self):
        cfg = SimulationConfig().with_updates(v0=0.3)
        assert cfg.v0 == 0.3

    def test_with_updates_preserves_others(self):
        cfg = SimulationConfig(seed=42).with_updates(v0=0.3)
        assert cfg.seed == 42

    def test_with_updates_revalidates(self):
        with pytest.raises(ValueError):
            SimulationConfig().with_updates(dt=-1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            SimulationConfig().v0 = 0.9  # type: ignore[misc]


class TestExtraIdentity:
    def test_with_updates_does_not_alias_extra(self):
        cfg = SimulationConfig(extra={"bump_fraction": 0.1})
        derived = cfg.with_updates(v0=0.3)
        derived.extra["bump_fraction"] = 0.9
        assert cfg.extra["bump_fraction"] == 0.1

    def test_with_updates_deep_copies_nested_extra(self):
        cfg = SimulationConfig(extra={"nested": {"a": 1}})
        derived = cfg.with_updates(seed=1)
        derived.extra["nested"]["a"] = 99
        assert cfg.extra["nested"]["a"] == 1

    def test_extra_differences_break_equality(self):
        base = SimulationConfig(scenario="bump_on_tail")
        bumped = base.with_updates(extra={"bump_fraction": 0.2})
        assert base != bumped
        assert base.cache_key() != bumped.cache_key()

    def test_extra_dict_order_is_canonical(self):
        a = SimulationConfig(extra={"a": 1, "b": 2})
        b = SimulationConfig(extra={"b": 2, "a": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a.cache_key() == b.cache_key()

    def test_non_dict_extra_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(extra=[1, 2])  # type: ignore[arg-type]

    def test_non_string_extra_keys_rejected(self):
        # int 1 and str "1" would collapse to one JSON key, letting two
        # unequal configs share a cache key — rejected up front instead.
        with pytest.raises(ValueError, match="strings"):
            SimulationConfig(extra={1: "a"})
        with pytest.raises(ValueError, match="strings"):
            SimulationConfig(extra={"nested": {2: "b"}})
        with pytest.raises(ValueError, match="strings"):
            SimulationConfig(extra={"seq": [{3: "c"}]})


class TestSerialization:
    def test_round_trip_exact(self):
        cfg = SimulationConfig(
            v0=0.3, vth=0.0, n_cells=32, scenario="bump_on_tail",
            extra={"bump_fraction": 0.15, "tags": ["a", "b"]},
        )
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_copies_extra(self):
        cfg = SimulationConfig(extra={"k": 1})
        cfg.to_dict()["extra"]["k"] = 2
        assert cfg.extra["k"] == 1

    def test_from_dict_defaults_missing_fields(self):
        cfg = SimulationConfig.from_dict({"v0": 0.4})
        assert cfg.v0 == 0.4
        assert cfg.n_cells == SimulationConfig().n_cells

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="nsteps"):
            SimulationConfig.from_dict({"nsteps": 10})

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"dt": -1.0})

    def test_cache_key_matches_equality_for_mixed_number_types(self):
        # Python equality collapses True == 1 == 1.0; the cache key must too,
        # or the result store would re-execute requests the config layer
        # considers identical.
        a = SimulationConfig(extra={"flag": True, "x": 1.0})
        b = SimulationConfig(extra={"flag": 1, "x": 1})
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_cache_key_stable_and_discriminating(self):
        cfg = SimulationConfig()
        assert cfg.cache_key() == SimulationConfig().cache_key()
        assert cfg.cache_key() != cfg.with_updates(seed=1).cache_key()
        assert cfg.cache_key() != cfg.with_updates(n_steps=7).cache_key()

    def test_default_cache_key_is_pinned(self):
        # The v1 config keeps ``backend`` (one value), so result stores,
        # campaigns and preset pointers keep their keys.
        assert SimulationConfig().cache_key() == (
            "787c18e23d58648c51576289ed671284c72b4ebc359a9a2d51ce668180c77b88"
        )

    def test_cache_key_rejects_unserializable_extra(self):
        cfg = SimulationConfig(extra={"obj": object()})
        with pytest.raises(ValueError, match="JSON"):
            cfg.cache_key()


class TestPaperConfigs:
    def test_validation_config_fig4(self):
        cfg = paper_validation_config()
        assert cfg.v0 == constants.PAPER_VALIDATION_V0
        assert cfg.vth == constants.PAPER_VALIDATION_VTH

    def test_coldbeam_config_fig6(self):
        cfg = paper_coldbeam_config()
        assert cfg.v0 == constants.PAPER_COLDBEAM_V0
        assert cfg.vth == 0.0

    def test_overrides_forwarded(self):
        cfg = paper_validation_config(seed=9, n_steps=10)
        assert cfg.seed == 9
        assert cfg.n_steps == 10
