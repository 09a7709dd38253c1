"""Property tests of two parse boundaries: ``SimulationConfig.from_dict``
and ``RunRequest.from_dict``.

Every valid document makes an exact round trip through ``to_dict`` (and
through JSON text).  Arbitrary JSON in any config field — the family
knobs in ``extra`` and the narrowed ``backend`` included — or in any
envelope key is either accepted or rejected with ``ValueError``, the
error the HTTP tier answers with a 400; any other exception fails.
"""

from __future__ import annotations

import json
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRequest
from repro.api.envelope import ENVELOPE_KEYS
from repro.config import SimulationConfig
from repro.pic.scenarios import available_scenarios

CONFIG_FIELDS = tuple(f.name for f in fields(SimulationConfig))
# The knobs each family reads from ``config.extra`` at parse time.
KNOBS = {
    "traditional": ("bump_fraction",),
    "dl": ("bump_fraction",),
    "energy": ("picard_max_iterations", "picard_tolerance"),
    "mpi": ("n_ranks",),
    "vlasov": ("n_v", "v_min", "v_max"),
}

# Any value ``json.loads`` can return, NaN, infinities and integers too
# large for a float included (Python's decoder accepts ``NaN`` and
# ``Infinity``); the edge numbers are drawn as often as all the rest.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3)
    ),
    max_leaves=6,
) | st.sampled_from([0, -1, 2.5, True, float("inf"), float("-inf"), float("nan"),
                     10**400, -(10**400), 1e308])
# JSON that compares equal to itself after a copy (no NaN).
plain_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3)
    ),
    max_leaves=6,
)


def _finite(lo: float, hi: float) -> st.SearchStrategy:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Valid values of every config field: the registry is not consulted by
# the config itself, so any non-empty scenario and solver name parses.
VALID_FIELDS = {
    "box_length": _finite(1e-3, 1e3) | st.integers(1, 100),
    "n_cells": st.integers(8, 512),
    "particles_per_cell": st.integers(1, 2000),
    "dt": _finite(1e-4, 10.0),
    "n_steps": st.integers(0, 5000),
    "v0": _finite(-10.0, 10.0),
    "vth": _finite(1e-3, 2.0),
    "qm": _finite(-10.0, 10.0),
    "interpolation": st.sampled_from(["ngp", "cic", "tsc"]),
    "poisson_solver": st.sampled_from(["spectral", "fd", "direct"]),
    "gradient": st.sampled_from(["central", "spectral"]),
    "loading": st.sampled_from(["random", "quiet"]),
    "perturbation": _finite(-1.0, 1.0),
    "perturbation_mode": st.integers(0, 8),
    "seed": st.integers(0, 2**63),
    "scenario": st.text(min_size=1, max_size=12),
    "solver": st.text(min_size=1, max_size=12),
    "dtype": st.sampled_from(["float64", "float32"]),
    "backend": st.just("numpy"),
    "extra": st.dictionaries(st.text(max_size=6), plain_json, max_size=3),
}
assert set(VALID_FIELDS) == set(CONFIG_FIELDS)

valid_config_docs = st.fixed_dictionaries({}, optional=VALID_FIELDS)


def _json_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def _parses_or_value_error(parse, doc) -> None:
    try:
        parse(doc)
    except ValueError:
        pass


class TestSimulationConfigFromDict:
    @given(doc=valid_config_docs)
    @settings(max_examples=200, deadline=None)
    def test_every_valid_document_round_trips(self, doc):
        config = SimulationConfig.from_dict(doc)
        out = config.to_dict()
        assert out == {**SimulationConfig().to_dict(), **doc}
        assert SimulationConfig.from_dict(out) == config
        again = SimulationConfig.from_dict(_json_trip(out))
        assert again == config and again.to_dict() == out
        assert again.cache_key() == config.cache_key()

    @given(
        doc=st.dictionaries(
            st.sampled_from(CONFIG_FIELDS) | st.text(max_size=8), json_values, max_size=4
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_in_any_field_raises_only_value_error(self, doc):
        _parses_or_value_error(SimulationConfig.from_dict, doc)


@st.composite
def valid_envelopes(draw) -> dict:
    """A v1 envelope every registered family would accept at submit time."""
    solver = draw(st.sampled_from(sorted(KNOBS)))
    config = draw(st.fixed_dictionaries({}, optional={
        name: VALID_FIELDS[name]
        for name in ("n_cells", "particles_per_cell", "dt", "n_steps", "v0", "seed",
                     "interpolation", "poisson_solver", "gradient", "loading", "backend")
    }))
    config["solver"] = solver
    config["scenario"] = draw(st.sampled_from(available_scenarios()))
    config["vth"] = draw(VALID_FIELDS["vth"])
    if solver not in ("energy", "mpi"):
        config["dtype"] = draw(VALID_FIELDS["dtype"])
    names = ["energies", "fields", "mode1", "mode2"]
    names.append("phase_space" if solver == "vlasov" else "training_pairs")
    doc = {"api_version": "v1", "config": config}
    doc.update(draw(st.fixed_dictionaries({}, optional={
        "id": st.text(max_size=10),
        "observables": st.lists(st.sampled_from(names), min_size=1, max_size=3),
        "phase_space": st.booleans(),
        "metadata": st.dictionaries(st.text(max_size=6), plain_json, max_size=3),
        "tags": st.lists(st.text(max_size=6), max_size=3),
    })))
    if "dtype" in config and draw(st.booleans()):
        doc["dtype"] = config["dtype"]
    return doc


@st.composite
def fuzzed_envelopes(draw) -> dict:
    """A valid envelope with one envelope key, config field or family knob
    replaced by arbitrary JSON."""
    doc = draw(valid_envelopes())
    target = draw(st.sampled_from(("envelope", "config", "knob")))
    value = draw(json_values)
    if target == "envelope":
        doc[draw(st.sampled_from(ENVELOPE_KEYS) | st.text(max_size=8))] = value
    elif target == "config":
        doc["config"][draw(st.sampled_from(CONFIG_FIELDS))] = value
    else:
        doc["config"]["extra"] = {draw(st.sampled_from(KNOBS[doc["config"]["solver"]])): value}
    return doc


class TestRunRequestFromDict:
    @given(doc=valid_envelopes())
    @settings(max_examples=200, deadline=None)
    def test_every_valid_envelope_round_trips(self, doc):
        request = RunRequest.from_dict(doc)
        out = request.to_dict()
        assert out["config"] == SimulationConfig.from_dict(doc["config"]).to_dict()
        assert out["id"] == doc.get("id", "request-0")
        assert RunRequest.from_dict(out) == request
        again = RunRequest.from_dict(_json_trip(out))
        assert again == request and again.to_dict() == out

    @given(doc=fuzzed_envelopes())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_in_any_key_raises_only_value_error(self, doc):
        _parses_or_value_error(RunRequest.from_dict, doc)
