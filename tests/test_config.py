"""Config validation and construction: the schema, its error paths, the catalogue, defaults."""

import dataclasses

import jsonschema
import numpy as np
import pytest

from boundcount import (FourierSumPotential, GridPolicy, RadialPotential, RadialProfile,
                        RunConfig, TabulatedPotential)
from boundcount.config import (_CONFIG_SCHEMA, _FAMILIES, _PROFILES, _VALIDATOR, manifest_for,
                               parse_config)
from boundcount.errors import ConfigError
from boundcount.spectra2d import DEFAULT_MAX_DIMENSION

GAUSSIAN = {"family": "gaussian", "params": {"amplitude": 1.0, "width": 1.0}}


def test_config_schema_is_a_valid_schema():
    type(_VALIDATOR).check_schema(_CONFIG_SCHEMA)
    assert type(_VALIDATOR) is jsonschema.validators.validator_for(_CONFIG_SCHEMA)


@pytest.mark.parametrize("doc, message", [
    ({}, "config invalid at <root>: 'potential' is a required property"),
    ({"potential": {"family": "gaussian", "params": {"amplitude": 1.0, "width": 1.0}},
      "p": 0.5},
     "config invalid at p: 0.5 is less than or equal to the minimum of 1"),
    ({"potential": {"family": "disk_well", "params": {"depth": 1.0, "radius": -1.0}}},
     "config invalid at potential/params/radius: -1.0 is less than or equal to the minimum of 0"),
    ({"potential": {"family": "gaussian", "params": {"amplitude": 1.0, "width": 1.0}},
      "grid_policy": {"n": 2}},
     "config invalid at grid_policy/n: 2 is less than the minimum of 3"),
])
def test_invalid_config_messages(doc, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert str(exc.value) == message


# The smallest valid parameters of every catalogue entry (a tabulated annulus
# also needs its table on disk), and the class each family builds.
MINIMAL_PROFILES = {
    "gaussian": {"amplitude": 1.0, "width": 1.0},
    "ring": {"value": 1.0, "r_lo": 0.5, "r_hi": 2.0},
    "inverse_square_ring": {"value": 1.0, "r_lo": 0.5, "r_hi": 2.0},
    "disk": {"depth": 1.0, "radius": 1.0},
    "log_borderline": {"c": 1.0},
}

MINIMAL_FAMILIES = {
    "disk_well": ({"depth": 1.0, "radius": 1.0}, RadialPotential),
    "gaussian": ({"amplitude": 1.0, "width": 1.0}, RadialPotential),
    "log_borderline": ({"c": 1.0}, RadialPotential),
    "fourier_sum": ({"modes": [{"m": 0, "profile": {"shape": "disk", "depth": 1.0,
                                                    "radius": 1.0}}]},
                    FourierSumPotential),
    "annulus_tabulated": ({"path": "table.csv"}, TabulatedPotential),
}


def test_every_catalogue_entry_has_a_minimal_document():
    assert set(MINIMAL_FAMILIES) == set(_FAMILIES)
    assert set(MINIMAL_PROFILES) == set(_PROFILES)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_family_builds_its_spec(family, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.csv").write_text("".join(
        f"{r!r},{k * np.pi / 4!r},0.5\n" for r in (0.5, 1.0, 2.0) for k in range(8)))
    params, spec_class = MINIMAL_FAMILIES[family]
    config = parse_config({"potential": {"family": family, "params": params}})
    assert type(config.spec) is spec_class


@pytest.mark.parametrize("shape", sorted(_PROFILES))
def test_every_profile_shape_builds_a_profile(shape):
    modes = [{"m": 0, "profile": dict(MINIMAL_PROFILES[shape], shape=shape)}]
    spec = parse_config({"potential": {"family": "fourier_sum", "params": {"modes": modes}}}).spec
    assert type(spec) is FourierSumPotential
    assert type(spec.modes[0][1]) is RadialProfile


def test_absent_keys_take_the_dataclass_defaults():
    config = parse_config({"potential": GAUSSIAN})
    for f in dataclasses.fields(RunConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) == f.default, f.name
    assert config.grid_policy == GridPolicy()
    assert config.max_dimension == DEFAULT_MAX_DIMENSION
    partial = parse_config({"potential": GAUSSIAN, "grid_policy": {"n": 101}})
    assert partial.grid_policy == GridPolicy(n=101)
    assert manifest_for(partial)["grid_policy"] == {
        "t_half": 30.0, "n": 101, "max_doublings": 3, "agreements": 2}


def test_fourier_mode_kind_is_read_or_defaults_to_cos():
    def mode(m, amplitude, **kind):
        return {"m": m, **kind,
                "profile": {"shape": "gaussian", "amplitude": amplitude, "width": 1.0}}
    modes = [mode(0, 1.0), mode(1, 0.2), mode(1, 0.2, kind="sin"), mode(2, 0.05, kind="cos")]
    spec = parse_config({"potential": {"family": "fourier_sum", "params": {"modes": modes}}}).spec
    assert [(m, kind) for m, _, kind in spec.modes] == [(0, "cos"), (1, "cos"), (1, "sin"),
                                                         (2, "cos")]
