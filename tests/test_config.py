"""Config validation: the schema itself and the error paths it reports."""

import jsonschema
import pytest

from boundcount.config import _CONFIG_SCHEMA, _VALIDATOR, parse_config
from boundcount.errors import ConfigError


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
