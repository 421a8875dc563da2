"""JSON run configuration: schema validation and object construction.

Configs are validated against a strict schema (unknown keys rejected)
before any computation; every output file is accompanied by a manifest
carrying the config content hash, the seed, and the grid policy, so runs
are reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import jsonschema

from .errors import ConfigError
from .potentials import (FourierSumPotential, PotentialSpec, annulus_tabulated, disk_well,
                         disk_profile, gaussian_profile, gaussian_well, inverse_square_ring,
                         log_borderline, log_borderline_profile, ring_profile,
                         validate_nonnegative)
from .spectra1d import GridPolicy
from .spectra2d import DEFAULT_MAX_DIMENSION

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}


def _closed(properties: dict, required: list) -> dict:
    """Object schema keywords that reject every key not in ``properties``."""
    return {"properties": properties, "required": required, "additionalProperties": False}


# What a config may name, stated once: shape or family -> (constructor, schema
# of each keyword parameter).  The schema's oneOf and the construction
# ``constructor(**params)`` are both read from these tables.
_PROFILES = {
    "gaussian": (gaussian_profile, {"amplitude": _NUM, "width": _POS}),
    "ring": (ring_profile, {"value": _NUM, "r_lo": _NUM, "r_hi": _POS}),
    "inverse_square_ring": (inverse_square_ring, {"value": _NUM, "r_lo": _POS, "r_hi": _POS}),
    "disk": (disk_profile, {"depth": _NUM, "radius": _POS}),
    "log_borderline": (log_borderline_profile, {"c": _POS}),
}

_PROFILE_SCHEMA = {
    "type": "object",
    "oneOf": [_closed({"shape": {"const": shape}, **params}, ["shape", *params])
              for shape, (_, params) in _PROFILES.items()],
}

_MODES = {"type": "array", "minItems": 1,
          "items": {"type": "object",
                    **_closed({"m": {"type": "integer", "minimum": 0},
                               "kind": {"enum": ["cos", "sin"]},
                               "profile": _PROFILE_SCHEMA},
                              ["m", "profile"])}}


def _build(table: dict, kind: str, name: str, params: dict):
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}")
    return table[name][0](**params)


def _profile_from_doc(doc: dict):
    params = {key: value for key, value in doc.items() if key != "shape"}
    return _build(_PROFILES, "profile shape", doc["shape"], params)


def _fourier_sum(modes: list) -> FourierSumPotential:
    # a mode without "kind" takes FourierSumPotential's default
    return FourierSumPotential(modes=[
        (int(mode["m"]), _profile_from_doc(mode["profile"]),
         *([mode["kind"]] if "kind" in mode else []))
        for mode in modes])


_FAMILIES = {
    "disk_well": (disk_well, {"depth": _NUM, "radius": _POS}),
    "gaussian": (gaussian_well, {"amplitude": _NUM, "width": _POS}),
    "log_borderline": (log_borderline, {"c": _POS}),
    "fourier_sum": (_fourier_sum, {"modes": _MODES}),
    "annulus_tabulated": (annulus_tabulated, {"path": {"type": "string"}}),
}

_POTENTIAL_SCHEMA = {
    "type": "object",
    "oneOf": [_closed({"family": {"const": family},
                       "params": {"type": "object", **_closed(params, list(params))}},
                      ["family", "params"])
              for family, (_, params) in _FAMILIES.items()],
}

_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "potential": _POTENTIAL_SCHEMA,
        "p": {"type": "number", "exclusiveMinimum": 1},
        "truncation_index": {"type": "integer", "minimum": 1},
        "angular_nodes": {"type": "integer", "minimum": 8},
        "grid_policy": {
            "type": "object",
            "properties": {
                "t_half": _POS,
                "n": {"type": "integer", "minimum": 3},
                "max_doublings": {"type": "integer", "minimum": 0},
                "agreements": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "alpha_min": _POS,
                "alpha_max": _POS,
                "points": {"type": "integer", "minimum": 4},
            },
            "required": ["alpha_min", "alpha_max", "points"],
            "additionalProperties": False,
        },
        "max_dimension": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["potential"],
    "additionalProperties": False,
}

# Built once: jsonschema.validate would re-check the schema itself against
# its meta-schema on every document (the schema's own check is a unit test).
_VALIDATOR = jsonschema.validators.validator_for(_CONFIG_SCHEMA)(_CONFIG_SCHEMA)


def potential_from_config(doc: dict) -> PotentialSpec:
    spec = _build(_FAMILIES, "potential family", doc["family"], doc["params"])
    validate_nonnegative(spec)
    return spec


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the potential plus numeric policy.

    Every field but ``spec`` and ``raw`` is a top-level config key, and its
    default here is the default of the config."""

    spec: PotentialSpec
    p: float = 2.0
    truncation_index: int = 40
    angular_nodes: int = 256
    grid_policy: GridPolicy = field(default_factory=GridPolicy)
    sweep: dict | None = None
    max_dimension: int = DEFAULT_MAX_DIMENSION
    seed: int = 1234
    raw: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and build the runtime objects."""
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    fields = {key: value for key, value in doc.items() if key != "potential"}
    if "grid_policy" in fields:
        try:
            fields["grid_policy"] = GridPolicy(**fields["grid_policy"])
        except ValueError as exc:
            raise ConfigError(f"config invalid at grid_policy: {exc}") from exc
    if "sweep" in doc and not doc["sweep"]["alpha_min"] < doc["sweep"]["alpha_max"]:
        raise ConfigError("sweep needs alpha_min < alpha_max")
    return RunConfig(spec=potential_from_config(doc["potential"]), raw=doc, **fields)


def _finite_number(text: str) -> float:
    """A JSON number, refusing the non-finite values (NaN, Infinity, 1e999)
    that Python's parser lets through."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, a non-finite number, or bytes that are not text
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(doc)


def config_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def manifest_for(config: RunConfig, extra: dict | None = None) -> dict:
    from . import __version__

    manifest = {
        "config_sha256": config.digest,
        "seed": config.seed,
        "package_version": __version__,
        "grid_policy": dataclasses.asdict(config.grid_policy),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(out_path: str, config: RunConfig, extra: dict | None = None) -> str:
    path = f"{out_path}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest_for(config, extra), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
