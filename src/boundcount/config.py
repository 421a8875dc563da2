"""JSON run configuration: schema validation and object construction.

Configs are validated against a strict schema (unknown keys rejected)
before any computation; every output file is accompanied by a manifest
carrying the config content hash, the seed, and the grid policy, so runs
are reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import jsonschema

from .errors import ConfigError
from .potentials import (FourierSumPotential, PotentialSpec, annulus_tabulated, disk_well,
                         disk_profile, gaussian_profile, gaussian_well, inverse_square_ring,
                         log_borderline, log_borderline_profile, ring_profile,
                         validate_nonnegative)
from .spectra1d import GridPolicy

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

_PROFILE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"shape": {"const": "gaussian"}, "amplitude": _NUM, "width": _POS},
         "required": ["shape", "amplitude", "width"], "additionalProperties": False},
        {"properties": {"shape": {"const": "ring"}, "value": _NUM, "r_lo": _NUM, "r_hi": _POS},
         "required": ["shape", "value", "r_lo", "r_hi"], "additionalProperties": False},
        {"properties": {"shape": {"const": "inverse_square_ring"},
                        "value": _NUM, "r_lo": _POS, "r_hi": _POS},
         "required": ["shape", "value", "r_lo", "r_hi"], "additionalProperties": False},
        {"properties": {"shape": {"const": "disk"}, "depth": _NUM, "radius": _POS},
         "required": ["shape", "depth", "radius"], "additionalProperties": False},
        {"properties": {"shape": {"const": "log_borderline"}, "c": _POS},
         "required": ["shape", "c"], "additionalProperties": False},
    ],
}

_POTENTIAL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"family": {"const": "disk_well"},
                        "params": {"type": "object",
                                   "properties": {"depth": _NUM, "radius": _POS},
                                   "required": ["depth", "radius"],
                                   "additionalProperties": False}},
         "required": ["family", "params"], "additionalProperties": False},
        {"properties": {"family": {"const": "gaussian"},
                        "params": {"type": "object",
                                   "properties": {"amplitude": _NUM, "width": _POS},
                                   "required": ["amplitude", "width"],
                                   "additionalProperties": False}},
         "required": ["family", "params"], "additionalProperties": False},
        {"properties": {"family": {"const": "log_borderline"},
                        "params": {"type": "object", "properties": {"c": _POS},
                                   "required": ["c"], "additionalProperties": False}},
         "required": ["family", "params"], "additionalProperties": False},
        {"properties": {"family": {"const": "fourier_sum"},
                        "params": {"type": "object",
                                   "properties": {"modes": {
                                       "type": "array", "minItems": 1,
                                       "items": {"type": "object",
                                                 "properties": {
                                                     "m": {"type": "integer", "minimum": 0},
                                                     "kind": {"enum": ["cos", "sin"]},
                                                     "profile": _PROFILE_SCHEMA},
                                                 "required": ["m", "profile"],
                                                 "additionalProperties": False}}},
                                   "required": ["modes"], "additionalProperties": False}},
         "required": ["family", "params"], "additionalProperties": False},
        {"properties": {"family": {"const": "annulus_tabulated"},
                        "params": {"type": "object",
                                   "properties": {"path": {"type": "string"}},
                                   "required": ["path"], "additionalProperties": False}},
         "required": ["family", "params"], "additionalProperties": False},
    ],
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
                "certify": {"type": "boolean"},
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


def _profile_from_doc(doc: dict):
    shape = doc["shape"]
    if shape == "gaussian":
        return gaussian_profile(doc["amplitude"], doc["width"])
    if shape == "ring":
        return ring_profile(doc["value"], doc["r_lo"], doc["r_hi"])
    if shape == "inverse_square_ring":
        return inverse_square_ring(doc["value"], doc["r_lo"], doc["r_hi"])
    if shape == "disk":
        return disk_profile(doc["depth"], doc["radius"])
    if shape == "log_borderline":
        return log_borderline_profile(doc["c"])
    raise ConfigError(f"unknown profile shape {shape!r}")


def potential_from_config(doc: dict) -> PotentialSpec:
    family = doc["family"]
    params = doc["params"]
    if family == "disk_well":
        spec = disk_well(params["depth"], params["radius"])
    elif family == "gaussian":
        spec = gaussian_well(params["amplitude"], params["width"])
    elif family == "log_borderline":
        spec = log_borderline(params["c"])
    elif family == "fourier_sum":
        modes = [(int(m["m"]), _profile_from_doc(m["profile"]), m.get("kind", "cos"))
                 for m in params["modes"]]
        spec = FourierSumPotential(modes=modes)
    elif family == "annulus_tabulated":
        spec = annulus_tabulated(params["path"])
    else:
        raise ConfigError(f"unknown potential family {family!r}")
    validate_nonnegative(spec)
    return spec


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the potential plus numeric policy."""

    spec: PotentialSpec
    p: float = 2.0
    truncation_index: int = 40
    angular_nodes: int = 256
    grid_policy: GridPolicy = field(default_factory=GridPolicy)
    sweep: dict | None = None
    max_dimension: int = 12000
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
    gp = doc.get("grid_policy", {})
    policy = GridPolicy(t_half=gp.get("t_half", 30.0), n=gp.get("n", 6001),
                        max_doublings=gp.get("max_doublings", 3),
                        agreements=gp.get("agreements", 2),
                        certify=gp.get("certify", True))
    sweep = doc.get("sweep")
    if sweep is not None and not sweep["alpha_min"] < sweep["alpha_max"]:
        raise ConfigError("sweep needs alpha_min < alpha_max")
    return RunConfig(spec=potential_from_config(doc["potential"]),
                     p=doc.get("p", 2.0),
                     truncation_index=doc.get("truncation_index", 40),
                     angular_nodes=doc.get("angular_nodes", 256),
                     grid_policy=policy, sweep=sweep,
                     max_dimension=doc.get("max_dimension", 12000),
                     seed=doc.get("seed", 1234), raw=doc)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
        "grid_policy": {
            "t_half": config.grid_policy.t_half,
            "n": config.grid_policy.n,
            "max_doublings": config.grid_policy.max_doublings,
            "agreements": config.grid_policy.agreements,
            "certify": config.grid_policy.certify,
        },
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
