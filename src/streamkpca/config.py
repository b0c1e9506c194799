"""Run configs and the rules a JSON document is held to.

File formats:
  * run config and reports -- JSON (UTF-8, sorted keys), a config file
    and a sidecar read by one reader, _read_json_object, and checked by
    one walk, _check_keys, over its key table: a missing, mistyped or
    unknown key is a ConfigError naming the file, the object and the key.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .datagen import SpikedSpec
from .featuremaps import KINDS, FeatureMapSpec


class ConfigError(ValueError):
    """A run configuration is invalid."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: feature map, generator, policies, trial count."""

    feature_map: FeatureMapSpec
    generator: SpikedSpec
    eta_policy: object = "auto"  # "auto" or a positive float
    init: str = "random"
    trials: int = 1
    run_checks: bool = False

    def __post_init__(self):
        if self.feature_map.input_dim != self.generator.input_dim:
            raise ConfigError(
                "feature map input_dim does not match the generator"
            )
        _check_oracle_cap(self.feature_map.to_dict())
        # eta is 0.1 over this bound; refuse it here, before any draw
        # could overflow on the way to it.
        bound = self.feature_map.norm_bound(self.generator.norm_guard())
        if not 0.0 < bound < math.inf:
            raise ConfigError(
                f"key 'lambda1' = {self.generator.lambda1!r} gives the "
                f"{self.feature_map.kind} feature-norm bound {bound!r}, "
                "which is not a positive finite float"
            )
        # trace(M) = sum ||phi||^2 <= n * bound, and the oracle forms
        # M + M^T: refuse a bound whose second moment could overflow.
        if not math.isfinite(2.0 * self.generator.n * bound):
            raise ConfigError(
                f"key 'lambda1' = {self.generator.lambda1!r} with key 'n' = "
                f"{self.generator.n} gives the {self.feature_map.kind} "
                f"feature-norm bound {bound!r}, whose second moment, up to "
                f"2 * n * bound, overflows"
            )
        if self.init not in ("random", "vstar"):
            raise ConfigError("init must be 'random' or 'vstar'")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.eta_policy != "auto":
            # A number, not a bool or a string: true and "0.01" are typos.
            if not (_is_finite_number(self.eta_policy) and self.eta_policy > 0):
                raise ConfigError(
                    "key 'eta_policy' must be 'auto' or a finite "
                    f"positive number, got {reprlib.repr(self.eta_policy)}"
                )
            object.__setattr__(self, "eta_policy", float(self.eta_policy))

    def to_dict(self) -> dict:
        return asdict(self) | {"feature_map": self.feature_map.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, where: str = "bad config") -> "RunConfig":
        """The config of a document in to_dict's keys; a key it leaves
        out takes the field's default. Every ConfigError begins with where."""
        _check_keys(d, _RUN_CONFIG_KEYS, where)
        _check_oracle_cap(d["feature_map"], f"{where}: ")
        specs = {}
        for key, spec in (("feature_map", FeatureMapSpec), ("generator", SpikedSpec)):
            try:
                specs[key] = spec.from_dict(d[key])
            except ValueError as exc:
                raise ConfigError(f"{where}: key {key!r}: {exc}") from exc
        try:
            return cls(**(d | specs))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def save(self, path) -> None:
        _write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path) -> "RunConfig":
        where = f"bad config {path}"
        return cls.from_dict(_read_json_object(Path(path), where), where)


def _check_oracle_cap(feature_map: dict, prefix: str = "") -> None:
    """Refuse a feature map's document wider than the oracle holds (m x m
    floats, and the generator's d x d basis), with a ConfigError that
    begins with prefix, before FeatureMapSpec builds it: an rff map's
    check of a bandwidth below 1 draws rows of input_dim floats. d comes
    first, as identity and poly2 derive m from it."""
    for key in ("input_dim", "feature_dim"):
        if feature_map[key] > linalg.MAX_ORACLE_DIM:
            raise ConfigError(
                f"{prefix}feature_map {key} {feature_map[key]} exceeds the "
                f"oracle cap MAX_ORACLE_DIM {linalg.MAX_ORACLE_DIM}"
            )


def check_target_ratio(ratio, name: str) -> float:
    """ratio as a float if it is a real number (not a bool), finite and
    >= 1, else a ConfigError naming name."""
    if isinstance(ratio, (bool, np.bool_)) or not isinstance(ratio, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {ratio!r}")
    if not (1.0 <= ratio and linalg.is_finite_float(ratio)):  # NaN fails too
        raise ConfigError(f"{name} must be finite and >= 1, got {ratio!r}")
    return float(ratio)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_json_object(path: Path, where: str) -> dict:
    """The JSON object in the file at path. Text that is not UTF-8 or
    JSON, an integer past int's digit limit, or a document that is not
    an object, is a ConfigError that begins with where."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}: invalid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{where}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{where}: nested too deeply to parse") from exc
    except ValueError as exc:  # json's one other error: int()'s digit limit
        raise ConfigError(
            f"{where}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {reprlib.repr(doc)}")
    return doc


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_nonnegative_integer(v) -> bool:
    return _is_integer(v) and v >= 0


def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _is_finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return linalg.is_finite_float(v)


def _is_nonnegative_number(v) -> bool:
    return _is_finite_number(v) and v >= 0


def _is_finite_vector(v) -> bool:
    return isinstance(v, list) and all(_is_finite_number(x) for x in v)


def _nullable(test):
    return lambda v: v is None or test(v)


# Key tables, checked by _check_keys: key -> (required, test, what the
# test accepts), or (required, nested key table, None) for an object.
# A key a constructor checks takes any value here.
_ANY_VALUE = (False, lambda v: True, "any value")

# Feature map key, in a config or a meta sidecar.
_FEATURE_MAP_KEYS = {
    "kind": (True, lambda v: v in KINDS, "one of " + ", ".join(map(repr, KINDS))),
    "input_dim": (True, _is_integer, "an integer"),
    "feature_dim": (True, _is_integer, "an integer"),
    "bandwidth": (False, _nullable(_is_finite_number), "null or a finite number"),
    "seed": (False, _nullable(_is_nonnegative_integer), "null or an integer >= 0"),
}

# Config generator key.
_GENERATOR_KEYS = {
    "input_dim": (True, _is_integer, "an integer"),
    "n": (True, _is_integer, "an integer"),
    "lambda1": (True, _is_finite_number, "a finite number"),
    "lambda2": (True, _is_finite_number, "a finite number"),
    "tail_decay": (True, _is_finite_number, "a finite number"),
    "basis_seed": (True, _is_nonnegative_integer, "an integer >= 0"),
    "sample_seed": (True, _is_nonnegative_integer, "an integer >= 0"),
}

# Config key; RunConfig checks eta_policy and init.
_RUN_CONFIG_KEYS = {
    "feature_map": (True, _FEATURE_MAP_KEYS, None),
    "generator": (True, _GENERATOR_KEYS, None),
    "eta_policy": _ANY_VALUE,
    "init": _ANY_VALUE,
    "trials": (False, _is_integer, "an integer"),
    "run_checks": (False, _is_bool, "a boolean"),
}


def _check_keys(obj, table: dict, where: str) -> None:
    """Reject a JSON object with a missing or mistyped key of table, or
    a key it does not name, naming the key: 100.9 is not an integer,
    nor "3" a number. A nested table's object is checked in turn."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {reprlib.repr(obj)}")
    for key, (required, test, accepts) in table.items():
        if key not in obj:
            if required:
                raise ConfigError(f"{where}: missing key {key!r}")
        elif isinstance(test, dict):
            _check_keys(obj[key], test, f"{where}: key {key!r}")
        elif not test(obj[key]):
            raise ConfigError(
                f"{where}: key {key!r} must be {accepts}, "
                f"got {reprlib.repr(obj[key])}"
            )
    for key in obj:
        if key not in table:
            raise ConfigError(f"{where}: unknown key {reprlib.repr(key)}")
