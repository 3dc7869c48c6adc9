"""Immutable value types, config mapping and range checks.

The value types are the edge of the reference rollout (``metapop.rollout``)
and of forecast output: every one freezes its arrays on construction
(copied, then marked non-writeable) and checks them, and its errors name
the offending field, the first offending index, and the violated rule.
Panel input is checked once, by ``datasets.load_dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from typing import get_type_hints

import numpy as np

__all__ = [
    "CompartmentState",
    "ConfigRangeError",
    "DimensionMismatchError",
    "EpidemicParams",
    "Forecast",
    "MobilitySeries",
    "NegativeValueError",
    "NonFiniteError",
    "PopulationVector",
    "ValidationError",
    "check_ranges",
    "config_from",
]


class ValidationError(ValueError):
    """Base class for domain validation failures."""


class DimensionMismatchError(ValidationError):
    pass


class NegativeValueError(ValidationError):
    pass


class NonFiniteError(ValidationError):
    pass


class ConfigRangeError(ValidationError):
    """A configuration value the config cannot take; ``field`` names it.
    ``rule`` says what the value must be, or ``reason`` why it cannot be."""

    def __init__(self, field: str, value, rule: str | None, reason: str | None = None):
        super().__init__(
            f"{field}: {reason}" if reason else f"{field} = {value!r}; must be {rule}"
        )
        self.field, self.value, self.rule, self.reason = field, value, rule, reason


_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "finite and >= 0": lambda v: 0 <= v < np.inf,
    "finite and > 0": lambda v: 0 < v < np.inf,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "a non-empty list of integers >= 1": lambda v: len(v) > 0 and min(v) >= 1,
}


def check_ranges(config, rules: dict[str, str]) -> None:
    """Raise ``ConfigRangeError`` for the first field of ``config`` that breaks
    its rule; rules are the keys of ``_RULES``, and NaN breaks all of them."""
    for name, rule in rules.items():
        value = getattr(config, name)
        if not _RULES[rule](value):
            raise ConfigRangeError(name, value, rule)


def _integral(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {int: "an integer", float: "a number", str: "a string",
          tuple[int, ...]: "a list of integers"}


def _field_value(kind, value, where: str, yaml_keys: bool):
    if is_dataclass(kind):
        return config_from(kind, value, where, yaml_keys)
    if kind is int and _integral(value):
        return int(value)
    if kind is float and not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if kind is str and isinstance(value, (str, date)):
        return value if isinstance(value, str) else value.isoformat()
    if kind == tuple[int, ...] and isinstance(value, (list, tuple)):
        if all(map(_integral, value)):
            return tuple(map(int, value))
    raise ConfigRangeError(where, value, _KINDS[kind])


_TYPE_HINTS: dict[type, dict] = {}  # per config class, resolved once


def config_from(cls, mapping, where: str, yaml_keys: bool = True):
    """Build the config dataclass ``cls``, and those nested in it, from
    ``mapping`` (``None``: all defaults) keyed by YAML key (a field's
    ``metadata["key"]``, else its name) or, without ``yaml_keys``, by field
    name.  A bool is never a number.  An int field takes an int or an
    integral float; a float field a number or a string ``float()`` reads
    (PyYAML reads ``1e-3`` as one), as a float; a str field a date, as ISO
    text.  Every defect, ``cls``'s own checks included, is a
    ``ConfigRangeError`` naming the ``where.key`` path."""
    mapping = {} if mapping is None else mapping
    if not isinstance(mapping, dict):
        raise ConfigRangeError(where, mapping, "a mapping")
    keys = {
        f.name: f.metadata.get("key", f.name) if yaml_keys else f.name for f in fields(cls)
    }
    names = {key: name for name, key in keys.items()}
    unknown = sorted(map(str, mapping.keys() - names))
    if unknown:
        reason = f"unknown key; valid keys: {', '.join(sorted(names))}"
        raise ConfigRangeError(f"{where}.{unknown[0]}", None, None, reason)
    kinds = _TYPE_HINTS.get(cls) or _TYPE_HINTS.setdefault(cls, get_type_hints(cls))
    kwargs = {
        names[key]: _field_value(kinds[names[key]], value, f"{where}.{key}", yaml_keys)
        for key, value in mapping.items()
    }
    try:
        return cls(**kwargs)
    except ConfigRangeError as err:
        head, dot, rest = err.field.partition(".")  # ``backbone.dilations`` too
        field = f"{where}.{keys[head]}{dot}{rest}"
        raise ConfigRangeError(field, err.value, err.rule, err.reason) from None


def _frozen(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _first_index(mask: np.ndarray):
    flat = int(np.argmax(mask))
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def _check_finite(name: str, arr: np.ndarray) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        where = _first_index(bad)
        raise NonFiniteError(
            f"{name}{list(where)} is {arr[where]!r}; all entries must be finite"
        )


def _check_nonnegative(name: str, arr: np.ndarray) -> None:
    bad = arr < 0
    if bad.any():
        where = _first_index(bad)
        raise NegativeValueError(
            f"{name}{list(where)} = {arr[where]}; entries must be >= 0"
        )


def _check_ndim(name: str, arr: np.ndarray, ndim: int) -> None:
    if arr.ndim != ndim:
        raise DimensionMismatchError(
            f"{name} must have {ndim} dimensions, got shape {arr.shape}"
        )


@dataclass(frozen=True)
class MobilitySeries:
    """Origin-destination daily flow volumes, (regions, regions, days).

    ``horizon_kind`` distinguishes observed history from model-forecast
    flows; ``metapop.rollout`` requires ``"forecast"``.
    """

    flows: np.ndarray
    horizon_kind: str = "history"

    def __post_init__(self):
        flows = _frozen(self.flows)
        _check_ndim("MobilitySeries.flows", flows, 3)
        if flows.shape[0] != flows.shape[1]:
            raise DimensionMismatchError(
                f"MobilitySeries.flows must be square in regions, got {flows.shape}"
            )
        _check_finite("MobilitySeries.flows", flows)
        _check_nonnegative("MobilitySeries.flows", flows)
        if self.horizon_kind not in ("history", "forecast"):
            raise ValidationError(
                f"MobilitySeries.horizon_kind must be 'history' or 'forecast', "
                f"got {self.horizon_kind!r}"
            )
        object.__setattr__(self, "flows", flows)

    @property
    def n_regions(self) -> int:
        return self.flows.shape[0]

    @property
    def n_days(self) -> int:
        return self.flows.shape[2]


@dataclass(frozen=True)
class PopulationVector:
    """Static region population sizes, strictly positive."""

    sizes: np.ndarray

    def __post_init__(self):
        sizes = _frozen(self.sizes)
        _check_ndim("PopulationVector.sizes", sizes, 1)
        _check_finite("PopulationVector.sizes", sizes)
        if (sizes <= 0).any():
            where = _first_index(sizes <= 0)
            raise ValidationError(
                f"PopulationVector.sizes{list(where)} = {sizes[where]}; "
                f"populations must be > 0"
            )
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_regions(self) -> int:
        return self.sizes.shape[0]


@dataclass(frozen=True)
class EpidemicParams:
    """Per-region, per-day infection and recovery rates, each in (0, 1)."""

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("beta", "gamma"):
            arr = _frozen(getattr(self, name))
            _check_ndim(f"EpidemicParams.{name}", arr, 2)
            _check_finite(f"EpidemicParams.{name}", arr)
            outside = (arr <= 0) | (arr >= 1)
            if outside.any():
                where = _first_index(outside)
                raise ValidationError(
                    f"EpidemicParams.{name}{list(where)} = {arr[where]}; "
                    f"rates must lie strictly inside (0, 1)"
                )
            object.__setattr__(self, name, arr)
        if self.beta.shape != self.gamma.shape:
            raise DimensionMismatchError(
                f"EpidemicParams.beta shape {self.beta.shape} does not match "
                f"gamma shape {self.gamma.shape}"
            )

    @property
    def n_regions(self) -> int:
        return self.beta.shape[0]

    @property
    def horizon(self) -> int:
        return self.beta.shape[1]


@dataclass(frozen=True)
class CompartmentState:
    """S/I/R head counts per region at a single day, all nonnegative."""

    susceptible: np.ndarray
    infected: np.ndarray
    recovered: np.ndarray

    def __post_init__(self):
        for name in ("susceptible", "infected", "recovered"):
            arr = _frozen(getattr(self, name))
            _check_ndim(f"CompartmentState.{name}", arr, 1)
            _check_finite(f"CompartmentState.{name}", arr)
            _check_nonnegative(f"CompartmentState.{name}", arr)
            object.__setattr__(self, name, arr)
        if not (
            self.susceptible.shape == self.infected.shape == self.recovered.shape
        ):
            raise DimensionMismatchError(
                "CompartmentState arrays must share one shape, got "
                f"{self.susceptible.shape}, {self.infected.shape}, "
                f"{self.recovered.shape}"
            )

    @property
    def n_regions(self) -> int:
        return self.susceptible.shape[0]


@dataclass(frozen=True)
class Forecast:
    """Predicted daily new cases plus the S/I/R trajectories behind them."""

    cases: np.ndarray
    susceptible: np.ndarray
    infected: np.ndarray
    recovered: np.ndarray

    def __post_init__(self):
        for name in ("cases", "susceptible", "infected", "recovered"):
            arr = _frozen(getattr(self, name))
            _check_ndim(f"Forecast.{name}", arr, 2)
            _check_finite(f"Forecast.{name}", arr)
            _check_nonnegative(f"Forecast.{name}", arr)
            object.__setattr__(self, name, arr)
        base = self.cases.shape
        for name in ("susceptible", "infected", "recovered"):
            if getattr(self, name).shape != base:
                raise DimensionMismatchError(
                    f"Forecast.{name} shape {getattr(self, name).shape} does not "
                    f"match cases shape {base}"
                )

    @property
    def n_regions(self) -> int:
        return self.cases.shape[0]

    @property
    def horizon(self) -> int:
        return self.cases.shape[1]
