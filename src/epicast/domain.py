"""Immutable value types, the typed-record reader and range checks.

``read_record`` is the one reader of what operators hand the CLI: it builds
each YAML config section and each JSON manifest (checkpoint, ``panel.bin``)
into a frozen dataclass by its type hints, and ``check_ranges`` applies the
rules of ``_RULES`` in each record's ``__post_init__``.

The value types are the edge of the reference rollout (``metapop.rollout``)
and of forecast output: every one freezes its arrays on construction
(copied, then marked non-writeable) and checks them, and its errors name
the offending field, the first offending index, and the violated rule.
Panel input is checked once, by ``datasets.load_dataset``.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import date
from typing import get_args, get_type_hints

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
    "read_record",
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


MAX_SIZE = 1024  # the largest model width, count or window: the model allocates their squares
SIZE = f"in [1, {MAX_SIZE}]"  # the rule of every model size

_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    SIZE: lambda v: 1 <= v <= MAX_SIZE,
    "finite and >= 0": lambda v: 0 <= v < np.inf,
    "finite and > 0": lambda v: 0 < v < np.inf,
    "finite or null": lambda v: v is None or -np.inf < v < np.inf,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "a list of finite numbers": lambda v: all(-np.inf < x < np.inf for x in v),
    "a non-empty list of integers >= 1": lambda v: len(v) > 0 and min(v) >= 1,
}


def check_ranges(config, rules: dict[str, str]) -> None:
    """Raise ``ConfigRangeError`` for the first field of ``config`` that breaks
    its rule; rules are the keys of ``_RULES``, and NaN breaks all of them."""
    for name, rule in rules.items():
        value = getattr(config, name)
        if not _RULES[rule](value):
            raise ConfigRangeError(name, value, rule)


class _Refused(Exception):
    """A value of a type its field does not take; the reader names the field."""


def _refuse():
    raise _Refused


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise _Refused from None


# Per source and scalar type: the value as its field holds it, else _Refused.
_SCALARS = {
    "yaml": {
        int: lambda v: v if type(v) is int else int(v) if type(v) is float and v.is_integer() \
            else _refuse(),
        float: lambda v: _refuse() if isinstance(v, bool) else _number(v),
        str: lambda v: v if isinstance(v, str) else v.isoformat() if isinstance(v, date) \
            else _refuse(),
    },
    "json": {
        int: lambda v: v if type(v) is int else _refuse(),
        float: lambda v: _number(v) if type(v) in (int, float) else _refuse(),
        str: lambda v: v if type(v) is str else _refuse(),
    },
}
_KINDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          str: ("a string", "strings")}


def _below(prefix: str, err: ConfigRangeError) -> ConfigRangeError:
    dot = "." if err.field[:1] not in ("", "[") else ""
    return ConfigRangeError(prefix + dot + err.field, err.value, err.rule, err.reason)


def _judge(hint, source: str):
    """``(check, kind)`` of a ``hint`` value: ``check`` returns the value as
    its field holds it, raises ``_Refused`` if it is not ``kind``, and a
    ``ConfigRangeError`` with the path below it for a defect within it."""
    if is_dataclass(hint):
        return _reader(hint, source), "a mapping"
    args = get_args(hint)
    if type(None) in args:  # ``X | None``
        inner, kind = _judge(args[0], source)
        return (lambda value: None if value is None else inner(value)), kind
    if not args:
        return _SCALARS[source][hint], _KINDS[hint][0]
    item, kind = _judge(args[0], source)  # ``tuple[X, ...]``
    if args[0] in _KINDS:  # an item's refusal refuses the list
        return (lambda value: tuple(map(item, value)) if isinstance(value, (list, tuple))
                else _refuse()), f"a list of {_KINDS[args[0]][1]}"

    def records(value):
        if not isinstance(value, (list, tuple)):
            raise _Refused
        held = []
        for index, entry in enumerate(value):
            try:
                held.append(item(entry))
            except ConfigRangeError as err:
                raise _below(f"[{index}]", err) from None
            except _Refused:
                raise ConfigRangeError(f"[{index}]", entry, kind) from None
        return tuple(held)

    return records, "a list of mappings"


@functools.cache
def _reader(cls, source: str):
    """``read_record``'s reader of ``cls``, its checkers resolved once."""
    hints = get_type_hints(cls)
    plan = [(f.metadata.get("key", f.name) if source == "yaml" else f.name, f.name,
             *_judge(hints[f.name], source), f.default is MISSING is f.default_factory)
            for f in fields(cls)]  # the last entry: no default, so the key is required
    keys = {name: key for key, name, *_ in plan}
    known = frozenset(keys.values())

    def read(mapping):
        mapping = {} if mapping is None and source == "yaml" else mapping
        if not isinstance(mapping, dict):
            raise _Refused
        if not mapping.keys() <= known:
            reason = f"unknown key; valid keys: {', '.join(sorted(known))}"
            raise ConfigRangeError(min(map(str, mapping.keys() - known)), None, None, reason)
        values = {}
        for key, name, check, kind, required in plan:
            if key in mapping:
                try:
                    values[name] = check(mapping[key])
                except ConfigRangeError as err:
                    raise _below(key, err) from None
                except _Refused:
                    raise ConfigRangeError(key, mapping[key], kind) from None
            elif required:
                raise ConfigRangeError(key, None, None, "missing")
        try:
            return cls(**values)
        except ConfigRangeError as err:  # ``backbone.dilations`` too
            head, dot, rest = err.field.partition(".")
            raise ConfigRangeError(keys[head] + dot + rest, err.value, err.rule,
                                   err.reason) from None

    return read


def read_record(cls, mapping, where: str, source: str = "yaml"):
    """The frozen dataclass ``cls`` built from ``mapping`` by its type hints,
    through nested records, ``tuple[X, ...]`` and ``X | None``.

    From ``source`` ``"yaml"`` (a config section), keys are a field's
    ``metadata["key"]``, else its name, and null keeps every default; an int
    field takes an integral float, a float field a string ``float()`` reads
    (PyYAML reads ``1e-3`` as one), a str field a date, as ISO text.  From
    ``"json"`` (a manifest), keys are field names and values strict: a float
    is never an int, nor a string a number.  A bool is never a number, an
    unknown key is refused, and a key may be missing only if its field has a
    default.  Every defect, ``cls``'s own checks too, is a
    ``ConfigRangeError`` whose field is its path below ``where``."""
    try:
        return _reader(cls, source)(mapping)
    except ConfigRangeError as err:
        raise (_below(where, err) if where else err) from None
    except _Refused:
        raise ConfigRangeError(where, mapping, "a mapping") from None


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
