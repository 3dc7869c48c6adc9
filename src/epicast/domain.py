"""Shared immutable value types and validation for the forecasting pipeline.

Every type freezes its arrays on construction (copied, then marked
non-writeable), so instances can be shared between pipeline stages without
defensive copying.  Validation errors always name the offending field, the
first offending index, and the violated rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    "ObservationHistory",
    "PopulationVector",
    "ValidatedBundle",
    "ValidationError",
    "check_ranges",
    "validate",
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
    """A configuration field outside its allowed range; ``field`` names it."""

    def __init__(self, field: str, value, rule: str):
        super().__init__(f"{field} = {value!r}; must be {rule}")
        self.field, self.value, self.rule = field, value, rule


_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
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
class ObservationHistory:
    """Per-region daily observations: cases plus S/I/R, with optional extras.

    Shapes: ``cases``, ``susceptible``, ``infected``, ``recovered`` are
    (regions, days); ``extra_channels`` is (regions, days, E) and may be
    empty.  ``stacked()`` returns the (regions, days, 4 + E) channel block
    in the fixed order cases, susceptible, infected, recovered, extras.
    """

    cases: np.ndarray
    susceptible: np.ndarray
    infected: np.ndarray
    recovered: np.ndarray
    extra_channels: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))

    def __post_init__(self):
        for name in ("cases", "susceptible", "infected", "recovered"):
            arr = _frozen(getattr(self, name))
            _check_ndim(f"ObservationHistory.{name}", arr, 2)
            _check_finite(f"ObservationHistory.{name}", arr)
            _check_nonnegative(f"ObservationHistory.{name}", arr)
            object.__setattr__(self, name, arr)
        extras = np.asarray(self.extra_channels, dtype=np.float64)
        if extras.size == 0:
            extras = np.zeros((self.cases.shape[0], self.cases.shape[1], 0))
        extras = _frozen(extras)
        _check_ndim("ObservationHistory.extra_channels", extras, 3)
        _check_finite("ObservationHistory.extra_channels", extras)
        object.__setattr__(self, "extra_channels", extras)
        base = self.cases.shape
        for name in ("susceptible", "infected", "recovered"):
            if getattr(self, name).shape != base:
                raise DimensionMismatchError(
                    f"ObservationHistory.{name} shape {getattr(self, name).shape} "
                    f"does not match cases shape {base}"
                )
        if extras.shape[:2] != base:
            raise DimensionMismatchError(
                f"ObservationHistory.extra_channels shape {extras.shape} does not "
                f"match (regions, days) = {base}"
            )

    @property
    def n_regions(self) -> int:
        return self.cases.shape[0]

    @property
    def n_days(self) -> int:
        return self.cases.shape[1]

    @property
    def n_channels(self) -> int:
        return 4 + self.extra_channels.shape[2]

    def stacked(self) -> np.ndarray:
        core = np.stack(
            [self.cases, self.susceptible, self.infected, self.recovered], axis=-1
        )
        if self.extra_channels.shape[2] == 0:
            return core
        return np.concatenate([core, self.extra_channels], axis=-1)


@dataclass(frozen=True)
class MobilitySeries:
    """Origin-destination daily flow volumes, (regions, regions, days).

    ``horizon_kind`` distinguishes observed history from model-forecast
    flows; operations that require one or the other check it.
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

    def totals(self) -> np.ndarray:
        return self.susceptible + self.infected + self.recovered


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


class ValidatedBundle(NamedTuple):
    observations: ObservationHistory
    mobility: MobilitySeries
    population: PopulationVector


def validate(
    observations: ObservationHistory,
    mobility: MobilitySeries,
    population: PopulationVector,
) -> ValidatedBundle:
    """Cross-check a data bundle and return it unchanged.

    Each object already enforces its own invariants at construction; this
    checks the cross-object ones (matching region counts, matching day
    counts, history-kind mobility).  Validating an already-validated bundle
    returns the identical objects, so the call is idempotent.
    """
    n = observations.n_regions
    if mobility.n_regions != n:
        raise DimensionMismatchError(
            f"mobility covers {mobility.n_regions} regions but observations "
            f"cover {n}"
        )
    if population.n_regions != n:
        raise DimensionMismatchError(
            f"population covers {population.n_regions} regions but observations "
            f"cover {n}"
        )
    if mobility.n_days != observations.n_days:
        raise DimensionMismatchError(
            f"mobility spans {mobility.n_days} days but observations span "
            f"{observations.n_days}"
        )
    if mobility.horizon_kind != "history":
        raise ValidationError(
            "validate expects observed mobility (horizon_kind='history'), got "
            f"{mobility.horizon_kind!r}"
        )
    return ValidatedBundle(observations, mobility, population)
