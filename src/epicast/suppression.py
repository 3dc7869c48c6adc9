"""Adaptive suppression of spurious transmission in weak-signal regions.

Two per-region detectors feed one decision:

* small-parameter: a region whose estimated infection AND recovery rates
  stay below adaptive thresholds over the whole horizon, and
* quiet-history: a region whose recent infected counts sit below an
  adaptive absolute level on a large enough fraction of days.

Thresholds are interpolated quantiles over the regions of the current
window, smoothed by an exponential moving average that only advances while
training, and floored by configured minimums (the quiet-ratio cutoff is
additionally capped).  A flagged region has its infection rate multiplied
by a fixed downscale before the mechanistic rollout; the flags themselves
are constants as far as gradients are concerned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import (
    CompartmentState,
    EpidemicParams,
    Forecast,
    MobilitySeries,
    PopulationVector,
    SuppressionFilter,
)
from . import metapop

__all__ = [
    "Detection",
    "EmaSlot",
    "EmaState",
    "SuppressionReport",
    "ThresholdConfig",
    "adaptive_threshold",
    "build_filter",
    "detect",
    "detect_low_infection",
    "detect_small_params",
    "forecast",
    "forecast_with_details",
    "suppress_beta",
]


@dataclass(frozen=True)
class ThresholdConfig:
    """Quantile levels, floors, smoothing, and the suppression strength."""

    infection_quantile: float = 0.1
    quiet_ratio_quantile: float = 0.9
    beta_quantile: float = 0.2
    gamma_quantile: float = 0.2
    infection_floor: float = 0.5
    quiet_ratio_floor: float = 0.7
    beta_floor: float = 2e-3
    gamma_floor: float = 2e-3
    quiet_ratio_cap: float = 0.98
    ema_decay: float = 0.9
    downscale: float = 0.5


class EmaSlot:
    """One scalar exponential-moving-average accumulator (None until seeded)."""

    __slots__ = ("value",)

    def __init__(self, value: float | None = None):
        self.value = value

    def __repr__(self) -> str:
        return f"EmaSlot({self.value!r})"


@dataclass
class EmaState:
    """The four smoothing slots used by the detectors (checkpointed)."""

    infection: EmaSlot = field(default_factory=EmaSlot)
    quiet_ratio: EmaSlot = field(default_factory=EmaSlot)
    beta: EmaSlot = field(default_factory=EmaSlot)
    gamma: EmaSlot = field(default_factory=EmaSlot)

    def as_dict(self) -> dict[str, float | None]:
        return {
            "infection": self.infection.value,
            "quiet_ratio": self.quiet_ratio.value,
            "beta": self.beta.value,
            "gamma": self.gamma.value,
        }

    @staticmethod
    def from_dict(payload: dict[str, float | None]) -> "EmaState":
        return EmaState(
            infection=EmaSlot(payload.get("infection")),
            quiet_ratio=EmaSlot(payload.get("quiet_ratio")),
            beta=EmaSlot(payload.get("beta")),
            gamma=EmaSlot(payload.get("gamma")),
        )


def adaptive_threshold(
    values,
    quantile: float,
    floor: float,
    slot: EmaSlot | None = None,
    training: bool = False,
    decay: float = 0.9,
) -> float:
    """Smoothed interpolated quantile of ``values``, never below ``floor``.

    The fresh quantile interpolates linearly between order statistics at
    rank 1 + (count - 1) * quantile.  With a slot attached, training steps
    fold the fresh value into the running average (seeding it on first use)
    and the smoothed value is used; outside training the stored average is
    read without being advanced.
    """
    rows = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return float(_thresholds(rows, quantile, floor, slot, training, decay)[0])


def _thresholds(rows: np.ndarray, quantile, floor, slot, training, decay) -> np.ndarray:
    """``adaptive_threshold`` of each row of (B, M) ``rows``: one vectorized
    quantile call, then the scalar EMA fold row by row, in row order."""
    if slot is None:  # no smoothing: an unseeded slot that never advances
        slot, training = EmaSlot(), False
    cuts = np.quantile(rows, quantile, axis=1)
    for b, fresh in enumerate(cuts.tolist()):
        if training:
            slot.value = (
                fresh if slot.value is None else decay * slot.value + (1.0 - decay) * fresh
            )
        cuts[b] = max(fresh if slot.value is None else slot.value, floor)
    return cuts


class Detection(NamedTuple):
    """Both detectors over a batch: flags and quiet ratios (B, N), cutoffs (B,)."""

    small_params: np.ndarray
    quiet_history: np.ndarray
    beta_cutoff: np.ndarray
    gamma_cutoff: np.ndarray
    infection_level: np.ndarray
    quiet_cutoff: np.ndarray
    quiet_ratio: np.ndarray


def _detect_small(
    beta, gamma, config: ThresholdConfig, state: EmaState | None, training: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak-rate detector over (B, N, T) rates: flags, beta and gamma cuts."""
    beta_peaks = np.asarray(beta, dtype=np.float64).max(axis=2)
    gamma_peaks = np.asarray(gamma, dtype=np.float64).max(axis=2)
    beta_cut = _thresholds(
        beta_peaks, config.beta_quantile, config.beta_floor,
        state and state.beta, training, config.ema_decay,
    )
    gamma_cut = _thresholds(
        gamma_peaks, config.gamma_quantile, config.gamma_floor,
        state and state.gamma, training, config.ema_decay,
    )
    flags = (beta_peaks <= beta_cut[:, None]) & (gamma_peaks <= gamma_cut[:, None])
    return flags, beta_cut, gamma_cut


def _detect_quiet(
    infected_history, config: ThresholdConfig, state: EmaState | None, training: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quiet-history detector over (B, N, T_in): flags, level, cutoff, ratio."""
    history = np.asarray(infected_history, dtype=np.float64)
    level = _thresholds(
        history.reshape(len(history), -1), config.infection_quantile,
        config.infection_floor, state and state.infection, training, config.ema_decay,
    )
    quiet_ratio = (history <= level[:, None, None]).mean(axis=2)
    ratio_cut = _thresholds(
        quiet_ratio, config.quiet_ratio_quantile, config.quiet_ratio_floor,
        state and state.quiet_ratio, training, config.ema_decay,
    )
    cutoff = np.minimum(ratio_cut, config.quiet_ratio_cap)
    flags = quiet_ratio >= cutoff[:, None]
    return flags, level, cutoff, quiet_ratio


def detect(
    beta, gamma, infected_history, config: ThresholdConfig,
    state: EmaState | None = None, training: bool = False,
) -> Detection:
    """Both detectors on a batch: rates (B, N, T), infected history (B, N, T_in).

    While training, the EMA slots advance once per window, in batch order.
    """
    small, beta_cut, gamma_cut = _detect_small(beta, gamma, config, state, training)
    quiet, level, cutoff, ratio = _detect_quiet(infected_history, config, state, training)
    return Detection(small, quiet, beta_cut, gamma_cut, level, cutoff, ratio)


def detect_small_params(
    params: EpidemicParams,
    config: ThresholdConfig,
    state: EmaState | None = None,
    training: bool = False,
) -> np.ndarray:
    """Flag regions whose rates stay small across the whole horizon.

    A region is flagged only when BOTH its peak infection rate and its peak
    recovery rate fall at or below their adaptive thresholds.
    """
    return _detect_small([params.beta], [params.gamma], config, state, training)[0][0]


def detect_low_infection(
    infected_history: np.ndarray,
    config: ThresholdConfig,
    state: EmaState | None = None,
    training: bool = False,
) -> np.ndarray:
    """Flag regions whose infected counts were quiet on most recent days.

    The absolute quiet level is an adaptive quantile of every (region, day)
    entry in the window; the per-region quiet-day fraction is then held
    against an adaptive cutoff over regions (floored, then capped).
    """
    return _detect_quiet([infected_history], config, state, training)[0][0]


def build_filter(small_params, quiet_history) -> SuppressionFilter:
    """Combine the two detectors with a logical OR."""
    small_params = np.asarray(small_params, dtype=bool)
    quiet_history = np.asarray(quiet_history, dtype=bool)
    return SuppressionFilter(
        small_params=small_params,
        quiet_history=quiet_history,
        combined=small_params | quiet_history,
    )


def suppress_beta(
    params: EpidemicParams,
    decision: SuppressionFilter,
    downscale: float,
) -> EpidemicParams:
    """Scale flagged regions' infection rates by ``downscale``; keep the rest."""
    multiplier = np.where(decision.combined, downscale, 1.0)
    return EpidemicParams(
        beta=params.beta * multiplier[:, None], gamma=params.gamma
    )


@dataclass(frozen=True)
class SuppressionReport:
    """Diagnostics for one forecast: decision, thresholds, applied rates."""

    decision: SuppressionFilter
    infection_level: float
    quiet_cutoff: float
    quiet_ratio: np.ndarray
    beta_cutoff: float
    gamma_cutoff: float
    applied: EpidemicParams


def forecast_with_details(
    params: EpidemicParams,
    infected_history: np.ndarray,
    state0: CompartmentState,
    mobility: MobilitySeries,
    population: PopulationVector,
    config: ThresholdConfig = ThresholdConfig(),
    state: EmaState | None = None,
    training: bool = False,
) -> tuple[Forecast, SuppressionReport]:
    """Run detection, suppress, and roll the mechanistic core forward."""
    found = detect([params.beta], [params.gamma], [infected_history], config, state, training)
    decision = build_filter(found.small_params[0], found.quiet_history[0])
    applied = suppress_beta(params, decision, config.downscale)
    rolled = metapop.rollout(state0, applied, mobility, population)
    return rolled, SuppressionReport(
        decision=decision,
        infection_level=float(found.infection_level[0]),
        quiet_cutoff=float(found.quiet_cutoff[0]),
        quiet_ratio=found.quiet_ratio[0],
        beta_cutoff=float(found.beta_cutoff[0]),
        gamma_cutoff=float(found.gamma_cutoff[0]),
        applied=applied,
    )


def forecast(
    params: EpidemicParams,
    infected_history: np.ndarray,
    state0: CompartmentState,
    mobility: MobilitySeries,
    population: PopulationVector,
    config: ThresholdConfig = ThresholdConfig(),
    state: EmaState | None = None,
    training: bool = False,
) -> Forecast:
    """Suppressed mechanistic forecast (see ``forecast_with_details``)."""
    return forecast_with_details(
        params, infected_history, state0, mobility, population, config, state, training
    )[0]
