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

from .domain import check_ranges

__all__ = [
    "Detection",
    "EmaSlot",
    "EmaState",
    "ThresholdConfig",
    "adaptive_threshold",
    "detect",
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

    def __post_init__(self):
        kinds = ("infection", "quiet_ratio", "beta", "gamma")
        check_ranges(self, {
            **{f"{kind}_quantile": "in [0, 1]" for kind in kinds},
            **{f"{kind}_floor": ">= 0" for kind in kinds},
            "quiet_ratio_cap": "in [0, 1]",
            "ema_decay": "in [0, 1]",
            # above 1, suppression would raise flagged regions' forecasts
            "downscale": "in [0, 1]",
        })


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


def detect(
    beta, gamma, infected_history, config: ThresholdConfig,
    state: EmaState | None = None, training: bool = False,
) -> Detection:
    """Both detectors on a batch: rates (B, N, T), infected history (B, N, T_in).

    Weak-rate: a region's peak infection AND peak recovery rate sit at or
    below their cuts.  Quiet-history: the absolute quiet level is a cut over
    every (region, day) entry of the window, and a region is flagged when its
    fraction of quiet days reaches a cut over regions (floored, then capped).
    While training, the EMA slots advance once per window, in batch order.
    """

    def cut(rows, kind):
        return _thresholds(
            rows, getattr(config, f"{kind}_quantile"), getattr(config, f"{kind}_floor"),
            state and getattr(state, kind), training, config.ema_decay,
        )

    beta_peaks = np.asarray(beta, dtype=np.float64).max(axis=2)
    gamma_peaks = np.asarray(gamma, dtype=np.float64).max(axis=2)
    beta_cut, gamma_cut = cut(beta_peaks, "beta"), cut(gamma_peaks, "gamma")
    small = (beta_peaks <= beta_cut[:, None]) & (gamma_peaks <= gamma_cut[:, None])

    history = np.asarray(infected_history, dtype=np.float64)
    level = cut(history.reshape(len(history), -1), "infection")
    ratio = (history <= level[:, None, None]).mean(axis=2)
    cutoff = np.minimum(cut(ratio, "quiet_ratio"), config.quiet_ratio_cap)
    quiet = ratio >= cutoff[:, None]
    return Detection(small, quiet, beta_cut, gamma_cut, level, cutoff, ratio)


def suppress_beta(beta, flags, downscale: float):
    """Scale flagged regions' infection rates by ``downscale``.

    ``beta`` is (..., N, T), an array or Tensor, and ``flags`` (..., N); the
    flags are constants, so gradients reach ``beta`` through the multiplier.
    """
    return beta * np.where(flags, downscale, 1.0)[..., None]
