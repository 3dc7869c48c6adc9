"""Adaptive suppression of spurious transmission in weak-signal regions.

Two per-region detectors feed one decision:

* small-parameter: a region whose estimated infection AND recovery rates
  stay below adaptive thresholds over the whole horizon, and
* quiet-history: a region whose recent infected counts sit below an
  adaptive absolute level on a large enough fraction of days.

Thresholds are interpolated quantiles over the regions of the current
window (``np.quantile``'s, bit for bit, from one sort of a batch's rows,
except that a -0.0 counts as +0.0), smoothed by an exponential moving
average that only advances while training, and floored by configured
minimums (the quiet-ratio cutoff is additionally capped).  The smoothing state is a plain dict keyed by the
threshold kinds of ``THRESHOLD_KINDS``, each value a float or None until
first seeded; the model checkpoints it as is.  A flagged region has its
infection rate multiplied by a fixed downscale before the mechanistic
rollout; the flags themselves are constants as far as gradients are
concerned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor
from .domain import check_ranges

__all__ = [
    "Detection",
    "THRESHOLD_KINDS",
    "ThresholdConfig",
    "adaptive_threshold",
    "detect",
    "suppress_beta",
]

# The four smoothed thresholds, each with a ``{kind}_quantile`` and a
# ``{kind}_floor`` in ``ThresholdConfig``; the keys of the smoothing state.
THRESHOLD_KINDS = ("infection", "quiet_ratio", "beta", "gamma")


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
        check_ranges(self, {
            **{f"{kind}_quantile": "in [0, 1]" for kind in THRESHOLD_KINDS},
            **{f"{kind}_floor": ">= 0" for kind in THRESHOLD_KINDS},
            "quiet_ratio_cap": "in [0, 1]",
            "ema_decay": "in [0, 1]",
            # above 1, suppression would raise flagged regions' forecasts
            "downscale": "in [0, 1]",
        })


def adaptive_threshold(
    values,
    quantile: float,
    floor: float,
    state: dict | None = None,
    kind: str | None = None,
    training: bool = False,
    decay: float = 0.9,
) -> float:
    """Smoothed interpolated quantile of ``values``, never below ``floor``.

    The fresh quantile interpolates linearly between order statistics at
    rank 1 + (count - 1) * quantile, bit for bit as ``np.quantile`` does,
    except that a -0.0 among ``values`` counts as +0.0.  With a smoothing
    ``state`` attached, training steps fold the fresh value into
    ``state[kind]`` (seeding it on first use) and the smoothed value is
    used; outside training the stored average is read without being
    advanced.
    """
    rows = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return float(_thresholds(rows, quantile, floor, state, kind, training, decay)[0])


def _quantiles(rows: np.ndarray, quantile: float) -> np.ndarray:
    """``np.quantile(rows, quantile, axis=1)`` of (B, M) ``rows``, from one sort.

    numpy's linear method: the order statistics ``a``, ``b`` around
    position (M - 1) * quantile, at weight ``t`` past ``a``, give
    ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` when t >= 0.5; at
    the last position both are the last element.  A row holding a NaN gets
    NaN.  The rows are sorted after ``+ 0.0``, which turns -0.0 into +0.0:
    a sort and numpy's partition may order the two zeros differently, and
    so return a cut of either sign.  No comparison tells them apart, so no
    flag depends on this rule.
    """
    ordered = rows + 0.0
    ordered.sort(axis=1)
    last = ordered.shape[1] - 1
    position = last * quantile
    low = min(math.floor(position), last)
    high, t = min(low + 1, last), position - low
    a, b = ordered[:, low], ordered[:, high]
    cuts = b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
    cuts[np.isnan(ordered[:, -1])] = np.nan  # NaN sorts last
    return cuts


def _thresholds(rows: np.ndarray, quantile, floor, state, kind, training, decay) -> np.ndarray:
    """``adaptive_threshold`` of each row of (B, M) ``rows``: one sort of
    the block (``_quantiles``), then the scalar EMA fold row by row, in row
    order."""
    if state is None:  # no smoothing: an unseeded value that never advances
        state, training = {kind: None}, False
    value = state[kind]
    if not training and value is not None:  # read, not advanced
        return np.full(len(rows), max(value, floor), dtype=np.float64)
    cuts = []
    for fresh in _quantiles(rows, quantile).tolist():
        if training:
            value = fresh if value is None else decay * value + (1.0 - decay) * fresh
        cuts.append(max(fresh if value is None else value, floor))
    state[kind] = value
    return np.array(cuts, dtype=np.float64)


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
    state: dict | None = None, training: bool = False,
) -> Detection:
    """Both detectors on a batch: rates (B, N, T), infected history (B, N, T_in).

    Weak-rate: a region's peak infection AND peak recovery rate sit at or
    below their cuts.  Quiet-history: the absolute quiet level is a cut over
    every (region, day) entry of the window, and a region is flagged when its
    fraction of quiet days reaches a cut over regions (floored, then capped).
    While training, each ``state`` value advances once per window, in batch
    order.
    """

    def cut(rows, kind):
        return _thresholds(
            rows, getattr(config, f"{kind}_quantile"), getattr(config, f"{kind}_floor"),
            state, kind, training, config.ema_decay,
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


def suppress_beta(beta: Tensor, flags: np.ndarray, downscale: float) -> Tensor:
    """Scale flagged regions' infection rates by ``downscale``.

    The model layers' convention: the rates ``beta`` (..., N, T) are a
    Tensor, the boolean ``flags`` (..., N) an ndarray, and the result is a
    Tensor.  The flags are constants, so gradients reach ``beta`` through
    the multiplier.
    """
    return beta * np.where(flags, downscale, 1.0)[..., None]
