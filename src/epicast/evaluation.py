"""Forecast accuracy metrics, horizon reports, and the persistence baseline."""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass

import numpy as np

from .domain import DimensionMismatchError

__all__ = [
    "MetricSet",
    "horizon_report",
    "metrics",
    "persistence_baseline",
    "report_rows",
    "report_table",
]


@dataclass(frozen=True)
class MetricSet:
    """One slice's scores; ``rae_defined`` is False for constant truth."""

    rmse: float
    mae: float
    smape: float
    rae: float
    rae_defined: bool


def metrics(predictions, truth) -> MetricSet:
    """Scores over every aligned entry of two equally shaped arrays.

    SMAPE is the mean of 200|e| / (|y| + |p|) with exact zero pairs
    contributing zero.  RAE divides total absolute error by the total
    absolute deviation of the truth from its mean; for constant truth that
    denominator vanishes and RAE is reported as NaN with ``rae_defined``
    False.  A truth that varies by less than the error over the largest
    float (a spread near the smallest subnormal) gives RAE +inf.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape:
        raise DimensionMismatchError(
            f"predictions {predictions.shape} and truth {truth.shape} differ"
        )
    if predictions.size == 0:
        raise DimensionMismatchError("cannot score an empty slice")
    error = predictions - truth
    abs_error = np.abs(error)
    rmse = float(np.sqrt(np.mean(error * error)))
    mae = float(np.mean(abs_error))
    denom = np.abs(truth) + np.abs(predictions)
    ratio = np.where(denom == 0.0, 0.0, abs_error / np.where(denom == 0.0, 1.0, denom))
    smape = float(200.0 * np.mean(ratio))
    spread = np.abs(truth - truth.mean()).sum()
    if spread == 0.0:
        rae, defined = float("nan"), False
    else:
        with np.errstate(over="ignore"):  # +inf is the ratio's value then
            rae, defined = float(abs_error.sum() / spread), True
    return MetricSet(rmse=rmse, mae=mae, smape=smape, rae=rae, rae_defined=defined)


def persistence_baseline(last_observed: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat each window's last observed value across the whole horizon."""
    last_observed = np.asarray(last_observed, dtype=np.float64)
    return np.repeat(last_observed[..., None], horizon, axis=-1)


def horizon_report(
    predictions: np.ndarray,
    truth: np.ndarray,
    days: tuple[int, ...] = (3, 7, 14),
) -> dict[str, MetricSet]:
    """Per-lead-time scores plus the overall slice.

    ``predictions``/``truth`` are (windows, regions, horizon).  Each entry
    of ``days`` is a single 1-based lead time scored on its own; ``overall``
    pools every lead time.  Both are scored as C-ordered arrays (a view,
    such as a window set's targets, is copied), since the rounding of a
    mean follows the layout of the array it reduces.
    """
    predictions = np.ascontiguousarray(predictions, dtype=np.float64)
    truth = np.ascontiguousarray(truth, dtype=np.float64)
    if predictions.ndim != 3 or predictions.shape != truth.shape:
        raise DimensionMismatchError(
            f"expected matching (windows, regions, horizon) arrays, got "
            f"{predictions.shape} and {truth.shape}"
        )
    horizon = predictions.shape[2]
    report: dict[str, MetricSet] = {}
    for day in days:
        if not 1 <= day <= horizon:
            raise DimensionMismatchError(
                f"lead time {day} outside the {horizon}-day horizon"
            )
        report[f"{day}d"] = metrics(
            predictions[:, :, day - 1], truth[:, :, day - 1]
        )
    report["overall"] = metrics(predictions, truth)
    return report


def report_rows(report: dict[str, MetricSet]) -> list[dict[str, object]]:
    return [{"slice": name, **asdict(scores)} for name, scores in report.items()]


def report_table(report: dict[str, MetricSet], title: str = "") -> str:
    """Fixed-width text table for terminal output."""
    out = io.StringIO()
    if title:
        print(title, file=out)
    print(f"{'slice':<10}{'RMSE':>12}{'MAE':>12}{'SMAPE':>12}{'RAE':>12}", file=out)
    for name, scores in report.items():
        rae = f"{scores.rae:.4f}" if scores.rae_defined else "undefined"
        print(
            f"{name:<10}{scores.rmse:>12.4f}{scores.mae:>12.4f}"
            f"{scores.smape:>12.4f}{rae:>12}",
            file=out,
        )
    return out.getvalue()
