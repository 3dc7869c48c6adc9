"""Scoring harness: metric definitions, the persistence baseline, and the
per-lead-time report."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epicast import cli, datasets
from epicast.domain import DimensionMismatchError
from epicast.evaluation import (
    MetricSet,
    horizon_report,
    metrics,
    persistence_baseline,
    report_rows,
    report_table,
)
from epicast.training import save_checkpoint

from conftest import rng_for


class TestMetricFixture:
    def test_hand_computed_values(self):
        scores = metrics(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
        assert scores.rmse == pytest.approx(math.sqrt(2.0), abs=1e-3)
        assert scores.mae == pytest.approx(1.0, abs=1e-3)
        assert scores.smape == pytest.approx(33.33, abs=1e-2)
        assert scores.rae == pytest.approx(0.667, abs=1e-3)
        assert scores.rae_defined

    def test_perfect_prediction(self):
        scores = metrics(np.array([3.0, 5.0]), np.array([3.0, 5.0]))
        assert scores.rmse == 0.0
        assert scores.mae == 0.0
        assert scores.smape == 0.0
        assert scores.rae == 0.0

    def test_zero_zero_pairs_contribute_zero_smape(self):
        scores = metrics(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert scores.smape == 0.0

    def test_constant_truth_leaves_rae_undefined(self):
        scores = metrics(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        assert not scores.rae_defined
        assert math.isnan(scores.rae)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            metrics(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            metrics(np.zeros(0), np.zeros(0))


class TestMetricProperties:
    def test_rmse_dominates_mae_on_random_instances(self):
        rng = rng_for(700)
        for _ in range(1000):
            size = int(rng.integers(1, 50))
            pred = rng.normal(0, 100, size=size)
            truth = rng.normal(0, 100, size=size)
            scores = metrics(pred, truth)
            assert scores.rmse >= scores.mae - 1e-12

    @given(
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold_generally(self, pred, truth):
        if pred.shape != truth.shape:
            return
        scores = metrics(pred, truth)
        assert scores.rmse >= scores.mae - 1e-9
        assert 0.0 <= scores.smape <= 200.0 + 1e-9
        assert scores.rmse >= 0.0

    def test_rae_of_a_barely_varying_truth_is_infinite(self):
        # the spread is the smallest subnormal: the ratio overflows to +inf
        scores = metrics(np.array([1e6, 1e6]), np.array([0.0, 1e-323]))
        assert scores.rae_defined and scores.rae == np.inf

    def test_smape_symmetric_in_arguments(self):
        rng = rng_for(701)
        pred = rng.uniform(0, 10, 20)
        truth = rng.uniform(0, 10, 20)
        assert metrics(pred, truth).smape == pytest.approx(
            metrics(truth, pred).smape, abs=1e-12
        )


class TestPersistenceBaseline:
    def test_repeats_last_value(self):
        last = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = persistence_baseline(last, horizon=3)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out[0, 1], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(out[1, 0], [3.0, 3.0, 3.0])


class TestHorizonReport:
    def build(self, windows=4, regions=3, horizon=14):
        rng = rng_for(702)
        pred = rng.uniform(0, 50, size=(windows, regions, horizon))
        truth = rng.uniform(0, 50, size=(windows, regions, horizon))
        return pred, truth

    def test_slices_match_direct_metric_calls(self):
        pred, truth = self.build()
        report = horizon_report(pred, truth, days=(3, 7, 14))
        assert set(report) == {"3d", "7d", "14d", "overall"}
        for day in (3, 7, 14):
            direct = metrics(pred[:, :, day - 1], truth[:, :, day - 1])
            assert report[f"{day}d"] == direct
        assert report["overall"] == metrics(pred, truth)

    def test_lead_time_outside_horizon_rejected(self):
        pred, truth = self.build(horizon=5)
        with pytest.raises(DimensionMismatchError, match="outside"):
            horizon_report(pred, truth, days=(7,))

    def test_requires_three_axes(self):
        with pytest.raises(DimensionMismatchError):
            horizon_report(np.zeros((3, 4)), np.zeros((3, 4)))


class TestReportOutput:
    def sample_report(self):
        return {
            "3d": MetricSet(rmse=2.0, mae=1.5, smape=10.0, rae=0.5, rae_defined=True),
            "overall": MetricSet(
                rmse=3.0, mae=2.0, smape=12.0, rae=float("nan"), rae_defined=False
            ),
        }

    def test_rows(self):
        rows = report_rows(self.sample_report())
        assert rows[0]["slice"] == "3d"
        assert rows[0]["rmse"] == 2.0
        assert rows[1]["rae_defined"] is False

    def test_csv_round_trip(self, tmp_path, small_dataset, small_model):
        """``epicast evaluate --out`` writes every report value back exactly."""
        data, ckpt, path = tmp_path / "data", tmp_path / "m.ckpt", tmp_path / "r.csv"
        datasets.save_dataset(small_dataset, data)
        save_checkpoint(small_model, ckpt, regions=small_dataset.regions)
        argv = ["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                "--split", "full", "--out", str(path)]
        assert cli.main(argv) == cli.EXIT_OK
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == [
            "source", "slice", "rmse", "mae", "smape", "rae", "rae_defined"
        ]
        assert [(r["source"], r["slice"]) for r in rows] == [
            ("model", "3d"), ("model", "overall"),
            ("persistence", "3d"), ("persistence", "overall"),
        ]
        windows = datasets.windowize(datasets.load_dataset(data), 8, 4)
        baseline = persistence_baseline(windows.observations[:, :, -1, 0], 4)
        report = horizon_report(baseline, windows.targets, days=(3,))
        for row, scores in zip(rows[2:], report.values()):
            for name in ("rmse", "mae", "smape", "rae"):
                assert float(row[name]) == getattr(scores, name), name
            assert row["rae_defined"] == str(scores.rae_defined)

    def test_table_marks_undefined_rae(self):
        text = report_table(self.sample_report(), title="scores")
        assert "scores" in text
        assert "undefined" in text
        assert "3d" in text
