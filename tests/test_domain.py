"""Validation behavior of the typed data containers."""

from __future__ import annotations

import numpy as np
import pytest

from epicast.domain import (
    CompartmentState,
    DimensionMismatchError,
    EpidemicParams,
    Forecast,
    MobilitySeries,
    NegativeValueError,
    NonFiniteError,
    PopulationVector,
    ValidationError,
)


class TestMobilitySeries:
    def test_valid(self):
        mob = MobilitySeries(flows=np.ones((3, 3, 4)))
        assert mob.n_regions == 3
        assert mob.n_days == 4
        assert mob.horizon_kind == "history"

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError, match="square"):
            MobilitySeries(flows=np.ones((2, 3, 4)))

    def test_rejects_negative_flow(self):
        with pytest.raises(NegativeValueError):
            MobilitySeries(flows=np.full((2, 2, 1), -1.0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="horizon_kind"):
            MobilitySeries(flows=np.ones((2, 2, 1)), horizon_kind="future")


class TestPopulationVector:
    def test_valid(self):
        assert PopulationVector(sizes=np.array([10.0, 20.0])).n_regions == 2

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValidationError, match="> 0"):
            PopulationVector(sizes=np.array([10.0, 0.0]))
        with pytest.raises(ValidationError):
            PopulationVector(sizes=np.array([-5.0]))

    def test_error_names_offending_index(self):
        with pytest.raises(ValidationError, match=r"\[1\]"):
            PopulationVector(sizes=np.array([3.0, -2.0, 4.0]))


class TestEpidemicParams:
    def test_valid_and_properties(self):
        p = EpidemicParams(beta=np.full((2, 3), 0.2), gamma=np.full((2, 3), 0.1))
        assert p.n_regions == 2
        assert p.horizon == 3

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_rates_outside_open_interval(self, bad):
        good = np.full((1, 2), 0.5)
        with pytest.raises(ValidationError, match="strictly inside"):
            EpidemicParams(beta=np.array([[0.5, bad]]), gamma=good)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            EpidemicParams(beta=np.full((2, 3), 0.5), gamma=np.full((2, 4), 0.5))


class TestCompartmentState:
    def test_rejects_negative(self):
        with pytest.raises(NegativeValueError):
            CompartmentState(
                susceptible=np.array([-1.0]),
                infected=np.array([0.0]),
                recovered=np.array([0.0]),
            )


class TestForecast:
    def test_valid(self):
        f = Forecast(
            cases=np.ones((2, 4)),
            susceptible=np.ones((2, 4)),
            infected=np.ones((2, 4)),
            recovered=np.ones((2, 4)),
        )
        assert f.n_regions == 2
        assert f.horizon == 4

    def test_rejects_nan_cases(self):
        with pytest.raises(NonFiniteError):
            Forecast(
                cases=np.array([[np.inf]]),
                susceptible=np.ones((1, 1)),
                infected=np.ones((1, 1)),
                recovered=np.ones((1, 1)),
            )
