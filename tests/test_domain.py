"""Validation behavior of the typed data containers and of the typed-record
reader."""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from epicast.domain import (
    CompartmentState,
    ConfigRangeError,
    DimensionMismatchError,
    EpidemicParams,
    Forecast,
    MobilitySeries,
    NegativeValueError,
    NonFiniteError,
    PopulationVector,
    ValidationError,
    check_ranges,
    read_record,
)
from epicast.pipeline import ModelConfig
from epicast.training import TrainConfig


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


@dataclass(frozen=True)
class Part:
    size: int


@dataclass(frozen=True)
class Probe:
    """A record with every kind of field ``read_record`` reads."""

    size: int  # no default
    count: int = field(default=1, metadata={"key": "how_many"})  # YAML name
    rate: float = 0.5
    label: str = "x"
    parts: tuple[Part, ...] = ()
    note: str | None = None

    def __post_init__(self):
        check_ranges(self, {"rate": "finite and >= 0"})


# (mapping, what YAML reads, what JSON reads): the field values read, or the
# refused field and the text of its refusal
TYPE_RULES = {
    "true-for-an-int": (
        {"size": True}, ("size", "must be an integer"), ("size", "must be an integer")),
    "true-for-a-float": (
        {"size": 1, "rate": True}, ("rate", "must be a number"), ("rate", "must be a number")),
    "integral-float-for-an-int": (
        {"size": 14.0}, {"size": 14}, ("size", "= 14.0; must be an integer")),
    "fractional-float-for-an-int": (
        {"size": 14.5}, ("size", "must be an integer"), ("size", "must be an integer")),
    "numeric-string-for-a-float": (
        {"size": 1, "rate": "1e-3"}, {"rate": 1e-3}, ("rate", "= '1e-3'; must be a number")),
    "int-for-a-float": ({"size": 1, "rate": 2}, {"rate": 2.0}, {"rate": 2.0}),
    "nan-where-a-rule-applies": (
        {"size": 1, "rate": math.nan}, ("rate", "must be finite and >= 0"),
        ("rate", "must be finite and >= 0")),
    "date-for-a-str": (
        {"size": 1, "label": datetime.date(2020, 1, 2)}, {"label": "2020-01-02"},
        ("label", "must be a string")),
    "missing-with-a-default": ({"size": 3}, {"size": 3, "count": 1}, {"size": 3, "count": 1}),
    "missing-without-a-default": ({"rate": 0.1}, ("size", ": missing"), ("size", ": missing")),
    "unknown-key": (
        {"size": 1, "sise": 2}, ("sise", ": unknown key; valid keys: "),
        ("sise", ": unknown key; valid keys: ")),
    "null-for-an-optional": ({"size": 1, "note": None}, {"note": None}, {"note": None}),
    "record-in-a-list": (
        {"size": 1, "parts": [{"size": 2}, {"size": 2.5}]}, ("parts[1].size", "must be an integer"),
        ("parts[1].size", "must be an integer")),
}


class TestReadRecord:
    """``read_record``'s type rules, one table through both sources."""

    @pytest.mark.parametrize("source", ["yaml", "json"])
    @pytest.mark.parametrize("case", list(TYPE_RULES))
    def test_type_rules(self, case, source):
        mapping, *outcomes = TYPE_RULES[case]
        outcome = outcomes[source == "json"]
        if isinstance(outcome, dict):
            record = read_record(Probe, mapping, "probe", source)
            for name, value in outcome.items():
                assert getattr(record, name) == value and type(getattr(record, name)) is type(value)
        else:
            field_path, text = outcome
            with pytest.raises(ConfigRangeError) as raised:
                read_record(Probe, mapping, "probe", source)
            assert raised.value.field == f"probe.{field_path}"
            assert text in str(raised.value)

    def test_keys_are_yaml_names_or_field_names(self):
        assert read_record(Probe, {"size": 1, "how_many": 5}, "probe").count == 5
        assert read_record(Probe, {"size": 1, "count": 5}, "probe", "json").count == 5
        for mapping, source in (({"size": 1, "count": 5}, "yaml"),
                                ({"size": 1, "how_many": 5}, "json")):
            with pytest.raises(ConfigRangeError, match="unknown key"):
                read_record(Probe, mapping, "probe", source)

    def test_null_keeps_the_defaults_in_yaml_only(self):
        assert read_record(TrainConfig, None, "training") == TrainConfig()
        with pytest.raises(ConfigRangeError, match="must be a mapping"):
            read_record(TrainConfig, None, "training", "json")

    def test_a_list_refused_whole_names_its_field(self):
        with pytest.raises(ConfigRangeError) as raised:
            read_record(ModelConfig, {"backbone": {"dilations": [1, True]}}, "model")
        assert str(raised.value) == "model.backbone.dilations = [1, True]; must be a list of integers"
