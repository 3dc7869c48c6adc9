"""Command-line interface: every subcommand end to end against a temporary
synthetic dataset, plus exit-code and error-message behaviour."""

from __future__ import annotations

import contextlib
import copy
import csv
import datetime
import io
import hashlib
import json
import math
import random
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

from epicast import cli, training
from epicast.autodiff import Tensor
from epicast.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from epicast.datasets import SyntheticScenario, frame_crc
from epicast.domain import ConfigRangeError
from epicast.pipeline import ForecastModel, ModelConfig
from epicast.training import TrainConfig

from test_data import damage

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA = Path(__file__).parent / "data"

TINY_CONFIG = """\
model:
  input_window: 8
  forecast_horizon: 4
  pattern_count: 4
  pattern_window: 7
  pattern_key_dim: 8
  pattern_embed_dim: 8
  lifted_channels: 8
  attention_heads: 4
  backbone:
    hidden_dim: 8
    skip_dim: 8
    output_dim: 8
    kernel_size: 2
    dilations: [1, 2, 4]
training:
  max_epochs: 2
  batch_size: 16
  patience: 5
  seed: 77
synthetic:
  seed: 5
  n_regions: 3
  length: 120
  noise: 0.05
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared scratch area: a config, a simulated dataset, a trained model."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.yaml"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    data = root / "data"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == EXIT_OK
    ckpt = root / "model.ckpt"
    code = main(
        [
            "train",
            "--config",
            str(config),
            "--data",
            str(data),
            "--out",
            str(ckpt),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    return {"root": root, "config": config, "data": data, "ckpt": ckpt}


class TestSimulate:
    def test_writes_loadable_panel(self, workdir):
        from epicast import datasets

        dataset = datasets.load_dataset(workdir["data"])
        assert dataset.n_regions == 3
        assert dataset.n_days == 120

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        twin = tmp_path / "twin"
        code = main(
            ["simulate", "--config", str(workdir["config"]), "--out", str(twin)]
        )
        assert code == EXIT_OK
        # simulate writes the CSVs alone; the first load writes the copy
        assert sorted(path.name for path in twin.iterdir()) == [
            "mobility.csv", "observations.csv", "population.csv"
        ]
        for original in Path(workdir["data"]).glob("*.csv"):
            assert (twin / original.name).read_bytes() == original.read_bytes()

    def test_flag_overrides_beat_config(self, tmp_path, workdir):
        out = tmp_path / "small"
        code = main(
            [
                "simulate",
                "--config",
                str(workdir["config"]),
                "--out",
                str(out),
                "--regions",
                "2",
                "--length",
                "30",
            ]
        )
        assert code == EXIT_OK
        from epicast import datasets

        dataset = datasets.load_dataset(out)
        assert dataset.n_regions == 2
        assert dataset.n_days == 30

    def test_needs_out_flag(self, capsys):
        assert main(["simulate"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "flag,value,rule",
        [
            ("--regions", "0", ">= 1"),
            ("--length", "0", ">= 1"),
            ("--noise", "-1", "finite and >= 0"),
            ("--noise", "inf", "finite and >= 0"),
            ("--seed", "-1", ">= 0"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(
        self, tmp_path, capsys, flag, value, rule
    ):
        out = tmp_path / "panel"
        assert main(["simulate", "--out", str(out), flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag} = " in err and f"must be {rule}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("n_regions", 0), ("length", -3), ("noise", -0.5), ("noise", float("inf")),
         ("noise", float("nan")), ("n_regions", 3.7),
         ("start_date", "garbage"), ("beta_kind", "spiky"), ("beta_low", 0.0),
         ("population_low", -5.0), ("population_high", 10.0), ("season_period", 0.0),
         ("initial_infected_fraction", 2.0), ("self_flow", -1.0), ("cross_flow", -0.1),
         ("weekly_amplitude", 3.0), ("gamma", 1.5)],
    )
    def test_out_of_range_config_is_usage_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump({"synthetic": {key: value}}), encoding="utf-8")
        out = tmp_path / "panel"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert f"config synthetic.{key} = {value!r}; must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name
    )
    def test_shipped_configs_build_their_scenario(self, config):
        cli.scenario_from(cli.load_config(config))

    @pytest.mark.parametrize(
        "section,flags,named,reason",
        [
            # the last day, 9999-12-01 + 59, is past the last date there is
            ({"start_date": datetime.date(9999, 12, 1), "length": 60, "n_regions": 3}, [],
             "config synthetic.length: ", "60 days from 9999-12-01 run past 9999-12-31"),
            # a reason-only refusal of a flag prints the reason
            ({}, ["--length", "4000000"], "--length: ",
             "4000000 days from 2020-01-01 run past 9999-12-31"),
            # 14.6 TiB of flows
            ({"n_regions": 1_000_000}, [], "config synthetic.n_regions: ",
             "1000000 regions over 400 days make 400000000000000 flows"),
            ({}, ["--regions", "600"], "--regions: ", "600 regions over 400 days"),
            ({"n_regions": 7}, ["--length", "2900000"], "--length: ",
             "7 regions over 2900000 days make 142100000 flows"),
        ],
        ids=["date-past-9999", "length-flag-past-9999", "million-regions", "regions-flag",
             "length-flag"],
    )
    def test_a_world_past_the_dates_or_the_cap_is_usage_error(
        self, tmp_path, capsys, section, flags, named, reason
    ):
        config = tmp_path / "big.yaml"
        config.write_text(yaml.safe_dump({"synthetic": section}), encoding="utf-8")
        out = tmp_path / "panel"
        assert main(["simulate", "--config", str(config), "--out", str(out), *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {named}{reason}" in err
        assert not out.exists()

    def test_the_world_cap_admits_the_benchmark_worlds(self):
        for n_regions, length in ((64, 400), (8, 400), (1, 2_900_000)):
            SyntheticScenario(n_regions=n_regions, length=length)

    def test_unwritable_panel_file_is_data_error_and_keeps_the_old_panel(
        self, workdir, tmp_path, capsys
    ):
        panel = tmp_path / "panel"
        shutil.copytree(workdir["data"], panel, ignore=shutil.ignore_patterns("*.bin"))
        (panel / "mobility.csv").unlink()
        (panel / "mobility.csv").mkdir()
        before = {path.name: path.read_bytes() for path in panel.glob("*.csv") if path.is_file()}
        # another seed, so that a file moved into place would differ
        argv = ["simulate", "--config", str(workdir["config"]), "--out", str(panel)]
        assert main([*argv, "--seed", "9"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "mobility.csv" in err
        assert sorted(path.name for path in panel.iterdir()) == [
            "mobility.csv", "observations.csv", "population.csv"
        ]
        assert {name: (panel / name).read_bytes() for name in before} == before
        assert not any((panel / "mobility.csv").iterdir())

    @pytest.mark.parametrize("name", ["observations.csv", "population.csv"])
    def test_panel_file_that_is_a_directory_keeps_the_old_panel(
        self, workdir, tmp_path, capsys, name
    ):
        # mobility.csv is moved into place first: a later file that cannot be
        # replaced must stop the write before that move
        panel = tmp_path / "panel"
        shutil.copytree(workdir["data"], panel, ignore=shutil.ignore_patterns("*.bin"))
        (panel / name).unlink()
        (panel / name).mkdir()
        before = {path.name: path.read_bytes() for path in panel.iterdir() if path.is_file()}
        argv = ["simulate", "--config", str(workdir["config"]), "--out", str(panel)]
        assert main([*argv, "--seed", "9"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {panel / name}: exists and is not a regular file\n"
        assert sorted(path.name for path in panel.iterdir()) == [
            "mobility.csv", "observations.csv", "population.csv"
        ]
        assert {path.name: path.read_bytes() for path in panel.iterdir() if path.is_file()} == before


class TestTrain:
    def test_reports_best_epoch(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        code = main(
            [
                "train",
                "--config",
                str(workdir["config"]),
                "--data",
                str(workdir["data"]),
                "--out",
                str(out),
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "best validation mae" in captured.out
        assert out.exists()

    def test_epoch_log_lines_unless_quiet(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        main(
            [
                "train",
                "--config",
                str(workdir["config"]),
                "--data",
                str(workdir["data"]),
                "--out",
                str(out),
            ]
        )
        assert "epoch" in capsys.readouterr().out

    def test_a_panel_without_a_copy_gets_one_and_serves_the_same_bytes(
        self, workdir, tmp_path
    ):
        # the simulated CSVs alone, as another tool would leave a panel
        data, bare = tmp_path / "data", tmp_path / "csv-only"
        for target in (data, bare):
            shutil.copytree(workdir["data"], target, ignore=shutil.ignore_patterns("*.bin"))
        ckpt = tmp_path / "m.ckpt"
        code = main(
            ["train", "--config", str(workdir["config"]), "--data", str(data),
             "--out", str(ckpt), "--quiet"]
        )
        assert code == EXIT_OK
        # the parse of the same CSVs gives the copy the shared panel's first load wrote
        assert (data / "panel.bin").read_bytes() == (workdir["data"] / "panel.bin").read_bytes()
        outputs = []
        for panel in (data, bare):
            out, report = tmp_path / f"{panel.name}.csv", tmp_path / f"{panel.name}-report.csv"
            common = ["--data", str(panel), "--checkpoint", str(ckpt)]
            assert main(["forecast", *common, "--out", str(out)]) == EXIT_OK
            assert main(["evaluate", *common, "--out", str(report)]) == EXIT_OK
            outputs.append((out.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]
        # the forecast of the bare panel parsed it and wrote the same copy
        assert (bare / "panel.bin").read_bytes() == (data / "panel.bin").read_bytes()

    def test_channel_count_that_differs_from_the_panel_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        config = yaml.safe_load(TINY_CONFIG)
        config["model"]["input_channels"] = 5
        path = tmp_path / "five.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = tmp_path / "m.ckpt"
        code = main(["train", "--config", str(path), "--data", str(workdir["data"]),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: model.input_channels is 5, but observations.csv has 4 channels\n"
        )
        assert not out.exists()

    def test_missing_dataset_is_data_error(self, workdir, tmp_path, capsys):
        code = main(
            [
                "train",
                "--config",
                str(workdir["config"]),
                "--data",
                str(tmp_path / "nowhere"),
                "--out",
                str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_malformed_yaml_is_usage_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: [not, a, mapping\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--config",
                str(bad),
                "--data",
                str(workdir["data"]),
                "--out",
                str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == EXIT_USAGE
        assert "invalid YAML" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("training:\n  warmup: 5\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--config",
                str(bad),
                "--data",
                str(workdir["data"]),
                "--out",
                str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "warmup" in err and "valid keys" in err

    def test_unknown_config_section_is_usage_error(self, workdir, tmp_path, capsys):
        # a misspelt section would otherwise leave training at its defaults
        bad = tmp_path / "bad.yaml"
        bad.write_text("trainig:\n  max_epochs: 1\n", encoding="utf-8")
        out = tmp_path / "m.ckpt"
        code = main(
            ["train", "--config", str(bad), "--data", str(workdir["data"]), "--out", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{bad}: unknown section 'trainig'" in err
        assert "valid sections: model, synthetic, training" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("damage", ["not UTF-8", "a directory"])
    def test_unreadable_config_is_usage_error(self, workdir, tmp_path, capsys, command, damage):
        config = tmp_path / "config.yaml"
        if damage == "a directory":
            config.mkdir()
        else:
            config.write_bytes(b"training:\n  max_epochs: 1  # caf\xe9\n")
        out = tmp_path / "out"
        data = ["--data", str(workdir["data"])] if command == "train" else []
        code = main([command, "--config", str(config), *data, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert "Traceback" not in err and "data error" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "key,value",
        [
            ("model.attention_heads", 0),
            ("model.forecast_horizon", 0),
            ("model.backbone.hidden_dim", 0),
            ("training.batch_size", 0),
            ("training.max_epochs", 0),
            ("model.suppression.downscale", 2.0),
            # values a cast would once have changed without a word
            ("model.input_window", 14.9),
            ("model.attention_heads", True),
            ("model.backbone.dilations", [1.5, 2.7]),
            ("model.backbone.dilations", "1248"),
            ("model.backbone.hidden_dim", "16"),
            ("model.suppression.downscale", True),
            ("training.seed", 2.5),
            ("training.batch_size", True),
            # sizes past the cap, which the model would allocate by
            ("model.pattern_count", 10**12),
            ("model.backbone.hidden_dim", 3_000_000),
            ("model.forecast_horizon", 1025),
        ],
    )
    def test_out_of_range_value_is_usage_error(
        self, workdir, tmp_path, capsys, key, value
    ):
        *sections, name = key.split(".")
        config = {name: value}
        for section in reversed(sections):
            config = {section: config}
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(config), encoding="utf-8")
        out = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(bad), "--data", str(workdir["data"]),
                "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config {key} = {value!r}; must be" in err
        if isinstance(value, int) and value > 1024:  # past the cap of a size
            assert "must be in [1, 1024]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,named,reason",
        [
            ("lifted_channels", 6, "attention_heads", "do not evenly divide"),
            ("pattern_window", 20, "pattern_window", "exceeds the 14-day"),
        ],
    )
    def test_cross_field_defect_names_the_key_to_change(
        self, workdir, tmp_path, capsys, key, value, named, reason
    ):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"model": {key: value}}), encoding="utf-8")
        out = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(bad), "--data", str(workdir["data"]),
                "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config model.{named}: " in err and reason in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model",
        [
            "backbone: {dilations: [" + ", ".join(["1"] * 100_000) + "]}",
            "pattern_count: 1024\n  pattern_key_dim: 1024\n  pattern_embed_dim: 1024\n"
            "  lifted_channels: 1024\n  backbone: {hidden_dim: 1024, skip_dim: 1024, "
            "output_dim: 1024, kernel_size: 1024}",
        ],
        ids=["100000-layers", "every-size-at-its-cap"],
    )
    def test_a_model_past_the_parameter_cap_is_usage_error(
        self, workdir, tmp_path, capsys, model
    ):
        # each size is inside its cap, but the model would hold 209.6 million
        # or 8.6 billion parameters; the windows fit the tiny world's splits
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"model:\n  input_window: 8\n  forecast_horizon: 4\n  {model}\n")
        out = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(bad), "--data", str(workdir["data"]),
                "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: config model: " in err
        assert "parameters at 3 regions, more than the 16,777,216" in err
        assert not out.exists()

    def test_the_parameter_cap_admits_every_shipped_and_benchmark_model(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            payload = cli.load_config(path)
            regions = cli.scenario_from(payload).n_regions
            ForecastModel(cli.model_config_from(payload), regions)
        ForecastModel(ModelConfig(), 64)  # the benchmark's train-wide model
        training.load_checkpoint(DATA / "small_model.ckpt")

    def test_default_yaml_holds_the_builtin_defaults(self):
        config = cli.load_config(CONFIG_DIR / "default.yaml")
        assert cli.model_config_from(config) == ModelConfig()
        assert cli.train_config_from(config) == TrainConfig()
        assert cli.scenario_from(config) == SyntheticScenario()

    @pytest.mark.parametrize(
        "config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name
    )
    def test_shipped_configs_build_model_and_training(self, config):
        payload = cli.load_config(config)
        cli.model_config_from(payload)
        cli.train_config_from(payload)


def forecast_rows(model, batch, dataset, end: int) -> list[list[str]]:
    """The forecast CSV's rows for a forward on ``batch``, anchored on day ``end``."""
    result = model.forward(batch)
    beta, gamma, suppressed = (
        np.clip(rates.data[0], cli.RATE_EPSILON, 1 - cli.RATE_EPSILON)
        for rates in (result.beta, result.gamma, result.suppressed_beta)
    )
    flags = (result.small_flags[0], result.quiet_flags[0], result.flags[0])
    states = [result.trajectories[k][0] for k in ("susceptible", "infected", "recovered")]
    rows = []
    for lead in range(model.config.t_out):
        day = (datetime.date.fromisoformat(dataset.dates[end])
               + datetime.timedelta(days=lead + 1)).isoformat()
        for r, region in enumerate(dataset.regions):
            numbers = [result.cases.data[0], beta, suppressed, gamma, result.strength[0]]
            rows.append(
                [day, str(lead + 1), region]
                + [format(x[r, lead], ".10g") for x in numbers]
                + ["1" if flag[r] else "0" for flag in flags]
                + [format(x[r, lead], ".10g") for x in states]
            )
    return rows


class TestForecast:
    def test_emits_plot_ready_csv(self, workdir, tmp_path):
        out = tmp_path / "forecast.csv"
        code = main(
            [
                "forecast",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 * 4  # regions x horizon
        first = rows[0]
        expected_fields = {
            "date",
            "lead_day",
            "region",
            "cases_pred",
            "beta",
            "beta_suppressed",
            "gamma",
            "transmission_strength",
            "small_rates_flag",
            "quiet_history_flag",
            "suppressed_flag",
            "susceptible",
            "infected",
            "recovered",
        }
        assert set(first) == expected_fields
        for row in rows:
            beta = float(row["beta"])
            gamma = float(row["gamma"])
            assert 0.0 < beta < 1.0 and 0.0 < gamma < 1.0
            assert float(row["cases_pred"]) >= 0.0
            assert row["suppressed_flag"] in {"0", "1"}
            if row["suppressed_flag"] == "0":
                assert float(row["beta_suppressed"]) == beta

    def test_columns_are_pinned_and_match_the_forward(self, workdir, tmp_path):
        from epicast import datasets, training

        # the same bytes from the panel's binary copy and from its CSVs alone
        bare = tmp_path / "csv-only"
        shutil.copytree(workdir["data"], bare, ignore=shutil.ignore_patterns("*.bin"))
        assert (workdir["data"] / "panel.bin").is_file()
        out, report = tmp_path / "forecast.csv", tmp_path / "report.csv"
        outputs = []
        for data in (bare, workdir["data"]):
            common = ["--data", str(data), "--checkpoint", str(workdir["ckpt"])]
            assert main(["forecast", *common, "--out", str(out)]) == EXIT_OK
            assert main(["evaluate", *common, "--out", str(report)]) == EXIT_OK
            outputs.append((out.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]
        # the forecast of the bare panel parsed it and wrote the same copy
        assert (bare / "panel.bin").read_bytes() == (workdir["data"] / "panel.bin").read_bytes()
        with out.open(newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == [
            "date", "lead_day", "region", "cases_pred", "beta", "beta_suppressed",
            "gamma", "transmission_strength", "small_rates_flag", "quiet_history_flag",
            "suppressed_flag", "susceptible", "infected", "recovered",
        ]
        dataset = datasets.load_dataset(workdir["data"])
        model = training.load_checkpoint(workdir["ckpt"]).model
        end, t_in = dataset.n_days - 1, model.config.t_in
        window = datasets.windowize(dataset.day_range(end + 1 - t_in, end + 1), t_in, 0)
        assert rows == forecast_rows(model, window.batch([0]), dataset, end)
        header = report.read_text(encoding="utf-8").splitlines()[0]
        assert header == "source,slice,rmse,mae,smape,rae,rae_defined"

    def test_an_edited_panel_is_parsed_once_then_read_from_its_copy(self, workdir, tmp_path):
        from epicast import datasets

        data = tmp_path / "data"
        shutil.copytree(workdir["data"], data)
        assert (data / "panel.bin").is_file()
        # the first flow of the first day becomes 5: the copy is stale
        path = data / "mobility.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",5"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parses, outputs = [], []
        for k in range(2):
            out = tmp_path / f"forecast-{k}.csv"
            with mock.patch.object(datasets, "_parse", wraps=datasets._parse) as parse:
                assert main(["forecast", "--data", str(data), "--checkpoint",
                             str(workdir["ckpt"]), "--out", str(out)]) == EXIT_OK
            parses.append(parse.call_count)
            outputs.append(out.read_bytes())
        assert parses == [1, 0]
        assert outputs[0] == outputs[1]
        assert datasets.load_dataset(data).flows[0, 0, 0] == 5.0

    def test_a_load_that_draws_nothing_forecasts_the_same_bytes(
        self, workdir, tmp_path, monkeypatch
    ):
        outputs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(np.random, "default_rng", None)  # calling it raises
            out = tmp_path / f"forecast-{patched}.csv"
            assert main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                         str(workdir["ckpt"]), "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bytes_match_a_row_by_row_csv_writer(self, tmp_path, monkeypatch):
        from epicast import datasets, training

        # names csv.writer has to quote, or keeps as they are: commas, quotes,
        # a line break (the parse reads any as "\n"), blanks, an empty name
        # and non-ASCII ones
        names = ["a, b", 'say "hi"', "two\r\nlines", "  inner  blanks ", "", "Zürich 東京"]
        world = datasets.generate_synthetic(SyntheticScenario(n_regions=len(names), length=40))
        world.regions = names
        data = tmp_path / "data"
        datasets.save_dataset(world, data)
        dataset = datasets.load_dataset(data)
        assert dataset.regions[2:5] == ["two\nlines", "inner  blanks", ""]
        config = cli.model_config_from(yaml.safe_load(TINY_CONFIG))
        ckpt = tmp_path / "model.ckpt"
        training.save_checkpoint(
            ForecastModel(config, len(names), seed=3), ckpt, regions=dataset.regions
        )
        forward = ForecastModel.forward

        def extremes(self, *args, **kwargs):
            # -0.0, subnormal, huge and 10-digit values in unclipped columns
            result = forward(self, *args, **kwargs)
            result.cases.data[0, :, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 1e-300,
                                          123456789.987654321, -2.5e-7]
            result.strength[0, :, -1] = [1e300, -0.0, 0.1, 1 / 3, 2.0**60, -1e-320]
            result.trajectories["infected"][0, :, 1] = -0.0
            return result

        monkeypatch.setattr(ForecastModel, "forward", extremes)
        out = tmp_path / "forecast.csv"
        assert main(["forecast", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == EXIT_OK
        model = training.load_checkpoint(ckpt).model
        end, t_in = dataset.n_days - 1, model.config.t_in
        window = datasets.windowize(dataset.day_range(end + 1 - t_in, end + 1), t_in, 0)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow([
            "date", "lead_day", "region", "cases_pred", "beta", "beta_suppressed",
            "gamma", "transmission_strength", "small_rates_flag", "quiet_history_flag",
            "suppressed_flag", "susceptible", "infected", "recovered",
        ])
        for row in forecast_rows(model, window.batch([0]), dataset, end):
            writer.writerow(row)
        expected = buffer.getvalue().encode()
        assert b",-0," in expected and b"4.940656458e-324" in expected and b"1e+300" in expected
        assert out.read_bytes() == expected

    @pytest.mark.parametrize(
        "field,column",
        [("cases", "cases_pred"), ("gamma", "gamma"), ("strength", "transmission_strength")],
    )
    def test_non_finite_output_is_data_error(
        self, workdir, tmp_path, capsys, monkeypatch, field, column
    ):
        forward = ForecastModel.forward

        def poisoned(self, *args, **kwargs):
            result = forward(self, *args, **kwargs)
            value = getattr(result, field)
            (value.data if isinstance(value, Tensor) else value)[0, -1, -1] = np.nan
            return result

        monkeypatch.setattr(ForecastModel, "forward", poisoned)
        out = tmp_path / "forecast.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(workdir["ckpt"]), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"column {column!r} holds a non-finite value" in err
        assert list(tmp_path.iterdir()) == []

    def test_anchor_date_moves_forecast_start(self, workdir, tmp_path):
        from epicast import datasets

        dataset = datasets.load_dataset(workdir["data"])
        anchor = dataset.dates[20]
        out = tmp_path / "anchored.csv"
        code = main(
            [
                "forecast",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(out),
                "--at",
                anchor,
            ]
        )
        assert code == EXIT_OK
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["date"] == dataset.dates[21]
        assert rows[0]["lead_day"] == "1"

    def test_first_full_window_is_the_earliest_anchor(self, workdir, tmp_path):
        from epicast import datasets, training

        dataset = datasets.load_dataset(workdir["data"])
        model = training.load_checkpoint(workdir["ckpt"]).model
        t_in = model.config.t_in
        out = tmp_path / "first.csv"
        common = ["--data", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"])]
        assert main(["forecast", *common, "--out", str(out), "--at", dataset.dates[t_in - 1]]) == EXIT_OK
        with out.open(newline="", encoding="utf-8") as handle:
            _, *rows = list(csv.reader(handle))
        window = datasets.windowize(dataset.day_range(0, t_in), t_in, 0)
        assert rows == forecast_rows(model, window.batch([0]), dataset, t_in - 1)

    def test_anchor_before_the_first_full_window_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        from epicast import datasets, training

        dates = datasets.load_dataset(workdir["data"]).dates
        t_in = training.load_checkpoint(workdir["ckpt"]).model.config.t_in
        out = tmp_path / "early.csv"
        common = ["--data", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"])]
        assert main(["forecast", *common, "--out", str(out), "--at", dates[t_in - 2]]) == EXIT_DATA
        assert (
            f"need {t_in} observed days before {dates[t_in - 2]}, but only {t_in - 1} "
            "are available"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_anchor_date_is_data_error(self, workdir, tmp_path, capsys):
        code = main(
            [
                "forecast",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(tmp_path / "x.csv"),
                "--at",
                "1999-01-01",
            ]
        )
        assert code == EXIT_DATA
        assert "not a date in the dataset" in capsys.readouterr().err

    # both name 2020-02-01, a day of the panel; date.fromisoformat reads them
    # on Python 3.11 and refuses them on 3.10
    @pytest.mark.parametrize("anchor", ["20200201", "2020-W05-6"])
    def test_anchor_date_not_spelt_yyyy_mm_dd_is_data_error(
        self, workdir, tmp_path, capsys, anchor
    ):
        from epicast import datasets

        assert "2020-02-01" in datasets.load_dataset(workdir["data"]).dates
        code = main(
            [
                "forecast",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(tmp_path / "x.csv"),
                "--at",
                anchor,
            ]
        )
        assert code == EXIT_DATA
        assert f"--at {anchor}: not a date in the dataset" in capsys.readouterr().err

    def test_region_mismatch_is_data_error(self, workdir, tmp_path, capsys):
        other = tmp_path / "other"
        code = main(
            [
                "simulate",
                "--config",
                str(workdir["config"]),
                "--out",
                str(other),
                "--regions",
                "4",
            ]
        )
        assert code == EXIT_OK
        code = main(
            [
                "forecast",
                "--data",
                str(other),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_DATA
        assert "region" in capsys.readouterr().err


class TestOutOfRangeInput:
    @pytest.mark.parametrize(
        "file_name,column,value",
        [
            ("population.csv", "population", "nan"),
            ("population.csv", "population", "inf"),
            ("population.csv", "population", "0"),
            ("population.csv", "population", "-5"),
            ("observations.csv", "cases", "-1.0"),
            ("observations.csv", "cases", "nan"),
            ("observations.csv", "susceptible", "inf"),
            ("observations.csv", "susceptible", "-1.0"),
            ("observations.csv", "infected", "-inf"),
            ("observations.csv", "infected", "-2.5"),
            ("observations.csv", "recovered", "nan"),
            ("observations.csv", "recovered", "-1.0"),
            ("mobility.csv", "flow", "nan"),
            ("mobility.csv", "flow", "inf"),
            ("mobility.csv", "flow", "-1.0"),
        ],
    )
    def test_forecast_names_file_and_line(
        self, workdir, tmp_path, capsys, file_name, column, value
    ):
        data = tmp_path / "data"
        shutil.copytree(workdir["data"], data)
        path = data / file_name
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[lines[0].split(",").index(column)] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        code = main(
            ["forecast", "--data", str(data), "--checkpoint", str(workdir["ckpt"]),
             "--out", str(out)]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        pattern = rf"{re.escape(file_name)}:3: .*{column}.* must be .*, got {float(value)}"
        assert re.search(pattern, err), err
        assert not out.exists()

    @pytest.mark.parametrize("file_name", ["observations.csv", "mobility.csv"])
    def test_unclosed_quote_in_a_serve_size_panel_names_file_and_line(
        self, workdir, tmp_path, capsys, file_name
    ):
        from epicast import datasets

        # the default 8-region, 400-day world: the quote's field runs to the
        # end of the file, past the csv module's field size limit
        data = tmp_path / "data"
        datasets.save_dataset(datasets.generate_synthetic(SyntheticScenario()), data)
        path = data / file_name
        lines = path.read_bytes().split(b"\r\n")
        lines[5] = lines[5].replace(b",", b',"', 1)
        path.write_bytes(b"\r\n".join(lines))
        out = tmp_path / "f.csv"
        code = main(
            ["forecast", "--data", str(data), "--checkpoint", str(workdir["ckpt"]),
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert f"{file_name}:6: " in err
        assert not out.exists()


def rewrite_manifest(source, target, edit, payload=None):
    """Copy a checkpoint with its JSON manifest changed by ``edit`` and, when
    given, its payload bytes by ``payload``.  The manifest gets the crc32 of
    the new contents, so only another check can refuse it."""
    raw = Path(source).read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12 : 12 + length])
    edit(manifest)
    tail = raw[12 + length :]
    tail = payload(tail) if payload else tail
    manifest["payload_crc32"] = frame_crc(manifest, [tail])
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    Path(target).write_bytes(raw[:8] + len(encoded).to_bytes(4, "little") + encoded + tail)


def swap_first_records(manifest):
    records = manifest["params"]
    records[0], records[1] = records[1], records[0]


def memory_scale_count_true(manifest):
    record = manifest["params"][9]
    assert record["name"] == "memory.scale" and record["count"] == 1  # so true == 1
    record["count"] = True


class TestCorruptCheckpoint:
    def test_non_integral_size_with_its_hash_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        def edit(manifest):
            manifest["model_config"]["t_in"] = 8.5
            canonical = json.dumps(manifest["model_config"], sort_keys=True)
            manifest["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()

        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, edit)
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "'model_config' is malformed" in err and "t_in = 8.5" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda m: m.pop("seed"), "seed"),
            (lambda m: m.update(n_regions="3"), "n_regions"),
            (lambda m: m["params"][0].pop("offset"), "offset"),
            (lambda m: m.update(model_config={"no_such_field": 1}), "model_config"),
            # a record's defect is reported before the configuration's
            (lambda m: m.update(model_config={"no_such_field": 1}, params=[{}]), "name"),
        ],
        ids=["missing-seed", "string-n_regions", "record-without-offset", "bad-config",
             "bad-record-and-config"],
    )
    def test_manifest_defect_is_data_error(self, workdir, tmp_path, capsys, edit, key):
        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, edit)
        code = main(
            [
                "forecast",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(broken),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_DATA
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda m: m["scaler_mean"].pop(), "scaler_mean"),
            (lambda m: m["scaler_scale"].__setitem__(0, "wide"), "scaler_scale"),
            (lambda m: m["ema"].update(beta="high"), "ema"),
            (lambda m: m["ema"].update(betta=m["ema"].pop("beta")), "ema"),
            (lambda m: m.update(ema={}), "ema"),
            (lambda m: m["ema"].update(delta=0.5), "ema"),
            (lambda m: m.update(regions=5), "regions"),
            (lambda m: m.update(seed=-1), "seed"),
            # JSON's Infinity and NaN
            (lambda m: m["ema"].update(beta=float("inf")), "ema"),
            (lambda m: m["scaler_mean"].__setitem__(1, float("nan")), "scaler_mean"),
            # a scale below 1e-8 would load as 1.0 and save again as 1.0
            (lambda m: m["scaler_scale"].__setitem__(0, -2.0), "scaler_scale"),
            (lambda m: m["scaler_scale"].__setitem__(2, 0.0), "scaler_scale"),
        ],
        ids=["short-scaler", "non-numeric-scaler", "string-ema-slot", "misspelt-ema-slot",
             "empty-ema", "extra-ema-slot", "integer-regions", "negative-seed",
             "infinite-ema-slot", "nan-scaler", "negative-scale", "zero-scale"],
    )
    def test_value_defect_names_file_and_key(self, workdir, tmp_path, capsys, edit, key):
        # each passes the configuration hash, which covers only model_config,
        # and the crc32, which rewrite_manifest recomputes
        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, edit)
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(broken) in err and repr(key) in err
        assert not out.exists()

    def test_a_stored_model_past_the_parameter_cap_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        # its hash and crc32 recomputed, the stored config holds 100,000
        # backbone layers: refused before its parameter records are listed
        def edit(manifest):
            manifest["model_config"]["backbone"]["dilations"] = [1] * 100_000
            canonical = json.dumps(manifest["model_config"], sort_keys=True)
            manifest["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()

        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, edit)
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(broken) in err and "'model_config' is malformed" in err
        assert "parameters at 3 regions" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cut",
        [lambda raw: raw[:12] + b"\xff" + raw[13:], lambda raw: raw[:14]],
        ids=["not-utf8", "cut-in-manifest"],
    )
    def test_undecodable_manifest_names_file(self, workdir, tmp_path, capsys, cut):
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(cut(workdir["ckpt"].read_bytes()))
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(broken) in err and "not UTF-8 JSON" in err

    @pytest.mark.parametrize(
        "edit,payload,defect",
        [
            (lambda m: None, lambda raw: raw[:-100], "payload has"),
            (lambda m: None, lambda raw: raw + bytes(8), "payload has"),
            (lambda m: m["params"][0].update(count=m["params"][0]["count"] + 1), None,
             "params[0]"),
            (lambda m: m["params"][2].update(offset=m["params"][1]["offset"]), None,
             "params[2]"),
            (swap_first_records, None, "params[0]"),
            (lambda m: m["params"][3].update(name="no.such"), None, "params[3]"),
            (lambda m: m["params"][0].update(shape=m["params"][0]["shape"][::-1]), None,
             "params[0]"),
            (lambda m: m["params"].pop(), None, "is null"),
            # each equals this build's layout under ==, but is not a JSON int
            (lambda m: m["params"][0].update(offset=0.0), None, "params[0] key 'offset'"),
            (memory_scale_count_true, None, "params[9] key 'count'"),
            (lambda m: m["params"][1].update(shape=[float(n) for n in m["params"][1]["shape"]]),
             None, "params[1] key 'shape'"),
        ],
        ids=[
            "truncated-payload", "trailing-bytes", "count-against-shape",
            "overlapping-offsets", "reordered-records", "unknown-name",
            "other-shape", "missing-record", "float-offset", "bool-count", "float-shape",
        ],
    )
    def test_layout_defect_names_file_and_record(
        self, workdir, tmp_path, capsys, edit, payload, defect
    ):
        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, edit, payload)
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(broken) in err and defect in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "bad", [float("nan"), float("-inf"), -1e39], ids=["nan", "inf", "past-float32"]
    )
    def test_non_finite_payload_names_file_and_record(
        self, workdir, tmp_path, capsys, bad
    ):
        raw = workdir["ckpt"].read_bytes()
        manifest = json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])
        record = manifest["params"][5]
        at = record["offset"] + 8 * (record["count"] - 1)  # its last float

        def poison(payload):
            return payload[:at] + struct.pack("<d", bad) + payload[at + 8 :]

        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, lambda m: None, poison)
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(broken) in err and "params[5]" in err and repr(record["name"]) in err
        assert "non-finite" in err
        assert not out.exists()


    def test_corrupt_payload_names_file(self, workdir, tmp_path, capsys):
        raw = bytearray(workdir["ckpt"].read_bytes())
        raw[-3] ^= 0x10  # a mantissa bit of the last float: still finite
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(bytes(raw))
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {broken}: checkpoint is corrupt")
        assert not out.exists()


class TestLoadedCheckpoint:
    """What a load of the shared trained checkpoint builds."""

    def test_table_is_its_own_aligned_writeable_copy_of_the_payload(self, workdir, monkeypatch):
        payloads = []
        read_frame = training.read_frame

        def keep_payload(*args):
            manifest, payload = read_frame(*args)
            payloads.append(payload)
            return manifest, payload

        monkeypatch.setattr(training, "read_frame", keep_payload)
        data = training.load_checkpoint(workdir["ckpt"]).model.parameters().data
        [payload] = payloads
        assert data.dtype == np.float64 and data.dtype.isnative
        assert data.flags.owndata and data.flags.c_contiguous
        assert data.flags.aligned and data.flags.writeable
        assert not np.shares_memory(data, np.frombuffer(payload.obj, np.uint8))  # the file's bytes
        assert data.astype("<f8").tobytes() == bytes(payload)

    def test_saved_again_with_its_manifest_gives_the_same_bytes(self, workdir, tmp_path):
        loaded = training.load_checkpoint(workdir["ckpt"])
        manifest, again = loaded.manifest, tmp_path / "again.ckpt"
        assert manifest["regions"] and manifest["train_config"] and manifest["val_loss"] > 0
        training.save_checkpoint(
            loaded.model, again, epoch=manifest["epoch"], val_loss=manifest["val_loss"],
            train_config=TrainConfig(**manifest["train_config"]), regions=manifest["regions"],
        )
        assert again.read_bytes() == workdir["ckpt"].read_bytes()


class TestCheckpointMutationReferee:
    """Seeded damage to a checkpoint that carries a ``payload_crc32`` (the
    shared trained one) and to one written before that key existed: every
    ``forecast`` exits 0, or exits 2 naming the checkpoint.  A failure names
    its seed and mutation; ``damage(data, random.Random(seed))`` replays it."""

    MUTATIONS = 100  # per file

    @pytest.mark.parametrize("source", ["trained", "legacy"])
    def test_damage_forecasts_or_names_the_checkpoint(
        self, workdir, tmp_path, capsys, source
    ):
        original = workdir["ckpt"] if source == "trained" else DATA / "small_model.ckpt"
        pristine = original.read_bytes()
        assert (b"payload_crc32" in pristine) == (source == "trained")
        broken, out = tmp_path / "broken.ckpt", tmp_path / "forecast.csv"
        for k in range(self.MUTATIONS):
            seed = f"53/{source}/{k}"
            data, mutation = damage(pristine, random.Random(seed))
            replay = f"seed {seed!r}: {mutation}"
            broken.write_bytes(data)
            try:
                code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                             str(broken), "--out", str(out)])
            except BaseException as err:  # SystemExit too: main returns its code
                pytest.fail(f"{replay}: {type(err).__name__}: {err}")
            err = capsys.readouterr().err
            assert code == EXIT_OK or (code == EXIT_DATA and str(broken) in err), (
                f"{replay}: exit {code}: {err}"
            )


# What a mutated config value becomes: every kind of YAML scalar and
# collection, out-of-range and past-the-cap numbers, and dates
CONFIG_VALUES = [
    None, True, False, 0, -1, 1, 3, 1025, 10**12, 10**400, 0.5, -0.5, 14.0, 1e300,
    math.nan, math.inf, -math.inf, "", "x", "1e-3", "16", "2020-02-30", [], [0], [1, 2.5],
    [1, 2, 4, 8], {}, {"x": 1}, datetime.date(9999, 12, 31), datetime.date(2020, 1, 1),
]


def mutate_config(config: dict, rnd) -> tuple[dict, str]:
    """A deep copy of ``config`` with one seeded mutation, and the mutation
    in words."""
    config = copy.deepcopy(config)
    places = [(config, key, key) for key in config]
    for section, body in config.items():
        if isinstance(body, dict):
            places += [(body, key, f"{section}.{key}") for key in body]
            places += [(value, key, f"{section}.{name}.{key}") for name, value in body.items()
                       if isinstance(value, dict) for key in value]
    mapping, key, path = rnd.choice(places)
    kind = rnd.choice(["set", "set", "set", "scale", "delete", "rename", "add"])
    if kind == "scale" and isinstance(mapping[key], (int, float)):
        mapping[key] *= rnd.choice([-1, 0, 2, 10**6, 1e9, 0.5])
        return config, f"scale {path} to {mapping[key]!r}"
    if kind == "delete":
        del mapping[key]
        return config, f"delete {path}"
    if kind == "rename":
        mapping[key + "s"] = mapping.pop(key)
        return config, f"rename {path} to {key}s"
    if kind == "add":
        mapping[f"{key}_extra"] = rnd.choice(CONFIG_VALUES)
        return config, f"add {path}_extra = {mapping[f'{key}_extra']!r}"
    mapping[key] = rnd.choice(CONFIG_VALUES)
    return config, f"set {path} to {mapping[key]!r}"


class TestConfigMutationReferee:
    """Seeded mutations of each shipped config: every one builds its model,
    training and scenario configs or is refused by a ``UsageError`` or a
    ``ConfigRangeError`` (exit code 1), never by anything else.  A failure
    names its seed and mutation; ``mutate_config(config, random.Random(seed))``
    replays it."""

    MUTATIONS = 100  # per file

    @pytest.mark.parametrize("name", ["default.yaml", "acceptance.yaml"])
    def test_mutation_builds_or_is_a_usage_error(self, tmp_path, name):
        pristine = yaml.safe_load((CONFIG_DIR / name).read_text(encoding="utf-8"))
        path = tmp_path / name
        for k in range(self.MUTATIONS):
            seed = f"71/{name}/{k}"
            config, mutation = mutate_config(pristine, random.Random(seed))
            path.write_text(yaml.safe_dump(config), encoding="utf-8")
            try:
                loaded = cli.load_config(path)
                cli.model_config_from(loaded)
                cli.train_config_from(loaded)
                cli.scenario_from(loaded)
            except (cli.UsageError, ConfigRangeError):
                pass
            except BaseException as err:
                pytest.fail(f"seed {seed!r}: {mutation}: {type(err).__name__}: {err}")


class TestAtomicOutputs:
    """A forecast or report that fails partway leaves the previous file."""

    def run(self, workdir, command, out):
        return main(
            [
                command,
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(out),
            ]
        )

    def test_forecast_failing_mid_write(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "forecast.csv"
        assert self.run(workdir, "forecast", out) == EXIT_OK
        before = out.read_bytes()
        atomic_write = cli.datasets.atomic_write

        class Interrupted:
            """A handle whose write stops halfway through its text."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise RuntimeError("interrupted")

        @contextlib.contextmanager
        def interrupted_write(path, *args, **kwargs):
            with atomic_write(path, *args, **kwargs) as handle:
                yield Interrupted(handle)

        monkeypatch.setattr(cli.datasets, "atomic_write", interrupted_write)
        with pytest.raises(RuntimeError, match="interrupted"):
            self.run(workdir, "forecast", out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["forecast.csv"]

    def test_evaluate_failing_mid_write(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "report.csv"
        assert self.run(workdir, "evaluate", out) == EXIT_OK
        before = out.read_bytes()
        rows = cli.evaluation.report_rows

        def failing_rows(report):
            yield next(iter(rows(report)))
            raise RuntimeError("interrupted")

        monkeypatch.setattr(cli.evaluation, "report_rows", failing_rows)
        with pytest.raises(RuntimeError, match="interrupted"):
            self.run(workdir, "evaluate", out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    @pytest.mark.parametrize("command", ["train", "forecast", "evaluate"])
    def test_out_that_is_a_directory_is_data_error(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.mkdir()
        (out / "kept.txt").write_text("old", encoding="utf-8")
        if command == "train":
            argv = ["train", "--config", str(workdir["config"]), "--data",
                    str(workdir["data"]), "--out", str(out), "--quiet"]
            assert main(argv) == EXIT_DATA
        else:
            assert self.run(workdir, command, out) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(out) in err
        # the temporary sibling is already removed, so the message names only out
        assert ".tmp" not in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text(encoding="utf-8") == "old"


    @pytest.mark.parametrize("command", ["train", "forecast", "evaluate"])
    def test_out_in_a_missing_directory_names_out(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        if command == "train":
            argv = ["train", "--config", str(workdir["config"]), "--data",
                    str(workdir["data"]), "--out", str(out), "--quiet"]
            assert main(argv) == EXIT_DATA
        else:
            assert self.run(workdir, command, out) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not any(tmp_path.iterdir())


class TestEvaluate:
    def test_prints_model_and_baseline_tables(self, workdir, capsys):
        code = main(
            [
                "evaluate",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "model (test split" in captured.out
        assert "persistence baseline" in captured.out
        assert "RMSE" in captured.out

    @pytest.mark.parametrize("split", ["train", "val", "test", "full"])
    def test_split_selector(self, workdir, split, capsys):
        code = main(
            [
                "evaluate",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--split",
                split,
            ]
        )
        assert code == EXIT_OK
        assert f"model ({split} split" in capsys.readouterr().out

    def test_report_csv_holds_both_sources(self, workdir, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(workdir["ckpt"]),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        sources = {row["source"] for row in rows}
        assert sources == {"model", "persistence"}
        slices = {row["slice"] for row in rows if row["source"] == "model"}
        assert "overall" in slices
        assert any(s.endswith("d") for s in slices)
        for row in rows:
            float(row["rmse"]), float(row["mae"])  # numeric round trip

    def test_missing_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--data",
                str(workdir["data"]),
                "--checkpoint",
                str(tmp_path / "ghost.ckpt"),
            ]
        )
        assert code == EXIT_DATA


class TestGradcheck:
    def test_default_tiny_setup_passes(self, capsys):
        code = main(["gradcheck", "--samples", "6"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "max rel err" in captured.out
        assert "all gradients within" in captured.out

    def test_impossible_tolerance_reports_verify_failure(self, capsys):
        code = main(["gradcheck", "--samples", "4", "--tolerance", "1e-18"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VERIFY
        assert "FAILED" in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--step", "0"),
            ("--step", "-0.5"),
            ("--step", "nan"),
            ("--step", "inf"),
            ("--samples", "0"),
            ("--samples", "-2"),
            ("--tolerance", "0"),
            ("--tolerance", "-1"),
            ("--tolerance", "inf"),
            ("--seed", "-1"),
        ],
    )
    def test_argument_it_cannot_run_or_fail_under_is_usage_error(
        self, capsys, monkeypatch, flag, value
    ):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(cli, "tiny_gradcheck_setup", no_model)
        assert main(["gradcheck", flag, value]) == EXIT_USAGE
        assert f"argument {flag}: must be" in capsys.readouterr().err


class TestTopLevel:
    def test_consecutive_calls_leak_no_values(self, workdir, tmp_path, capsys):
        # the parser is built once per process; each call must still see
        # only its own flags and the defaults
        from epicast import datasets

        served = ["--data", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"])]
        anchor = datasets.load_dataset(workdir["data"]).dates[20]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["forecast", *served, "--out", str(first), "--at", anchor]) == EXIT_OK
        assert main(["evaluate", *served, "--split", "val"]) == EXIT_OK
        assert "model (val split" in capsys.readouterr().out
        assert main(["forecast", "--data", str(workdir["data"])]) == EXIT_USAGE
        assert "required" in capsys.readouterr().err
        assert main(["forecast", *served, "--out", str(second)]) == EXIT_OK
        assert main(["evaluate", *served]) == EXIT_OK
        assert "model (test split" in capsys.readouterr().out
        fresh = tmp_path / "fresh.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "epicast.cli", "forecast", *served, "--out", str(fresh)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert second.read_bytes() == fresh.read_bytes()
        assert first.read_bytes() != fresh.read_bytes()

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--frobnicate"]) == EXIT_USAGE

    def test_importing_the_cli_leaves_yaml_unloaded(self):
        # forecast and evaluate read no config, so they need no YAML parser
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, epicast.cli; print('yaml' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import epicast.cli as c; raise SystemExit(c.main(['--help']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "forecast" in proc.stdout
