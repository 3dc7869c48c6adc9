"""Command-line interface: every subcommand end to end against a temporary
synthetic dataset, plus exit-code and error-message behaviour."""

from __future__ import annotations

import builtins
import csv
import datetime
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from epicast import cli
from epicast.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from epicast.datasets import SyntheticScenario
from epicast.pipeline import ModelConfig
from epicast.training import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
        originals = sorted(Path(workdir["data"]).glob("*.csv"))
        assert originals
        for original in originals:
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
        assert f"config {key} = {value!r}; must be" in capsys.readouterr().err
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

        out, report = tmp_path / "forecast.csv", tmp_path / "report.csv"
        common = ["--data", str(workdir["data"]), "--checkpoint", str(workdir["ckpt"])]
        assert main(["forecast", *common, "--out", str(out)]) == EXIT_OK
        assert main(["evaluate", *common, "--out", str(report)]) == EXIT_OK
        with out.open(newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == [
            "date", "lead_day", "region", "cases_pred", "beta", "beta_suppressed",
            "gamma", "transmission_strength", "small_rates_flag", "quiet_history_flag",
            "suppressed_flag", "susceptible", "infected", "recovered",
        ]
        dataset = datasets.load_dataset(workdir["data"])
        model = training.load_checkpoint(workdir["ckpt"]).model
        end = dataset.n_days - 1
        result = model.forward(cli._window_ending_at(dataset, model.config.t_in, end))
        beta, gamma, suppressed = (
            np.clip(rates.data[0], cli.RATE_EPSILON, 1 - cli.RATE_EPSILON)
            for rates in (result.beta, result.gamma, result.suppressed_beta)
        )
        flags = (result.small_flags[0], result.quiet_flags[0], result.flags[0])
        states = [result.trajectories[k][0] for k in ("susceptible", "infected", "recovered")]
        want = []
        for lead in range(model.config.t_out):
            day = (datetime.date.fromisoformat(dataset.dates[end])
                   + datetime.timedelta(days=lead + 1)).isoformat()
            for r, region in enumerate(dataset.regions):
                numbers = [result.cases.data[0], beta, suppressed, gamma, result.strength[0]]
                want.append(
                    [day, str(lead + 1), region]
                    + [format(x[r, lead], ".10g") for x in numbers]
                    + ["1" if flag[r] else "0" for flag in flags]
                    + [format(x[r, lead], ".10g") for x in states]
                )
        assert rows == want
        header = report.read_text(encoding="utf-8").splitlines()[0]
        assert header == "source,slice,rmse,mae,smape,rae,rae_defined"

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


def rewrite_manifest(source, target, edit, payload=None):
    """Copy a checkpoint with its JSON manifest changed by ``edit`` and, when
    given, its payload bytes by ``payload``."""
    raw = Path(source).read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12 : 12 + length])
    edit(manifest)
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tail = raw[12 + length :]
    Path(target).write_bytes(
        raw[:8] + len(encoded).to_bytes(4, "little") + encoded
        + (payload(tail) if payload else tail)
    )


def swap_first_records(manifest):
    records = manifest["params"]
    records[0], records[1] = records[1], records[0]


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
        ],
        ids=["missing-seed", "string-n_regions", "record-without-offset", "bad-config"],
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
        ],
        ids=["short-scaler", "non-numeric-scaler", "string-ema-slot", "misspelt-ema-slot",
             "empty-ema", "extra-ema-slot", "integer-regions", "negative-seed"],
    )
    def test_value_defect_names_file_and_key(self, workdir, tmp_path, capsys, edit, key):
        # each passes the configuration hash, which covers only model_config
        broken = tmp_path / "broken.ckpt"
        rewrite_manifest(workdir["ckpt"], broken, edit)
        out = tmp_path / "x.csv"
        code = main(["forecast", "--data", str(workdir["data"]), "--checkpoint",
                     str(broken), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(broken) in err and repr(key) in err
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
        ],
        ids=[
            "truncated-payload", "trailing-bytes", "count-against-shape",
            "overlapping-offsets", "reordered-records", "unknown-name",
            "other-shape", "missing-record",
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
        calls = []

        def failing_format(value, spec):
            calls.append(value)
            if len(calls) > 20:
                raise RuntimeError("interrupted")
            return builtins.format(value, spec)

        monkeypatch.setattr(cli, "format", failing_format, raising=False)
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
