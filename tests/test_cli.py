"""Command-line interface: every subcommand end to end against a temporary
synthetic dataset, plus exit-code and error-message behaviour."""

from __future__ import annotations

import builtins
import csv
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
            ("observations.csv", "cases", "-1.0"),
            ("observations.csv", "cases", "nan"),
            ("observations.csv", "susceptible", "inf"),
            ("observations.csv", "infected", "-inf"),
            ("observations.csv", "recovered", "nan"),
            ("mobility.csv", "flow", "nan"),
            ("mobility.csv", "flow", "inf"),
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


def rewrite_manifest(source, target, edit):
    """Copy a checkpoint with its JSON manifest changed by ``edit``."""
    import json

    raw = Path(source).read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    manifest = json.loads(raw[12 : 12 + length])
    edit(manifest)
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    Path(target).write_bytes(
        raw[:8] + len(encoded).to_bytes(4, "little") + encoded + raw[12 + length :]
    )


class TestCorruptCheckpoint:
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


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--frobnicate"]) == EXIT_USAGE

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import epicast.cli as c; raise SystemExit(c.main(['--help']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "forecast" in proc.stdout
