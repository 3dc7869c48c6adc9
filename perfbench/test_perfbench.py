"""The benchmark's own tests: smoke runs of every workload and the tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import kernel_counts  # noqa: E402
import tracing  # noqa: E402
from workloads import percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_check(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    # percentiles need more samples than a smoke run takes
    assert {"setup_s", "windows_per_s", "quality_mae", "peak_rss_mb"} <= set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert declared[name] == metric["unit"]
        assert metric["value"] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    done = _run(
        "--workload", "train-regional", "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # four adaptive thresholds per window; the smoke batch holds 8 windows
    assert metrics["suppression.threshold_calls"]["value"] == 32
    assert metrics["training.adam_ms"]["value"] > 0
    assert metrics["datasets.load_dataset_ms"]["value"] == 0  # no CSV in training


def test_declared_layer_metrics_match_the_tracer():
    declared = {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]}
    reported = {(name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS}
    assert declared == reported | {("trace.overhead_ms", "ms", "lower")}


def test_missing_target_drops_its_metrics_without_failing(monkeypatch):
    from epicast import kernels

    monkeypatch.delattr(kernels, "active")
    tracer = tracing.Tracer()
    assert "kernels.conv_bwd" in tracer.missing
    metrics = tracing.layer_metrics(tracer, [], ("step",))
    assert "kernels.conv_bwd_ms" not in metrics
    assert metrics["pipeline.forward_ms"]["value"] == 0.0


def test_percentiles_need_ten_samples_beyond_them():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) is not None


def test_conv_counts_by_hand():
    import numpy as np

    xpad = np.zeros((2, 3, 6, 4))  # B, N, T + pad, C_in
    weight = np.zeros((2, 4, 5))  # taps, C_in, C_out
    flop, moved = kernel_counts.conv_fwd(xpad, weight, np.zeros(5), 2)
    outputs = 2 * 3 * 4 * 5  # T = 6 - (2 - 1) * 2
    assert flop == 2 * outputs * 4 * 2 + outputs
    assert moved == 8 * (xpad.size + weight.size + 5 + outputs)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(
        "--workload", "train-regional", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
