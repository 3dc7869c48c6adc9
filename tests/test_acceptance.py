"""Acceptance suite: one test per shipped guarantee.

Each function below asserts one package-level guarantee at its stated
tolerance and runtime budget, so ``pytest tests/test_acceptance.py -v``
prints exactly one pass/fail line per guarantee.  Measured values are
printed (visible with ``-s`` or on failure).  Oracles are imported from the
unit-test modules; they share no code with the package itself.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from epicast import cli, datasets, evaluation, metapop, suppression, training
from epicast.domain import (
    CompartmentState,
    EpidemicParams,
    MobilitySeries,
    PopulationVector,
)
from epicast.pipeline import CASES_CHANNEL, ForecastModel
from epicast.suppression import ThresholdConfig

from conftest import rng_for, small_model_config
from test_metapop import oracle_step, oracle_strength, random_instance
from test_suppression import oracle_quantile, oracle_quiet_flags, oracle_small_flags

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _as_instance(pop, s, i, r, flows, beta, gamma):
    state = CompartmentState(susceptible=s, infected=i, recovered=r)
    params = EpidemicParams(beta=beta, gamma=gamma)
    mobility = MobilitySeries(flows=flows, horizon_kind="forecast")
    return state, params, mobility, PopulationVector(pop)


def test_criterion_01_compartment_totals_conserved():
    """1,000 random rollouts: per-region S+I+R stays put (1e-9), never grows."""
    rng = rng_for(9101)
    start = time.perf_counter()
    worst_drift = 0.0
    worst_growth = -np.inf
    capped_instances = 0
    for case in range(1000):
        pop, s, i, r, flows, beta, gamma = random_instance(rng)
        if case % 3 == 0:
            # aggressive variant so the susceptible cap genuinely fires
            flows = flows * 20.0
            beta = np.clip(beta * 3.0, None, 1.0 - 1e-9)
        state, params, mobility, population = _as_instance(
            pop, s, i, r, flows, beta, gamma
        )
        result = metapop.rollout(state, params, mobility, population)
        totals = result.susceptible + result.infected + result.recovered
        initial = (state.susceptible + state.infected + state.recovered)[:, None]
        drift = totals - initial
        _, aux = metapop.rollout_batch(
            state.susceptible[None],
            state.infected[None],
            state.recovered[None],
            params.beta[None],
            params.gamma[None],
            mobility.flows[None],
            population.sizes,
        )
        if aux["capped"].any():
            capped_instances += 1
            worst_growth = max(worst_growth, float(drift.max()))
            assert drift.max() <= 1e-9, "totals grew after a clamp fired"
        else:
            worst_drift = max(worst_drift, float(np.abs(drift).max()))
            assert np.abs(drift).max() <= 1e-9, "totals drifted with no clamp"
    elapsed = time.perf_counter() - start
    assert capped_instances > 100, "generator never exercised the clamp branch"
    assert elapsed < 10.0, f"conservation sweep took {elapsed:.1f}s (budget 10s)"
    print(
        f"\n  conservation: drift {worst_drift:.2e} (tol 1e-9) on "
        f"{1000 - capped_instances} clamp-free, growth {worst_growth:.2e} on "
        f"{capped_instances} clamped, {elapsed:.1f}s < 10s"
    )


def test_criterion_02_mechanistic_core_matches_loop_oracle():
    """Strength and step match the independent loop oracle to 1e-12."""
    rng = rng_for(9102)
    start = time.perf_counter()
    worked = metapop.transmission_strength(
        np.array([[0.0, 5.0], [5.0, 0.0]]),
        np.array([100.0, 100.0]),
        np.array([10.0, 20.0]),
    )
    np.testing.assert_allclose(worked, [2.0, 1.0], rtol=0.0, atol=1e-12)
    for _ in range(1000):
        pop, s, i, r, flows, beta, gamma = random_instance(rng, horizon=1)
        strength = metapop.transmission_strength(flows[:, :, 0], pop, i)
        np.testing.assert_allclose(
            strength, oracle_strength(flows[:, :, 0], pop, i), rtol=1e-12, atol=1e-12
        )
        state = CompartmentState(susceptible=s, infected=i, recovered=r)
        nxt, fresh = metapop.step(state, beta[:, 0], gamma[:, 0], strength)
        es, ei, er, ef = oracle_step(s, i, r, beta[:, 0], gamma[:, 0], strength)
        for got, want in (
            (nxt.susceptible, es),
            (nxt.infected, ei),
            (nxt.recovered, er),
            (fresh, ef),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s (budget 10s)"
    print(f"\n  mechanistic oracle: 1000 instances + worked example, {elapsed:.1f}s < 10s")


def test_criterion_03_threshold_flags_match_sorting_oracle():
    """Adaptive threshold and both detectors match brute force exactly."""
    rng = rng_for(9103)
    start = time.perf_counter()
    values = np.arange(1.0, 11.0)
    got = suppression.adaptive_threshold(values, 0.2, 0.0)
    assert got == oracle_quantile(values, 0.2)
    assert got == pytest.approx(2.8, abs=1e-12)
    config = ThresholdConfig()
    for case in range(1000):
        n = int(rng.integers(2, 13))
        horizon = int(rng.integers(1, 15))
        window = int(rng.integers(3, 15))
        kappa = float(rng.uniform(0.0, 1.0))
        floor = float(rng.uniform(0.0, 0.5))
        sample = rng.uniform(0.0, 4.0, size=int(rng.integers(2, 40)))
        if case % 4 == 0:  # ties make interpolation arithmetic observable
            sample = np.round(sample * 4.0) / 4.0
        assert suppression.adaptive_threshold(sample, kappa, floor) == max(
            oracle_quantile(sample, kappa), floor
        )
        beta = rng.uniform(1e-4, 0.5, size=(n, horizon))
        gamma = rng.uniform(1e-4, 0.5, size=(n, horizon))
        history = rng.uniform(0.0, 30.0, size=(n, window))
        history[rng.uniform(size=(n, window)) < 0.4] = rng.uniform(0.0, 0.4)
        found = suppression.detect(beta[None], gamma[None], history[None], config)
        np.testing.assert_array_equal(
            found.small_params[0], oracle_small_flags(beta, gamma, config)
        )
        np.testing.assert_array_equal(
            found.quiet_history[0], oracle_quiet_flags(history, config)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"threshold sweep took {elapsed:.1f}s (budget 10s)"
    print(f"\n  threshold oracle: 1000 exact matches + 2.8 case, {elapsed:.1f}s < 10s")


def test_criterion_04_suppression_never_raises_predictions():
    """500 rollouts: suppressed cases <= unsuppressed (first step exact)."""
    rng = rng_for(9104)
    start = time.perf_counter()
    checked = 0
    first_gap = 0.0
    horizon_gap = 0.0
    while checked < 500:
        n = int(rng.integers(1, 11))
        horizon = int(rng.integers(1, 15))
        pop = rng.uniform(500.0, 5e4, size=n)
        infected = pop * rng.uniform(0.0, 0.05, size=n)
        recovered = pop * rng.uniform(0.0, 0.1, size=n)
        susceptible = pop - infected - recovered
        flows = rng.uniform(0.0, 1.0, size=(n, n, horizon)) * pop[None, :, None] * 0.01
        beta = rng.uniform(1e-6, 1.0 - 1e-6, size=(n, horizon))
        gamma = rng.uniform(1e-6, 1.0 - 1e-6, size=(n, horizon))
        state, params, mobility, population = _as_instance(
            pop, susceptible, infected, recovered, flows, beta, gamma
        )
        _, aux = metapop.rollout_batch(
            susceptible[None],
            infected[None],
            recovered[None],
            beta[None],
            gamma[None],
            flows[None],
            pop,
        )
        if aux["capped"].any():
            # the guarantee concerns the rate-limited regime; a capped
            # baseline spends its susceptible pool and later suppressed
            # days can overtake it, so such draws are redrawn
            continue
        flags = rng.uniform(size=n) < 0.5
        if not flags.any():
            flags[int(rng.integers(0, n))] = True
        damped = EpidemicParams(
            beta=suppression.suppress_beta(beta, flags, float(rng.uniform(0.1, 0.9))),
            gamma=gamma,
        )
        base = metapop.rollout(state, params, mobility, population)
        softer = metapop.rollout(state, damped, mobility, population)
        assert (softer.cases[:, 0] <= base.cases[:, 0]).all()
        assert (softer.cases <= base.cases + 1e-12).all()
        first_gap = max(first_gap, float((softer.cases[:, 0] - base.cases[:, 0]).max()))
        horizon_gap = max(horizon_gap, float((softer.cases - base.cases).max()))
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"monotonicity sweep took {elapsed:.1f}s (budget 30s)"
    print(
        f"\n  suppression monotonicity: 500 instances, first-step gap "
        f"{first_gap:.2e} (exact), horizon gap {horizon_gap:.2e} (tol 1e-12), "
        f"{elapsed:.1f}s < 30s"
    )


def test_criterion_05_gradients_match_finite_differences():
    """Tiny-model gradcheck: every group within 1e-4 of central differences."""
    start = time.perf_counter()
    model, batch = cli.tiny_gradcheck_setup(seed=7)
    report = training.gradient_check(
        model, batch, samples_per_group=50, fd_step=1e-5, tolerance=1e-4, seed=7
    )
    elapsed = time.perf_counter() - start
    worst = max(group.max_rel_error for group in report.groups.values())
    for name, group in report.groups.items():
        assert group.checked > 0, f"group {name} was never probed"
        assert group.max_rel_error < 1e-4, (
            f"group {name}: max relative error {group.max_rel_error:.3e}"
        )
    assert report.passed
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s (budget 2min)"
    print(
        f"\n  gradcheck: {len(report.groups)} groups, worst rel err "
        f"{worst:.2e} < 1e-4, {elapsed:.1f}s < 120s"
    )


def test_criterion_06_zeroed_corrections_are_bitwise_neutral():
    """At init (zero blend, zero retrieval scale) the learned paths vanish."""
    config = small_model_config()
    scenario = datasets.SyntheticScenario(seed=5, n_regions=3, length=60, noise=0.05)
    dataset = datasets.generate_synthetic(scenario)
    windows = datasets.windowize(dataset, config.t_in, config.t_out)
    batch = windows.batch(np.arange(4))
    mean = windows.observations.mean(axis=(0, 1, 2))
    scale = windows.observations.std(axis=(0, 1, 2))

    base = ForecastModel(config, n_regions=3, seed=3)
    base.set_scaler(mean, scale)
    assert float(base.blend.data) == 0.0
    assert float(base.memory.scale.data) == 0.0
    result = base.forward(batch)
    np.testing.assert_array_equal(
        result.coupling.data,
        result.horizon_flows.data.mean(axis=-1),
        err_msg="adjacency did not reduce to pooled mobility",
    )

    peer = ForecastModel(config, n_regions=3, seed=3)
    peer.set_scaler(mean, scale)
    rng = rng_for(9106)
    touched = 0
    for name, tensor in peer.parameters().items():
        inert = ("memory.", "attention.", "spatial.", "gate.")
        if name.startswith(inert) and name != "memory.scale":
            tensor.data += rng.normal(0.0, 1.0, size=tensor.data.shape)
            touched += 1
    assert touched >= 8
    np.testing.assert_array_equal(
        result.cases.data,
        peer.forward(batch).cases.data,
        err_msg="perturbing a disabled path moved the forecast",
    )
    print(f"\n  init neutrality: bitwise with {touched} perturbed tensors")


def test_criterion_07_learned_model_beats_persistence_on_synthetic():
    """Seeded training run beats persistence RMSE by 20% overall, 15% at 7d."""
    start = time.perf_counter()
    payload = cli.load_config(CONFIG_DIR / "acceptance.yaml")
    model_config = cli.model_config_from(payload)
    train_config = cli.train_config_from(payload)
    scenario = cli.scenario_from(payload)
    assert scenario.n_regions == 8 and scenario.length == 400
    assert scenario.noise == 0.05 and scenario.beta_kind == "seasonal"

    dataset = datasets.generate_synthetic(scenario)
    train_split, val_split, test_split = datasets.chronological_split(dataset)
    train_w = datasets.windowize(train_split, model_config.t_in, model_config.t_out)
    val_w = datasets.windowize(val_split, model_config.t_in, model_config.t_out)
    test_w = datasets.windowize(test_split, model_config.t_in, model_config.t_out)

    model = ForecastModel(model_config, dataset.n_regions, seed=train_config.seed)
    obs = train_w.observations
    model.set_scaler(obs.mean(axis=(0, 1, 2)), obs.std(axis=(0, 1, 2)))
    training.fit(model, train_w, val_w, train_config, log=None)

    predictions = np.concatenate(
        [
            np.asarray(
                model.forward(test_w.batch(idx), training=False).cases.data
            )
            for idx in np.array_split(np.arange(len(test_w)), 4)
            if idx.size
        ]
    )
    truth = test_w.targets
    model_report = evaluation.horizon_report(predictions, truth, days=(7,))
    baseline = evaluation.persistence_baseline(
        test_w.observations[:, :, -1, CASES_CHANNEL], model_config.t_out
    )
    baseline_report = evaluation.horizon_report(baseline, truth, days=(7,))

    overall_gain = 1.0 - model_report["overall"].rmse / baseline_report["overall"].rmse
    day7_gain = 1.0 - model_report["7d"].rmse / baseline_report["7d"].rmse
    elapsed = time.perf_counter() - start
    assert overall_gain >= 0.20, (
        f"overall RMSE only {overall_gain:.1%} below persistence (need 20%)"
    )
    assert day7_gain >= 0.15, (
        f"7-day RMSE only {day7_gain:.1%} below persistence (need 15%)"
    )
    assert elapsed < 900.0, f"training run took {elapsed:.0f}s (budget 15min)"
    print(
        f"\n  synthetic recovery: overall {overall_gain:.1%} (need 20%), "
        f"7-day {day7_gain:.1%} (need 15%), {elapsed:.0f}s < 900s"
    )


def test_criterion_08_metric_fixture_and_rmse_mae_ordering():
    """Hand-computed metric fixture within 1e-3; RMSE >= MAE on 1000 draws."""
    scores = evaluation.metrics(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
    assert scores.rmse == pytest.approx(np.sqrt(2.0), abs=1e-3)
    assert scores.mae == pytest.approx(1.0, abs=1e-3)
    assert scores.smape == pytest.approx(33.33, abs=1e-2)
    assert scores.rae == pytest.approx(0.667, abs=1e-3)
    rng = rng_for(9108)
    for _ in range(1000):
        size = int(rng.integers(1, 40))
        got = evaluation.metrics(
            rng.normal(0.0, 10.0, size=size), rng.normal(0.0, 10.0, size=size)
        )
        assert got.rmse >= got.mae - 1e-12
    print("\n  metric fixture: rmse sqrt(2), mae 1, smape 33.33, rae 0.667; ordering held")


def test_criterion_09_training_runs_are_bit_reproducible(tmp_path, capsys):
    """Two CLI train runs with one seed: identical logs, identical bytes."""
    config = tmp_path / "repro.yaml"
    config.write_text(
        "model:\n"
        "  input_window: 8\n"
        "  forecast_horizon: 4\n"
        "  pattern_count: 4\n"
        "  pattern_window: 7\n"
        "  pattern_key_dim: 8\n"
        "  pattern_embed_dim: 8\n"
        "  lifted_channels: 8\n"
        "  attention_heads: 4\n"
        "  backbone:\n"
        "    hidden_dim: 8\n"
        "    skip_dim: 8\n"
        "    output_dim: 8\n"
        "    kernel_size: 2\n"
        "    dilations: [1, 2, 4]\n"
        "training:\n"
        "  max_epochs: 6\n"
        "  batch_size: 16\n"
        "  patience: 6\n"
        "  seed: 321\n"
        "synthetic:\n"
        "  seed: 5\n"
        "  n_regions: 3\n"
        "  length: 120\n",
        encoding="utf-8",
    )
    data = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    reports = []
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}.ckpt"
        code = cli.main(
            ["train", "--config", str(config), "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        reports.append(
            [
                line.split("; checkpoint ->")[0]
                for line in captured.splitlines()
                if "validation" in line
            ]
        )
        blobs.append(out.read_bytes())
    assert reports[0] == reports[1], "per-epoch validation losses diverged"
    assert blobs[0] == blobs[1], "checkpoints are not bit-identical"
    print(f"\n  determinism: {len(blobs[0])}-byte checkpoints identical across runs")
