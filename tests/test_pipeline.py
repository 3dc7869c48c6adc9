"""End-to-end model wiring: configuration, forward pass, neutral
initialization, suppression bookkeeping, and inference without a tape."""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from epicast import datasets, suppression
from epicast.autodiff import Tensor
from epicast.domain import (
    ConfigRangeError,
    DimensionMismatchError,
    ValidationError,
    config_from,
)
from epicast.estimator import BackboneConfig
from epicast.pipeline import ForecastModel, ModelConfig
from epicast.suppression import ThresholdConfig
from epicast.training import gradient_check, mae_loss

from conftest import (
    assert_leaves_view_the_table,
    rng_for,
    small_model_config,
    small_scenario,
)


class TestModelConfig:
    def test_dict_round_trip(self):
        config = small_model_config()
        rebuilt = config_from(ModelConfig, asdict(config), "model_config", yaml_keys=False)
        assert rebuilt == config
        assert rebuilt.backbone.dilations == config.backbone.dilations

    def test_channels_floor(self):
        with pytest.raises(ValidationError, match="4 core channels"):
            small_model_config(channels=3)

    def test_heads_must_divide_lifted_channels(self):
        with pytest.raises(ConfigRangeError, match="heads") as raised:
            small_model_config(lifted_channels=6, attention_heads=4)
        assert raised.value.field == "attention_heads"

    def test_pattern_window_within_observation_window(self):
        with pytest.raises(ValidationError, match="pattern window"):
            small_model_config(t_in=5, pattern_window=7)

    def test_receptive_field_must_cover_window(self):
        with pytest.raises(ValidationError, match="receptive field"):
            small_model_config(
                t_in=14,
                backbone=BackboneConfig(kernel_size=2, dilations=(1, 2)),
            )


class TestParameters:
    def test_table_covers_every_component(self):
        model = ForecastModel(small_model_config(), n_regions=3, seed=0)
        names = set(model.parameters())
        assert "mobility.transform" in names
        assert "memory.scale" in names
        assert "enhance.blend" in names
        assert "spatial.prior" in names
        assert "heads.beta_bias" in names
        assert any(name.startswith("backbone.layer0_") for name in names)
        assert any(name.startswith("gate.") for name in names)
        assert any(name.startswith("attention.") for name in names)
        assert all(p.requires_grad for p in model.parameters().values())

    def test_forward_reads_the_table_leaves(self, small_model, small_windows):
        # a gradient reaches every leaf but the last backbone layer's inert
        # residual mix, so the forward read each of them from the table
        params = small_model.parameters()
        batch = small_windows.batch(np.arange(2))
        mae_loss(small_model.forward(batch).cases, batch.targets).backward()
        assert_leaves_view_the_table(params)
        unread = {name for name, leaf in params.items() if leaf.grad is None}
        assert unread == {
            f"backbone.layer2_{name}" for name in ("neighbor_weight", "self_weight", "mix_bias")
        }

    def test_group_maps_short_names_to_the_leaves(self, small_model):
        params = small_model.parameters()
        gate = params.group("gate")
        assert list(gate) == ["node_weight", "struct_weight", "bias"]
        assert gate["bias"] is params["gate.bias"]
        assert params.group("memory")["scale"] is params["memory.scale"]
        assert list(params.group("lift")) == ["weight", "bias"]
        assert params.group("lif") == {}

    def test_initial_draws_are_pinned(self):
        # every initial value and the checkpoint layout follow from the
        # parameter list's order, which is also its draw order
        params = ForecastModel(ModelConfig(), 8, seed=2024).parameters()
        layer = [
            ("filter_weight", (2, 16, 16)), ("filter_bias", (16,)),
            ("gate_weight", (2, 16, 16)), ("gate_bias", (16,)),
            ("neighbor_weight", (16, 16)), ("self_weight", (16, 16)),
            ("mix_bias", (16,)), ("skip_weight", (16, 32)),
        ]
        assert [(name, leaf.shape) for name, leaf in params.items()] == [
            ("mobility.transform", (14, 14)),
            ("memory.patterns", (9, 7)),
            ("memory.key_weight", (7, 16)), ("memory.key_bias", (16,)),
            ("memory.value_weight", (7, 16)), ("memory.value_bias", (16,)),
            ("memory.output_weight", (16, 16)), ("memory.output_bias", (16,)),
            ("memory.region_embeddings", (8, 16)), ("memory.scale", ()),
            ("lift.weight", (4, 8)), ("lift.bias", (8,)),
            ("attention.query_weight", (8, 8)), ("attention.key_weight", (8, 8)),
            ("spatial.prior", (8, 8)),
            ("gate.node_weight", ()), ("gate.struct_weight", ()), ("gate.bias", ()),
            ("enhance.blend", ()),
            ("backbone.input_weight", (8, 16)), ("backbone.input_bias", (16,)),
            *[(f"backbone.layer{i}_{name}", shape) for i in range(4) for name, shape in layer],
            ("backbone.end_weight", (32, 16)), ("backbone.end_bias", (16,)),
            ("backbone.time_weight", (14, 14)), ("backbone.time_bias", (14,)),
            ("heads.beta_weight", (16, 1)), ("heads.beta_bias", (1,)),
            ("heads.gamma_weight", (16, 1)), ("heads.gamma_bias", (1,)),
        ]
        assert len(params) == 61 and params.data.size == 10_452
        digest = hashlib.sha256(params.data.astype("<f8").tobytes()).hexdigest()
        assert digest == "471b3d1f247c5e362a200cdbc60d91922b0dffb47b556eab465c0a22011b9098"

    def test_zero_grad_clears_all(self, small_model, small_windows):
        batch = small_windows.batch(np.arange(2))
        result = small_model.forward(batch)
        mae_loss(result.cases, batch.targets).backward()
        params = small_model.parameters()
        assert any(p.grad is not None for p in params.values())
        assert_leaves_view_the_table(params)
        small_model.zero_grad()
        assert all(p.grad is None for p in params.values())
        assert not params.grad.any()

    def test_clamp_blend(self, small_model):
        blend = small_model.parameters()["enhance.blend"]
        blend.data[...] = 1.7
        small_model.clamp_blend()
        assert float(blend.data) == 1.0
        blend.data[...] = -0.3
        small_model.clamp_blend()
        assert float(blend.data) == 0.0

    def test_scaler_guard_against_flat_channels(self):
        model = ForecastModel(small_model_config(), n_regions=3, seed=0)
        model.set_scaler(np.zeros(4), np.array([2.0, 0.0, 1e-12, 3.0]))
        np.testing.assert_array_equal(model.scaler_scale, [2.0, 1.0, 1.0, 3.0])

    def test_scaler_shape_checked(self):
        model = ForecastModel(small_model_config(), n_regions=3, seed=0)
        with pytest.raises(DimensionMismatchError):
            model.set_scaler(np.zeros(5), np.ones(5))


class TestForward:
    def test_output_shapes(self, small_model, small_windows, model_config):
        batch = small_windows.batch(np.arange(4))
        result = small_model.forward(batch)
        n, t_out = 3, model_config.t_out
        assert result.cases.data.shape == (4, n, t_out)
        assert result.beta.data.shape == (4, n, t_out)
        assert result.gamma.data.shape == (4, n, t_out)
        assert result.suppressed_beta.data.shape == (4, n, t_out)
        assert result.horizon_flows.data.shape == (4, n, n, t_out)
        assert result.coupling.data.shape == (4, n, n)
        assert result.flags.shape == (4, n)
        assert result.trajectories["infected"].shape == (4, n, t_out)

    def test_rates_inside_unit_interval(self, small_model, small_windows):
        result = small_model.forward(small_windows.batch(np.arange(len(small_windows))))
        assert (result.beta.data > 0).all() and (result.beta.data < 1).all()
        assert (result.gamma.data > 0).all() and (result.gamma.data < 1).all()

    def test_cases_nonnegative(self, small_model, small_windows):
        result = small_model.forward(small_windows.batch(np.arange(len(small_windows))))
        assert (result.cases.data >= 0).all()

    def test_batch_shape_validation(self, small_model, small_windows):
        batch = small_windows.batch(np.arange(2))
        batch.mobility = batch.mobility[:, :, :, :-1]
        with pytest.raises(DimensionMismatchError, match="mobility"):
            small_model.forward(batch)

    @pytest.mark.parametrize("n_regions", [3, 9])
    def test_slice_batch_matches_gathered_batch_bitwise(self, n_regions, model_config):
        # a slice batch reads its mobility in place from the panel's flows
        data = datasets.generate_synthetic(
            small_scenario(n_regions=n_regions, length=40)
        )
        windows = datasets.windowize(data, model_config.t_in, model_config.t_out)
        model = ForecastModel(model_config, n_regions=n_regions, seed=11)
        model.set_scaler(*datasets.channel_scaler(windows))
        results = []
        for indices in (slice(3, 8), np.arange(3, 8)):
            with model.inference():
                results.append(model.forward(windows.batch(indices)))
        view, gathered = results
        assert not windows.batch(slice(3, 8)).mobility.flags.writeable
        for name in ("cases", "beta", "gamma", "suppressed_beta", "horizon_flows", "coupling"):
            got, want = getattr(view, name).data, getattr(gathered, name).data
            assert got.tobytes() == want.tobytes(), name
        assert view.strength.tobytes() == gathered.strength.tobytes()
        for name, trajectory in view.trajectories.items():
            assert trajectory.tobytes() == gathered.trajectories[name].tobytes(), name

    def test_region_count_validation(self, small_model, small_windows):
        batch = small_windows.batch(np.arange(2))
        batch.observations = batch.observations[:, :2]
        with pytest.raises(DimensionMismatchError, match="regions"):
            small_model.forward(batch)


class TestNeutralInitialization:
    @staticmethod
    def _twin_models(model_config, small_windows, seed=2):
        base = ForecastModel(model_config, n_regions=3, seed=seed)
        peer = ForecastModel(model_config, n_regions=3, seed=seed)
        mean, scale = datasets.channel_scaler(small_windows)
        base.set_scaler(mean, scale)
        peer.set_scaler(mean, scale)
        return base, peer

    def test_coupling_equals_pooled_mobility_bitwise(self, small_model, small_windows):
        result = small_model.forward(small_windows.batch(np.arange(3)))
        pooled = result.horizon_flows.data.mean(axis=-1)
        np.testing.assert_array_equal(result.coupling.data, pooled)

    def test_pattern_memory_weights_are_inert_at_init(
        self, model_config, small_windows
    ):
        # the retrieval correction is multiplied by a zero scale factor, so
        # arbitrary reinitialization of the bank must not move any output
        batch = small_windows.batch(np.arange(3))
        base, peer = self._twin_models(model_config, small_windows)
        rng = rng_for(800)
        for name, tensor in peer.parameters().items():
            if name.startswith("memory.") and name != "memory.scale":
                tensor.data += rng.normal(0.0, 1.0, size=tensor.data.shape)
        np.testing.assert_array_equal(
            base.forward(batch).cases.data, peer.forward(batch).cases.data
        )

    def test_enhancement_path_is_identity_at_init(self, model_config, small_windows):
        # with a zero mixing blend the regularized dependency is never felt:
        # rewriting the attention weights and spatial prior changes nothing
        batch = small_windows.batch(np.arange(3))
        base, peer = self._twin_models(model_config, small_windows)
        rng = rng_for(801)
        for name in ("attention.query_weight", "attention.key_weight", "spatial.prior"):
            peer.parameters()[name].data += rng.normal(
                0.0, 1.0, size=peer.parameters()[name].data.shape
            )
        np.testing.assert_array_equal(
            base.forward(batch).cases.data, peer.forward(batch).cases.data
        )

    def test_blend_breaks_neutrality_once_enabled(self, model_config, small_windows):
        batch = small_windows.batch(np.arange(3))
        base, peer = self._twin_models(model_config, small_windows)
        peer.parameters()["enhance.blend"].data[...] = 0.8
        rng = rng_for(802)
        peer.parameters()["spatial.prior"].data += rng.normal(0, 1, size=(3, 3))
        assert not np.array_equal(
            base.forward(batch).cases.data, peer.forward(batch).cases.data
        )

    def test_memory_scale_breaks_neutrality_once_enabled(
        self, model_config, small_windows
    ):
        batch = small_windows.batch(np.arange(3))
        base, peer = self._twin_models(model_config, small_windows)
        peer.parameters()["memory.scale"].data[...] = 0.5
        rng = rng_for(803)
        for name, tensor in peer.parameters().items():
            if name.startswith("memory.") and name != "memory.scale":
                tensor.data += rng.normal(0.0, 1.0, size=tensor.data.shape)
        assert not np.array_equal(
            base.forward(batch).cases.data, peer.forward(batch).cases.data
        )


class TestSuppressionIntegration:
    def test_suppressed_beta_halves_flagged_rows(self, small_windows, model_config):
        config = small_model_config(
            thresholds=ThresholdConfig(downscale=0.5)
        )
        model = ForecastModel(config, n_regions=3, seed=4)
        result = model.forward(small_windows.batch(np.arange(4)))
        flags = result.flags
        beta = result.beta.data
        suppressed = result.suppressed_beta.data
        np.testing.assert_allclose(suppressed[flags], beta[flags] * 0.5, atol=1e-15)
        np.testing.assert_array_equal(suppressed[~flags], beta[~flags])

    @pytest.mark.parametrize("fixed", [False, True], ids=["detected", "fixed_filter"])
    def test_suppressed_beta_is_suppress_beta_bitwise(self, small_windows, fixed):
        model = ForecastModel(
            small_model_config(thresholds=ThresholdConfig(downscale=0.3)),
            n_regions=3, seed=4,
        )
        batch = small_windows.batch(np.arange(len(small_windows)))
        model.forward(batch, training=True)  # seeds the EMA, so detectors fire
        flags = None
        if fixed:
            flags = rng_for(193).uniform(size=(len(batch), 3)) < 0.5
        result = model.forward(batch, fixed_filter=flags)
        assert result.flags.any() and not result.flags.all()
        want = suppression.suppress_beta(Tensor(result.beta.data), result.flags, 0.3)
        assert result.suppressed_beta.data.tobytes() == want.data.tobytes()

    def test_flags_are_or_of_detectors(self, small_model, small_windows):
        result = small_model.forward(small_windows.batch(np.arange(4)))
        np.testing.assert_array_equal(
            result.flags, result.small_flags | result.quiet_flags
        )

    def test_fixed_filter_bypasses_detection_and_ema(self, small_model, small_windows):
        batch = small_windows.batch(np.arange(2))
        fixed = np.zeros((2, 3), dtype=bool)
        fixed[0, 1] = True
        result = small_model.forward(batch, training=True, fixed_filter=fixed)
        np.testing.assert_array_equal(result.flags, fixed)
        # detection was skipped entirely: no smoothing state advanced
        assert small_model.ema["beta"] is None
        assert small_model.ema["infection"] is None

    def test_training_advances_ema_inference_does_not(self, small_model, small_windows):
        batch = small_windows.batch(np.arange(2))
        small_model.forward(batch, training=False)
        assert small_model.ema["beta"] is None
        small_model.forward(batch, training=True)
        seeded = small_model.ema["beta"]
        assert seeded is not None
        small_model.forward(batch, training=False)
        assert small_model.ema["beta"] == seeded


class TestInference:
    @staticmethod
    def _warmed(small_model, small_windows):
        # one training forward seeds the EMA so the detectors can fire
        small_model.forward(small_windows.batch(np.arange(8)), training=True)
        return small_windows.batch(np.arange(len(small_windows)))

    def test_matches_the_tape_forward_bitwise(self, small_model, small_windows):
        batch = self._warmed(small_model, small_windows)
        taped = small_model.forward(batch, training=False)
        with small_model.inference():
            untaped = small_model.forward(batch, training=False)
        tensors = ("cases", "beta", "gamma", "suppressed_beta", "horizon_flows", "coupling")
        for name in tensors:
            a, b = getattr(taped, name).data, getattr(untaped, name).data
            assert a.tobytes() == b.tobytes(), name
        for name in ("small_flags", "quiet_flags", "flags", "strength"):
            np.testing.assert_array_equal(
                getattr(taped, name), getattr(untaped, name), err_msg=name
            )
        assert taped.flags.any()
        for name, trajectory in taped.trajectories.items():
            assert trajectory.tobytes() == untaped.trajectories[name].tobytes(), name

    def test_records_no_tape(self, small_model, small_windows):
        batch = self._warmed(small_model, small_windows)
        with small_model.inference():
            result = small_model.forward(batch, training=False)
        assert result.cases._parents == ()
        assert not result.cases.requires_grad
        assert small_model.forward(batch).cases._parents != ()

    def test_restores_each_flag_also_when_the_forward_raises(
        self, small_model, small_windows
    ):
        small_model.parameters()["enhance.blend"].requires_grad = False
        before = {k: p.requires_grad for k, p in small_model.parameters().items()}
        batch = small_windows.batch(np.arange(2))
        batch.mobility = batch.mobility[:, :, :, :-1]
        with pytest.raises(DimensionMismatchError, match="mobility"):
            with small_model.inference():
                assert not any(
                    p.requires_grad for p in small_model.parameters().values()
                )
                small_model.forward(batch)
        after = {k: p.requires_grad for k, p in small_model.parameters().items()}
        assert after == before
        assert not after["enhance.blend"] and after["lift.weight"]

    def test_gradient_check_still_passes_afterwards(self, small_model, small_windows):
        batch = small_windows.batch(np.arange(3))
        with small_model.inference():
            small_model.forward(batch)
        report = gradient_check(small_model, batch, samples_per_group=2, seed=4)
        assert report.passed, {
            k: g.max_rel_error for k, g in report.groups.items()
        }
