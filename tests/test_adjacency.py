"""Region-coupling construction: mobility forecasting, horizon pooling,
case-pattern retrieval, and the zero-initialized correction blend."""

from __future__ import annotations

import numpy as np
import pytest

from epicast import adjacency, datasets
from epicast.autodiff import Tensor
from epicast.domain import DimensionMismatchError
from epicast.pipeline import ForecastModel

from conftest import initial_group, relu, rng_for, small_model_config, small_scenario


def memory_for(n_regions, tag=200, pattern_count=9, window=7, key_dim=16, embed_dim=16):
    return initial_group(
        "memory", n_regions, seed=tag, pattern_count=pattern_count,
        pattern_window=window, pattern_key_dim=key_dim, pattern_embed_dim=embed_dim,
    )


class TestMobilityForecast:
    def test_neutral_initialization_predicts_window_mean(self):
        rng = rng_for(201)
        model = ForecastModel(small_model_config(t_in=8, t_out=4), n_regions=3)
        flows = rng.uniform(0.0, 50.0, size=(3, 3, 8))
        out = adjacency.forecast_mobility(flows, model.parameters()["mobility.transform"])
        assert out.shape == (3, 3, 4)
        mean = flows.mean(axis=-1)
        for t in range(4):
            np.testing.assert_allclose(out.data[:, :, t], mean, atol=1e-12)

    def test_negative_predictions_clamped(self):
        flows = np.full((1, 1, 2), 3.0)
        out = adjacency.forecast_mobility(flows, Tensor(np.array([[-1.0], [-1.0]])))
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 1)))

    def test_rejects_window_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            adjacency.forecast_mobility(np.ones((2, 2, 5)), Tensor(np.ones((4, 2))))

    def test_tensor_path_returns_tensor(self):
        transform = Tensor(np.full((3, 2), 1.0 / 3), requires_grad=True)
        out = adjacency.forecast_mobility(np.ones((2, 2, 3)), transform)
        assert isinstance(out, Tensor) and out.requires_grad


def clamped_forecast_inputs(rng):
    """Batched flows and a transform with negative entries, so that the
    clamp at zero is active on part of the horizon."""
    history = rng.uniform(0.1, 10.0, size=(2, 3, 3, 5))
    transform = rng.standard_normal((5, 4))
    return history, transform


class TestFusedMobilityForecast:
    """The fused forecast node against central differences and against the
    same map composed from generic tape operations."""

    def test_matches_composed_reference(self):
        rng = rng_for(215)
        history, transform = clamped_forecast_inputs(rng)
        upstream = rng.standard_normal((2, 3, 3, 4))
        results = []
        for build in (
            adjacency.forecast_mobility,
            lambda history, transform: relu(history @ transform),
        ):
            weights = Tensor(transform.copy(), requires_grad=True)
            out = build(history, weights)
            out.backward(upstream)
            results.append([out.data, weights.grad])
        clamped = results[1][0] == 0.0
        assert clamped.any() and not clamped.all()
        for fused, reference in zip(*results):
            np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    @staticmethod
    def fused_and_composed(history, transform, upstream):
        """(flows, transform gradient) of the fused node, then of the
        composed ``relu(history @ transform)``."""
        results = []
        for build in (
            adjacency.forecast_mobility,
            lambda history, transform: relu(history @ transform),
        ):
            weights = Tensor(transform.copy(), requires_grad=True)
            out = build(history, weights)
            out.backward(upstream)
            results.append((out.data, weights.grad))
        return results

    def test_zero_flow_gets_no_gradient(self):
        # a pair whose flows fall on days the non-negative transform does
        # not read forecasts exactly 0: nothing is clamped there, yet the
        # entry passes no gradient, as relu's does, although its history
        # is not zero
        rng = rng_for(216)
        history = rng.uniform(0.1, 10.0, size=(2, 3, 3, 5))
        history[1, 2, 0, 2:] = 0.0
        transform = rng.uniform(0.1, 1.0, size=(5, 4))
        transform[:2] = 0.0
        upstream = rng.standard_normal((2, 3, 3, 4))
        (flows, grad), (ref_flows, ref_grad) = self.fused_and_composed(
            history, transform, upstream
        )
        assert (flows == 0.0).sum() == 4 and (flows[1, 2, 0] == 0.0).all()
        np.testing.assert_allclose(flows, ref_flows, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
        # the entry is inert: moving its upstream gradient moves nothing
        upstream[1, 2, 0] += 100.0
        _, (_, moved) = self.fused_and_composed(history, transform, upstream)
        np.testing.assert_allclose(grad, moved, rtol=1e-12, atol=1e-12)

    def test_unclamped_history_matches_composed_reference(self):
        rng = rng_for(217)
        history = rng.uniform(0.1, 10.0, size=(2, 3, 3, 5))
        transform = rng.uniform(0.05, 1.0, size=(5, 4))
        upstream = rng.standard_normal((2, 3, 3, 4))
        (flows, grad), (ref_flows, ref_grad) = self.fused_and_composed(
            history, transform, upstream
        )
        assert (flows > 0.0).all()
        np.testing.assert_allclose(flows, ref_flows, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_regions", [3, 8])
    def test_panel_window_view_matches_gathered_copy_bitwise(self, n_regions):
        data = datasets.generate_synthetic(small_scenario(n_regions=n_regions, length=40))
        windows = datasets.windowize(data, 8, 4)
        view = windows.batch(slice(2, 7)).mobility
        gathered = windows.batch(np.arange(2, 7)).mobility
        assert not view.flags.writeable and gathered.flags.c_contiguous
        rng = rng_for(218)
        transform = rng.standard_normal((8, 4))  # clamps part of the horizon
        upstream = rng.standard_normal(gathered.shape[:-1] + (4,))
        results = []
        for history in (view, gathered):
            weights = Tensor(transform.copy(), requires_grad=True)
            out = adjacency.forecast_mobility(history, weights)
            out.backward(upstream)
            results.append((out.data.tobytes(), weights.grad.tobytes()))
        assert (out.data == 0.0).any()
        assert results[0] == results[1]

    def test_gradients_match_finite_differences(self):
        rng = rng_for(216)
        history, transform = clamped_forecast_inputs(rng)
        weights = rng.standard_normal((2, 3, 3, 4))

        def forward(values: np.ndarray) -> Tensor:
            return adjacency.forecast_mobility(history, Tensor(values))

        assert (forward(transform).data == 0.0).any()
        tensor = Tensor(transform.copy(), requires_grad=True)
        (adjacency.forecast_mobility(history, tensor) * weights).sum().backward()
        numeric = np.empty_like(transform)
        flat, slope = transform.ravel(), numeric.ravel()
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + 1e-6
            hi = float((forward(transform).data * weights).sum())
            flat[k] = keep - 1e-6
            lo = float((forward(transform).data * weights).sum())
            flat[k] = keep
            slope[k] = (hi - lo) / 2e-6
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)


class TestPoolMobility:
    def test_average_over_horizon(self):
        rng = rng_for(202)
        flows = rng.uniform(0, 10, size=(3, 3, 5))
        pooled = adjacency.pool_mobility(Tensor(flows))
        assert pooled.shape == (3, 3)
        np.testing.assert_allclose(pooled.data, flows.mean(axis=-1), atol=1e-12)

    def test_batched(self):
        rng = rng_for(203)
        flows = rng.uniform(0, 10, size=(4, 3, 3, 5))
        pooled = adjacency.pool_mobility(Tensor(flows))
        assert pooled.shape == (4, 3, 3)
        np.testing.assert_allclose(pooled.data, flows.mean(axis=-1))


class TestExtractPattern:
    def test_zero_mean_unit_spread(self):
        rng = rng_for(204)
        series = rng.uniform(0, 100, size=(6, 7))
        pattern = adjacency.extract_pattern(series)
        np.testing.assert_allclose(pattern.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(pattern.std(axis=-1), 1.0, atol=1e-6)

    def test_constant_window_maps_to_zero(self):
        pattern = adjacency.extract_pattern(np.full((3, 7), 42.0))
        np.testing.assert_array_equal(pattern, np.zeros((3, 7)))

    def test_scale_invariance(self):
        rng = rng_for(205)
        series = rng.uniform(1, 5, size=(2, 9))
        base = adjacency.extract_pattern(series)
        scaled = adjacency.extract_pattern(series * 1000.0)
        np.testing.assert_allclose(base, scaled, atol=1e-6)


class TestRetrieval:
    def test_shapes(self):
        memory = memory_for(4, pattern_count=5, window=7, key_dim=8, embed_dim=6)
        pattern = rng_for(206).standard_normal((4, 7))
        rep = adjacency.retrieve_representation(pattern, memory)
        assert rep.shape == (4, 6)
        corr = adjacency.case_adjacency(rep, memory)
        assert corr.shape == (4, 4)

    def test_batched_shapes(self):
        memory = memory_for(3, pattern_count=4, window=5, key_dim=8, embed_dim=8)
        pattern = rng_for(207).standard_normal((2, 3, 5))
        rep = adjacency.retrieve_representation(pattern, memory)
        assert rep.shape == (2, 3, 8)
        corr = adjacency.case_adjacency(rep, memory)
        assert corr.shape == (2, 3, 3)

    def test_retrieval_is_convex_blend_of_projected_bank(self):
        # with a single bank entry, attention weights are exactly 1 and the
        # output is that entry's value projection pushed through the head map
        memory = memory_for(2, pattern_count=1, window=4, key_dim=3, embed_dim=3)
        pattern = rng_for(208).standard_normal((2, 4))
        rep = adjacency.retrieve_representation(pattern, memory)
        value = memory["patterns"] @ memory["value_weight"] + memory["value_bias"]
        expected = value @ memory["output_weight"] + memory["output_bias"]
        np.testing.assert_allclose(rep.data, np.broadcast_to(expected.data, (2, 3)), atol=1e-12)

    def test_zero_scale_kills_correction(self):
        memory = memory_for(3)
        rep = Tensor(rng_for(209).standard_normal((3, 16)))
        corr = adjacency.case_adjacency(rep, memory)
        np.testing.assert_array_equal(corr.data, np.zeros((3, 3)))

    def test_correction_scales_linearly(self):
        memory = memory_for(3)
        rep = Tensor(rng_for(210).standard_normal((3, 16)))
        memory["scale"] = Tensor(np.array(0.5))
        half = adjacency.case_adjacency(rep, memory).data
        memory["scale"] = Tensor(np.array(1.0))
        full = adjacency.case_adjacency(rep, memory).data
        np.testing.assert_allclose(2.0 * half, full, atol=1e-12)


class TestCompose:
    def test_zero_correction_reproduces_pooled_bitwise(self):
        rng = rng_for(211)
        pooled = rng.uniform(0, 5, size=(4, 4))
        out = adjacency.compose_adjacency(Tensor(pooled), Tensor(np.zeros((4, 4))))
        np.testing.assert_array_equal(out.data, pooled)

    def test_addition(self):
        pooled = Tensor(np.full((2, 2), 1.0))
        corr = Tensor(np.full((2, 2), 0.25))
        np.testing.assert_array_equal(
            adjacency.compose_adjacency(pooled, corr).data, np.full((2, 2), 1.25)
        )


class TestGradientFlow:
    def test_full_path_differentiable(self):
        rng = rng_for(212)
        n, t_in, t_out = 3, 6, 4
        memory = memory_for(n, tag=213, pattern_count=4, window=5, key_dim=6, embed_dim=6)
        memory["scale"] = Tensor(np.array(0.7), requires_grad=True)
        memory["patterns"] = Tensor(memory["patterns"].data, requires_grad=True)
        transform = Tensor(np.full((t_in, t_out), 1.0 / t_in), requires_grad=True)
        flows = rng.uniform(0.1, 10.0, size=(n, n, t_in))
        cases = rng.uniform(0, 50, size=(n, 5))

        horizon = adjacency.forecast_mobility(flows, transform)
        pooled = adjacency.pool_mobility(horizon)
        pattern = adjacency.extract_pattern(cases)
        rep = adjacency.retrieve_representation(pattern, memory)
        corr = adjacency.case_adjacency(rep, memory)
        total = adjacency.compose_adjacency(pooled, corr)
        assert isinstance(total, Tensor)
        total.sum().backward()
        assert transform.grad is not None and np.abs(transform.grad).sum() > 0
        assert memory["scale"].grad is not None
        assert memory["patterns"].grad is not None
