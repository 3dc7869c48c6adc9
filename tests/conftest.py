"""Shared fixtures: compact model shapes and synthetic worlds for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from epicast import datasets
from epicast.autodiff import Tensor, make_op
from epicast.estimator import BackboneConfig
from epicast.pipeline import ForecastModel, ModelConfig


def small_model_config(**overrides) -> ModelConfig:
    """A compact configuration whose forward pass runs in milliseconds."""
    base = dict(
        t_in=8,
        t_out=4,
        channels=4,
        pattern_count=4,
        pattern_window=7,
        pattern_key_dim=8,
        pattern_embed_dim=8,
        lifted_channels=8,
        attention_heads=4,
        backbone=BackboneConfig(
            hidden_dim=8,
            skip_dim=8,
            output_dim=8,
            kernel_size=2,
            dilations=(1, 2, 4),
        ),
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_scenario(**overrides) -> datasets.SyntheticScenario:
    """A small, live synthetic world for quick end-to-end flows."""
    base = dict(seed=5, n_regions=3, length=60, noise=0.05)
    base.update(overrides)
    return datasets.SyntheticScenario(**base)


@pytest.fixture
def model_config() -> ModelConfig:
    return small_model_config()


@pytest.fixture
def small_dataset() -> datasets.Dataset:
    return datasets.generate_synthetic(small_scenario())


@pytest.fixture
def small_windows(small_dataset, model_config):
    return datasets.windowize(small_dataset, model_config.t_in, model_config.t_out)


@pytest.fixture
def small_model(model_config, small_windows) -> ForecastModel:
    model = ForecastModel(model_config, n_regions=3, seed=11)
    model.set_scaler(*datasets.channel_scaler(small_windows))
    return model


def initial_group(prefix: str, n_regions: int = 3, seed: int = 0, **overrides) -> dict:
    """A fresh model's ``prefix`` parameters, keyed by short name, as constant
    Tensor copies (``overrides`` adjust ``small_model_config``)."""
    params = ForecastModel(small_model_config(**overrides), n_regions, seed=seed).parameters()
    return {name: Tensor(leaf.data.copy()) for name, leaf in params.group(prefix).items()}


def rng_for(test_tag: int) -> np.random.Generator:
    return np.random.default_rng([97531, test_tag])


def assert_leaves_view_the_table(params) -> None:
    """Every leaf's data, and its grad once written, views the table's buffers."""
    for name, leaf in params.items():
        assert np.shares_memory(leaf.data, params.data), name
        assert leaf.grad is None or np.shares_memory(leaf.grad, params.grad), name


# Tape operations the model does not record (its fused backbone node computes
# tanh and the causal padding itself), for references composed from generic
# operations.


def tanh(value: Tensor) -> Tensor:
    out = np.tanh(value.data)
    return make_op(out, (value,), lambda g: value._accumulate(g * (1.0 - out * out)))


def pad_axis(value: Tensor, axis: int, before: int, after: int = 0) -> Tensor:
    """Zero-pad one axis (causal left-padding of the time axis)."""
    widths = [(0, 0)] * value.ndim
    widths[axis] = (before, after)
    kept = [slice(None)] * value.ndim
    kept[axis] = slice(before, before + value.shape[axis])
    return make_op(
        np.pad(value.data, widths), (value,), lambda g: value._accumulate(g[tuple(kept)])
    )
