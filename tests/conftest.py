"""Shared fixtures: compact model shapes and synthetic worlds for fast tests."""

from __future__ import annotations

from operator import attrgetter

import numpy as np
import pytest

from epicast import datasets, kernels
from epicast.estimator import BackboneConfig
from epicast.pipeline import ForecastModel, ModelConfig


# Tests of the kernels take the kernel set as ``kernel_set``, and their ids
# carry its name.
on_kernel_set = pytest.mark.parametrize(
    "kernel_set", [kernels.active()], ids=attrgetter("name")
)


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
    obs = small_windows.observations
    model.set_scaler(obs.mean(axis=(0, 1, 2)), obs.std(axis=(0, 1, 2)))
    return model


def rng_for(test_tag: int) -> np.random.Generator:
    return np.random.default_rng([97531, test_tag])
