"""Learned region-coupling adjacency from mobility history and case patterns.

Two ingredients are combined:

* a linear per-pair forecast of future mobility, averaged over the horizon
  into a mobility adjacency, and
* a residual correction retrieved from a learnable bank of case-history
  patterns: recent per-region case windows are z-scored, matched against the
  bank with scaled dot-product attention, mapped to a retrieval vector, and
  scored against per-region embeddings.  The correction enters through a
  scalar blend factor initialized to zero, so a freshly initialized model
  reproduces the mobility adjacency exactly.

All operations take and return plain ndarrays or autodiff Tensors (leading
batch dimensions welcome); domain value types stay at the I/O edge.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .domain import DimensionMismatchError

__all__ = [
    "MobilityForecaster",
    "PatternMemory",
    "case_adjacency",
    "compose_adjacency",
    "extract_pattern",
    "forecast_mobility",
    "pool_mobility",
    "retrieve_representation",
]

_EPSILON = 1e-8


@dataclass
class MobilityForecaster:
    """Linear map from the observed window to the forecast horizon.

    ``transform`` has shape (input days, horizon days); each origin,
    destination pair is forecast independently.  The neutral initialization
    predicts every horizon day as the mean of the observed window.
    """

    transform: object

    @staticmethod
    def initialize(t_in: int, t_out: int) -> "MobilityForecaster":
        return MobilityForecaster(np.full((t_in, t_out), 1.0 / t_in))


@dataclass
class PatternMemory:
    """Learnable case-pattern bank plus the retrieval and scoring maps.

    Shapes: ``patterns`` (bank size, window); ``key_weight``/``value_weight``
    (window, key dim) with matching biases; ``output_weight`` (key dim,
    embed dim) with bias; ``region_embeddings`` (regions, embed dim);
    ``scale`` a scalar blend factor, zero at initialization.
    """

    patterns: object
    key_weight: object
    key_bias: object
    value_weight: object
    value_bias: object
    output_weight: object
    output_bias: object
    region_embeddings: object
    scale: object

    @staticmethod
    def initialize(
        n_regions: int,
        rng: np.random.Generator,
        pattern_count: int = 9,
        window: int = 7,
        key_dim: int = 16,
        embed_dim: int = 16,
    ) -> "PatternMemory":
        def dense(n_in: int, n_out: int) -> np.ndarray:
            bound = np.sqrt(6.0 / (n_in + n_out))
            return rng.uniform(-bound, bound, size=(n_in, n_out))

        return PatternMemory(
            patterns=rng.standard_normal((pattern_count, window)),
            key_weight=dense(window, key_dim),
            key_bias=np.zeros(key_dim),
            value_weight=dense(window, key_dim),
            value_bias=np.zeros(key_dim),
            output_weight=dense(key_dim, embed_dim),
            output_bias=np.zeros(embed_dim),
            region_embeddings=rng.standard_normal((n_regions, embed_dim)),
            scale=np.zeros(()),
        )

    @property
    def window(self) -> int:
        return ad.as_data(self.patterns).shape[1]

    def named_arrays(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def forecast_mobility(history, transform):
    """Forecast horizon flows: apply ``transform`` along time, clamp at zero.

    ``history`` is (..., N, N, T_in) and ``transform`` (T_in, T_out); the
    result is (..., N, N, T_out), a Tensor when either input is one.
    """
    t_in = ad.as_data(history).shape[-1]
    if ad.as_data(transform).shape[0] != t_in:
        raise DimensionMismatchError(
            f"transform expects {ad.as_data(transform).shape[0]} input days, "
            f"history has {t_in}"
        )
    return ad.relu(ad.matmul(history, transform))


def pool_mobility(horizon):
    """Average forecast flows over the horizon into a mobility adjacency."""
    return ad.mean(horizon, axis=-1)


def extract_pattern(series: np.ndarray) -> np.ndarray:
    """Z-score recent case windows along the last axis (population std).

    A constant window maps to the zero pattern; the standard deviation in
    the denominator is guarded by 1e-8.
    """
    series = np.asarray(series, dtype=np.float64)
    center = series - series.mean(axis=-1, keepdims=True)
    spread = np.sqrt((center * center).mean(axis=-1, keepdims=True))
    return center / (spread + _EPSILON)


def retrieve_representation(pattern, memory: PatternMemory):
    """Attend over the pattern bank and map the blend to a retrieval vector.

    ``pattern`` is (..., window).  The query is the key-space projection of
    the pattern; keys and values are projections of every bank entry; the
    attention weights are a softmax of scaled dot products; the weighted
    value blend passes through the output map.
    """
    key_dim = ad.as_data(memory.key_weight).shape[1]
    query = ad.matmul(pattern, memory.key_weight) + memory.key_bias
    keys = ad.matmul(memory.patterns, memory.key_weight) + memory.key_bias
    values = ad.matmul(memory.patterns, memory.value_weight) + memory.value_bias
    scores = ad.matmul(query, ad.swapaxes(keys, -1, -2)) / np.sqrt(key_dim)
    weights = ad.softmax(scores, axis=-1)
    blended = ad.matmul(weights, values)
    return ad.matmul(blended, memory.output_weight) + memory.output_bias


def case_adjacency(representation, memory: PatternMemory):
    """Score retrievals against region embeddings, scaled by the blend factor.

    Entry (n, m) is ``scale * <representation_n, embedding_m>``; with the
    zero-initialized scale the correction vanishes identically.
    """
    inner = ad.matmul(representation, ad.swapaxes(memory.region_embeddings, -1, -2))
    return memory.scale * inner


def compose_adjacency(pooled, correction):
    """Final adjacency: mobility pooling plus the case correction, unclamped."""
    return pooled + correction
