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

One calling convention, with any leading batch axes: panel data (the
mobility history, the case windows) are ndarrays, learned parameters and
everything computed from them are Tensors, and every layer but the
parameter-free ``extract_pattern`` returns a Tensor.  The learned memory
arrives as a mapping of the ``memory.*`` parameters keyed by short name
(``patterns``, ``key_weight``, ...).  Domain value types stay at the I/O edge.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .domain import DimensionMismatchError

__all__ = [
    "case_adjacency",
    "compose_adjacency",
    "extract_pattern",
    "forecast_mobility",
    "pool_mobility",
    "retrieve_representation",
]

_EPSILON = 1e-8


def forecast_mobility(history: np.ndarray, transform: ad.Tensor) -> ad.Tensor:
    """Forecast horizon flows: apply ``transform`` along time, clamp at zero.

    ``history`` is the (..., N, N, T_in) mobility panel and ``transform``
    the (T_in, T_out) parameter; the result is (..., N, N, T_out).

    One fused tape node.  The forward is one GEMM,
    ``transform.T @ history.reshape(-1, T_in).T``, clamped in place, so the
    flows are stored time-major as a (T_out, ...·N·N) buffer; the result is
    a (..., N, N, T_out) view of it, from which the rollout kernels take each
    day's flows without a copy.  The backward reads the gradient through
    the same time-major layout.
    """
    t_in, t_out = transform.shape
    if history.shape[-1] != t_in:
        raise DimensionMismatchError(
            f"transform expects {t_in} input days, history has {history.shape[-1]}"
        )
    lead = history.shape[:-1]
    rows = history.reshape(-1, t_in)
    by_day = transform.data.T @ rows.T  # (T_out, ...·N·N)
    np.maximum(by_day, 0.0, out=by_day)
    flows = np.moveaxis(by_day.reshape(t_out, *lead), 0, -1)

    def backward(g: np.ndarray) -> None:
        # a view when g has the flows' time-major layout
        g_by_day = np.moveaxis(g, -1, 0).reshape(t_out, -1)
        g_by_day = np.where(by_day > 0.0, g_by_day, 0.0)
        transform._accumulate(rows.T @ g_by_day.T)

    return ad.make_op(flows, (transform,), backward)


def pool_mobility(horizon: ad.Tensor) -> ad.Tensor:
    """Average forecast flows over the horizon into a mobility adjacency."""
    return horizon.mean(axis=-1)


def extract_pattern(series: np.ndarray) -> np.ndarray:
    """Z-score recent case windows along the last axis (population std).

    A constant window maps to the zero pattern; the standard deviation in
    the denominator is guarded by 1e-8.
    """
    series = np.asarray(series, dtype=np.float64)
    center = series - series.mean(axis=-1, keepdims=True)
    spread = np.sqrt((center * center).mean(axis=-1, keepdims=True))
    return center / (spread + _EPSILON)


def retrieve_representation(pattern: np.ndarray, memory: dict) -> ad.Tensor:
    """Attend over the pattern bank and map the blend to a retrieval vector.

    ``pattern`` is (..., window).  The query is the key-space projection of
    the pattern; keys and values are projections of every bank entry
    (``patterns``, (bank size, window)); the attention weights are a softmax
    of scaled dot products; the weighted value blend passes through the
    output map.
    """
    key_weight, key_bias = memory["key_weight"], memory["key_bias"]
    key_dim = key_weight.shape[1]
    query = pattern @ key_weight + key_bias
    keys = memory["patterns"] @ key_weight + key_bias
    values = memory["patterns"] @ memory["value_weight"] + memory["value_bias"]
    scores = (query @ keys.swapaxes(-1, -2)) / np.sqrt(key_dim)
    weights = ad.softmax(scores, axis=-1)
    return (weights @ values) @ memory["output_weight"] + memory["output_bias"]


def case_adjacency(representation: ad.Tensor, memory: dict) -> ad.Tensor:
    """Score retrievals against region embeddings, scaled by the blend factor.

    Entry (n, m) is ``scale * <representation_n, embedding_m>``; with the
    zero-initialized scale the correction vanishes identically.
    """
    inner = representation @ memory["region_embeddings"].swapaxes(-1, -2)
    return memory["scale"] * inner


def compose_adjacency(pooled: ad.Tensor, correction: ad.Tensor) -> ad.Tensor:
    """Final adjacency: mobility pooling plus the case correction, unclamped."""
    return pooled + correction
