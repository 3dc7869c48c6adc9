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

    One fused tape node.  The forward is one stacked matmul that runs a GEMM
    per window (the last three axes), ``transform.T @ window.T`` on that
    window's (N·N, T_in) rows, each written into its own columns of one
    day-major (T_out, ...·N·N) buffer, which is then clamped in place;
    the result is a (..., N, N, T_out) view of it, from which the rollout
    kernels take each day's flows without a copy.  A window's rows are a
    view for a gathered batch and for a read-only slice of a ``WindowSet``'s
    panel windows alike, so the forward copies no history.  The backward
    reads the gradient through the same day-major layout, masks it only if
    the forward clamped an entry to zero, and forms the transform gradient
    as ``(g_by_day @ rows).T`` over the (…·N·N, T_in) rows of the whole
    history, which it reshapes (copying a strided view) only when it runs.
    """
    t_in, t_out = transform.shape
    if history.shape[-1] != t_in:
        raise DimensionMismatchError(
            f"transform expects {t_in} input days, history has {history.shape[-1]}"
        )
    lead = history.shape[:-1]
    pairs = lead[-1] * lead[-2]
    windows = history.reshape(-1, pairs, t_in)
    by_day = np.empty((t_out, len(windows), pairs))
    # one stacked matmul: a GEMM per window, each into its own columns
    np.matmul(transform.data.T, windows.transpose(0, 2, 1), out=by_day.transpose(1, 0, 2))
    by_day = by_day.reshape(t_out, -1)  # (T_out, ...·N·N)
    np.maximum(by_day, 0.0, out=by_day)
    flows = np.moveaxis(by_day.reshape(t_out, *lead), 0, -1)

    def backward(g: np.ndarray) -> None:
        # a view when g has the flows' day-major layout
        g_by_day = np.moveaxis(g, -1, 0).reshape(t_out, -1)
        if not by_day.min(initial=np.inf) > 0.0:  # a clamped or NaN entry passes none
            g_by_day = g_by_day * (by_day > 0.0)
        rows = history.reshape(-1, t_in)
        transform._accumulate((g_by_day @ rows).T)

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
