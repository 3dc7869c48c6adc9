"""Learned per-region, per-day infection and recovery rates.

The estimation path: raw observation channels are lifted by a pointwise
affine map; a region-to-region dependency matrix is formed by gating a
dynamic component (multi-head self-attention scores over regions, averaged
across heads and time) against a static learnable prior (row-softmaxed,
identity at initialization); the regularized dependency spatially smooths
the lifted features (blend factor starts at zero, so the untouched features
pass through at initialization); a stack of gated dilated causal
convolutions with graph mixing distills the window into one latent vector
per region and horizon day; two sigmoid heads read off the rates.

All operations accept plain ndarrays or autodiff Tensors, batched
(leading B axis) or single-instance.  Two layers are fused tape nodes
built with ``make_op``, each with a hand-derived backward: the attention
dependency (a closed-form softmax Jacobian-vector product, so none of its
(B, H, T, N, N) intermediates is recorded) and the dilated causal
convolution (on the active kernel backend).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor, make_op
from .domain import DimensionMismatchError, ValidationError

__all__ = [
    "Backbone",
    "BackboneConfig",
    "FusionGate",
    "ParameterHeads",
    "SpatialPrior",
    "dilated_causal_conv",
    "dynamic_dependency",
    "enhance_features",
    "estimate_params",
    "fuse_dependencies",
    "lift_features",
    "regularize_dependency",
    "static_dependency",
]

_EPSILON = 1e-8


def _glorot(rng: np.random.Generator, n_in: int, n_out: int, *lead) -> np.ndarray:
    bound = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, size=(*lead, n_in, n_out))


# ------------------------------------------------------------------ feature ops


def lift_features(observations, weight, bias):
    """Pointwise affine lift across the channel axis: (..., C) -> (..., C')."""
    return ad.matmul(observations, weight) + bias


def dynamic_dependency(lifted, query_weight, key_weight, heads: int):
    """Region dependency from attention scores, averaged over heads and time.

    ``lifted`` is (B, N, T, C) or (N, T, C).  Per head and timestep the
    scaled dot-product attention scores over regions are row-softmaxed; the
    returned (B, N, N) (or (N, N)) matrix is their mean, hence row-stochastic.

    One fused tape node: the forward keeps only the (B, H, T, N, N) softmax
    rows, and the backward applies the closed-form softmax Jacobian to the
    pooled gradient, which the mean hands to every head and day alike.
    """
    data = ad.as_data(lifted)
    q_data = ad.as_data(query_weight)
    k_data = ad.as_data(key_weight)
    squeeze = data.ndim == 3
    batched = data[None] if squeeze else data
    batch, regions, days, channels = batched.shape
    if channels % heads != 0:
        raise DimensionMismatchError(
            f"{heads} attention heads do not evenly divide {channels} channels"
        )
    head_dim = channels // heads
    scale = np.sqrt(head_dim)
    flat_lifted = batched.reshape(-1, channels)

    def split_heads(projected: np.ndarray) -> np.ndarray:
        # (B*N*T, C) -> (B, H, T, N, head)
        return projected.reshape(batch, regions, days, heads, head_dim).transpose(
            0, 3, 2, 1, 4
        )

    query = split_heads(flat_lifted @ q_data)
    key = split_heads(flat_lifted @ k_data)
    rows = query @ np.swapaxes(key, -1, -2)
    rows /= scale
    rows -= rows.max(axis=-1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    count = heads * days
    pooled = rows.sum(axis=(1, 2)) * (1.0 / count)
    out_shape = (regions, regions) if squeeze else pooled.shape
    tracked = [t for t in (lifted, query_weight, key_weight) if isinstance(t, Tensor)]
    if not tracked:
        return pooled.reshape(out_shape)

    def backward(g: np.ndarray) -> None:
        # d(mean)/d(scores) for one (head, day) block is P * (G - rowsum(G * P));
        # the 1/(H*T) of the mean and the 1/sqrt(d) of the scores fold into G.
        upstream = (g.reshape(batch, 1, 1, regions, regions) * (1.0 / count)) / scale
        g_scores = rows * upstream
        row_dot = g_scores.sum(axis=-1, keepdims=True)
        np.subtract(upstream, row_dot, out=g_scores)
        g_scores *= rows
        # (B, H, T, N, head) -> (B*N*T, C)
        g_query = (g_scores @ key).transpose(0, 3, 2, 1, 4).reshape(-1, channels)
        g_key = (np.swapaxes(g_scores, -1, -2) @ query).transpose(
            0, 3, 2, 1, 4
        ).reshape(-1, channels)
        if isinstance(lifted, Tensor) and lifted.requires_grad:
            g_flat = g_query @ q_data.T + g_key @ k_data.T
            lifted._accumulate(g_flat.reshape(data.shape))
        if isinstance(query_weight, Tensor) and query_weight.requires_grad:
            query_weight._accumulate(flat_lifted.T @ g_query)
        if isinstance(key_weight, Tensor) and key_weight.requires_grad:
            key_weight._accumulate(flat_lifted.T @ g_key)

    return make_op(pooled.reshape(out_shape), tracked, backward)


@dataclass
class SpatialPrior:
    """Learnable static region-relation logits; identity at initialization."""

    weights: object

    @staticmethod
    def initialize(n_regions: int) -> "SpatialPrior":
        return SpatialPrior(np.eye(n_regions))


def static_dependency(prior):
    """Row-softmax the static prior logits into a row-stochastic matrix."""
    weights = prior.weights if isinstance(prior, SpatialPrior) else prior
    return ad.softmax(weights, axis=-1)


@dataclass
class FusionGate:
    """Entrywise 2-to-1 affine gate deciding the dynamic/static blend."""

    node_weight: object
    struct_weight: object
    bias: object

    @staticmethod
    def initialize() -> "FusionGate":
        return FusionGate(np.zeros(()), np.zeros(()), np.zeros(()))

    def named_arrays(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def fuse_dependencies(node_adj, struct_adj, gate: FusionGate):
    """Convex per-entry blend of the dynamic and static dependency maps."""
    logits = (
        gate.node_weight * node_adj + gate.struct_weight * struct_adj + gate.bias
    )
    opening = ad.sigmoid(logits)
    return opening * node_adj + (1.0 - opening) * struct_adj


def regularize_dependency(fused):
    """Symmetrize, clamp at zero, then row-normalize (guarded by 1e-8)."""
    symmetric = (fused + ad.swapaxes(fused, -1, -2)) * 0.5
    rectified = ad.relu(symmetric)
    return rectified / (ad.summation(rectified, axis=-1, keepdims=True) + _EPSILON)


def enhance_features(lifted, dependency, blend):
    """Blend features with their dependency-weighted neighborhood average.

    ``blend`` is the scalar mixing factor (zero keeps the lifted features
    bit-for-bit).  ``dependency`` rows weight the regions being averaged.
    """
    squeeze = ad.as_data(lifted).ndim == 3
    if squeeze:
        lifted = ad.reshape(lifted, (1, *ad.as_data(lifted).shape))
        if ad.as_data(dependency).ndim == 2:
            dependency = ad.reshape(dependency, (1, *ad.as_data(dependency).shape))
    batch, regions, days, channels = ad.as_data(lifted).shape
    flat = ad.reshape(lifted, (batch, regions, days * channels))
    mixed = ad.reshape(ad.matmul(dependency, flat), (batch, regions, days, channels))
    out = (1.0 - blend) * lifted + blend * mixed
    if squeeze:
        out = ad.reshape(out, (regions, days, channels))
    return out


# ---------------------------------------------------------------- convolution


def dilated_causal_conv(x, weight, bias, dilation: int):
    """Left-padded dilated convolution along the time axis of (B, N, T, C).

    ``weight`` is (taps, C_in, C_out).  Output keeps the input length; tap
    k reads ``dilation * k`` steps into the past... the last tap is aligned
    with the current step.  Forward and backward run on the active kernel
    backend.
    """
    kern = kernels.active()
    x_data = np.ascontiguousarray(ad.as_data(x))
    w_data = np.ascontiguousarray(ad.as_data(weight))
    b_data = np.ascontiguousarray(ad.as_data(bias))
    taps = w_data.shape[0]
    pad = (taps - 1) * dilation
    xpad = np.ascontiguousarray(
        np.pad(x_data, ((0, 0), (0, 0), (pad, 0), (0, 0)))
    )
    out = kern.conv_fwd(xpad, w_data, b_data, dilation)
    tracked = [t for t in (x, weight, bias) if isinstance(t, Tensor)]
    if not tracked:
        return out

    def backward(g: np.ndarray) -> None:
        g_x, g_w, g_b = kern.conv_bwd(
            np.ascontiguousarray(g), xpad, w_data, dilation
        )
        if isinstance(x, Tensor) and x.requires_grad:
            x._accumulate(g_x[:, :, pad:, :] if pad else g_x)
        if isinstance(weight, Tensor) and weight.requires_grad:
            weight._accumulate(g_w)
        if isinstance(bias, Tensor) and bias.requires_grad:
            bias._accumulate(g_b)

    return make_op(out, tracked, backward)


# ------------------------------------------------------------------- backbone


@dataclass(frozen=True)
class BackboneConfig:
    """Shape of the temporal-graph distillation stack."""

    hidden_dim: int = 16
    skip_dim: int = 32
    output_dim: int = 16
    kernel_size: int = 2
    dilations: tuple[int, ...] = (1, 2, 4, 8)

    @property
    def receptive_field(self) -> int:
        return 1 + (self.kernel_size - 1) * sum(self.dilations)


class Backbone:
    """Gated dilated causal convolutions with graph mixing per layer.

    Each layer: tanh/sigmoid-gated dilated temporal convolutions, a skip
    projection into a shared skip sum, and a graph convolution over the
    row-normalized absolute adjacency plus a learned self-loop map, added
    residually.  The skip sum is read out through an affine channel map and
    an affine time map onto the forecast horizon.
    """

    def __init__(
        self,
        config: BackboneConfig,
        t_in: int,
        t_out: int,
        params: dict[str, object],
    ):
        if config.receptive_field < t_in:
            raise ValidationError(
                f"backbone receptive field {config.receptive_field} cannot see "
                f"the full {t_in}-day window; extend the dilation schedule"
            )
        self.config = config
        self.t_in = t_in
        self.t_out = t_out
        self.params = params

    @staticmethod
    def initialize(
        config: BackboneConfig,
        lifted_channels: int,
        t_in: int,
        t_out: int,
        rng: np.random.Generator,
    ) -> "Backbone":
        hid, skip, out = config.hidden_dim, config.skip_dim, config.output_dim
        taps = config.kernel_size
        params: dict[str, np.ndarray] = {
            "input_weight": _glorot(rng, lifted_channels, hid),
            "input_bias": np.zeros(hid),
        }
        for index in range(len(config.dilations)):
            tag = f"layer{index}_"
            params[tag + "filter_weight"] = _glorot(rng, hid, hid, taps)
            params[tag + "filter_bias"] = np.zeros(hid)
            params[tag + "gate_weight"] = _glorot(rng, hid, hid, taps)
            params[tag + "gate_bias"] = np.zeros(hid)
            params[tag + "neighbor_weight"] = _glorot(rng, hid, hid)
            params[tag + "self_weight"] = _glorot(rng, hid, hid)
            params[tag + "mix_bias"] = np.zeros(hid)
            params[tag + "skip_weight"] = _glorot(rng, hid, skip)
        params["end_weight"] = _glorot(rng, skip, out)
        params["end_bias"] = np.zeros(out)
        params["time_weight"] = _glorot(rng, t_in, t_out)
        params["time_bias"] = np.zeros(t_out)
        return Backbone(config, t_in, t_out, params)

    def named_arrays(self) -> dict[str, object]:
        return dict(self.params)

    def __call__(self, features, adjacency):
        """Distill (B, N, T_in, C) + (B, N, N) into (B, N, T_out, out_dim)."""
        squeeze = ad.as_data(features).ndim == 3
        if squeeze:
            features = ad.reshape(features, (1, *ad.as_data(features).shape))
            if ad.as_data(adjacency).ndim == 2:
                adjacency = ad.reshape(
                    adjacency, (1, *ad.as_data(adjacency).shape)
                )
        batch, regions, days, _ = ad.as_data(features).shape
        if days != self.t_in:
            raise DimensionMismatchError(
                f"backbone built for {self.t_in}-day windows, got {days}"
            )
        p = self.params
        magnitude = ad.absolute(adjacency)
        support = magnitude / (
            ad.summation(magnitude, axis=-1, keepdims=True) + _EPSILON
        )
        x = ad.matmul(features, p["input_weight"]) + p["input_bias"]
        hid = self.config.hidden_dim
        skip_total = None
        for index, dilation in enumerate(self.config.dilations):
            tag = f"layer{index}_"
            filt = dilated_causal_conv(
                x, p[tag + "filter_weight"], p[tag + "filter_bias"], dilation
            )
            gate = dilated_causal_conv(
                x, p[tag + "gate_weight"], p[tag + "gate_bias"], dilation
            )
            h = ad.tanh(filt) * ad.sigmoid(gate)
            contribution = ad.matmul(h, p[tag + "skip_weight"])
            skip_total = (
                contribution if skip_total is None else skip_total + contribution
            )
            flat = ad.reshape(h, (batch, regions, days * hid))
            mixed = ad.reshape(
                ad.matmul(support, flat), (batch, regions, days, hid)
            )
            x = x + (
                ad.matmul(mixed, p[tag + "neighbor_weight"])
                + ad.matmul(h, p[tag + "self_weight"])
                + p[tag + "mix_bias"]
            )
        read = ad.relu(
            ad.matmul(ad.relu(skip_total), p["end_weight"]) + p["end_bias"]
        )
        over_time = ad.swapaxes(read, 2, 3)  # (B, N, out, T_in)
        mapped = ad.matmul(over_time, p["time_weight"]) + p["time_bias"]
        latent = ad.swapaxes(mapped, 2, 3)  # (B, N, T_out, out)
        if squeeze:
            latent = ad.reshape(latent, ad.as_data(latent).shape[1:])
        return latent


@dataclass
class ParameterHeads:
    """Sigmoid read-out heads for the infection and recovery rates."""

    beta_weight: object
    beta_bias: object
    gamma_weight: object
    gamma_bias: object

    @staticmethod
    def initialize(latent_dim: int, rng: np.random.Generator) -> "ParameterHeads":
        # Start the rates in the epidemiologically plausible low range
        # (sigmoid(-1) ~ 0.27 for infection, sigmoid(-2) ~ 0.12 for recovery)
        # rather than at 0.5.  Per-day rates are only weakly identified from
        # short horizons, so a run that begins near a realistic regime avoids
        # the compensating high-recovery/high-infection valley.
        return ParameterHeads(
            beta_weight=_glorot(rng, latent_dim, 1),
            beta_bias=np.full(1, -1.0),
            gamma_weight=_glorot(rng, latent_dim, 1),
            gamma_bias=np.full(1, -2.0),
        )

    def named_arrays(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def estimate_params(latent, heads: ParameterHeads):
    """Map latent (..., T_out, d) to rates in (0, 1): returns (beta, gamma)."""
    shape = ad.as_data(latent).shape[:-1]
    beta = ad.sigmoid(
        ad.reshape(ad.matmul(latent, heads.beta_weight) + heads.beta_bias, shape)
    )
    gamma = ad.sigmoid(
        ad.reshape(ad.matmul(latent, heads.gamma_weight) + heads.gamma_bias, shape)
    )
    return beta, gamma
