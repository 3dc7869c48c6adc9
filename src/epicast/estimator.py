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
(B, H, T, N, N) intermediates is recorded) and the whole backbone (one
convolution per gated layer on the active kernel backend, a closed-form
gate, mixing and readout backward).
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

    Convolution taps are causal: with ``K`` taps, tap ``k`` reads
    ``(K - 1 - k) * dilation`` steps into the past, so the last tap is aligned
    with the current step; the sequence is left-padded with zeros so the
    output keeps the input length.

    The last layer's residual output is never read, so its
    ``neighbor_weight``, ``self_weight`` and ``mix_bias`` are inert: they stay
    in ``params`` (keeping the initialization draws and the checkpoint layout)
    but are not computed with and receive no gradient.
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
        """Distill (B, N, T_in, C) + (B, N, N) into (B, N, T_out, out_dim).

        One fused tape node.  Per layer, the filter and gate convolutions run
        as one convolution over their weights concatenated to 2 x hidden
        output channels, the gate half scaled by 1/2, so that one ``tanh``
        pass gives both ``tanh(f)`` and ``sigmoid(g) = (1 + tanh(g / 2)) / 2``.
        The skip projections of all layers are one GEMM over the layers'
        outputs stacked along channels.  The forward keeps each layer's padded
        input and activations; the backward differentiates the gate, mixing,
        readout and adjacency normalization in closed form.
        """
        feat = ad.as_data(features)
        adj = ad.as_data(adjacency)
        squeeze = feat.ndim == 3
        if squeeze:
            feat = feat[None]
        batch, regions, days, channels = feat.shape
        if days != self.t_in:
            raise DimensionMismatchError(
                f"backbone built for {self.t_in}-day windows, got {days}"
            )
        adj3 = adj[None] if adj.ndim == 2 else adj
        hid, layers = self.config.hidden_dim, len(self.config.dilations)
        rows, width = batch * regions * days, days * hid
        p = self.params
        data = {name: ad.as_data(value) for name, value in p.items()}
        tags = [f"layer{index}_" for index in range(layers)]
        conv_weights = [
            np.concatenate(
                (data[tag + "filter_weight"], 0.5 * data[tag + "gate_weight"]), axis=-1
            )
            for tag in tags
        ]
        conv_biases = [
            np.concatenate((data[tag + "filter_bias"], 0.5 * data[tag + "gate_bias"]))
            for tag in tags
        ]
        skip_weight = np.concatenate([data[tag + "skip_weight"] for tag in tags])
        kern = kernels.active()

        magnitude = np.abs(adj3)
        norm = magnitude.sum(axis=-1, keepdims=True) + _EPSILON
        support = magnitude / norm
        flat_feat = feat.reshape(rows, channels)
        x = flat_feat @ data["input_weight"] + data["input_bias"]
        stacked = np.empty((rows, layers * hid))  # every layer's h, side by side
        padded, tanhs, sigmoids = [], [], []
        for index, (tag, dilation) in enumerate(zip(tags, self.config.dilations)):
            pad = (self.config.kernel_size - 1) * dilation
            xpad = np.zeros((batch, regions, days + pad, hid))
            xpad[:, :, pad:, :] = x.reshape(batch, regions, days, hid)
            z = kern.conv_fwd(xpad, conv_weights[index], conv_biases[index], dilation)
            z = z.reshape(rows, 2 * hid)
            np.tanh(z, out=z)
            sg = z[:, hid:] * 0.5
            sg += 0.5
            h = z[:, :hid] * sg
            stacked[:, index * hid : (index + 1) * hid] = h
            padded.append(xpad)
            tanhs.append(z)
            sigmoids.append(sg)
            if index < layers - 1:
                mixed = (support @ h.reshape(batch, regions, width)).reshape(rows, hid)
                x += mixed @ data[tag + "neighbor_weight"]
                x += h @ data[tag + "self_weight"]
                x += data[tag + "mix_bias"]
        skip_total = stacked @ skip_weight
        skip_read = np.maximum(skip_total, 0.0)
        read = np.maximum(skip_read @ data["end_weight"] + data["end_bias"], 0.0)
        out_dim = read.shape[-1]
        # (B, N, T_in, out) -> (B*N*out, T_in) for the time map
        over_time = read.reshape(batch, regions, days, out_dim).transpose(0, 1, 3, 2)
        over_time = over_time.reshape(-1, days)
        mapped = over_time @ data["time_weight"] + data["time_bias"]
        latent = np.ascontiguousarray(
            mapped.reshape(batch, regions, out_dim, self.t_out).transpose(0, 1, 3, 2)
        )
        if squeeze:
            latent = latent[0]

        inert = {tags[-1] + name for name in ("neighbor_weight", "self_weight", "mix_bias")}
        live = {name: value for name, value in p.items() if name not in inert}
        tracked = [
            t for t in (features, adjacency, *live.values()) if isinstance(t, Tensor)
        ]
        if not tracked:
            return latent

        def wants(value) -> bool:
            return isinstance(value, Tensor) and value.requires_grad

        def backward(g: np.ndarray) -> None:
            grads: dict[str, np.ndarray] = {}
            ones = np.ones(max(rows, batch * regions * out_dim))

            def column_sums(block: np.ndarray) -> np.ndarray:
                # a GEMV: numpy's axis-0 reduction is several times slower here
                return ones[: block.shape[0]] @ block

            # time map, then the channel readout, back to the skip sum
            g_mapped = g.reshape(batch, regions, self.t_out, out_dim).transpose(0, 1, 3, 2)
            g_mapped = g_mapped.reshape(-1, self.t_out)
            grads["time_bias"] = column_sums(g_mapped)
            grads["time_weight"] = over_time.T @ g_mapped
            g_read = (g_mapped @ data["time_weight"].T).reshape(
                batch, regions, out_dim, days
            )
            g_read = g_read.transpose(0, 1, 3, 2).reshape(rows, out_dim)
            g_read *= read > 0.0
            grads["end_bias"] = column_sums(g_read)
            grads["end_weight"] = skip_read.T @ g_read
            g_skip = g_read @ data["end_weight"].T
            g_skip *= skip_total > 0.0
            g_skip_weight = stacked.T @ g_skip
            g_stacked = g_skip @ skip_weight.T
            g_support = np.zeros((batch, regions, regions)) if wants(adjacency) else None
            g_x = None  # gradient of the current layer's residual output
            for index in range(layers - 1, -1, -1):
                tag, dilation = tags[index], self.config.dilations[index]
                columns = slice(index * hid, (index + 1) * hid)
                grads[tag + "skip_weight"] = g_skip_weight[columns]
                g_h = g_stacked[:, columns]
                if g_x is not None:
                    # x_next = x + (support @ h) @ W_nb + h @ W_self + b: the
                    # neighbor terms go through P = support^T @ g_x.
                    h = np.ascontiguousarray(stacked[:, columns])
                    g_flat = g_x.reshape(batch, regions, width)
                    pulled = (np.swapaxes(support, -1, -2) @ g_flat).reshape(rows, hid)
                    grads[tag + "mix_bias"] = column_sums(g_x)
                    grads[tag + "self_weight"] = h.T @ g_x
                    grads[tag + "neighbor_weight"] = h.T @ pulled
                    g_h = g_h + pulled @ data[tag + "neighbor_weight"].T
                    g_h += g_x @ data[tag + "self_weight"].T
                    if g_support is not None:
                        g_mixed = g_x @ data[tag + "neighbor_weight"].T
                        g_support += g_mixed.reshape(batch, regions, width) @ np.swapaxes(
                            h.reshape(batch, regions, width), -1, -2
                        )
                # h = tanh(f) * sg with sg = (1 + tanh(u)) / 2 and u = g / 2:
                #   g_f = g_h * sg * (1 - tanh(f)^2)
                #   g_u = g_h * tanh(f) / 2 * (1 - tanh(u)^2), i.e. 2 * g_g.
                # The saved tanh block becomes the conv's upstream gradient in
                # place (this closure runs once per walk).
                z, sg = tanhs[index], sigmoids[index]
                g_f = g_h * sg
                g_u = g_h * z[:, :hid]
                g_u *= 0.5
                np.multiply(z, z, out=z)
                np.subtract(1.0, z, out=z)
                z[:, :hid] *= g_f
                z[:, hid:] *= g_u
                pad = (self.config.kernel_size - 1) * dilation
                g_xpad, g_w, g_b = kern.conv_bwd(
                    z.reshape(batch, regions, days, 2 * hid),
                    padded[index],
                    conv_weights[index],
                    dilation,
                )
                # the conv saw the gate weights halved
                grads[tag + "filter_weight"] = g_w[..., :hid]
                grads[tag + "gate_weight"] = 0.5 * g_w[..., hid:]
                grads[tag + "filter_bias"] = g_b[:hid]
                grads[tag + "gate_bias"] = 0.5 * g_b[hid:]
                g_conv = g_xpad[:, :, pad:, :].reshape(rows, hid)
                g_x = g_conv if g_x is None else g_x + g_conv
            grads["input_bias"] = column_sums(g_x)
            grads["input_weight"] = flat_feat.T @ g_x
            for name, value in live.items():
                if wants(value):
                    value._accumulate(grads[name])
            if wants(features):
                features._accumulate(
                    (g_x @ data["input_weight"].T).reshape(ad.as_data(features).shape)
                )
            if g_support is not None:
                # support = |A| / (rowsum|A| + eps), then d|A|/dA = sign(A)
                g_magnitude = g_support - (g_support * support).sum(axis=-1, keepdims=True)
                g_magnitude /= norm
                g_magnitude *= np.sign(adj3)
                adjacency._accumulate(
                    ad.unbroadcast(g_magnitude, adj3.shape).reshape(adj.shape)
                )

        return make_op(latent, tracked, backward)


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
