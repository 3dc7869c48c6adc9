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

All operations work over a leading batch axis B, with one calling
convention: the observations are an ndarray, learned parameters and every
activation computed from them are Tensors, and every layer returns a
Tensor.  Parameters come from the model's table: a layer with one or two
takes them as arguments, and the fusion gate, the backbone and the rate
heads take their group as a mapping keyed by short name (``bias``,
``end_weight``, ...).  Two layers are fused tape nodes built with
``make_op``, each with a hand-derived backward:

* the attention dependency: a closed-form softmax Jacobian-vector product,
  so none of its (B, H, T, N, N) intermediates is recorded; its softmax and
  Jacobian passes run over blocks of whole batch elements sized to stay in
  L2 cache; each softmax row is shifted by a Cauchy-Schwarz bound on its
  scores, so the scaled and shifted scores are one product, and a block in
  which the bound overshoots some row's max by hundreds is recomputed with
  the exact row max; the rows stay unnormalized, and the reciprocals of
  their sums weight the pooling GEMV and the backward's K=2 row factors;
* the whole backbone, over time-major (day, region) rows with no padding:
  separate filter and gate convolutions per gated layer through
  ``kernels.active()``, each giving one contiguous block that the gate
  forward and backward work on in place, and whose two backward calls add
  into one input gradient; a closed-form gate, mixing and readout backward.

Both nodes compute in float32 by default (``dynamic_dependency``'s and
``Backbone``'s ``dtype``): each casts its inputs and parameters once on
entry, and its output and every gradient it hands back leave as float64.
Everything outside the two nodes stays float64: the fusion, regularization
and enhancement around the dependency, the rate heads, the parameter table,
Adam and checkpoints.  float64 serves the finite-difference oracles, which
float32 rounding would swamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor, make_op
from .domain import DimensionMismatchError, check_ranges

__all__ = [
    "Backbone",
    "BackboneConfig",
    "dynamic_dependency",
    "enhance_features",
    "estimate_params",
    "fuse_dependencies",
    "lift_features",
    "regularize_dependency",
    "static_dependency",
]

_EPSILON = 1e-8


# The backbone's channel maps act on (B*T*N, C) row blocks with C of 16 or
# 32.  As one product over all rows they leave BLAS's small-matrix kernels
# and run up to 2.5x slower (bundled OpenBLAS, one thread); one product per
# batch element stays on them.


def _per_element(block: np.ndarray, batch: int) -> np.ndarray:
    """A (rows, C) block as (batch, rows / batch, C)."""
    return block.reshape(batch, len(block) // max(batch, 1), block.shape[-1])


def _rows_times(block: np.ndarray, weight: np.ndarray, batch: int) -> np.ndarray:
    """``block @ weight`` for a (rows, C) block, one product per batch element."""
    return (_per_element(block, batch) @ weight).reshape(len(block), weight.shape[-1])


def _rows_gram(left: np.ndarray, right: np.ndarray, batch: int) -> np.ndarray:
    """``left.T @ right`` over two (rows, C) blocks, summed per batch element."""
    per_element = np.swapaxes(_per_element(left, batch), 1, 2) @ _per_element(right, batch)
    return per_element.sum(axis=0)


# ------------------------------------------------------------------ feature ops


def lift_features(observations: np.ndarray, weight: Tensor, bias: Tensor) -> Tensor:
    """Pointwise affine lift across the channel axis: (..., C) -> (..., C')."""
    return observations @ weight + bias


# The dependency's softmax and Jacobian passes run over blocks of whole batch
# elements whose (H, T, N, N) score rows fit in about one core's L2 cache, so
# each elementwise pass reads its block from cache rather than from memory.
_DEPENDENCY_BLOCK_BYTES = 2 * 1024 * 1024

# A softmax row whose sum of exp(shifted scores) falls below this floor, per
# compute dtype, was shifted by a bound far above its max: its small entries
# fall into the subnormal range, where only an absolute spacing is kept (5e-324
# in float64, 1.4e-45 in float32).  Above the floor that spacing moves a
# softmax entry by less than 1e-123 in float64 and 1e-14 in float32, far below
# either rounding unit; below it, the block is recomputed with the row max.
_SMALLEST_ROW_SUM = {np.dtype(np.float64): 1e-200, np.dtype(np.float32): 1e-30}


def _exp_shifted_by_row_max(block, query, key):
    """exp(scores - row max) into ``block``: the guard for overshot bounds."""
    np.matmul(query, np.swapaxes(key, -1, -2), out=block)
    block -= block.max(axis=-1, keepdims=True)
    np.exp(block, out=block)


def dynamic_dependency(
    lifted: Tensor, query_weight: Tensor, key_weight: Tensor, heads: int,
    dtype=np.float32,
) -> Tensor:
    """Region dependency from attention scores, averaged over heads and time.

    ``lifted`` is (B, N, T, C).  Per head and timestep the scaled
    dot-product attention scores over regions are row-softmaxed; the
    returned (B, N, N) matrix is their mean, hence row-stochastic.

    One fused tape node: the forward keeps only the (B, H, T, N, N) rows of
    exp(shifted scores) and their reciprocal row sums, so a softmax row is
    never normalized in place, and the backward applies the closed-form
    softmax Jacobian to the pooled gradient, which the mean hands to every
    head and day alike.  Both run block by block over the batch
    (``_DEPENDENCY_BLOCK_BYTES``).

    ``dtype`` is the node's compute dtype, float32 or float64, as for
    ``Backbone``: ``lifted`` and both weights are cast once on entry, and
    the projections, the exp rows, their reciprocal sums and every backward
    buffer and product stay in it.  The pooled map and the gradients of
    ``lifted`` and both weights leave as float64.
    """
    dtype = np.dtype(dtype)
    data = np.asarray(lifted.data, dtype=dtype)
    q_data = np.asarray(query_weight.data, dtype=dtype)
    k_data = np.asarray(key_weight.data, dtype=dtype)
    batch, regions, days, channels = data.shape
    if channels % heads != 0:
        raise DimensionMismatchError(
            f"{heads} attention heads do not evenly divide {channels} channels"
        )
    head_dim = channels // heads
    width = head_dim + 1
    scale = math.sqrt(head_dim)  # a Python float keeps float32 blocks float32
    flat_lifted = data.reshape(-1, channels)
    block_elements = max(
        1, _DEPENDENCY_BLOCK_BYTES // (heads * days * regions * regions * dtype.itemsize)
    )
    blocks = [
        slice(start, start + block_elements) for start in range(0, batch, block_elements)
    ]

    def split_heads(projected: np.ndarray) -> np.ndarray:
        """(B*N*T, H*width) -> (B, H, T, N, width), a view."""
        per_head = projected.shape[-1] // heads
        return projected.reshape(batch, regions, days, heads, per_head).transpose(0, 3, 2, 1, 4)

    def projected(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One GEMM: each head's projection plus a spare zero column, as
        (B*N*T, H*(head + 1)), and the (B, N, T, H) norms of its rows."""
        spaced = np.zeros((channels, heads, width), dtype=dtype)
        spaced[:, :, :head_dim] = weight.reshape(channels, heads, head_dim)
        out = flat_lifted @ spaced.reshape(channels, heads * width)
        with np.errstate(over="ignore"):  # a norm past the dtype's range is +inf
            norms = np.sqrt(np.square(out).reshape(-1, width) @ np.ones(width, dtype=dtype))
        return out, norms.reshape(batch, regions, days, heads)

    # The 1/√d of the scores folds into the query weight.  Each row is
    # shifted by the Cauchy-Schwarz bound |q_i|·max_j|k_j| on its scores
    # instead of by its max: with the negated bound in the query's spare
    # column and 1 in the key's, the shifted scores are one product, none
    # exceeds 0, and exp cannot overflow.  A bound past the dtype's range
    # (+inf) makes its row's shifted scores -inf or NaN, and the row sum
    # check below recomputes that block with the row max.
    q_scaled = q_data / scale
    query_flat, bound = projected(q_scaled)
    key_flat, key_norms = projected(k_data)
    with np.errstate(over="ignore", invalid="ignore"):
        bound *= key_norms.max(axis=1, keepdims=True)
    query_ext, key_ext = split_heads(query_flat), split_heads(key_flat)
    np.negative(bound.transpose(0, 3, 2, 1), out=query_ext[..., head_dim])
    key_ext[..., head_dim] = 1.0
    query, key = query_ext[..., :head_dim], key_ext[..., :head_dim]
    count = heads * days

    def by_row(block: np.ndarray) -> np.ndarray:
        """(b, H, T, N, N) as (b, N, H*T, N): row i of every head and day,
        strided by N*N, so that a product over them is one batched GEMV."""
        return np.swapaxes(block.reshape(len(block), count, regions, regions), 1, 2)

    # The softmax P of a row is its exp row E times the reciprocal r of its
    # sum; E and r are kept, and r is applied only where a product meets it.
    grown = np.empty((batch, heads, days, regions, regions), dtype=dtype)
    inverse = np.empty((batch, heads, days, regions), dtype=dtype)
    pooled = np.empty((batch, regions, regions))
    ones = np.ones(regions, dtype=dtype)
    smallest_row_sum = _SMALLEST_ROW_SUM[dtype]
    for part in blocks:
        block = grown[part]
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite bound
            np.matmul(query_ext[part], np.swapaxes(key_ext[part], -1, -2), out=block)
        np.exp(block, out=block)
        sums = block.reshape(-1, regions) @ ones
        if not sums.min() >= smallest_row_sum:  # a NaN row sum too
            _exp_shifted_by_row_max(block, query[part], key[part])
            sums = block.reshape(-1, regions) @ ones
        recips = inverse[part]
        np.divide(1.0, sums.reshape(recips.shape), out=recips)
        # the mean over heads and days of r * E: row i weights its H*T rows
        row_weights = np.swapaxes(recips.reshape(len(block), count, regions), 1, 2)
        mean = (row_weights[:, :, None, :] @ by_row(block))[:, :, 0, :]
        pooled[part] = mean * (1.0 / count)

    def backward(g: np.ndarray) -> None:
        # d(mean)/d(scores) for one (head, day) block is P * (G - rowsum(G * P))
        # = E * (r * G - r^2 * rowsum(G * E)), with the 1/(H*T) of the mean
        # folded into G, and the 1/sqrt(d) of the scores in the scaled query
        # weight.  Row i of r * G - r^2 * rowsum(G * E) over every head and
        # day is one product of K=2, [r, r^2 * rowsum(G * E)] @ [G_i; -1],
        # which beats a broadcast subtraction over the (H, T, N, N) block
        # and leaves no row factor for the (N, head) products.
        mix = np.empty((batch, regions, 2, regions), dtype=dtype)
        np.multiply(g.reshape(batch, regions, regions), 1.0 / count, out=mix[:, :, 0, :])
        mix[:, :, 1, :] = -1.0
        pulled = mix[:, :, 0, :, None]  # the rows of G as GEMV vectors
        size = min(batch, block_elements)
        factors = np.empty((size, regions, count, 2), dtype=dtype)
        g_scores = np.empty((size, heads, days, regions, regions), dtype=dtype)
        # (B*N*T, C) buffers written through (B, H, T, N, head) views
        g_query = np.empty((batch * regions * days, channels), dtype=dtype)
        g_key = np.empty_like(g_query)
        g_query_heads = split_heads(g_query)
        g_key_heads = split_heads(g_key)
        for part in blocks:
            block = grown[part]
            elements = len(block)
            scores, row_dots = g_scores[:elements], factors[:elements]
            recips = np.swapaxes(inverse[part].reshape(elements, count, regions), 1, 2)
            np.matmul(by_row(block), pulled[part], out=row_dots[..., 1:])
            row_dots[..., 0] = recips
            row_dots[..., 1] *= recips
            row_dots[..., 1] *= recips
            np.matmul(row_dots, mix[part], out=by_row(scores))
            scores *= block
            np.matmul(scores, key[part], out=g_query_heads[part])
            np.matmul(np.swapaxes(scores, -1, -2), query[part], out=g_key_heads[part])
        if lifted.requires_grad:
            # contiguous transposes: BLAS's transposed-operand path is slower
            g_flat = g_query @ np.ascontiguousarray(q_scaled.T)
            g_flat += g_key @ np.ascontiguousarray(k_data.T)
            lifted._accumulate(g_flat.reshape(data.shape).astype(np.float64, copy=False))
        if query_weight.requires_grad:
            g_weight = (flat_lifted.T @ g_query) / scale
            query_weight._accumulate(g_weight.astype(np.float64, copy=False))
        if key_weight.requires_grad:
            key_weight._accumulate((flat_lifted.T @ g_key).astype(np.float64, copy=False))

    return make_op(pooled, (lifted, query_weight, key_weight), backward)


def static_dependency(prior: Tensor) -> Tensor:
    """Row-softmax the static prior logits into a row-stochastic matrix."""
    return ad.softmax(prior, axis=-1)


def fuse_dependencies(node_adj: Tensor, struct_adj: Tensor, gate: dict) -> Tensor:
    """Convex per-entry blend of the dynamic and static dependency maps,
    opened by the entrywise affine ``gate`` (``node_weight``,
    ``struct_weight``, ``bias``) through a sigmoid."""
    logits = (
        gate["node_weight"] * node_adj + gate["struct_weight"] * struct_adj + gate["bias"]
    )
    opening = ad.sigmoid(logits)
    return opening * node_adj + (1.0 - opening) * struct_adj


def regularize_dependency(fused: Tensor) -> Tensor:
    """Symmetrize, clamp at zero, then row-normalize (guarded by 1e-8)."""
    symmetric = (fused + fused.swapaxes(-1, -2)) * 0.5
    rectified = ad.relu(symmetric)
    return rectified / (rectified.sum(axis=-1, keepdims=True) + _EPSILON)


def enhance_features(lifted: Tensor, dependency: Tensor, blend: Tensor) -> Tensor:
    """Blend features with their dependency-weighted neighborhood average.

    ``blend`` is the scalar mixing factor (zero keeps the lifted features
    bit-for-bit).  ``dependency`` rows weight the regions being averaged.
    """
    batch, regions, days, channels = lifted.shape
    flat = lifted.reshape(batch, regions, days * channels)
    mixed = (dependency @ flat).reshape(batch, regions, days, channels)
    return (1.0 - blend) * lifted + blend * mixed


# ------------------------------------------------------------------- backbone


@dataclass(frozen=True)
class BackboneConfig:
    """Shape of the temporal-graph distillation stack."""

    hidden_dim: int = 16
    skip_dim: int = 32
    output_dim: int = 16
    kernel_size: int = 2
    dilations: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        sizes = ("hidden_dim", "skip_dim", "output_dim", "kernel_size")
        check_ranges(self, {
            **dict.fromkeys(sizes, ">= 1"),
            "dilations": "a non-empty list of integers >= 1",
        })

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
    with the current step; the days before the window read as zeros, so the
    output keeps the input length.

    ``params`` maps the ``backbone.*`` parameters by short name
    (``input_weight``, ``layer0_filter_weight``, ...).  ``dtype`` is the
    node's compute dtype: float32 runs its small GEMMs and ``tanh`` passes
    1.5-4x faster than float64, and float64 serves the finite-difference
    oracles, which float32 rounding would swamp.  The last layer's
    residual output is never read, so its ``neighbor_weight``,
    ``self_weight`` and ``mix_bias`` are inert: they stay in the table
    (keeping the initialization draws and the checkpoint layout) but are not
    computed with and receive no gradient.
    """

    def __init__(
        self, config: BackboneConfig, t_in: int, t_out: int, params: dict,
        dtype=np.float32,
    ):
        self.config = config
        self.t_in = t_in
        self.t_out = t_out
        self.params = params
        self.dtype = np.dtype(dtype)

    def __call__(self, features: Tensor, adjacency: Tensor) -> Tensor:
        """Distill (B, N, T_in, C) + (B, N, N) into (B, N, T_out, out_dim).

        One fused tape node over time-major buffers: each batch element is
        one (T*N, C) block of rows ordered (day, region), the ``kernels``
        convolution layout, so no row is padding.  Per layer, the filter and
        gate convolutions run as two ``conv_fwd`` calls, so each output is
        one contiguous (B*T*N, hidden) block; the gate's weights and bias are
        halved so that ``tanh`` gives ``sigmoid(g) = (1 + tanh(g / 2)) / 2``,
        and the gate forward and backward run in place on those blocks.  The
        forward keeps, per layer, its input, ``tanh(f)``, the sigmoid and the
        output ``h``; the backward differentiates the gate, mixing, skip
        projections, readout and adjacency normalization in closed form, and
        a layer's two ``conv_bwd`` calls add into the residual's gradient.

        In the compute dtype: the features and parameters, cast once per
        call, every layer buffer, the readout and the time map, and in the
        backward the incoming gradient and the adjacency's gradient sum.  In
        float64: the adjacency's normalization and its backward (only the
        normalized map the mixing reads is cast), the returned latent and
        the features' gradient and every parameter gradient, each cast as it
        leaves the node.
        """
        feat, adj = features.data, adjacency.data
        batch, regions, days, channels = feat.shape
        if days != self.t_in:
            raise DimensionMismatchError(
                f"backbone built for {self.t_in}-day windows, got {days}"
            )
        hid, layers = self.config.hidden_dim, len(self.config.dilations)
        rows = batch * days * regions
        cells = (batch, days, regions, hid)
        dtype = self.dtype
        p = self.params
        data = {name: np.asarray(value.data, dtype=dtype) for name, value in p.items()}
        tags = [f"layer{index}_" for index in range(layers)]
        kern = kernels.active()

        def times(block: np.ndarray, name: str) -> np.ndarray:
            return _rows_times(block, data[name], batch)

        def add_bias(block: np.ndarray, name: str) -> None:
            # the bias once per row, so that its add runs over each batch
            # element's whole block instead of numpy's inner loop over one row
            per_row = np.empty((days * regions, data[name].shape[-1]), dtype=dtype)
            per_row[...] = data[name]
            per_element = block.reshape(batch, per_row.size)
            per_element += per_row.reshape(-1)

        # the normalization stays float64; only the map the mixing reads is cast
        magnitude = np.abs(adj)
        norm = magnitude.sum(axis=-1, keepdims=True) + _EPSILON
        support = magnitude / norm
        mixing = support.astype(dtype, copy=False)[:, None]  # each day's (N, N) map
        feat_rows = np.ascontiguousarray(feat.transpose(0, 2, 1, 3), dtype=dtype)
        feat_rows = feat_rows.reshape(rows, channels)
        x = times(feat_rows, "input_weight")
        add_bias(x, "input_bias")
        inputs, tanhs, sigmoids, outputs = [], [], [], []
        skip_total = None
        for index, (tag, dilation) in enumerate(zip(tags, self.config.dilations)):
            x = x.reshape(cells)
            filt = kern.conv_fwd(
                x, data[tag + "filter_weight"], data[tag + "filter_bias"], dilation
            ).reshape(rows, hid)
            gate = kern.conv_fwd(
                x, 0.5 * data[tag + "gate_weight"], 0.5 * data[tag + "gate_bias"], dilation
            ).reshape(rows, hid)
            np.tanh(filt, out=filt)
            np.tanh(gate, out=gate)
            gate *= 0.5
            gate += 0.5
            h = filt * gate
            skip = times(h, tag + "skip_weight")
            if skip_total is None:
                skip_total = skip
            else:
                skip_total += skip
            inputs.append(x)
            tanhs.append(filt)
            sigmoids.append(gate)
            outputs.append(h)
            if index < layers - 1:
                # x_next = x + ((support @ h) @ W_nb + h @ W_self + b)
                mixed = (mixing @ h.reshape(cells)).reshape(rows, hid)
                update = times(mixed, tag + "neighbor_weight")
                update += times(h, tag + "self_weight")
                add_bias(update, tag + "mix_bias")
                update += x.reshape(rows, hid)
                x = update
        skip_read = np.maximum(skip_total, 0.0)
        read = times(skip_read, "end_weight")
        add_bias(read, "end_bias")
        np.maximum(read, 0.0, out=read)
        out_dim = read.shape[-1]
        # the time map: one (T_out, T_in) @ (T_in, N*out) product per batch element
        by_day = read.reshape(batch, days, regions * out_dim)
        mapped = np.ascontiguousarray(data["time_weight"].T) @ by_day
        mapped += data["time_bias"][:, None]
        latent = np.ascontiguousarray(
            mapped.reshape(batch, self.t_out, regions, out_dim).transpose(0, 2, 1, 3),
            dtype=np.float64,
        )

        inert = {tags[-1] + name for name in ("neighbor_weight", "self_weight", "mix_bias")}
        live = {name: value for name, value in p.items() if name not in inert}

        def backward(g: np.ndarray) -> None:
            grads: dict[str, np.ndarray] = {}
            ones = np.ones(max(rows, regions * out_dim), dtype=dtype)

            def column_sums(block: np.ndarray) -> np.ndarray:
                # a GEMV: numpy's axis-0 reduction is several times slower here
                return ones[: block.shape[0]] @ block

            def gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
                return _rows_gram(left, right, batch)

            def times_t(block: np.ndarray, name: str) -> np.ndarray:
                # a contiguous transpose: BLAS's transposed-operand path is slower
                return _rows_times(block, np.ascontiguousarray(data[name].T), batch)

            def region_major(block: np.ndarray) -> np.ndarray:
                """A (B*T*N, hidden) block as (B, N, T*hidden), copied."""
                by_region = block.reshape(cells).transpose(0, 2, 1, 3)
                return np.ascontiguousarray(by_region).reshape(batch, regions, days * hid)

            # time map, then the channel readout, back to the skip sum
            g_mapped = g.reshape(batch, regions, self.t_out, out_dim).transpose(0, 2, 1, 3)
            g_mapped = np.ascontiguousarray(g_mapped, dtype=dtype)
            g_mapped = g_mapped.reshape(batch, self.t_out, regions * out_dim)
            per_day = g_mapped.reshape(-1, regions * out_dim) @ ones[: regions * out_dim]
            grads["time_bias"] = column_sums(per_day.reshape(batch, self.t_out))
            grads["time_weight"] = (by_day @ np.swapaxes(g_mapped, 1, 2)).sum(axis=0)
            g_read = (data["time_weight"] @ g_mapped).reshape(rows, out_dim)
            g_read *= read > 0.0
            grads["end_bias"] = column_sums(g_read)
            grads["end_weight"] = gram(skip_read, g_read)
            g_skip = times_t(g_read, "end_weight")
            g_skip *= skip_total > 0.0
            g_support = None
            if adjacency.requires_grad:
                g_support = np.zeros((batch, regions, regions), dtype=dtype)
            pulling = np.swapaxes(mixing, -1, -2)
            g_x = None  # gradient of the current layer's residual output, (B, T, N, hidden)
            for index in range(layers - 1, -1, -1):
                tag, dilation = tags[index], self.config.dilations[index]
                h = outputs[index]
                grads[tag + "skip_weight"] = gram(h, g_skip)
                g_h = times_t(g_skip, tag + "skip_weight")
                if g_x is not None:
                    # x_next = x + (support @ h) @ W_nb + h @ W_self + b: the
                    # neighbor terms go through P = support^T @ g_x.
                    pulled = (pulling @ g_x).reshape(rows, hid)
                    g_rows = g_x.reshape(rows, hid)
                    grads[tag + "mix_bias"] = column_sums(g_rows)
                    grads[tag + "self_weight"] = gram(h, g_rows)
                    grads[tag + "neighbor_weight"] = gram(h, pulled)
                    g_h += times_t(pulled, tag + "neighbor_weight")
                    g_h += times_t(g_rows, tag + "self_weight")
                    if g_support is not None:
                        # the sum over days of g_mixed @ h^T: one GEMM per
                        # batch element over region-major copies
                        g_mixed = region_major(times_t(g_rows, tag + "neighbor_weight"))
                        g_support += g_mixed @ np.swapaxes(region_major(h), -1, -2)
                # h = tanh(f) * s with s = sigmoid(g):
                #   g_f = g_h * s * (1 - tanh(f)^2)
                #   g_g = g_h * tanh(f) * s * (1 - s)
                # computed in place in the saved blocks (this closure runs
                # once per walk); the gate's conv backward then takes the
                # unhalved weights, so no gradient needs rescaling.
                t_f, s = tanhs[index], sigmoids[index]
                g_g = g_h * t_f
                g_g *= s
                g_h *= s
                np.subtract(1.0, s, out=s)
                g_g *= s
                np.multiply(t_f, t_f, out=t_f)
                np.subtract(1.0, t_f, out=t_f)
                t_f *= g_h
                # both convolutions add into the residual's gradient
                for name, g_conv in (("filter", t_f), ("gate", g_g)):
                    g_x, grads[tag + name + "_weight"], grads[tag + name + "_bias"] = (
                        kern.conv_bwd(
                            g_conv.reshape(cells), inputs[index],
                            data[tag + name + "_weight"], dilation, g_x=g_x,
                        )
                    )
            g_rows = g_x.reshape(rows, hid)
            grads["input_bias"] = column_sums(g_rows)
            grads["input_weight"] = gram(feat_rows, g_rows)
            for name, value in live.items():
                if value.requires_grad:
                    value._accumulate(grads[name].astype(np.float64, copy=False))
            if features.requires_grad:
                g_feat = times_t(g_rows, "input_weight").reshape(batch, days, regions, channels)
                g_feat = np.ascontiguousarray(g_feat.transpose(0, 2, 1, 3), dtype=np.float64)
                features._accumulate(g_feat)
            if g_support is not None:
                # support = |A| / (rowsum|A| + eps), then d|A|/dA = sign(A)
                g_support = g_support.astype(np.float64, copy=False)
                g_magnitude = g_support - (g_support * support).sum(axis=-1, keepdims=True)
                g_magnitude /= norm
                g_magnitude *= np.sign(adj)
                adjacency._accumulate(g_magnitude)

        return make_op(latent, (features, adjacency, *live.values()), backward)


def estimate_params(latent: Tensor, heads: dict) -> tuple[Tensor, Tensor]:
    """Map latent (..., T_out, d) to rates in (0, 1): returns (beta, gamma).

    ``heads`` holds one sigmoid read-out per rate: ``beta_weight`` (d, 1)
    and ``beta_bias`` (1,), likewise ``gamma_*``.
    """
    shape = latent.shape[:-1]
    beta = ad.sigmoid((latent @ heads["beta_weight"] + heads["beta_bias"]).reshape(shape))
    gamma = ad.sigmoid((latent @ heads["gamma_weight"] + heads["gamma_bias"]).reshape(shape))
    return beta, gamma
