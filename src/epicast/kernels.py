"""The two hot numeric kernels, each with a hand-written backward pass.

* the batched metapopulation SIR rollout (sequential over the horizon), and
* the dilated causal temporal convolution used by the backbone.

Both are plain numpy over batched ``matmul``.  Callers reach them through
``active()`` at call time, which returns the one ``KernelSet``; the layer
tracer of the benchmark wraps that accessor.  The convolution follows its
input's dtype: the temporaries it makes (the bias row, the ones of the bias
gradient's GEMV) take the block's dtype, so a float32 block stays float32
instead of being silently upcast to float64.

Branching conventions: ties in the infection cap route the gradient to the
force term; clamps pass gradient only where the pre-clamp value is strictly
positive.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = ["KernelSet", "active"]


class KernelSet(NamedTuple):
    name: str
    rollout_fwd: Callable
    rollout_bwd: Callable
    conv_fwd: Callable
    conv_bwd: Callable


# Rollout shapes: s0/i0/r0 (B, N); beta/gamma (B, N, T); flows (B, N, N, T)
# in any layout; pop (N,).  Forward returns the predicted cases plus full
# trajectories and the saved masks the backward pass needs.  Both kernels
# work day-major: the flows are read as (T, B, N, N), so each day's coupling
# is a batched matmul over a contiguous (B, N, N) block; the model's flows
# are already stored that way (``adjacency.forecast_mobility``), and flows in
# C order are copied once per call.  The forward keeps S, I and R stacked as
# one (3, B, N) block per day, so that day's clamp masks, clamps and state
# stores are one pass each, and every output leaves as a (B, N, T) view of
# its day-major buffer.  The backward carries the three state adjoints
# stacked the same way; the flow gradient is built day-major and returned as
# a (B, N, N, T) view of that buffer, while the beta and gamma gradients are
# C-ordered, as the layers before the rollout expect.


def _rollout_fwd(s0, i0, r0, beta, gamma, flows, pop):
    B, N, T = beta.shape
    cases = np.empty((T, B, N))
    strength = np.empty((T, B, N))
    cap = np.empty((T, B, N), dtype=np.bool_)
    # day t's start state is states[t]; its end state, clamped, states[t + 1]
    states = np.empty((T + 1, 3, B, N))
    states[0] = s0, i0, r0
    kept = np.empty((T, 3, B, N), dtype=np.bool_)
    inv = 1.0 / pop
    by_day = np.ascontiguousarray(np.moveaxis(flows, 3, 0))
    for t in range(T):
        s, i_cur, r = states[t]
        moved = by_day[t]
        pi = strength[t]
        np.add(
            (moved @ (i_cur * inv)[:, :, None])[:, :, 0],
            (i_cur[:, None, :] @ moved)[:, 0, :] * inv,
            out=pi,
        )
        force = beta[:, :, t] * pi
        capped = np.less_equal(force, s, out=cap[t])
        new_inf = cases[t]
        new_inf[...] = np.where(capped, force, s)
        recovered_now = gamma[:, :, t] * i_cur
        raw = states[t + 1]
        np.subtract(s, new_inf, out=raw[0])
        np.add(i_cur, new_inf, out=raw[1])
        raw[1] -= recovered_now
        np.add(r, recovered_now, out=raw[2])
        np.greater(raw, 0.0, out=kept[t])
        np.maximum(raw, 0.0, out=raw)
    saved = (cases, *states[1:].swapaxes(0, 1), strength, cap, *kept.swapaxes(0, 1))
    return tuple(np.moveaxis(a, 0, -1) for a in saved)  # (T, B, N) -> (B, N, T)


def _rollout_bwd(
    g_cases, s0, i0, r0, beta, gamma, flows, pop, i_traj, strength, cap, ms, mi, mr
):
    B, N, T = beta.shape
    inv = 1.0 / pop
    by_day = np.ascontiguousarray(np.moveaxis(flows, 3, 0))
    kept = np.stack([np.moveaxis(m, -1, 0) for m in (ms, mi, mr)], axis=1)  # (T, 3, B, N)
    g_beta = np.empty_like(beta)
    g_gamma = np.empty_like(gamma)
    # Day t's flow adjoint is g_pi (x) i_prev/P + i_prev (x) g_pi/P: stack the
    # two factor pairs per day and form every day's outer sums in one matmul.
    left = np.empty((T, B, N, 2))
    right = np.empty((T, B, 2, N))
    g_state = np.zeros((3, B, N))  # the S, I and R adjoints
    for t in range(T - 1, -1, -1):
        i_prev = i_traj[:, :, t - 1] if t > 0 else i0
        gamma_t = gamma[:, :, t]
        g_state *= kept[t]
        gs_pre, gi_pre, gr_pre = g_state
        gx = g_cases[:, :, t] + gi_pre - gs_pre
        g_gamma[:, :, t] = i_prev * (gr_pre - gi_pre)
        capped = cap[:, :, t]
        g_force = np.where(capped, gx, 0.0)
        g_beta[:, :, t] = g_force * strength[:, :, t]
        g_pi = g_force * beta[:, :, t]
        g_pi_scaled = g_pi * inv
        moved = by_day[t]
        gi_next = (
            (1.0 - gamma_t) * gi_pre
            + gamma_t * gr_pre
            + (g_pi[:, None, :] @ moved)[:, 0, :] * inv
            + (moved @ g_pi_scaled[:, :, None])[:, :, 0]
        )
        left[t, :, :, 0] = g_pi
        left[t, :, :, 1] = i_prev
        right[t, :, 0, :] = i_prev * inv
        right[t, :, 1, :] = g_pi_scaled
        gs_pre += np.where(capped, 0.0, gx)
        gi_pre[...] = gi_next  # the R adjoint carries over as it is
    g_flows = np.moveaxis(left @ right, 0, 3)
    return g_beta, g_gamma, g_flows


# Conv shapes: x (B, T, N, Ci), time-major and unpadded, so each batch
# element is one (T*N, Ci) block of rows ordered (day, region); weight
# (K, Ci, Co); bias (Co,).  The output is (B, T, N, Co), as long as the
# input.  Tap k reads s = (K - 1 - k) * dilation days into the past, so the
# last tap is aligned with the current day, and the days before the window
# are zeros: output rows from s*N on take input rows up to (T - s)*N, one
# contiguous pair of slices, and a tap with s >= T reads only zeros and is
# skipped.  The backward pairs the same slices the other way round and
# returns (g_x, g_weight, g_bias); given a (B, T, N, Ci) ``g_x``, it adds the
# input gradient into that array in place.


def _conv_fwd(x, weight, bias, dilation):
    K, C_in, C_out = weight.shape
    B, T, N, _ = x.shape
    rows = x.reshape(B, T * N, C_in)
    out = rows @ weight[-1]  # the last tap covers every row
    for k in range(K - 2, -1, -1):
        shift = (K - 1 - k) * dilation
        if shift >= T:
            break  # this tap and the earlier ones read only the zero past
        out[:, shift * N :] += rows[:, : (T - shift) * N] @ weight[k]
    # the bias once per row, added over each batch element's whole block: a
    # (Co,) broadcast would run numpy's inner loop over only Co elements
    per_row = np.empty((T * N, C_out), dtype=out.dtype)
    per_row[...] = bias
    per_element = out.reshape(B, T * N * C_out)
    per_element += per_row.reshape(-1)
    return out.reshape(B, T, N, C_out)


def _conv_bwd(g, x, weight, dilation, g_x=None):
    K, C_in, C_out = weight.shape
    B, T, N, _ = x.shape
    g_rows = g.reshape(B, T * N, C_out)
    x_rows = x.reshape(B, T * N, C_in)
    # (K, C_out, C_in): a transposed view would take BLAS's slower path
    weight_t = np.ascontiguousarray(np.swapaxes(weight, 1, 2))
    g_w = np.zeros_like(weight)  # a tap that reads only zeros has none
    for k in range(K - 1, -1, -1):
        shift = (K - 1 - k) * dilation
        if shift >= T:
            break
        kept = T - shift
        products = (g_rows[:, shift * N :] @ weight_t[k]).reshape(B, kept, N, C_in)
        if g_x is None:
            g_x = products  # the last tap covers every row
        else:
            g_x[:, :kept] += products
        g_w[k] = (np.swapaxes(x_rows[:, : kept * N], 1, 2) @ g_rows[:, shift * N :]).sum(
            axis=0
        )
    rows = g.reshape(-1, C_out)
    g_b = np.ones(rows.shape[0], dtype=rows.dtype) @ rows  # a GEMV: the axis sum is slower
    return g_x, g_w, g_b


_KERNELS = KernelSet("numpy", _rollout_fwd, _rollout_bwd, _conv_fwd, _conv_bwd)


def active() -> KernelSet:
    """The kernel set every fused operation runs on."""
    return _KERNELS
