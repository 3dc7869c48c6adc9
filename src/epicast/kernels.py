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


# Rollout shapes: s0/i0/r0 (B, N); beta/gamma (B, N, T); flows (B, N, N, T);
# pop (N,).  Forward returns the predicted cases plus full trajectories and
# the saved masks the backward pass needs.  The kernels read flows
# time-major, as (T, B, N, N), so each day's coupling is a batched matmul
# over a contiguous (B, N, N) block.  The model's flows are already stored
# that way (``adjacency.forecast_mobility``), so this costs no copy; flows in
# C order are copied once per call.  The flow gradient is built time-major
# and returned as a (B, N, N, T) view of that buffer.


def _rollout_fwd(s0, i0, r0, beta, gamma, flows, pop):
    B, N, T = beta.shape
    cases = np.empty((B, N, T))
    s_traj = np.empty((B, N, T))
    i_traj = np.empty((B, N, T))
    r_traj = np.empty((B, N, T))
    strength = np.empty((B, N, T))
    cap = np.empty((B, N, T), dtype=np.bool_)
    ms = np.empty((B, N, T), dtype=np.bool_)
    mi = np.empty((B, N, T), dtype=np.bool_)
    mr = np.empty((B, N, T), dtype=np.bool_)
    inv = 1.0 / pop
    by_day = np.ascontiguousarray(np.moveaxis(flows, 3, 0))
    s, i_cur, r = s0.copy(), i0.copy(), r0.copy()
    for t in range(T):
        moved = by_day[t]
        pi = (moved @ (i_cur * inv)[:, :, None])[:, :, 0] + (
            i_cur[:, None, :] @ moved
        )[:, 0, :] * inv
        strength[:, :, t] = pi
        force = beta[:, :, t] * pi
        capped = force <= s
        cap[:, :, t] = capped
        new_inf = np.where(capped, force, s)
        recovered_now = gamma[:, :, t] * i_cur
        raw_s = s - new_inf
        raw_i = i_cur + new_inf - recovered_now
        raw_r = r + recovered_now
        ms[:, :, t] = raw_s > 0.0
        mi[:, :, t] = raw_i > 0.0
        mr[:, :, t] = raw_r > 0.0
        s = np.maximum(raw_s, 0.0)
        i_cur = np.maximum(raw_i, 0.0)
        r = np.maximum(raw_r, 0.0)
        cases[:, :, t] = new_inf
        s_traj[:, :, t] = s
        i_traj[:, :, t] = i_cur
        r_traj[:, :, t] = r
    return cases, s_traj, i_traj, r_traj, strength, cap, ms, mi, mr


def _rollout_bwd(
    g_cases, s0, i0, r0, beta, gamma, flows, pop, i_traj, strength, cap, ms, mi, mr
):
    B, N, T = beta.shape
    inv = 1.0 / pop
    by_day = np.ascontiguousarray(np.moveaxis(flows, 3, 0))
    g_beta = np.zeros_like(beta)
    g_gamma = np.zeros_like(gamma)
    # Day t's flow adjoint is g_pi (x) i_prev/P + i_prev (x) g_pi/P: stack the
    # two factor pairs per day and form every day's outer sums in one matmul.
    left = np.empty((T, B, N, 2))
    right = np.empty((T, B, 2, N))
    gs = np.zeros((B, N))
    gi = np.zeros((B, N))
    gr = np.zeros((B, N))
    for t in range(T - 1, -1, -1):
        i_prev = i_traj[:, :, t - 1] if t > 0 else i0
        gamma_t = gamma[:, :, t]
        gs_pre = gs * ms[:, :, t]
        gi_pre = gi * mi[:, :, t]
        gr_pre = gr * mr[:, :, t]
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
        gs = gs_pre + np.where(capped, 0.0, gx)
        gi = gi_next
        gr = gr_pre
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
