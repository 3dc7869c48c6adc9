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
# C order are copied once per call.  Each day loop runs only the recurrence,
# writing through ``out=`` into day-major buffers: the forward the coupling
# strength, force, cap choice and clamped S/I/R update, the backward the S
# and I adjoints.  The rest is one pass over the horizon: the day-major beta,
# gamma, g_cases and 1 - gamma before the loop; after it, the clamp masks
# (``raw > 0`` is ``state > 0`` once clamped), the beta and gamma gradients
# and both factor columns of the flow adjoint.  No day writes the R adjoint,
# so it stays +0.0 and is not carried, but its terms gamma * 0 and 0 - g_I
# stay: they decide the sign of a zero.  Outputs leave as (B, N, T) views of
# day-major buffers; the beta and gamma gradients are C-ordered, as the
# layers before the rollout expect.


def _rollout_fwd(s0, i0, r0, beta, gamma, flows, pop):
    B, N, T = beta.shape
    cases, strength = np.empty((2, T, B, N))
    cap = np.empty((T, B, N), dtype=np.bool_)
    # day t's start state is states[t]; its end state, clamped, states[t + 1]
    states = np.empty((T + 1, 3, B, N))
    states[0] = s0, i0, r0
    inv = np.tile(1.0 / pop, (B, 1))  # a (N,) row would run numpy's inner loop N long
    by_day = np.ascontiguousarray(np.moveaxis(flows, 3, 0))
    beta, gamma = (np.ascontiguousarray(np.moveaxis(a, 2, 0)) for a in (beta, gamma))
    scaled, inbound, force, recovered_now = np.empty((4, B, N))
    # the matmuls' per-day operands and outputs, viewed once
    S, I, R = states.swapaxes(0, 1)
    i_rows, pi_cols = I[:, :, None, :], strength.reshape(T, B, N, 1)
    scaled_col, inbound_row = scaled[:, :, None], inbound.reshape(B, 1, N)
    for t in range(T):
        s, i_cur, r, moved, pi = S[t], I[t], R[t], by_day[t], strength[t]
        np.multiply(i_cur, inv, out=scaled)
        np.matmul(moved, scaled_col, out=pi_cols[t])
        np.matmul(i_rows[t], moved, out=inbound_row)
        inbound *= inv
        pi += inbound
        np.multiply(beta[t], pi, out=force)
        capped = np.less_equal(force, s, out=cap[t])
        new_inf = cases[t]
        new_inf[...] = np.where(capped, force, s)
        np.multiply(gamma[t], i_cur, out=recovered_now)
        np.subtract(s, new_inf, out=S[t + 1])
        np.add(i_cur, new_inf, out=I[t + 1])
        I[t + 1] -= recovered_now
        np.add(r, recovered_now, out=R[t + 1])
        np.maximum(states[t + 1], 0.0, out=states[t + 1])
    kept = states[1:] > 0.0
    saved = (cases, *states[1:].swapaxes(0, 1), strength, cap, *kept.swapaxes(0, 1))
    return tuple(np.moveaxis(a, 0, -1) for a in saved)  # (T, B, N) -> (B, N, T)


def _rollout_bwd(
    g_cases, s0, i0, r0, beta, gamma, flows, pop, i_traj, strength, cap, ms, mi, mr
):
    B, N, T = beta.shape
    inv = np.tile(1.0 / pop, (B, 1))
    by_day = np.ascontiguousarray(np.moveaxis(flows, 3, 0))
    day_major = (np.ascontiguousarray(np.moveaxis(a, 2, 0)) for a in (g_cases, beta, gamma))
    g_cases, beta_by_day, gamma_by_day = day_major
    keep_i, to_r = 1.0 - gamma_by_day, gamma_by_day * 0.0  # to_r: gamma * (R adjoint)
    cap, ms, mi = (np.moveaxis(m, -1, 0) for m in (cap, ms, mi))
    # per day: the I adjoint after its clamp mask, g_force, g_pi and g_pi / P
    gi_kept, g_pi, g_pi_scaled = np.empty((3, T, B, N))
    g_force = np.zeros((T, B, N))
    gs, gi, outbound, inbound = np.zeros((4, B, N))  # the S and I adjoints
    g_pi_rows, g_pi_scaled_cols = g_pi[:, :, None, :], g_pi_scaled[..., None]
    outbound_row, inbound_col = outbound.reshape(B, 1, N), inbound.reshape(B, N, 1)
    for t in range(T - 1, -1, -1):
        gs *= ms[t]
        gi_pre = np.multiply(gi, mi[t], out=gi_kept[t])
        gx = g_cases[t] + gi_pre - gs
        np.copyto(g_force[t], gx, where=cap[t])
        np.multiply(g_force[t], beta_by_day[t], out=g_pi[t])
        np.multiply(g_pi[t], inv, out=g_pi_scaled[t])
        moved = by_day[t]
        np.matmul(g_pi_rows[t], moved, out=outbound_row)
        outbound *= inv
        np.matmul(moved, g_pi_scaled_cols[t], out=inbound_col)
        np.multiply(keep_i[t], gi_pre, out=gi)
        gi += to_r[t]
        gi += outbound
        gi += inbound
        gs += np.where(cap[t], 0.0, gx)
    # Day t's flow adjoint is g_pi (x) i_prev/P + i_prev (x) g_pi/P: stack the
    # two factor pairs per day and form every day's outer sums in one matmul.
    left = np.empty((T, B, N, 2))
    right = np.empty((T, B, 2, N))
    i_prev = left[..., 1]
    i_prev[0], i_prev[1:] = i0, np.moveaxis(i_traj[..., :-1], -1, 0)
    left[..., 0], right[:, :, 1] = g_pi, g_pi_scaled
    np.multiply(i_prev, inv, out=right[:, :, 0])
    g_beta, g_gamma = np.empty_like(beta), np.empty_like(gamma)
    np.multiply(g_force, np.moveaxis(strength, -1, 0), out=np.moveaxis(g_beta, -1, 0))
    np.multiply(i_prev, 0.0 - gi_kept, out=np.moveaxis(g_gamma, -1, 0))
    return g_beta, g_gamma, np.moveaxis(left @ right, 0, 3)


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
