"""The two hot numeric kernels, each with a hand-written backward pass.

* the batched metapopulation SIR rollout (sequential over the horizon), and
* the dilated causal temporal convolution used by the backbone.

Both are plain numpy over batched ``matmul``.  Callers reach them through
``active()`` at call time, which returns the one ``KernelSet``; the layer
tracer of the benchmark wraps that accessor.

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
# the saved masks the backward pass needs.  The kernels copy flows to
# time-major (T, B, N, N) once per call, so each day's coupling is a batched
# matmul over a contiguous (B, N, N) block; the flow gradient is built
# time-major and moved back to (B, N, N, T) at the end.


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
    g_flows = np.ascontiguousarray(np.moveaxis(left @ right, 0, 3))
    return g_beta, g_gamma, g_flows


# Conv shapes: xpad (B, N, Tp, Ci) already left-padded; weight (K, Ci, Co);
# bias (Co,).  Output time length is Tp - (K - 1) * dilation.  Tap k reads
# (K - 1 - k) * dilation steps into the past: the last tap is aligned with
# the current step.


def _conv_fwd(xpad, weight, bias, dilation):
    K = weight.shape[0]
    T = xpad.shape[2] - (K - 1) * dilation
    out = xpad[:, :, 0:T, :] @ weight[0]
    for k in range(1, K):
        out += xpad[:, :, k * dilation : k * dilation + T, :] @ weight[k]
    out += bias
    return out


def _conv_bwd(g, xpad, weight, dilation):
    K, C_in, C_out = weight.shape
    T = g.shape[2]
    g_x = np.zeros_like(xpad)
    g_w = np.empty_like(weight)
    # One GEMM per tap over all B*N*T rows: einsum never reaches BLAS here.
    for k in range(K):
        window = slice(k * dilation, k * dilation + T)
        g_w[k] = xpad[:, :, window, :].reshape(-1, C_in).T @ g.reshape(-1, C_out)
        g_x[:, :, window, :] += g @ weight[k].T
    rows = g.reshape(-1, C_out)
    g_b = np.ones(rows.shape[0]) @ rows  # a GEMV: the axis reduction is slower
    return g_x, g_w, g_b


_KERNELS = KernelSet("numpy", _rollout_fwd, _rollout_bwd, _conv_fwd, _conv_bwd)


def active() -> KernelSet:
    """The kernel set every fused operation runs on."""
    return _KERNELS
