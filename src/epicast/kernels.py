"""Hot numeric kernels with twin numba and pure-numpy implementations.

Two fused operation pairs live here, each with a hand-written backward pass:

* the batched metapopulation SIR rollout (sequential over the horizon), and
* the dilated causal temporal convolution used by the backbone.

The active backend is chosen at import time from the ``EPICAST_BACKEND``
environment variable: ``numba`` (fail loudly if numba is unavailable),
``numpy`` (force the fallback), or ``auto`` (default: numba when importable).
``use()`` swaps the backend at runtime, which the benchmark and the
equivalence tests rely on.

Both implementations of a kernel follow the same branching conventions
(ties in the infection cap route the gradient to the force term; clamps pass
gradient only where the pre-clamp value is strictly positive), so swapping
backends changes floating-point rounding at worst.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["KernelSet", "active", "available_backends", "select", "use"]


class KernelSet(NamedTuple):
    name: str
    rollout_fwd: Callable
    rollout_bwd: Callable
    conv_fwd: Callable
    conv_bwd: Callable


# --------------------------------------------------------------------- numpy
#
# Rollout shapes: s0/i0/r0 (B, N); beta/gamma (B, N, T); flows (B, N, N, T);
# pop (N,).  Forward returns the predicted cases plus full trajectories and
# the saved masks the backward pass needs.  The numpy kernels copy flows to
# time-major (T, B, N, N) once per call, so each day's coupling is a batched
# matmul over a contiguous (B, N, N) block; the flow gradient is built
# time-major and moved back to (B, N, N, T) at the end.


def _rollout_fwd_numpy(s0, i0, r0, beta, gamma, flows, pop):
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


def _rollout_bwd_numpy(
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


def _conv_fwd_numpy(xpad, weight, bias, dilation):
    K = weight.shape[0]
    T = xpad.shape[2] - (K - 1) * dilation
    out = xpad[:, :, 0:T, :] @ weight[0]
    for k in range(1, K):
        out += xpad[:, :, k * dilation : k * dilation + T, :] @ weight[k]
    out += bias
    return out


def _conv_bwd_numpy(g, xpad, weight, dilation):
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


NUMPY_KERNELS = KernelSet(
    "numpy", _rollout_fwd_numpy, _rollout_bwd_numpy, _conv_fwd_numpy, _conv_bwd_numpy
)


# --------------------------------------------------------------------- numba

try:  # pragma: no cover - exercised indirectly through the backend tests
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None
    _HAVE_NUMBA = False


if _HAVE_NUMBA:

    @njit(cache=True)
    def _rollout_fwd_numba(s0, i0, r0, beta, gamma, flows, pop):
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
        for b in range(B):
            s = s0[b].copy()
            i_cur = i0[b].copy()
            r = r0[b].copy()
            for t in range(T):
                for n in range(N):
                    outward = 0.0
                    inward = 0.0
                    for m in range(N):
                        outward += flows[b, n, m, t] * (i_cur[m] / pop[m])
                        inward += flows[b, m, n, t] * i_cur[m]
                    strength[b, n, t] = outward + inward / pop[n]
                for n in range(N):
                    force = beta[b, n, t] * strength[b, n, t]
                    capped = force <= s[n]
                    new_inf = force if capped else s[n]
                    recovered_now = gamma[b, n, t] * i_cur[n]
                    raw_s = s[n] - new_inf
                    raw_i = i_cur[n] + new_inf - recovered_now
                    raw_r = r[n] + recovered_now
                    cap[b, n, t] = capped
                    ms[b, n, t] = raw_s > 0.0
                    mi[b, n, t] = raw_i > 0.0
                    mr[b, n, t] = raw_r > 0.0
                    s[n] = raw_s if raw_s > 0.0 else 0.0
                    i_cur[n] = raw_i if raw_i > 0.0 else 0.0
                    r[n] = raw_r if raw_r > 0.0 else 0.0
                    cases[b, n, t] = new_inf
                    s_traj[b, n, t] = s[n]
                    i_traj[b, n, t] = i_cur[n]
                    r_traj[b, n, t] = r[n]
        return cases, s_traj, i_traj, r_traj, strength, cap, ms, mi, mr

    @njit(cache=True)
    def _rollout_bwd_numba(
        g_cases, s0, i0, r0, beta, gamma, flows, pop, i_traj, strength, cap, ms, mi, mr
    ):
        B, N, T = beta.shape
        g_beta = np.zeros_like(beta)
        g_gamma = np.zeros_like(gamma)
        g_flows = np.zeros_like(flows)
        for b in range(B):
            gs = np.zeros(N)
            gi = np.zeros(N)
            gr = np.zeros(N)
            gi_next = np.zeros(N)
            g_pi = np.zeros(N)
            for t in range(T - 1, -1, -1):
                for n in range(N):
                    i_prev_n = i_traj[b, n, t - 1] if t > 0 else i0[b, n]
                    gs_pre = gs[n] if ms[b, n, t] else 0.0
                    gi_pre = gi[n] if mi[b, n, t] else 0.0
                    gr_pre = gr[n] if mr[b, n, t] else 0.0
                    gx = g_cases[b, n, t] + gi_pre - gs_pre
                    g_gamma[b, n, t] = i_prev_n * (gr_pre - gi_pre)
                    if cap[b, n, t]:
                        g_force = gx
                        gs[n] = gs_pre
                    else:
                        g_force = 0.0
                        gs[n] = gs_pre + gx
                    g_beta[b, n, t] = g_force * strength[b, n, t]
                    g_pi[n] = g_force * beta[b, n, t]
                    gi_next[n] = (1.0 - gamma[b, n, t]) * gi_pre + gamma[b, n, t] * gr_pre
                    gr[n] = gr_pre
                for m in range(N):
                    i_prev_m = i_traj[b, m, t - 1] if t > 0 else i0[b, m]
                    outward = 0.0
                    inward = 0.0
                    for n in range(N):
                        outward += flows[b, n, m, t] * g_pi[n]
                        inward += flows[b, m, n, t] * (g_pi[n] / pop[n])
                    gi_next[m] += outward / pop[m] + inward
                    for n in range(N):
                        g_flows[b, m, n, t] = (
                            g_pi[m] * (i_traj[b, n, t - 1] if t > 0 else i0[b, n]) / pop[n]
                            + i_prev_m * g_pi[n] / pop[n]
                        )
                for n in range(N):
                    gi[n] = gi_next[n]
        return g_beta, g_gamma, g_flows

    @njit(cache=True)
    def _conv_fwd_numba(xpad, weight, bias, dilation):
        B, N, Tp, Ci = xpad.shape
        K, _, Co = weight.shape
        T = Tp - (K - 1) * dilation
        out = np.empty((B, N, T, Co))
        for b in range(B):
            for n in range(N):
                for t in range(T):
                    for o in range(Co):
                        acc = bias[o]
                        for k in range(K):
                            base = t + k * dilation
                            for ci in range(Ci):
                                acc += xpad[b, n, base, ci] * weight[k, ci, o]
                        out[b, n, t, o] = acc
        return out

    @njit(cache=True)
    def _conv_bwd_numba(g, xpad, weight, dilation):
        B, N, Tp, Ci = xpad.shape
        K, _, Co = weight.shape
        T = g.shape[2]
        g_x = np.zeros_like(xpad)
        g_w = np.zeros_like(weight)
        g_b = np.zeros(Co)
        for b in range(B):
            for n in range(N):
                for t in range(T):
                    for o in range(Co):
                        grad = g[b, n, t, o]
                        g_b[o] += grad
                        for k in range(K):
                            base = t + k * dilation
                            for ci in range(Ci):
                                g_w[k, ci, o] += xpad[b, n, base, ci] * grad
                                g_x[b, n, base, ci] += weight[k, ci, o] * grad
        return g_x, g_w, g_b

    NUMBA_KERNELS = KernelSet(
        "numba", _rollout_fwd_numba, _rollout_bwd_numba, _conv_fwd_numba, _conv_bwd_numba
    )
else:  # pragma: no cover
    NUMBA_KERNELS = None


# ------------------------------------------------------------------ selection


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if NUMBA_KERNELS is not None else ("numpy",)


def select(name: str | None = None) -> KernelSet:
    """Resolve a backend by name, consulting EPICAST_BACKEND when omitted."""
    if name is None:
        name = os.environ.get("EPICAST_BACKEND", "auto")
    name = name.lower()
    if name == "numpy":
        return NUMPY_KERNELS
    if name == "numba":
        if NUMBA_KERNELS is None:
            raise RuntimeError(
                "EPICAST_BACKEND=numba requested but numba is not importable"
            )
        return NUMBA_KERNELS
    if name == "auto":
        return NUMBA_KERNELS if NUMBA_KERNELS is not None else NUMPY_KERNELS
    raise ValueError(f"unknown backend {name!r}; expected numba, numpy, or auto")


_active = select()


def active() -> KernelSet:
    return _active


def use(name: str) -> KernelSet:
    """Swap the active backend (returns the new set)."""
    global _active
    _active = select(name)
    return _active
