"""Computed work counts for the two fused kernels, derived from shapes only.

Each function takes the arguments a kernel of ``epicast.kernels`` is called
with and returns ``(flop, bytes)``: floating-point operations (a multiply and
an add count as two) and the compulsory traffic of reading every input and
writing every output once (8 bytes per float64, 1 per boolean mask).  These
are computed, not measured: no hardware counter is read.
"""

from __future__ import annotations

F64 = 8


def conv_fwd(xpad, weight, bias, dilation):
    batch, regions, padded, c_in = xpad.shape
    taps, _, c_out = weight.shape
    days = padded - (taps - 1) * dilation
    outputs = batch * regions * days * c_out
    flop = 2 * outputs * c_in * taps + outputs  # tap contractions, then bias
    moved = xpad.size + weight.size + bias.size + outputs
    return flop, F64 * moved


def conv_bwd(g, xpad, weight, dilation):
    taps, c_in, c_out = weight.shape
    outputs = g.size
    # weight and input gradients are one contraction each; bias is a sum
    flop = 4 * outputs * c_in * taps + outputs
    moved = g.size + 2 * xpad.size + 2 * weight.size + c_out
    return flop, F64 * moved


def rollout_fwd(s0, i0, r0, beta, gamma, flows, pop):
    batch, regions, days = beta.shape
    cells = batch * regions * days
    # two (N, N) coupling contractions per day, ~16 elementwise updates per region
    flop = 4 * flows.size + 16 * cells
    floats = 3 * s0.size + 2 * cells + flows.size + pop.size + 5 * cells
    return flop, F64 * floats + 4 * cells


def rollout_bwd(g, s0, i0, r0, beta, gamma, flows, pop, i_traj, strength, *masks):
    batch, regions, days = beta.shape
    cells = batch * regions * days
    # two transposed coupling contractions and the two-term flow gradient
    flop = 7 * flows.size + 20 * cells
    floats = 7 * cells + 2 * flows.size + i0.size + pop.size
    return flop, F64 * floats + len(masks) * cells
