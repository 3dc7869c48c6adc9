"""The rollout kernels against a frozen copy of their earlier form, bit for bit.

``reference_fwd`` and ``reference_bwd`` are the day loops the kernels had
before their per-day work was cut down to the recurrence alone.  Every
output and gradient of ``kernels.active()`` must equal theirs exactly, sign
bits of zeros included, and training on either kernel set must write the
same parameter bytes.  The kernels also write through ``out=`` into buffers
of their own, so neither may alter its inputs or the forward's outputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from epicast import datasets, kernels
from epicast.pipeline import ForecastModel
from epicast.training import Adam, TrainConfig, mae_loss

from conftest import rng_for, small_model_config, small_scenario
from test_metapop import clamp_regimes


def reference_fwd(s0, i0, r0, beta, gamma, flows, pop):
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


def reference_bwd(
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


def forced_regimes(rng, batch, n, horizon):
    """Rollout inputs shaped (batch, n, horizon) in which the infection cap,
    the S clamp and the I and R clamps all fire: about a third of the
    regions start with an empty or tiny susceptible pool, and a quarter are
    dead (no infected, no recovered, no flows)."""
    pop = rng.uniform(100.0, 1e4, size=n)
    i0 = pop * rng.uniform(0.01, 0.2, size=(batch, n))
    r0 = pop * rng.uniform(0.0, 0.2, size=(batch, n))
    s0 = pop - i0 - r0
    starved = rng.random(n) < 0.35
    dead = rng.random(n) < 0.25
    starved[0], dead[-1] = True, n > 1
    s0[:, starved] = pop[starved] * rng.choice([0.0, 1e-4, 1e-2], size=(batch, starved.sum()))
    i0[:, dead] = 0.0
    r0[:, dead] = 0.0
    flows = rng.uniform(0.0, 1.0, size=(batch, n, n, horizon)) * pop[None, None, :, None] * 0.05
    flows[:, dead] = 0.0
    flows[:, :, dead] = 0.0
    beta = rng.uniform(0.01, 0.99, size=(batch, n, horizon))
    gamma = rng.uniform(0.01, 0.99, size=(batch, n, horizon))
    return s0, i0, r0, beta, gamma, flows, pop


def upstream_gradient(rng, shape):
    """A case gradient with both signs and zeros of both signs."""
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.1] = 0.0
    g[rng.random(shape) < 0.1] = -0.0
    return g


def day_major(flows):
    """The model's layout: a (B, N, N, T) view of a (T, B, N, N) buffer."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(flows, 3, 0)), 0, 3)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


def run_both(inputs, g_cases):
    """Forward and backward of the active kernels and of the reference."""
    results = []
    for fwd, bwd in (
        (kernels.active().rollout_fwd, kernels.active().rollout_bwd),
        (reference_fwd, reference_bwd),
    ):
        saved = fwd(*inputs)
        grads = bwd(g_cases, *inputs, saved[2], *saved[4:])
        results.append((*saved, *grads))
    return results


def assert_matches_reference(inputs, g_cases):
    s0, i0, r0, beta, gamma, flows, pop = inputs
    for layout in (flows, day_major(flows)):
        got, want = run_both((s0, i0, r0, beta, gamma, layout, pop), g_cases)
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            assert_bitwise(a, b)


@pytest.mark.parametrize(
    "batch, n, horizon",
    [(1, 8, 14), (23, 8, 14), (32, 8, 14), (8, 64, 14), (5, 1, 14), (6, 8, 1), (1, 1, 1)],
)
def test_matches_reference_bit_for_bit(batch, n, horizon):
    rng = rng_for(701 + 7 * batch + n + horizon)
    inputs = forced_regimes(rng, batch, n, horizon)
    saved = reference_fwd(*inputs)
    if n > 1 and horizon > 1:
        # the cap and every clamp fire somewhere, and some zero is negative
        cap, masks = saved[5], saved[6:]
        assert (~cap).any() and cap.any()
        assert all((~m).any() for m in masks)
    assert_matches_reference(inputs, upstream_gradient(rng, inputs[3].shape))


@settings(max_examples=60, deadline=None)
@given(clamp_regimes())
def test_matches_reference_in_every_branch(case):
    inputs, _, _ = case
    rng = np.random.default_rng(int(inputs[-1][0]))
    assert_matches_reference(inputs, upstream_gradient(rng, inputs[3].shape))


def test_signed_zeros_are_compared():
    # the sign-bit checks have teeth: the beta gradient holds zeros of both
    # signs, and every zero of the gamma gradient is +0.0, because its
    # factor 0 - g_I turns a -0.0 adjoint into +0.0 where -g_I would not
    rng = rng_for(702)
    inputs = forced_regimes(rng, 16, 8, 14)
    got, want = run_both(inputs, upstream_gradient(rng, inputs[3].shape))
    g_beta, g_gamma = want[9], want[10]
    assert np.signbit(g_beta[g_beta == 0.0]).any()
    assert (g_gamma == 0.0).any() and not np.signbit(g_gamma[g_gamma == 0.0]).any()
    for a, b in zip(got, want):
        assert_bitwise(a, b)


def test_kernels_leave_inputs_and_forward_outputs_alone():
    rng = rng_for(703)
    s0, i0, r0, beta, gamma, flows, pop = forced_regimes(rng, 6, 8, 14)
    kernel_set = kernels.active()
    for layout in (flows, day_major(flows)):
        inputs = (s0, i0, r0, beta, gamma, layout, pop)
        before = [a.copy(order="K") for a in inputs]
        saved = kernel_set.rollout_fwd(*inputs)
        for a, b in zip(inputs, before):
            assert_bitwise(a, b)
        g_cases = upstream_gradient(rng, beta.shape)
        bwd_args = (g_cases, *inputs, saved[2], *saved[4:])
        bwd_before = [a.copy(order="K") for a in bwd_args]
        saved_before = [a.copy(order="K") for a in saved]
        kernel_set.rollout_bwd(*bwd_args)
        for a, b in zip(bwd_args, bwd_before):
            assert_bitwise(a, b)
        # strength, the trajectories and the cap are the forecast's columns
        for a, b in zip(saved, saved_before):
            assert_bitwise(a, b)


def five_steps(monkeypatch, kernel_set):
    monkeypatch.setattr(kernels, "_KERNELS", kernel_set)
    config = small_model_config()
    data = datasets.generate_synthetic(small_scenario(length=120))
    windows = datasets.windowize(data, config.t_in, config.t_out)
    model = ForecastModel(config, n_regions=len(windows.regions), seed=3)
    model.set_scaler(*datasets.channel_scaler(windows))
    optimizer = Adam(model.parameters(), TrainConfig())
    order = np.random.default_rng(4).permutation(len(windows))
    for step in range(5):
        batch = windows.batch(order[8 * step : 8 * step + 8])
        model.zero_grad()
        result = model.forward(batch, training=True)
        mae_loss(result.cases, batch.targets).backward()
        optimizer.step()
        model.clamp_blend()
    return model.parameters().data.tobytes(), dict(model.ema)


def test_training_matches_reference_kernels(monkeypatch):
    active = kernels.active()
    reference = active._replace(
        name="reference", rollout_fwd=reference_fwd, rollout_bwd=reference_bwd
    )
    with_reference = five_steps(monkeypatch, reference)
    with_active = five_steps(monkeypatch, active)
    assert with_active[0] == with_reference[0]
    assert with_active[1] == with_reference[1]
    assert all(value is not None for value in with_active[1].values())
