"""Mobility-coupled metapopulation SIR core (forward Euler, one-day steps).

Per region n, with daily flows ``h`` and populations ``P``, the coupling

    strength_n = sum_m (h[n, m] / P[m] + h[m, n] / P[n]) * infected[m]

drives the update

    new_inf = min(beta * strength, S)        # cannot infect more than S
    S' = S - new_inf
    I' = I + new_inf - gamma * I             # recoveries use start-of-day I
    R' = R + gamma * I

with every compartment clamped at zero.  Predicted daily new cases are
``new_inf``.  Totals S + I + R are conserved exactly whenever no clamp
fires, and never increase when one does.

``rollout_batch`` is what the model runs: batched and differentiable, its
forward and hand-derived adjoint are the rollout kernels of ``kernels``.
``trajectory`` is the one day-by-day reference loop on arrays, with the
update above written out for each day; ``rollout`` checks its domain types
and runs it.  The loop stays separate from the kernels on purpose: the
benchmark's output check and the tests compare ``rollout_batch`` against
it, and ``datasets.generate_synthetic`` runs its worlds through it (its
``x / P`` rounds differently from the kernel's ``x * (1 / P)``).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .autodiff import Tensor, as_data, make_op
from .domain import (
    CompartmentState,
    DimensionMismatchError,
    EpidemicParams,
    Forecast,
    MobilitySeries,
    PopulationVector,
)

__all__ = ["rollout", "rollout_batch", "trajectory"]


def trajectory(s0, i0, r0, beta, gamma, flows, population) -> np.ndarray:
    """Step the core from the start state ``s0``, ``i0``, ``r0`` (N,) for
    the T days of ``beta`` and ``gamma`` (N, T), over ``flows`` (N, N, T).

    Returns a (4, N, T) array: each day's new cases, then the susceptible,
    infected and recovered counts at its end.  Shapes are the caller's to
    get right (``rollout`` checks its domain types).
    """
    out = np.empty((4, *np.shape(beta)))
    s, i, r = s0, i0, r0
    for t in range(out.shape[2]):
        moved = flows[:, :, t]
        strength = moved @ (i / population) + (moved.T @ i) / population
        cases = np.minimum(beta[:, t] * strength, s)
        recovered_now = gamma[:, t] * i
        s = np.maximum(s - cases, 0.0)
        i = np.maximum(i + cases - recovered_now, 0.0)
        r = np.maximum(r + recovered_now, 0.0)
        out[:, :, t] = cases, s, i, r
    return out


def rollout(
    state0: CompartmentState,
    params: EpidemicParams,
    mobility: MobilitySeries,
    population: PopulationVector,
) -> Forecast:
    """Roll the core forward for the full horizon of ``params``."""
    n, horizon = params.n_regions, params.horizon
    if state0.n_regions != n:
        raise DimensionMismatchError(
            f"state covers {state0.n_regions} regions but params cover {n}"
        )
    if population.n_regions != n:
        raise DimensionMismatchError(
            f"population covers {population.n_regions} regions but params cover {n}"
        )
    if mobility.n_regions != n or mobility.n_days != horizon:
        raise DimensionMismatchError(
            f"mobility shaped {mobility.flows.shape} does not match "
            f"{n} regions over a {horizon}-day horizon"
        )
    if mobility.horizon_kind != "forecast":
        raise ValueError(
            "rollout consumes forecast-horizon mobility "
            f"(horizon_kind='forecast'), got {mobility.horizon_kind!r}"
        )
    cases, s, i, r = trajectory(
        state0.susceptible, state0.infected, state0.recovered,
        params.beta, params.gamma, mobility.flows, population.sizes,
    )
    return Forecast(cases=cases, susceptible=s, infected=i, recovered=r)


def rollout_batch(
    s0: np.ndarray,
    i0: np.ndarray,
    r0: np.ndarray,
    beta,
    gamma,
    flows,
    population: np.ndarray,
):
    """Batched, differentiable rollout on the rollout kernels.

    ``beta``/``gamma`` are (B, N, T) and ``flows`` (B, N, N, T) in any
    layout; any of the three may be a Tensor, in which case the returned
    cases are a Tensor whose backward pass runs the fused adjoint kernel.
    The start state and population are constants.  Returns ``(cases, aux)``
    where ``aux`` holds the (non-differentiable) trajectories and coupling
    strengths as plain arrays.  The cases and ``aux`` arrays are (B, N, T)
    views of the kernel's day-major buffers.  The flow gradient is a view of
    a buffer the backward kernel made for it alone, so the flows Tensor
    takes it over without the copy it makes of other views.
    """
    s0 = np.ascontiguousarray(s0, dtype=np.float64)
    i0 = np.ascontiguousarray(i0, dtype=np.float64)
    r0 = np.ascontiguousarray(r0, dtype=np.float64)
    population = np.ascontiguousarray(population, dtype=np.float64)
    beta_data = np.ascontiguousarray(as_data(beta))
    gamma_data = np.ascontiguousarray(as_data(gamma))
    flows_data = as_data(flows)  # any layout; the kernels read it time-major
    kern = kernels.active()
    cases, s_traj, i_traj, r_traj, strength, cap, ms, mi, mr = kern.rollout_fwd(
        s0, i0, r0, beta_data, gamma_data, flows_data, population
    )
    # the kernels record which branch of the infection cap was taken
    # (True = force term); the public key reports when the cap itself fired
    aux = {
        "susceptible": s_traj,
        "infected": i_traj,
        "recovered": r_traj,
        "strength": strength,
        "capped": ~cap,
    }
    tracked = [p for p in (beta, gamma, flows) if isinstance(p, Tensor)]
    if not tracked:
        return cases, aux

    def backward(g: np.ndarray) -> None:
        g_beta, g_gamma, g_flows = kern.rollout_bwd(
            np.ascontiguousarray(g),
            s0,
            i0,
            r0,
            beta_data,
            gamma_data,
            flows_data,
            population,
            i_traj,
            strength,
            cap,
            ms,
            mi,
            mr,
        )
        if isinstance(beta, Tensor) and beta.requires_grad:
            beta._accumulate(g_beta)
        if isinstance(gamma, Tensor) and gamma.requires_grad:
            gamma._accumulate(g_gamma)
        if isinstance(flows, Tensor) and flows.requires_grad:
            flows._accumulate(g_flows, fresh=True)  # a view of the kernel's own buffer

    return make_op(cases, tracked, backward), aux
