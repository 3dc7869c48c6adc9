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
``rollout``, ``step`` and ``transmission_strength`` are the day-by-day
reference loop over domain types.  They stay separate on purpose: the
benchmark's output check and the tests compare ``rollout_batch`` against
them, and ``datasets.generate_synthetic`` steps its worlds with ``step``
(its ``x / P`` rounds differently from the kernel's ``x * (1 / P)``).
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

__all__ = ["rollout", "rollout_batch", "step", "transmission_strength"]


def transmission_strength(
    flows_day: np.ndarray, population: np.ndarray, infected: np.ndarray
) -> np.ndarray:
    """Coupling strength for one day: flows (N, N), population/infected (N,)."""
    flows_day = np.asarray(flows_day, dtype=np.float64)
    population = np.asarray(population, dtype=np.float64)
    infected = np.asarray(infected, dtype=np.float64)
    n = population.shape[0]
    if flows_day.shape != (n, n) or infected.shape != (n,):
        raise DimensionMismatchError(
            f"transmission_strength got flows {flows_day.shape}, infected "
            f"{infected.shape} for {n} regions"
        )
    return flows_day @ (infected / population) + (flows_day.T @ infected) / population


def step(
    state: CompartmentState,
    beta_day: np.ndarray,
    gamma_day: np.ndarray,
    strength: np.ndarray,
) -> tuple[CompartmentState, np.ndarray]:
    """One forward-Euler day; returns the next state and predicted new cases."""
    beta_day = np.asarray(beta_day, dtype=np.float64)
    gamma_day = np.asarray(gamma_day, dtype=np.float64)
    strength = np.asarray(strength, dtype=np.float64)
    n = state.n_regions
    for name, arr in (("beta", beta_day), ("gamma", gamma_day), ("strength", strength)):
        if arr.shape != (n,):
            raise DimensionMismatchError(
                f"step got {name} with shape {arr.shape}, expected ({n},)"
            )
    new_inf = np.minimum(beta_day * strength, state.susceptible)
    recovered_now = gamma_day * state.infected
    nxt = CompartmentState(
        susceptible=np.maximum(state.susceptible - new_inf, 0.0),
        infected=np.maximum(state.infected + new_inf - recovered_now, 0.0),
        recovered=np.maximum(state.recovered + recovered_now, 0.0),
    )
    return nxt, new_inf


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
    cases = np.empty((n, horizon))
    s_traj = np.empty((n, horizon))
    i_traj = np.empty((n, horizon))
    r_traj = np.empty((n, horizon))
    state = state0
    for t in range(horizon):
        strength = transmission_strength(
            mobility.flows[:, :, t], population.sizes, state.infected
        )
        state, new_inf = step(state, params.beta[:, t], params.gamma[:, t], strength)
        cases[:, t] = new_inf
        s_traj[:, t] = state.susceptible
        i_traj[:, t] = state.infected
        r_traj[:, t] = state.recovered
    return Forecast(
        cases=cases, susceptible=s_traj, infected=i_traj, recovered=r_traj
    )


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

    ``beta``/``gamma`` are (B, N, T) and ``flows`` (B, N, N, T); any of the
    three may be a Tensor, in which case the returned cases are a Tensor
    whose backward pass runs the fused adjoint kernel.  The start state and
    population are constants.  Returns ``(cases, aux)`` where ``aux`` holds
    the (non-differentiable) trajectories and coupling strengths as plain
    arrays.
    """
    s0 = np.ascontiguousarray(s0, dtype=np.float64)
    i0 = np.ascontiguousarray(i0, dtype=np.float64)
    r0 = np.ascontiguousarray(r0, dtype=np.float64)
    population = np.ascontiguousarray(population, dtype=np.float64)
    beta_data = np.ascontiguousarray(as_data(beta))
    gamma_data = np.ascontiguousarray(as_data(gamma))
    flows_data = np.ascontiguousarray(as_data(flows))
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
            flows._accumulate(g_flows)

    return make_op(cases, tracked, backward), aux
