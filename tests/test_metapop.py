"""Mechanistic-core oracles: independent loop implementations, conservation,
clamping, and equivalence between the single and batched rollout paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast import metapop
from epicast.autodiff import Tensor
from epicast.domain import (
    CompartmentState,
    DimensionMismatchError,
    EpidemicParams,
    Forecast,
    MobilitySeries,
    PopulationVector,
)

from conftest import on_kernel_set, rng_for


# ------------------------------------------------------------ oracle (loops)


def oracle_strength(flows, pop, infected):
    """Scalar-loop coupling strength; shares no code with the implementation."""
    n = len(pop)
    out = [0.0] * n
    for dst in range(n):
        for src in range(n):
            weight = flows[dst][src] / pop[src] + flows[src][dst] / pop[dst]
            out[dst] += weight * infected[src]
    return np.array(out)


def oracle_step(s, i, r, beta, gamma, strength):
    """Scalar-loop single day update with explicit clamping."""
    n = len(s)
    s2, i2, r2, fresh = [], [], [], []
    for k in range(n):
        new_inf = beta[k] * strength[k]
        if new_inf > s[k]:
            new_inf = s[k]
        rec = gamma[k] * i[k]
        s_next = s[k] - new_inf
        i_next = i[k] + new_inf - rec
        r_next = r[k] + rec
        s2.append(max(s_next, 0.0))
        i2.append(max(i_next, 0.0))
        r2.append(max(r_next, 0.0))
        fresh.append(new_inf)
    return np.array(s2), np.array(i2), np.array(r2), np.array(fresh)


def random_instance(rng, n=None, horizon=None):
    n = n or int(rng.integers(1, 11))
    horizon = horizon or int(rng.integers(1, 15))
    pop = rng.uniform(50.0, 5e4, size=n)
    infected = pop * rng.uniform(0.0, 0.2, size=n)
    recovered = pop * rng.uniform(0.0, 0.2, size=n)
    susceptible = pop - infected - recovered
    flows = rng.uniform(0.0, 1.0, size=(n, n, horizon)) * pop[None, :, None] * 0.05
    beta = rng.uniform(1e-6, 1.0 - 1e-6, size=(n, horizon))
    gamma = rng.uniform(1e-6, 1.0 - 1e-6, size=(n, horizon))
    return pop, susceptible, infected, recovered, flows, beta, gamma


class TestTransmissionStrength:
    def test_worked_two_region_example(self):
        strength = metapop.transmission_strength(
            np.array([[0.0, 5.0], [5.0, 0.0]]),
            np.array([100.0, 100.0]),
            np.array([10.0, 20.0]),
        )
        np.testing.assert_allclose(strength, [2.0, 1.0], atol=1e-15)

    def test_zero_flows_give_zero(self):
        out = metapop.transmission_strength(
            np.zeros((3, 3)), np.full(3, 100.0), np.full(3, 10.0)
        )
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_zero_infected_give_zero(self):
        rng = rng_for(101)
        out = metapop.transmission_strength(
            rng.uniform(0, 10, (4, 4)), np.full(4, 100.0), np.zeros(4)
        )
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_matches_loop_oracle(self):
        rng = rng_for(102)
        for _ in range(200):
            pop, _, infected, _, flows, _, _ = random_instance(rng)
            got = metapop.transmission_strength(flows[:, :, 0], pop, infected)
            want = oracle_strength(flows[:, :, 0], pop, infected)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)

    def test_shape_error(self):
        with pytest.raises(DimensionMismatchError):
            metapop.transmission_strength(
                np.zeros((2, 3)), np.full(2, 10.0), np.zeros(2)
            )


class TestStep:
    def test_matches_loop_oracle(self):
        rng = rng_for(103)
        for _ in range(200):
            pop, s, i, r, flows, beta, gamma = random_instance(rng)
            strength = oracle_strength(flows[:, :, 0], pop, i)
            got = metapop.step(s, i, r, beta[:, 0], gamma[:, 0], strength)
            want = oracle_step(s, i, r, beta[:, 0], gamma[:, 0], strength)
            for name, a, b in zip(("susceptible", "infected", "recovered", "cases"), got, want):
                np.testing.assert_allclose(a, b, atol=1e-12, rtol=1e-12, err_msg=name)

    def test_cases_capped_by_susceptibles(self):
        s, _, _, fresh = metapop.step(
            np.array([1.0]), np.array([50.0]), np.array([0.0]),
            np.array([0.999]), np.array([0.001]), np.array([1e6]),
        )
        np.testing.assert_allclose(fresh, [1.0])
        np.testing.assert_allclose(s, [0.0])

    def test_conserves_totals_without_clamp(self):
        rng = rng_for(104)
        for _ in range(50):
            pop, s, i, r, flows, beta, gamma = random_instance(rng)
            strength = metapop.transmission_strength(flows[:, :, 0], pop, i)
            *nxt, _ = metapop.step(s, i, r, beta[:, 0], gamma[:, 0], strength)
            np.testing.assert_allclose(sum(nxt), s + i + r, rtol=1e-12, atol=1e-9)

    def test_shape_error(self):
        # every argument must be shaped like the susceptible counts
        names = ("susceptible", "infected", "recovered", "beta", "gamma", "strength")
        for wrong in range(1, 6):
            args = [np.ones(2)] * 6
            args[wrong] = np.ones(3)
            with pytest.raises(DimensionMismatchError, match=f"step got {names[wrong]} "):
                metapop.step(*args)


class TestRollout:
    def build(self, rng, n=4, horizon=6):
        pop, s, i, r, flows, beta, gamma = random_instance(rng, n=n, horizon=horizon)
        return (
            CompartmentState(susceptible=s, infected=i, recovered=r),
            EpidemicParams(beta=beta, gamma=gamma),
            MobilitySeries(flows=flows, horizon_kind="forecast"),
            PopulationVector(sizes=pop),
        )

    def test_matches_day_by_day_oracle(self):
        rng = rng_for(105)
        state0, params, mobility, population = self.build(rng)
        result = metapop.rollout(state0, params, mobility, population)
        assert isinstance(result, Forecast)
        s = state0.susceptible.copy()
        i = state0.infected.copy()
        r = state0.recovered.copy()
        for t in range(params.horizon):
            strength = oracle_strength(
                mobility.flows[:, :, t], population.sizes, i
            )
            s, i, r, fresh = oracle_step(
                s, i, r, params.beta[:, t], params.gamma[:, t], strength
            )
            np.testing.assert_allclose(result.cases[:, t], fresh, atol=1e-12)
            np.testing.assert_allclose(result.susceptible[:, t], s, atol=1e-12)
            np.testing.assert_allclose(result.infected[:, t], i, atol=1e-12)
            np.testing.assert_allclose(result.recovered[:, t], r, atol=1e-12)

    def test_is_the_array_loop(self):
        rng = rng_for(108)
        state0, params, mobility, population = self.build(rng)
        result = metapop.rollout(state0, params, mobility, population)
        loop = metapop.trajectory(
            state0.susceptible, state0.infected, state0.recovered,
            params.beta, params.gamma, mobility.flows, population.sizes,
        )
        for k, name in enumerate(("cases", "susceptible", "infected", "recovered")):
            assert getattr(result, name).tobytes() == loop[k].tobytes(), name

    def test_requires_forecast_kind(self):
        rng = rng_for(106)
        state0, params, mobility, population = self.build(rng)
        history = MobilitySeries(flows=mobility.flows, horizon_kind="history")
        with pytest.raises(ValueError, match="forecast"):
            metapop.rollout(state0, params, history, population)

    def test_horizon_mismatch_rejected(self):
        rng = rng_for(107)
        state0, params, mobility, population = self.build(rng, horizon=6)
        short = MobilitySeries(
            flows=mobility.flows[:, :, :4], horizon_kind="forecast"
        )
        with pytest.raises(DimensionMismatchError):
            metapop.rollout(state0, params, short, population)


class TestRolloutBatch:
    def batch_instance(self, rng, batch=3, n=4, horizon=5):
        pops, ss, ii, rr, ff, bb, gg = [], [], [], [], [], [], []
        pop = rng.uniform(100.0, 1e4, size=n)
        for _ in range(batch):
            _, s, i, r, flows, beta, gamma = random_instance(rng, n=n, horizon=horizon)
            ss.append(s)
            ii.append(i)
            rr.append(r)
            ff.append(flows)
            bb.append(beta)
            gg.append(gamma)
        return (
            np.stack(ss),
            np.stack(ii),
            np.stack(rr),
            np.stack(bb),
            np.stack(gg),
            np.stack(ff),
            pop,
        )

    @on_kernel_set
    def test_matches_single_rollout(self, kernel_set):
        rng = rng_for(108)
        s0, i0, r0, beta, gamma, flows, pop = self.batch_instance(rng)
        cases, aux = metapop.rollout_batch(s0, i0, r0, beta, gamma, flows, pop)
        direct = kernel_set.rollout_fwd(s0, i0, r0, beta, gamma, flows, pop)
        np.testing.assert_array_equal(cases, direct[0])
        for b in range(s0.shape[0]):
            single = metapop.rollout(
                CompartmentState(
                    susceptible=s0[b], infected=i0[b], recovered=r0[b]
                ),
                EpidemicParams(beta=beta[b], gamma=gamma[b]),
                MobilitySeries(flows=flows[b], horizon_kind="forecast"),
                PopulationVector(sizes=pop),
            )
            np.testing.assert_allclose(cases[b], single.cases, atol=1e-10)
            np.testing.assert_allclose(
                aux["susceptible"][b], single.susceptible, atol=1e-10
            )
            np.testing.assert_allclose(
                aux["infected"][b], single.infected, atol=1e-10
            )
            np.testing.assert_allclose(
                aux["recovered"][b], single.recovered, atol=1e-10
            )

    @on_kernel_set
    def test_gradients_match_finite_differences(self, kernel_set):
        rng = rng_for(109)
        s0, i0, r0, beta, gamma, flows, pop = self.batch_instance(
            rng, batch=2, n=3, horizon=4
        )
        weights = rng.standard_normal((2, 3, 4))

        def loss_of(beta_arr, gamma_arr, flows_arr):
            cases, _ = metapop.rollout_batch(
                s0, i0, r0, beta_arr, gamma_arr, flows_arr, pop
            )
            data = cases.data if isinstance(cases, Tensor) else cases
            return float((data * weights).sum())

        beta_t = Tensor(beta.copy(), requires_grad=True)
        gamma_t = Tensor(gamma.copy(), requires_grad=True)
        flows_t = Tensor(flows.copy(), requires_grad=True)
        cases, _ = metapop.rollout_batch(
            s0, i0, r0, beta_t, gamma_t, flows_t, pop
        )
        (cases * weights).sum().backward()
        # the tape's adjoint is the kernel set's backward, unchanged
        saved = kernel_set.rollout_fwd(s0, i0, r0, beta, gamma, flows, pop)
        direct = kernel_set.rollout_bwd(
            weights, s0, i0, r0, beta, gamma, flows, pop, saved[2], *saved[4:]
        )
        for tensor, grad in zip((beta_t, gamma_t, flows_t), direct):
            np.testing.assert_array_equal(tensor.grad, grad)

        for tensor, array in ((beta_t, beta), (gamma_t, gamma), (flows_t, flows)):
            flat = array.ravel()
            probes = rng.choice(flat.size, size=min(25, flat.size), replace=False)
            for k in probes:
                keep = flat[k]
                step = 1e-6 * max(1.0, abs(keep))
                flat[k] = keep + step
                hi = loss_of(beta, gamma, flows)
                flat[k] = keep - step
                lo = loss_of(beta, gamma, flows)
                flat[k] = keep
                numeric = (hi - lo) / (2 * step)
                analytic = tensor.grad.ravel()[k]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                assert abs(numeric - analytic) / denom < 1e-4

    def test_time_major_flows_match_c_ordered(self):
        # the model's flows are a (B, N, N, T) view of a time-major buffer
        rng = rng_for(111)
        s0, i0, r0, beta, gamma, flows, pop = self.batch_instance(rng)
        time_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(flows, 3, 0)), 0, 3)
        assert not time_major.flags.c_contiguous
        weights = rng.standard_normal(beta.shape)
        results = []
        for layout in (flows, time_major):
            tensors = [
                Tensor(a.copy(order="K"), requires_grad=True) for a in (beta, gamma, layout)
            ]
            cases, aux = metapop.rollout_batch(s0, i0, r0, *tensors, pop)
            (cases * weights).sum().backward()
            results.append([cases.data, *aux.values(), *(t.grad for t in tensors)])
        for c_ordered, strided in zip(*results):
            np.testing.assert_array_equal(strided, c_ordered)

    @on_kernel_set
    def test_kernels_read_c_ordered_and_day_major_flows_alike(self, kernel_set):
        # the model hands the kernels day-major flows; a caller may pass C order
        rng = rng_for(112)
        s0, i0, r0, beta, gamma, flows, pop = self.batch_instance(rng, n=5, horizon=6)
        day_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(flows, 3, 0)), 0, 3)
        g_cases = rng.standard_normal(beta.shape)
        results = []
        for layout in (flows, day_major):
            saved = kernel_set.rollout_fwd(s0, i0, r0, beta, gamma, layout, pop)
            grads = kernel_set.rollout_bwd(
                g_cases, s0, i0, r0, beta, gamma, layout, pop, saved[2], *saved[4:]
            )
            assert all(a.shape == beta.shape for a in saved)
            assert grads[2].shape == flows.shape
            results.append([a.tobytes() for a in (*saved, *grads)])
        assert results[0] == results[1]

    def test_constant_inputs_return_plain_arrays(self):
        rng = rng_for(110)
        s0, i0, r0, beta, gamma, flows, pop = self.batch_instance(rng, batch=1)
        cases, aux = metapop.rollout_batch(s0, i0, r0, beta, gamma, flows, pop)
        assert isinstance(cases, np.ndarray)
        assert set(aux) == {"susceptible", "infected", "recovered", "strength", "capped"}

    def test_cap_indicator_marks_only_susceptible_limited_entries(self):
        pop = np.array([100.0])
        flows = np.full((1, 1, 1, 2), 50.0)
        beta = np.full((1, 1, 2), 0.9)
        gamma = np.full((1, 1, 2), 0.1)
        # ample susceptibles: force term always below the pool
        _, roomy = metapop.rollout_batch(
            np.array([[80.0]]), np.array([[10.0]]), np.array([[10.0]]),
            beta, gamma, flows, pop,
        )
        assert not roomy["capped"].any()
        # starved pool: day-one infections are capped at the whole pool
        cases, starved = metapop.rollout_batch(
            np.array([[0.5]]), np.array([[90.0]]), np.array([[9.5]]),
            beta, gamma, flows, pop,
        )
        assert starved["capped"][0, 0, 0]
        assert float(np.asarray(cases)[0, 0, 0]) == 0.5


# -------------------------------------------- property: adjoint and forward


@st.composite
def clamp_regimes(draw):
    """Random batched instances in which chosen regions are starved (tiny or
    empty susceptible pools, so the infection cap and the S clamp fire) or
    dead (no infected, no recovered, no flows, so the I and R clamps fire).

    Returns the rollout inputs, the regions whose pool is empty (where the
    cap must fire on day one) and the dead regions."""
    batch = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starved = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    dead = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pool = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    pop = rng.uniform(100.0, 1e4, size=n)
    i0 = pop * rng.uniform(0.01, 0.2, size=(batch, n))
    r0 = pop * rng.uniform(0.0, 0.2, size=(batch, n))
    s0 = pop - i0 - r0
    s0[:, starved] = pop[starved] * pool * rng.uniform(0.0, 1.0, size=(batch, starved.sum()))
    i0[:, dead] = 0.0
    r0[:, dead] = 0.0
    flows = rng.uniform(0.0, 1.0, size=(batch, n, n, horizon)) * pop[None, None, :, None] * 0.05
    flows[:, dead] = 0.0
    flows[:, :, dead] = 0.0
    beta = rng.uniform(0.01, 0.99, size=(batch, n, horizon))
    gamma = rng.uniform(0.01, 0.99, size=(batch, n, horizon))
    return (s0, i0, r0, beta, gamma, flows, pop), starved & (pool == 0.0), dead


def branch_pattern(aux):
    """Which side of the cap and of each clamp every entry took."""
    return tuple(
        aux[key] if key == "capped" else aux[key] > 0.0
        for key in ("capped", "susceptible", "infected", "recovered")
    )


class TestRolloutBatchProperty:
    @settings(max_examples=60, deadline=None)
    @given(clamp_regimes())
    def test_adjoint_and_forward_in_every_branch(self, case):
        (s0, i0, r0, beta, gamma, flows, pop), empty, dead = case
        cases, aux = metapop.rollout_batch(s0, i0, r0, beta, gamma, flows, pop)
        if (empty & ~dead).any():
            assert aux["capped"][:, empty & ~dead, 0].all()
            assert (aux["susceptible"][:, empty & ~dead, 0] == 0.0).all()
        if dead.any():
            assert (aux["infected"][:, dead] == 0.0).all()
            assert (aux["recovered"][:, dead] == 0.0).all()

        # forward: the day-by-day loop of metapop.rollout, one window at a time
        for b in range(s0.shape[0]):
            single = metapop.rollout(
                CompartmentState(susceptible=s0[b], infected=i0[b], recovered=r0[b]),
                EpidemicParams(beta=beta[b], gamma=gamma[b]),
                MobilitySeries(flows=flows[b], horizon_kind="forecast"),
                PopulationVector(sizes=pop),
            )
            for got, want in (
                (cases[b], single.cases),
                (aux["susceptible"][b], single.susceptible),
                (aux["infected"][b], single.infected),
                (aux["recovered"][b], single.recovered),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        # adjoint: central differences wherever a probe stays on one branch
        weights = np.random.default_rng(int(pop[0])).standard_normal(cases.shape)
        inputs = [beta, gamma, flows]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in inputs]
        tracked, _ = metapop.rollout_batch(s0, i0, r0, *tensors, pop)
        (tracked * weights).sum().backward()
        base = branch_pattern(aux)

        def probe(values):
            out, probe_aux = metapop.rollout_batch(s0, i0, r0, *values, pop)
            same = all(
                np.array_equal(x, y) for x, y in zip(branch_pattern(probe_aux), base)
            )
            return float((out * weights).sum()), same

        for slot, tensor in enumerate(tensors):
            flat = inputs[slot].ravel()
            scale = max(np.abs(tensor.grad).max(), 1.0)
            for k in range(flat.size):
                keep = flat[k]
                step = 1e-6 * max(1.0, abs(keep))
                values = [a.copy() for a in inputs]
                values[slot].ravel()[k] = keep + step
                hi, same_hi = probe(values)
                values[slot].ravel()[k] = keep - step
                lo, same_lo = probe(values)
                if not (same_hi and same_lo):
                    continue  # the probe straddles a kink
                numeric = (hi - lo) / (2 * step)
                analytic = tensor.grad.ravel()[k]
                assert abs(numeric - analytic) <= 1e-6 * scale, (slot, k)
