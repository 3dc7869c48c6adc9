"""Suppression filter: quantile thresholds, EMA smoothing, detector flags,
and the downscaled infection rates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicast import metapop, suppression
from epicast.autodiff import Tensor
from epicast.domain import (
    CompartmentState,
    EpidemicParams,
    MobilitySeries,
    PopulationVector,
)
from epicast.suppression import (
    EmaSlot,
    EmaState,
    ThresholdConfig,
    adaptive_threshold,
    suppress_beta,
)

from conftest import rng_for


# ----------------------------------------------------------- oracle (loops)


def oracle_quantile(values, kappa):
    """Sort-and-interpolate quantile at 1-indexed rank 1 + (R - 1) * kappa.

    Interpolation runs on the order-statistic difference so that equal
    neighbors yield the shared value exactly (flag comparisons downstream
    are exact, so the arithmetic must not manufacture spurious ulps).
    """
    ordered = sorted(float(v) for v in values)
    virtual = (len(ordered) - 1) * kappa  # rank - 1, zero-indexed
    below = int(math.floor(virtual))
    frac = virtual - below
    low = ordered[below]
    if frac == 0.0:
        return low
    high = ordered[below + 1]
    if frac < 0.5:
        return low + (high - low) * frac
    return high - (high - low) * (1.0 - frac)


def oracle_small_flags(beta, gamma, config):
    """Brute-force weak-rate detector (no EMA)."""
    n = beta.shape[0]
    beta_peaks = [max(beta[k]) for k in range(n)]
    gamma_peaks = [max(gamma[k]) for k in range(n)]
    beta_cut = max(oracle_quantile(beta_peaks, config.beta_quantile), config.beta_floor)
    gamma_cut = max(
        oracle_quantile(gamma_peaks, config.gamma_quantile), config.gamma_floor
    )
    return np.array(
        [
            beta_peaks[k] <= beta_cut and gamma_peaks[k] <= gamma_cut
            for k in range(n)
        ]
    )


def oracle_quiet_flags(history, config):
    """Brute-force quiet-history detector (no EMA)."""
    level = max(
        oracle_quantile(history.ravel(), config.infection_quantile),
        config.infection_floor,
    )
    n, t = history.shape
    ratios = []
    for k in range(n):
        quiet_days = sum(1 for v in history[k] if v <= level)
        ratios.append(quiet_days / t)
    cutoff = min(
        max(
            oracle_quantile(ratios, config.quiet_ratio_quantile),
            config.quiet_ratio_floor,
        ),
        config.quiet_ratio_cap,
    )
    return np.array([r >= cutoff for r in ratios])


# ------------------------------------------------------------- thresholds


class TestAdaptiveThreshold:
    def test_interpolated_quantile_case(self):
        assert adaptive_threshold(np.arange(1.0, 11.0), 0.2, 0.5) == pytest.approx(
            2.8, abs=1e-12
        )

    def test_constant_values_return_the_constant(self):
        assert adaptive_threshold(np.full(6, 3.3), 0.7, 0.5) == pytest.approx(3.3)

    def test_floor_activates(self):
        assert adaptive_threshold(np.full(4, 0.001), 0.5, 0.5) == 0.5

    def test_ema_step(self):
        slot = EmaSlot(1.0)
        out = adaptive_threshold(
            np.full(3, 2.0), 0.5, 0.0, slot=slot, training=True, decay=0.9
        )
        assert out == pytest.approx(1.1, abs=1e-12)
        assert slot.value == pytest.approx(1.1, abs=1e-12)

    def test_ema_seeds_on_first_training_use(self):
        slot = EmaSlot()
        out = adaptive_threshold(
            np.full(3, 2.0), 0.5, 0.0, slot=slot, training=True
        )
        assert out == 2.0
        assert slot.value == 2.0

    def test_inference_reads_without_advancing(self):
        slot = EmaSlot(1.5)
        out = adaptive_threshold(
            np.full(3, 99.0), 0.5, 0.0, slot=slot, training=False
        )
        assert out == 1.5
        assert slot.value == 1.5

    def test_inference_with_unseeded_slot_uses_fresh_value(self):
        slot = EmaSlot()
        out = adaptive_threshold(np.full(3, 7.0), 0.5, 0.0, slot=slot, training=False)
        assert out == 7.0
        assert slot.value is None

    def test_matches_oracle_on_random_instances(self):
        rng = rng_for(400)
        for _ in range(300):
            count = int(rng.integers(1, 40))
            values = rng.uniform(0, 10, size=count)
            kappa = float(rng.uniform(0.01, 0.99))
            floor = float(rng.uniform(0, 5))
            want = max(oracle_quantile(values, kappa), floor)
            got = adaptive_threshold(values, kappa, floor)
            assert got == pytest.approx(want, abs=1e-10)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.01, 0.99),
        st.floats(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_below_floor_and_within_range(self, values, kappa, floor):
        out = adaptive_threshold(np.array(values), kappa, floor)
        assert out >= floor - 1e-12
        assert out >= min(values) - 1e-12 or out == pytest.approx(floor)
        assert out <= max(max(values), floor) + 1e-9


class TestEmaState:
    def test_dict_round_trip(self):
        state = EmaState()
        state.beta.value = 0.25
        state.infection.value = 3.5
        payload = state.as_dict()
        back = EmaState.from_dict(payload)
        assert back.beta.value == 0.25
        assert back.infection.value == 3.5
        assert back.gamma.value is None
        assert back.quiet_ratio.value is None

    def test_repeated_training_contracts_toward_fresh_value(self):
        slot = EmaSlot(10.0)
        for _ in range(200):
            adaptive_threshold(np.full(3, 2.0), 0.5, 0.0, slot=slot, training=True)
        assert slot.value == pytest.approx(2.0, abs=1e-6)


# -------------------------------------------------------------- detectors


def params_from_peaks(beta_peaks, gamma_peaks, horizon=3):
    """Rates whose per-region maxima equal the requested peaks."""
    n = len(beta_peaks)
    beta = np.full((n, horizon), 1e-6)
    gamma = np.full((n, horizon), 1e-6)
    beta[:, -1] = beta_peaks
    gamma[:, -1] = gamma_peaks
    return EpidemicParams(beta=beta, gamma=gamma)


def small_flags(params, config, state=None, training=False):
    """Weak-rate flags of one window, through the batched detector."""
    history = np.zeros((1, params.n_regions, 1))
    found = suppression.detect(
        params.beta[None], params.gamma[None], history, config, state, training
    )
    return found.small_params[0]


def quiet_flags(history, config):
    """Quiet-history flags of one window, through the batched detector."""
    rates = np.zeros((1, len(history), 1))
    return suppression.detect(rates, rates, history[None], config).quiet_history[0]


class TestDetectSmallParams:
    def test_worked_two_region_example(self):
        params = params_from_peaks([0.01, 0.5], [0.01, 0.4])
        config = ThresholdConfig(beta_quantile=0.2, gamma_quantile=0.2)
        flags = small_flags(params, config)
        np.testing.assert_array_equal(flags, [True, False])

    def test_worked_example_thresholds(self):
        params = params_from_peaks([0.01, 0.5], [0.01, 0.4])
        found = suppression.detect(
            params.beta[None],
            params.gamma[None],
            np.zeros((1, 2, 3)),
            ThresholdConfig(beta_quantile=0.2, gamma_quantile=0.2),
        )
        assert found.beta_cutoff[0] == pytest.approx(0.108, abs=1e-12)
        assert found.gamma_cutoff[0] == pytest.approx(0.088, abs=1e-12)

    def test_identical_regions_all_flagged(self):
        params = params_from_peaks([0.3] * 4, [0.2] * 4)
        flags = small_flags(params, ThresholdConfig())
        assert flags.all()

    def test_conjunction_semantics(self):
        # one rate small, the other large: not flagged
        params = params_from_peaks([0.9, 0.01], [0.01, 0.9])
        flags = small_flags(
            params, ThresholdConfig(beta_quantile=0.5, gamma_quantile=0.5)
        )
        np.testing.assert_array_equal(flags, [False, False])

    def test_matches_oracle_on_random_instances(self):
        rng = rng_for(401)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            horizon = int(rng.integers(1, 8))
            beta = rng.uniform(1e-4, 1.0 - 1e-4, size=(n, horizon))
            gamma = rng.uniform(1e-4, 1.0 - 1e-4, size=(n, horizon))
            config = ThresholdConfig(
                beta_quantile=float(rng.uniform(0.05, 0.95)),
                gamma_quantile=float(rng.uniform(0.05, 0.95)),
            )
            got = small_flags(EpidemicParams(beta=beta, gamma=gamma), config)
            want = oracle_small_flags(beta, gamma, config)
            np.testing.assert_array_equal(got, want)


class TestDetectLowInfection:
    def test_hand_worked_example(self):
        history = np.array([[0.0, 0.0, 0.0, 10.0], [50.0, 60.0, 70.0, 80.0]])
        config = ThresholdConfig(
            infection_quantile=0.1,
            infection_floor=0.5,
            quiet_ratio_quantile=0.9,
            quiet_ratio_floor=0.7,
        )
        flags = quiet_flags(history, config)
        np.testing.assert_array_equal(flags, [True, False])

    def test_cap_limits_cutoff(self):
        # a single region always has quiet ratio 1.0; without the cap the
        # cutoff would reach 1.0 as well, with it the region stays flagged
        history = np.zeros((1, 5))
        config = ThresholdConfig(quiet_ratio_floor=1.0, quiet_ratio_cap=0.98)
        flags = quiet_flags(history, config)
        np.testing.assert_array_equal(flags, [True])

    def test_matches_oracle_on_random_instances(self):
        rng = rng_for(402)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            t = int(rng.integers(2, 15))
            history = rng.uniform(0, 100, size=(n, t)) * (
                rng.random((n, t)) > 0.3
            )
            config = ThresholdConfig(
                infection_quantile=float(rng.uniform(0.05, 0.95)),
                quiet_ratio_quantile=float(rng.uniform(0.05, 0.95)),
                infection_floor=float(rng.uniform(0, 2)),
                quiet_ratio_floor=float(rng.uniform(0, 1)),
            )
            got = quiet_flags(history, config)
            want = oracle_quiet_flags(history, config)
            np.testing.assert_array_equal(got, want)


def loop_detect(beta, gamma, history, config, state, training):
    """Per-window reference for the batched detector.

    Every threshold comes from one call of the public ``adaptive_threshold``
    on one window; the EMA slots advance window by window, small-parameter
    detector first.  Returns flags (B, N) twice and cutoffs (B, 4).
    """
    slots = {} if state is None else vars(state)
    small, quiet, cuts = [], [], []
    for b in range(beta.shape[0]):

        def cut(values, kind):
            return adaptive_threshold(
                values,
                getattr(config, f"{kind}_quantile"),
                getattr(config, f"{kind}_floor"),
                slots.get(kind),
                training,
                config.ema_decay,
            )

        beta_peaks, gamma_peaks = beta[b].max(axis=1), gamma[b].max(axis=1)
        beta_cut, gamma_cut = cut(beta_peaks, "beta"), cut(gamma_peaks, "gamma")
        level = cut(history[b], "infection")
        ratio = (history[b] <= level).mean(axis=1)
        cutoff = min(cut(ratio, "quiet_ratio"), config.quiet_ratio_cap)
        small.append((beta_peaks <= beta_cut) & (gamma_peaks <= gamma_cut))
        quiet.append(ratio >= cutoff)
        cuts.append([beta_cut, gamma_cut, level, cutoff])
    return np.array(small), np.array(quiet), np.array(cuts)


def slot_bits(state):
    return None if state is None else {
        name: None if value is None else value.hex()
        for name, value in state.as_dict().items()
    }


class TestBatchedDetector:
    # scale 0 puts every threshold on its floor and every quiet ratio at 1,
    # where only the cap keeps the quiet cutoff below 1
    @example(seed=0, calls=[(3, True), (1, False)], regions=4, days=3,
             history_days=5, scales=(0.0, 0.0, 0.0), seeded=None)
    @example(seed=1, calls=[(1, True)], regions=1, days=1, history_days=1,
             scales=(0.0, 0.0, 0.0), seeded=(False, False, False, False))
    @given(
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(
            st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=3
        ),
        regions=st.integers(1, 6),
        days=st.integers(1, 5),
        history_days=st.integers(1, 8),
        scales=st.tuples(*[st.sampled_from([0.0, 1e-3, 1.0, 100.0])] * 3),
        seeded=st.one_of(st.none(), st.tuples(*[st.booleans()] * 4)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_window_loop_bitwise(
        self, seed, calls, regions, days, history_days, scales, seeded
    ):
        rng = np.random.default_rng(seed)
        config = ThresholdConfig()
        if seeded is None:
            batched_state = loop_state = None
        else:
            start = {
                name: float(rng.uniform(0, 2)) if on else None
                for name, on in zip(("infection", "quiet_ratio", "beta", "gamma"), seeded)
            }
            batched_state = EmaState.from_dict(start)
            loop_state = EmaState.from_dict(start)
        for batch, training in calls:
            rates = (batch, regions, days)
            # sparse draws and small integer counts make ties common
            beta = scales[0] * rng.random(rates) * (rng.random(rates) > 0.3)
            gamma = scales[1] * rng.random(rates) * (rng.random(rates) > 0.3)
            history = scales[2] * rng.integers(0, 4, (batch, regions, history_days))
            found = suppression.detect(
                beta, gamma, history, config, batched_state, training
            )
            small, quiet, cuts = loop_detect(
                beta, gamma, history, config, loop_state, training
            )
            np.testing.assert_array_equal(found.small_params, small)
            np.testing.assert_array_equal(found.quiet_history, quiet)
            got = np.stack(
                [found.beta_cutoff, found.gamma_cutoff, found.infection_level,
                 found.quiet_cutoff],
                axis=1,
            )
            assert got.tobytes() == cuts.tobytes()
            assert slot_bits(batched_state) == slot_bits(loop_state)


class TestFilterAndSuppression:
    def test_suppress_scales_only_flagged_infection_rates(self):
        beta = np.full((2, 3), 0.4)
        out = suppress_beta(beta, np.array([True, False]), downscale=0.5)
        np.testing.assert_allclose(out[0], 0.2)
        np.testing.assert_array_equal(out[1], beta[1])
        # batched Tensor rates: the flags are constants for the gradient
        rates = Tensor(np.full((2, 2, 3), 0.4), requires_grad=True)
        flags = np.array([[True, False], [False, True]])
        suppress_beta(rates, flags, downscale=0.25).sum().backward()
        want = np.where(flags, 0.25, 1.0)[..., None] * np.ones(3)
        np.testing.assert_array_equal(rates.grad, want)

    def test_forecast_never_exceeds_unsuppressed_counterpart(self):
        rng = rng_for(403)
        config = ThresholdConfig()
        for _ in range(30):
            n = int(rng.integers(2, 6))
            horizon = int(rng.integers(2, 8))
            pop = rng.uniform(500, 5000, size=n)
            infected = pop * rng.uniform(0, 0.05, size=n)
            state0 = CompartmentState(
                susceptible=pop - infected,
                infected=infected,
                recovered=np.zeros(n),
            )
            params = EpidemicParams(
                beta=rng.uniform(1e-4, 0.99, size=(n, horizon)),
                gamma=rng.uniform(1e-4, 0.99, size=(n, horizon)),
            )
            mobility = MobilitySeries(
                flows=rng.uniform(0, 50, size=(n, n, horizon)),
                horizon_kind="forecast",
            )
            population = PopulationVector(sizes=pop)
            history = rng.uniform(0, 20, size=(n, 6))
            found = suppression.detect(
                params.beta[None], params.gamma[None], history[None], config
            )
            flagged = found.small_params[0] | found.quiet_history[0]
            applied = suppress_beta(params.beta, flagged, config.downscale)
            suppressed = metapop.rollout(
                state0, EpidemicParams(beta=applied, gamma=params.gamma),
                mobility, population,
            )
            plain = metapop.rollout(state0, params, mobility, population)
            # day one shares the start state exactly
            assert (suppressed.cases[:, 0] <= plain.cases[:, 0] + 1e-15).all()
            np.testing.assert_allclose(
                applied[flagged], params.beta[flagged] * config.downscale
            )
            np.testing.assert_array_equal(applied[~flagged], params.beta[~flagged])

    def test_report_carries_thresholds_and_ratio(self):
        rng = rng_for(404)
        n, horizon = 3, 4
        config = ThresholdConfig()
        found = suppression.detect(
            rng.uniform(0.1, 0.9, (1, n, horizon)),
            rng.uniform(0.1, 0.9, (1, n, horizon)),
            rng.uniform(0, 5, (1, n, 7)),
            config,
        )
        assert found.quiet_ratio.shape == (1, n)
        assert found.infection_level[0] >= config.infection_floor
        assert found.beta_cutoff[0] >= config.beta_floor
        assert found.quiet_cutoff[0] <= config.quiet_ratio_cap

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_training_ema_keeps_thresholds_positive(self, seed):
        rng = np.random.default_rng(seed)
        state = EmaState()
        config = ThresholdConfig()
        for _ in range(3):
            beta = rng.uniform(1e-4, 1 - 1e-4, size=(4, 5))
            gamma = rng.uniform(1e-4, 1 - 1e-4, size=(4, 5))
            small_flags(
                EpidemicParams(beta=beta, gamma=gamma),
                config,
                state=state,
                training=True,
            )
        assert state.beta.value is not None and state.beta.value > 0
        assert state.gamma.value is not None and state.gamma.value > 0
