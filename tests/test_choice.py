import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosiow import (
    ChoiceModel,
    SimulationResult,
    choice_probabilities,
    equilibrium_consistency,
    gumbel_sample,
    sigma_limit,
    simulate_choices,
    solve,
)
from choosiow.choice import gumbel_from_uniform
from conftest import make_market

EULER_GAMMA = 0.5772156649015329


class TestGumbelSample:
    def test_inverse_cdf_fixed_point(self):
        assert gumbel_from_uniform(1.0 / math.e) == pytest.approx(0.0, abs=1e-15)

    def test_cdf_inversion(self):
        u = math.exp(-math.exp(-2.0))
        assert gumbel_from_uniform(u) == pytest.approx(2.0, rel=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(100)
        draws = gumbel_sample(rng, 1_000_000)
        assert draws.mean() == pytest.approx(EULER_GAMMA, abs=0.005)
        assert draws.var() == pytest.approx(math.pi**2 / 6.0, abs=0.02)

    def test_kolmogorov_smirnov(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(101)
        draws = gumbel_sample(rng, 100_000)
        stat = kstest(draws, lambda x: np.exp(-np.exp(-x))).statistic
        critical_1pct = 1.628 / math.sqrt(draws.size)
        assert stat < critical_1pct


class TestChoiceProbabilities:
    def test_logit_formula(self):
        model = ChoiceModel(np.array([0.0, math.log(2.0)]))
        np.testing.assert_allclose(choice_probabilities(model), [1 / 3, 2 / 3], rtol=1e-12)

    def test_constant_utilities_uniform(self):
        model = ChoiceModel(np.array([5.0, 5.0, 5.0]))
        np.testing.assert_allclose(choice_probabilities(model), 1 / 3, rtol=1e-12)

    def test_large_sigma_uniform_limit(self):
        model = ChoiceModel(np.array([0.0, 1.0]), sigma=1000.0)
        np.testing.assert_allclose(choice_probabilities(model), 0.5, atol=1e-3)

    def test_sums_to_one_and_overflow_safe(self):
        model = ChoiceModel(np.array([1000.0, 999.0, -1000.0]))
        probs = choice_probabilities(model)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(probs))

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-50, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, utilities, shift):
        base = ChoiceModel(np.array(utilities))
        shifted = ChoiceModel(np.array(utilities) + shift)
        np.testing.assert_allclose(
            choice_probabilities(base), choice_probabilities(shifted), rtol=1e-9, atol=1e-12
        )


class TestSigmaLimit:
    def test_tie_split(self):
        np.testing.assert_allclose(
            sigma_limit(ChoiceModel(np.array([0.0, 1.0, 1.0]))), [0.0, 0.5, 0.5]
        )

    def test_unique_argmax(self):
        np.testing.assert_allclose(sigma_limit(ChoiceModel(np.array([3.0, 1.0]))), [1.0, 0.0])

    def test_small_sigma_agreement(self):
        model_limit = ChoiceModel(np.array([0.0, 0.3, -0.5]))
        limit = sigma_limit(model_limit)
        probs = choice_probabilities(
            ChoiceModel(model_limit.systematic_utilities, sigma=1e-4)
        )
        np.testing.assert_allclose(probs, limit, atol=1e-6)

    def test_monotone_approach(self):
        eta = np.array([0.0, 0.4])
        limit = sigma_limit(ChoiceModel(eta))
        errors = [
            np.max(np.abs(choice_probabilities(ChoiceModel(eta, sigma=s)) - limit))
            for s in (1e-2, 1e-3, 1e-4)
        ]
        assert errors[0] >= errors[1] >= errors[2]


class TestSimulateChoices:
    def test_monte_carlo_matches_logit(self):
        model = ChoiceModel(np.array([0.0, math.log(2.0)]))
        rng = np.random.default_rng(102)
        sim = simulate_choices(model, 1_000_000, rng)
        np.testing.assert_allclose(sim.frequencies, [1 / 3, 2 / 3], atol=0.005)

    def test_single_alternative(self):
        sim = simulate_choices(ChoiceModel(np.array([0.0])), 100, np.random.default_rng(0))
        assert sim.frequencies[0] == 1.0

    def test_near_deterministic(self):
        model = ChoiceModel(np.array([0.0, 5.0]), sigma=1e-6)
        sim = simulate_choices(model, 10_000, np.random.default_rng(103))
        assert sim.frequencies[1] >= 0.9999

    def test_binomial_concentration(self):
        rng = np.random.default_rng(104)
        model = ChoiceModel(np.array([0.0, 0.7, -0.4]))
        n = 1_000_000
        sim = simulate_choices(model, n, rng)
        p = choice_probabilities(model)
        bound = 4.0 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(sim.frequencies - p) <= bound)

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            simulate_choices(ChoiceModel(np.array([0.0])), 0, np.random.default_rng(0))

    def test_result_invariants(self):
        with pytest.raises(ValueError, match="sum"):
            SimulationResult(np.array([0.5, 0.4]), 10)


class TestEquilibriumConsistency:
    def test_symmetric_fixture(self, symmetric_1x1):
        eq = solve(symmetric_1x1)
        rng = np.random.default_rng(105)
        record = equilibrium_consistency(eq, 1_000_000, rng)
        # P(marry) target is 50/100 = 0.5 for both sides
        assert record.max_divergence < 0.005

    def test_asymmetric_fixture(self, asymmetric_1x1):
        eq = solve(asymmetric_1x1)
        rng = np.random.default_rng(106)
        record = equilibrium_consistency(eq, 200_000, rng)
        # male marry-probability target is 0.8 / 4 = 0.2
        assert abs((1.0 - eq.distribution.single_men[0] / 4.0) - 0.2) < 1e-9
        assert record.max_divergence < 0.01

    def test_zero_gains_all_single(self):
        market = make_market(np.zeros((1, 1)), [5.0, 7.0])
        eq = solve(market)
        record = equilibrium_consistency(eq, 10_000, np.random.default_rng(107))
        assert record.max_divergence == pytest.approx(0.0, abs=1e-12)


class TestChoiceModelValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            ChoiceModel(np.array([0.0]), sigma=0.0)

    def test_utilities_finite(self):
        with pytest.raises(ValueError):
            ChoiceModel(np.array([0.0, -np.inf]))
