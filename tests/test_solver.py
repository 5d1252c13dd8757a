import math

import numpy as np
import pytest

from choosiow import (
    ConvergenceError,
    GainsMatrix,
    PopulationVector,
    SolverOptions,
    initial_guess,
    marriage_distribution,
    objective_H,
    reduce_unpopulated,
    solve,
)
from conftest import make_market, random_market


class TestInitialGuess:
    def test_formula(self):
        guess = initial_guess(PopulationVector([100.0, 100.0]))
        np.testing.assert_allclose(guess, 0.5 * math.log(100.0))

    def test_unit_population(self):
        np.testing.assert_allclose(initial_guess(PopulationVector([1.0, 1.0])), [0.0, 0.0])

    def test_asymmetric(self):
        np.testing.assert_allclose(
            initial_guess(PopulationVector([4.0, 1.0])), [math.log(2.0), 0.0]
        )


class TestSolve:
    def test_symmetric_1x1(self, symmetric_1x1):
        eq = solve(symmetric_1x1)
        np.testing.assert_allclose(eq.beta, math.sqrt(50.0), rtol=1e-9)
        assert eq.distribution.married[0, 0] == pytest.approx(50.0, rel=1e-9)

    def test_asymmetric_1x1(self, asymmetric_1x1):
        eq = solve(asymmetric_1x1)
        np.testing.assert_allclose(eq.beta, np.array([4.0, 1.0]) / math.sqrt(5.0), rtol=1e-9)
        assert eq.distribution.married[0, 0] == pytest.approx(0.8, rel=1e-9)
        assert eq.distribution.single_men[0] == pytest.approx(3.2, rel=1e-9)
        assert eq.distribution.single_women[0] == pytest.approx(0.2, rel=1e-9)

    def test_zero_gains_decoupled(self):
        market = make_market(np.zeros((3, 2)), [2.0, 5.0, 11.0, 3.0, 7.0])
        eq = solve(market)
        np.testing.assert_allclose(eq.beta, np.sqrt(market.population.counts), rtol=1e-12)
        assert np.all(eq.distribution.married == 0)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            market = random_market(rng, max_types=8)
            opts = SolverOptions()
            eq = solve(market, opts)
            nu_norm = np.linalg.norm(market.population.counts)
            assert eq.residual_norm <= opts.gradient_tolerance * nu_norm

    def test_monotone_descent(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            eq = solve(random_market(rng, max_types=8))
            trace = np.array(eq.objective_trace)
            # non-increasing up to the rounding noise of the objective itself
            slack = 1e-14 * np.maximum(1.0, np.abs(trace[:-1]))
            assert np.all(np.diff(trace) <= slack)

    def test_uniqueness_under_restarts(self):
        rng = np.random.default_rng(13)
        market = random_market(rng, max_types=6)
        reference = solve(market)
        b0 = initial_guess(market.population)
        for _ in range(20):
            start = b0 + rng.uniform(-2.0, 2.0, size=market.size)
            restarted = solve(market, start=start)
            np.testing.assert_allclose(restarted.beta, reference.beta, atol=1e-8)

    def test_market_clearing_randomized(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            market = random_market(rng)
            eq = solve(market)
            assert eq.distribution.clears(market.population, tol=1e-9)

    def test_equilibrium_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            market = random_market(rng)
            eq = solve(market)
            dist = eq.distribution
            implied = dist.married / np.sqrt(
                np.outer(dist.single_men, dist.single_women)
            )
            mask = market.gains.entries > 0
            np.testing.assert_allclose(
                implied[mask], market.gains.entries[mask], rtol=1e-9
            )

    def test_duality_grid_never_beats_minimum(self):
        # The dual value <nu, b> - H(b) is maximized exactly at the solution,
        # so no grid point around it may exceed -objective_value.
        rng = np.random.default_rng(16)
        market = random_market(rng, max_types=3)
        eq = solve(market)
        nu = market.population.counts
        best = -eq.objective_value
        for scale in (1.0, 0.3, 0.05):
            for _ in range(200):
                b = eq.log_beta + rng.uniform(-scale, scale, size=market.size)
                value, _, _ = objective_H(b, market.gains)
                candidate = nu @ b - value
                assert candidate <= best + 1e-8 * (1.0 + abs(best))

    def test_small_units_clear(self):
        # A tolerance floored at 1 person accepted the starting point here,
        # beta = sqrt(nu), whose row and column totals are 2e-12.
        market = make_market([[1.0]], [1e-12, 1e-12])
        start = marriage_distribution(np.sqrt(market.population.counts), market.gains)
        assert not start.clears(market.population)
        eq = solve(market)
        assert eq.iterations > 0
        np.testing.assert_allclose(eq.distribution.row_totals(), [1e-12], rtol=1e-9)
        np.testing.assert_allclose(eq.distribution.column_totals(), [1e-12], rtol=1e-9)
        assert eq.distribution.clears(market.population)

    @pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1e4, 1e12])
    def test_scale_equivariance(self, c):
        # mu(c nu) = c mu(nu): the solution does not depend on the units of nu.
        rng = np.random.default_rng(17)
        gains = rng.uniform(0.0, 5.0, size=(4, 3))
        nu = np.exp(rng.uniform(0.0, np.log(1e6), size=7))
        base = solve(make_market(gains, nu)).distribution
        scaled = solve(make_market(gains, c * nu)).distribution
        for got, want in (
            (scaled.married, base.married),
            (scaled.single_men, base.single_men),
            (scaled.single_women, base.single_women),
        ):
            np.testing.assert_allclose(got, c * want, rtol=1e-12)

    def test_nonconvergence_reported(self, symmetric_1x1):
        with pytest.raises(ConvergenceError) as info:
            solve(symmetric_1x1, SolverOptions(gradient_tolerance=1e-15, max_iterations=1))
        assert info.value.residual_norm > 0

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(gradient_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)


class TestReduceUnpopulated:
    def test_drops_zero_type(self):
        gains = GainsMatrix([[1.0], [2.0]])
        market, index_map = reduce_unpopulated(gains, [4.0, 0.0, 1.0])
        assert market.n_male_types == 1
        np.testing.assert_allclose(market.population.counts, [4.0, 1.0])
        np.testing.assert_allclose(market.gains.entries, [[1.0]])
        assert index_map.kept_men == (0,)

    def test_identity_reduction(self):
        gains = GainsMatrix([[1.0], [2.0]])
        market, index_map = reduce_unpopulated(gains, [4.0, 2.0, 1.0])
        assert index_map.identity
        assert market.size == 3

    def test_all_unpopulated_is_error(self):
        with pytest.raises(ValueError, match="unpopulated"):
            reduce_unpopulated(GainsMatrix([[1.0], [2.0]]), [0.0, 0.0, 0.0])

    def test_embedding_restores_shape(self):
        gains = GainsMatrix([[1.0], [2.0]])
        market, index_map = reduce_unpopulated(gains, [4.0, 0.0, 1.0])
        eq = solve(market)
        full = index_map.embed_distribution(eq.distribution)
        assert full.married.shape == (2, 1)
        assert full.married[1, 0] == 0.0
        assert full.single_men[1] == 0.0
        beta = index_map.embed_amplitudes(eq.beta)
        assert np.isnan(beta[1])
        np.testing.assert_allclose(beta[[0, 2]], eq.beta)
