import math
import warnings

import numpy as np
import pytest

from choosiow import (
    ConvergenceError,
    ScalingError,
    GainsMatrix,
    PopulationVector,
    SolverOptions,
    marriage_distribution,
    reduce_unpopulated,
    solve,
)
from choosiow.core import LOG_AMPLITUDE_BOUND, objective_H
from choosiow.solver import _decrease, _solve_stack, _sweep, initial_guess
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
                value, _, _ = objective_H(b, market.gains.entries)
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

    def test_start_checked(self, symmetric_1x1):
        with pytest.raises(ValueError, match="finite"):
            solve(symmetric_1x1, start=[0.0, np.nan])
        with pytest.raises(ScalingError):
            solve(symmetric_1x1, start=[0.0, LOG_AMPLITUDE_BOUND + 1.0])

    @pytest.mark.parametrize("shape", [(1,), (3,), (1, 2)], ids=["short", "long", "2-D"])
    def test_start_shape_checked(self, symmetric_1x1, shape):
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            solve(symmetric_1x1, start=np.zeros(shape))

    def test_out_of_range_trial_is_infinitely_bad(self):
        # The line search sees +inf for a member whose trial point leaves the
        # safe range, and the change of H(b) - <nu, b> for the others.
        gains = np.array([[[2.0]], [[2.0]]])
        nu = np.array([[3.0, 5.0], [3.0, 5.0]])
        b = np.zeros((2, 2))
        step = np.array([[0.5, -0.25], [0.5, LOG_AMPLITUDE_BOUND + 1.0]])
        _, h_grad, (beta_sq, cross) = objective_H(b, gains)
        trial, delta = _decrease(b, step, nu, h_grad, beta_sq, cross)
        expected = 0.5 * (np.expm1(1.0) + np.expm1(-0.5)) + 2.0 * np.expm1(0.25) - (1.5 - 1.25)
        assert delta[0] == pytest.approx(expected, rel=1e-15)
        assert delta[1] == np.inf
        np.testing.assert_array_equal(trial[0], step[0])

    def test_seed_7_market_converges(self):
        # Gains U(0, 5) and populations log-uniform on [1, 1e6] drawn from
        # np.random.default_rng([7, 1]).  Its objective, about -1.48, is the
        # difference of H = 9.16 and <nu, b> = 10.64, whose rounding hides the
        # last steps' decrease: a line search comparing objective values
        # stalled here at a residual norm of 8.3e-10 after 200 iterations.
        gains = [[float.fromhex("0x1.ece3e4b6acf76p+1")]]
        nu = [float.fromhex("0x1.2c6e1aec2037ap+2"), float.fromhex("0x1.b4403dc230203p+3")]
        market = make_market(gains, nu)
        eq = solve(market)
        assert eq.distribution.clears(market.population, tol=1e-9)
        assert np.all(np.diff(eq.objective_trace) <= 0.0)

    def test_nonconvergence_reported(self, symmetric_1x1):
        with pytest.raises(ConvergenceError) as info:
            solve(symmetric_1x1, SolverOptions(gradient_tolerance=1e-15, max_iterations=1))
        assert info.value.residual_norm > 0

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(gradient_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)

    @pytest.mark.parametrize(
        "options",
        [{"gradient_tolerance": np.inf}, {"gradient_tolerance": np.nan}, {"max_iterations": 2.5}],
        ids=["inf-tolerance", "nan-tolerance", "fractional-cap"],
    )
    def test_options_reject_non_finite_tolerance_and_fractional_cap(self, options):
        # An infinite tolerance accepts any start as the equilibrium, and a
        # fractional cap is never equal to the iteration count.
        with pytest.raises(ValueError):
            SolverOptions(**options)


def _outcome(market, **kwargs):
    """What solve ends with: the equilibrium's arrays and counts, or the error."""
    try:
        eq = solve(market, **kwargs)
    except ConvergenceError as exc:
        return str(exc), exc.log_beta.tolist(), exc.residual_norm
    return eq.log_beta.tolist(), eq.iterations, eq.objective_trace


class TestSweeps:
    def test_stalled_sweeps_fall_back_bit_for_bit(self):
        # At Pi = 1e15 the sweeps stop contracting; Newton then starts from
        # initial_guess and follows the cold solve's iterates exactly.
        market = make_market([[1e15]], [1.0, 1.0])
        assert _sweep(market.gains.entries, market.population.counts) is None
        eq = solve(market)
        cold = solve(market, start=initial_guess(market.population))
        assert eq.sweeps == cold.sweeps == 0
        np.testing.assert_array_equal(eq.log_beta, cold.log_beta)
        assert eq.iterations == cold.iterations
        assert eq.objective_trace == cold.objective_trace

    @pytest.mark.parametrize("gain", [1e16, 1e150])
    def test_unfactorable_1x1_still_raises(self, gain):
        market = make_market([[gain]], [1.0, 1.0])
        with pytest.raises(ConvergenceError, match="^Hessian factorization failed at iteration 1$"):
            solve(market)

    def test_extreme_2x2_solves_from_sweeps(self):
        # The cold start cannot factor the Hessian; the swept start is close
        # enough for Newton.  Each man marries his diagonal partner, so the
        # singles are f_i - m_i for the women and m_i^2 / ((f_i - m_i) Pi_ii^2)
        # for the men.
        market = make_market([[1e100, 1.0], [2.0, 1e80]], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ConvergenceError, match="Hessian factorization failed at iteration 1"):
            solve(market, start=initial_guess(market.population))
        eq = solve(market)
        assert eq.sweeps > 0
        singles = np.concatenate([eq.distribution.single_men, eq.distribution.single_women])
        np.testing.assert_allclose(singles, [5e-201, 2e-160, 2.0, 2.0], rtol=1e-6)

    def test_overflowing_sweeps_fall_back_silently(self):
        # Pi = 1e300 overflows s^2 and drives a man's amplitude to 0: the
        # sweeps give up without a numpy warning, and solve ends as the cold
        # solve does.
        market = make_market([[1e-300, 1e300]], [1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sweep(market.gains.entries, market.population.counts) is None
        # The failing member's residual norm overflows inside numpy.linalg.
        with np.errstate(over="ignore"):
            cold = _outcome(market, start=initial_guess(market.population))
            assert _outcome(market) == cold

    def test_agrees_with_cold_start(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            market = random_market(rng)
            eq = solve(market)
            cold = solve(market, start=initial_guess(market.population))
            assert eq.distribution.clears(market.population)
            assert cold.distribution.clears(market.population)
            np.testing.assert_allclose(eq.log_beta, cold.log_beta, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("shape", [(40, 300), (300, 40)])
    def test_large_lopsided_needs_few_newton_steps(self, shape):
        # Gains U(0, 5) and populations log-uniform on [1, 1e6].
        rng = np.random.default_rng(45)
        gains = rng.uniform(0.0, 5.0, size=shape)
        market = make_market(gains, np.exp(rng.uniform(0.0, np.log(1e6), size=sum(shape))))
        eq = solve(market)
        assert eq.sweeps > 0
        assert eq.iterations <= 2


def _stack(markets, starts):
    return (
        np.stack([m.gains.entries for m in markets]),
        np.stack([m.population.counts for m in markets]),
        np.stack(starts),
    )


class TestSolveStack:
    @staticmethod
    def _markets(rng, count, shape=(3, 4)):
        return [
            make_market(
                rng.uniform(0.0, 5.0, size=shape), np.exp(rng.uniform(0.0, 10.0, size=sum(shape)))
            )
            for _ in range(count)
        ]

    def test_matches_solve_per_market(self):
        # Members start at, near and far from their solutions, so they leave
        # the stack after different numbers of iterations.
        rng = np.random.default_rng(40)
        markets = self._markets(rng, 9)
        starts = []
        for n, market in enumerate(markets):
            solution = solve(market).log_beta
            offset = (0.0, 1e-6, 2.0)[n % 3]
            starts.append(solution + rng.uniform(-offset, offset, size=market.size))
        stack = _solve_stack(*_stack(markets, starts), SolverOptions())
        assert len(set(stack.iterations.tolist())) >= 3
        for n, (market, start) in enumerate(zip(markets, starts)):
            eq = solve(market, start=start)
            assert stack.iterations[n] == eq.iterations
            np.testing.assert_allclose(stack.log_beta[n], eq.log_beta, rtol=1e-14, atol=0)

    def test_split_stack_matches_whole(self):
        # Members do not interact: solving the stack in parts changes no bit.
        rng = np.random.default_rng(41)
        markets = self._markets(rng, 7, shape=(5, 2))
        gains, nu, start = _stack(markets, [initial_guess(m.population) for m in markets])
        whole = _solve_stack(gains, nu, start, SolverOptions())
        parts = [
            _solve_stack(gains[part], nu[part], start[part], SolverOptions())
            for part in (slice(0, 1), slice(1, 4), slice(4, 7))
        ]
        for field in ("log_beta", "residual", "iterations"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, field) for p in parts]), getattr(whole, field)
            )

    @pytest.mark.parametrize(
        "gains",
        [
            [[2.0]],
            [[0.5, 3.0, 1.0]],
            [[1.0, 2.0, 0.0], [4.0, 0.5, 1.0], [0.2, 3.0, 2.0]],
            [[1.0], [3.0], [0.5]],
            [[0.0, 0.0], [2.0, 1.5], [1.0, 4.0]],
        ],
        ids=["1x1", "I<J", "I=J", "I>J", "zero-row"],
    )
    def test_objective_trace_monotone(self, gains):
        # Every accepted step passes the Armijo test on its exact decrease,
        # which is negative, and the trace adds these decreases to the start.
        rng = np.random.default_rng(42)
        market = make_market(gains, np.exp(rng.uniform(0.0, 8.0, size=sum(np.shape(gains)))))
        start = initial_guess(market.population) + rng.uniform(-3.0, 3.0, size=market.size)
        eq = solve(market, start=start)
        trace = np.array(eq.objective_trace)
        assert trace.size == eq.iterations + 1 > 2
        assert trace[-1] == eq.objective_value
        assert np.all(np.diff(trace) <= 4.0 * np.finfo(float).eps * np.abs(trace[:-1]))

    def test_nonconverging_member_named(self):
        rng = np.random.default_rng(43)
        markets = self._markets(rng, 3)
        starts = [solve(m).log_beta for m in markets]
        starts[1] = initial_guess(markets[1].population) + 2.0
        failing = r"^member 1: no convergence within 1 iterations"
        with pytest.raises(ConvergenceError, match=failing) as info:
            _solve_stack(
                *_stack(markets, starts),
                SolverOptions(max_iterations=1),
                name=lambda m: f"member {m}: ",
            )
        with pytest.raises(ConvergenceError) as alone:
            solve(markets[1], SolverOptions(max_iterations=1), start=starts[1])
        np.testing.assert_array_equal(info.value.log_beta, alone.value.log_beta)
        assert info.value.residual_norm == alone.value.residual_norm > 0

    def test_unfactorable_member_named(self):
        # Pi = 1e150 overflows the reduced Hessian at the first step, while
        # the other member is well posed; the failing one is named.
        markets = [make_market([[1.0]], [1.0, 1.0]), make_market([[1e150]], [1.0, 1.0])]
        failing = r"^member 1: Hessian factorization failed at iteration 1$"
        with pytest.raises(ConvergenceError, match=failing):
            _solve_stack(
                *_stack(markets, [initial_guess(m.population) for m in markets]),
                SolverOptions(),
                name=lambda m: f"member {m}: ",
            )


class TestReduceUnpopulated:
    def test_drops_zero_type(self):
        gains = GainsMatrix([[1.0], [2.0]])
        market = reduce_unpopulated(gains, [4.0, 0.0, 1.0])
        assert market.n_male_types == 1
        np.testing.assert_allclose(market.population.counts, [4.0, 1.0])
        np.testing.assert_allclose(market.gains.entries, [[1.0]])
        assert market.gains.row_labels == ("m1",)

    def test_identity_reduction(self):
        gains = GainsMatrix([[1.0], [2.0]])
        market = reduce_unpopulated(gains, [4.0, 2.0, 1.0])
        assert market.gains.row_labels == gains.row_labels
        assert market.gains.col_labels == gains.col_labels
        assert market.size == 3

    def test_all_unpopulated_is_error(self):
        with pytest.raises(ValueError, match="unpopulated"):
            reduce_unpopulated(GainsMatrix([[1.0], [2.0]]), [0.0, 0.0, 0.0])
