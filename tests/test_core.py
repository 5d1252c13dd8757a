import math

import numpy as np
import pytest

from choosiow import (
    GainsMatrix,
    MaritalDistribution,
    PopulationVector,
    ScalingError,
    ValidatedMarket,
    marriage_distribution,
    objective_H,
    solve,
    statics_matrix,
)
from choosiow.core import reduce_hessian
from choosiow.solver import _objective
from conftest import dense_hessian, make_market


def clearing_gap(beta, market) -> np.ndarray:
    """Row and column totals of the distribution at amplitudes beta, minus nu."""
    dist = marriage_distribution(beta, market.gains)
    totals = np.concatenate([dist.row_totals(), dist.column_totals()])
    return totals - market.population.counts


def gradient_gap(b, market) -> np.ndarray:
    """grad H(b) - nu, the clearing residual in log-amplitude space."""
    return objective_H(b, market.gains)[1] - market.population.counts


def objective(b, market) -> float:
    """The solver's objective H(b) - <nu, b>, as its line search evaluates it."""
    stack = (market.gains.entries[None], market.population.counts[None], np.asarray(b)[None])
    return float(_objective(*stack, market.n_male_types)[1][0])


class TestValidateMarket:
    def test_smallest_market_valid(self):
        market = make_market([[1.0]], [100.0, 100.0])
        assert market.flags == ()
        assert not market.degenerate

    def test_zero_row_flagged_not_rejected(self):
        market = make_market([[0.0], [1.0]], [1.0, 1.0, 1.0])
        assert market.flags == ("row 1 of the gains matrix is zero",)
        assert market.degenerate

    def test_nonpositive_population_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_market([[1.0]], [100.0, -1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            make_market([[1.0]], [1.0, 1.0, 1.0])

    def test_direct_construction_flags_zero_row(self):
        # Building ValidatedMarket directly must flag the zero row too, so
        # statics run in boundary mode instead of failing the strict check.
        market = ValidatedMarket(
            GainsMatrix([[0.0, 0.0], [2.0, 1.5]]), PopulationVector([100.0, 80.0, 90.0, 110.0])
        )
        assert market.flags == ("row 1 of the gains matrix is zero",)
        check = statics_matrix(solve(market)).sign_check
        assert check.mode == "boundary"
        assert check.passed, check.failures

    def test_direct_construction_checks_dimensions(self):
        with pytest.raises(ValueError, match="expected 1 \\+ 1 = 2"):
            ValidatedMarket(GainsMatrix([[1.0]]), PopulationVector([1.0, 1.0, 1.0]))

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GainsMatrix([[-1.0]])

    def test_nan_gains_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GainsMatrix([[np.nan]])


class TestResidual:
    def test_closed_form_1x1_root(self):
        # beta = (4/sqrt5, 1/sqrt5) solves beta1^2 + beta1*beta2 = 4 and
        # beta2^2 + beta1*beta2 = 1 exactly.
        market = make_market([[1.0]], [4.0, 1.0])
        beta = np.array([4.0, 1.0]) / math.sqrt(5.0)
        assert clearing_gap(beta, market) == pytest.approx([0.0, 0.0], abs=1e-14)
        assert gradient_gap(np.log(beta), market) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_zero_gains_sqrt_nu_is_root(self):
        # Exact in beta space: the squares of the square roots of these
        # counts are the counts.
        market = make_market(np.zeros((3, 2)), [4.0, 9.0, 16.0, 25.0, 36.0])
        beta = np.sqrt(market.population.counts)
        assert clearing_gap(beta, market) == pytest.approx(np.zeros(5), abs=0)

    def test_direct_evaluation(self):
        market = make_market([[1.0]], [100.0, 100.0])
        assert clearing_gap(np.array([1.0, 1.0]), market) == pytest.approx([-98.0, -98.0])
        assert gradient_gap(np.zeros(2), market) == pytest.approx([-98.0, -98.0])


class TestMarriageDistribution:
    def test_symmetric_solution(self):
        gains = GainsMatrix([[1.0]])
        beta = np.array([math.sqrt(50.0), math.sqrt(50.0)])
        dist = marriage_distribution(beta, gains)
        assert dist.married[0, 0] == pytest.approx(50.0)
        assert dist.single_men[0] == pytest.approx(50.0)
        assert dist.single_women[0] == pytest.approx(50.0)

    def test_asymmetric_solution(self):
        gains = GainsMatrix([[1.0]])
        beta = np.array([4.0, 1.0]) / math.sqrt(5.0)
        dist = marriage_distribution(beta, gains)
        assert dist.married[0, 0] == pytest.approx(0.8)
        assert dist.single_men[0] == pytest.approx(3.2)
        assert dist.single_women[0] == pytest.approx(0.2)

    def test_zero_gains_all_single(self):
        gains = GainsMatrix(np.zeros((2, 3)))
        dist = marriage_distribution(np.ones(5), gains)
        assert np.all(dist.married == 0)

    def test_clearing_when_residual_zero(self):
        market = make_market([[1.0]], [4.0, 1.0])
        beta = np.array([4.0, 1.0]) / math.sqrt(5.0)
        dist = marriage_distribution(beta, market.gains)
        assert dist.clears(market.population)


class TestObjectiveE:
    # E(beta) = H(log beta) - <nu, log beta>, evaluated at beta = (1, 1).
    def test_zero_gains(self):
        market = make_market([[0.0]], [1.0, 1.0])
        assert objective(np.zeros(2), market) == pytest.approx(1.0)

    def test_unit_gains(self):
        market = make_market([[1.0]], [1.0, 1.0])
        assert objective(np.zeros(2), market) == pytest.approx(2.0)


class TestObjectiveH:
    def test_hessian_at_symmetric_solution(self):
        gains = GainsMatrix([[1.0]])
        b = np.full(2, 0.5 * math.log(50.0))
        hess = dense_hessian(objective_H(b, gains)[2])
        np.testing.assert_allclose(hess, [[150.0, 50.0], [50.0, 150.0]])

    def test_zero_gains_decoupled(self):
        gains = GainsMatrix(np.zeros((2, 2)))
        b = np.array([0.1, -0.3, 0.7, 0.0])
        hess = dense_hessian(objective_H(b, gains)[2])
        np.testing.assert_allclose(hess, np.diag(2.0 * np.exp(2.0 * b)))

    def test_value_and_gradient_at_origin(self):
        gains = GainsMatrix([[1.0]])
        value, grad, _ = objective_H(np.zeros(2), gains)
        assert value == pytest.approx(2.0)
        np.testing.assert_allclose(grad, [2.0, 2.0])

    def test_scaling_guard(self):
        gains = GainsMatrix([[1.0]])
        with pytest.raises(ScalingError):
            objective_H(np.array([400.0, 0.0]), gains)


class TestCoreIdentities:
    """Randomized checks tying the clearing residual, E, and H together."""

    def _random_case(self, rng):
        n_men = int(rng.integers(1, 6))
        n_women = int(rng.integers(1, 6))
        market = make_market(
            rng.uniform(0, 5, size=(n_men, n_women)),
            np.exp(rng.uniform(0, 6, size=n_men + n_women)),
        )
        b = rng.uniform(-2, 4, size=n_men + n_women)
        return market, b

    def test_residual_is_gradient_minus_nu(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            market, b = self._random_case(rng)
            expected = gradient_gap(b, market)
            actual = clearing_gap(np.exp(b), market)
            np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)

    def test_E_equals_H_minus_inner_product(self):
        # E from the line search's value-only evaluation against objective_H's
        # value: two separate implementations of H.
        rng = np.random.default_rng(8)
        for _ in range(25):
            market, b = self._random_case(rng)
            value, _, _ = objective_H(b, market.gains)
            lhs = objective(b, market)
            rhs = value - market.population.counts @ b
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_hessian_spd_via_cholesky(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            market, b = self._random_case(rng)
            hess = dense_hessian(objective_H(b, market.gains)[2])
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12)
            np.linalg.cholesky(hess)  # raises if not positive definite

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        market, b = self._random_case(rng)
        _, grad, blocks = objective_H(b, market.gains)
        hess = dense_hessian(blocks)
        h = 1e-6
        for k in range(b.size):
            e = np.zeros_like(b)
            e[k] = h
            v_hi, g_hi, _ = objective_H(b + e, market.gains)
            v_lo, g_lo, _ = objective_H(b - e, market.gains)
            fd_grad = (v_hi - v_lo) / (2 * h)
            assert fd_grad == pytest.approx(grad[k], rel=1e-6)
            fd_hess_col = (g_hi - g_lo) / (2 * h)
            np.testing.assert_allclose(fd_hess_col, hess[:, k], rtol=1e-5)


class TestReducedHessian:
    """The min(I, J)-order reduced system against the assembled Hessian."""

    SHAPES = ((1, 1), (3, 3), (2, 5), (5, 2), (4, 9), (9, 4))

    def _cases(self, rng):
        for n_men, n_women in self.SHAPES:
            market = make_market(
                rng.uniform(0, 5, size=(n_men, n_women)),
                np.exp(rng.uniform(0, np.log(1e6), size=n_men + n_women)),
            )
            yield market, rng.uniform(-2, 4, size=market.size)
            yield market, solve(market).log_beta

    def test_newton_step_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for market, b in self._cases(rng):
            _, grad, blocks = objective_H(b, market.gains)
            rhs = market.population.counts - grad
            step = reduce_hessian(*blocks).solve(rhs)
            dense = np.linalg.solve(dense_hessian(blocks), rhs)
            np.testing.assert_allclose(step, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))

    def test_inverse_matches_dense_inverse(self):
        rng = np.random.default_rng(12)
        for market, b in self._cases(rng):
            blocks = objective_H(b, market.gains)[2]
            inverse = reduce_hessian(*blocks).inverse()
            dense = np.linalg.inv(dense_hessian(blocks))
            np.testing.assert_allclose(
                inverse, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense))
            )

    def test_indefinite_raises(self):
        # diag(1, 1) with cross entry 2 is indefinite: S = 1 - 4 < 0.
        with pytest.raises(np.linalg.LinAlgError):
            reduce_hessian(np.array([1.0, 1.0]), np.array([[2.0]]))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5), (5, 2)])
    def test_stack_matches_members(self, shape):
        # A stack of Hessians reduces, solves and inverts member by member.
        rng = np.random.default_rng(13)
        market = make_market(
            rng.uniform(0, 5, size=shape), np.exp(rng.uniform(0, 8, size=sum(shape)))
        )
        points = rng.uniform(-2, 4, size=(4, market.size))
        blocks = [objective_H(b, market.gains)[2] for b in points]
        rhs = rng.uniform(-1, 1, size=points.shape)
        diag, cross = (np.stack(arrays) for arrays in zip(*blocks))
        stacked = reduce_hessian(diag, cross)
        steps, inverses = stacked.solve(rhs), stacked.inverse()
        for member, (d, c) in enumerate(blocks):
            alone = reduce_hessian(d, c)
            np.testing.assert_allclose(steps[member], alone.solve(rhs[member]), rtol=1e-15, atol=0)
            np.testing.assert_allclose(inverses[member], alone.inverse(), rtol=1e-15, atol=0)

    def test_stack_with_indefinite_member_raises(self):
        diag = np.ones((3, 2))
        cross = np.array([[[0.5]], [[2.0]], [[0.1]]])
        reduce_hessian(diag[[0, 2]], cross[[0, 2]])
        with pytest.raises(np.linalg.LinAlgError):
            reduce_hessian(diag, cross)


class TestTypes:
    def test_equilibrium_amplitudes_read_only(self):
        eq = solve(make_market([[1.0, 0.5]], [4.0, 1.0, 2.0]))
        np.testing.assert_array_equal(eq.beta, np.exp(eq.log_beta))
        with pytest.raises(ValueError):
            eq.beta[0] = 1.0
        with pytest.raises(ValueError):
            eq.log_beta[0] = 1.0

    def test_distribution_rejects_negative(self):
        with pytest.raises(ValueError):
            MaritalDistribution(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]))

    def test_population_rejects_short_vector(self):
        with pytest.raises(ValueError):
            PopulationVector([1.0])

    def test_arrays_are_immutable(self):
        gains = GainsMatrix([[1.0]])
        with pytest.raises(ValueError):
            gains.entries[0, 0] = 2.0
