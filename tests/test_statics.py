import dataclasses
import math

import numpy as np
import pytest

from choosiow import (
    ConvergenceError,
    SolverOptions,
    finite_difference_check,
    gains_sensitivity,
    marriage_elasticity,
    objective_H,
    participation_analysis,
    solve,
    spectral_diagnostic,
    statics_matrix,
    transfer_analysis,
)
from choosiow import statics
from choosiow.statics import SignCheckResult, _sign_check
from conftest import dense_hessian, make_market, random_market, reference_finite_difference_check

# Hand-inverted 2x2 from the symmetric 1x1 fixture: D^2 H = [[150,50],[50,150]].
R_SYMMETRIC = np.array([[0.015, -0.005], [-0.005, 0.015]])


class TestStaticsMatrix:
    def test_hand_inverted_1x1(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        np.testing.assert_allclose(report.r_matrix, R_SYMMETRIC, rtol=1e-9)

    def test_zero_gains_diagonal(self):
        market = make_market(np.zeros((2, 2)), [2.0, 3.0, 4.0, 5.0])
        report = statics_matrix(solve(market))
        np.testing.assert_allclose(
            report.r_matrix, np.diag(1.0 / market.population.counts), rtol=1e-9
        )

    def test_inverse_definition(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            market = random_market(rng, max_types=6)
            eq = solve(market)
            report = statics_matrix(eq)
            hess = dense_hessian(objective_H(eq.log_beta, market.gains)[2])
            np.testing.assert_allclose(
                report.r_matrix @ hess / 2.0, np.eye(market.size), atol=1e-9
            )

    def test_matches_dense_inverse(self):
        # R from the reduced matrix against twice the inverse of the assembled
        # Hessian, with the smaller side first, last, on a tie, and 1 x 1.
        rng = np.random.default_rng(29)
        for shape in ((1, 1), (4, 4), (3, 8), (8, 3)):
            market = make_market(
                rng.uniform(0, 5, size=shape), np.exp(rng.uniform(0, 10, size=sum(shape)))
            )
            eq = solve(market)
            dense = 2.0 * np.linalg.inv(dense_hessian(objective_H(eq.log_beta, market.gains)[2]))
            np.testing.assert_allclose(
                statics_matrix(eq).r_matrix, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense))
            )

    def test_symmetric_and_spd_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            report = statics_matrix(solve(random_market(rng, max_types=8)))
            r = report.r_matrix
            assert np.max(np.abs(r - r.T)) <= 1e-9 * np.max(np.abs(r))
            np.linalg.cholesky(r)

    def test_d_beta_relation(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        expected = 0.5 * symmetric_1x1_eq.beta[:, None] * R_SYMMETRIC
        np.testing.assert_allclose(report.d_beta, expected, rtol=1e-9)


class TestSignPattern:
    def test_strict_pass_on_fixture(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        check = report.sign_check
        assert check.mode == "strict"
        assert check.passed
        # 0.5 * (50 + 100) * 0.015 = 1.125 > 1 on the diagonal
        assert check.diagonal_dominant

    def test_boundary_mode_on_zero_gains(self):
        market = make_market(np.zeros((1, 1)), [2.0, 3.0])
        report = statics_matrix(solve(market))
        check = report.sign_check
        assert check.mode == "boundary"
        # diagonal check sits exactly at the identity: flagged boundary, not failed
        assert check.passed

    def test_violation_detected(self):
        # An SPD matrix with a positive cross-sex entry must be reported.
        bad = np.array([[0.015, 0.005], [0.005, 0.015]])
        check = _sign_check(bad, np.array([50.0, 50.0]), np.array([100.0, 100.0]), 1, 1, False)
        assert not check.cross_negative
        assert check.failures

    def test_same_sex_bound_failures(self):
        # 2 men, 1 woman; weight (beta^2 + nu) / 2 = 10 for every type.  The
        # scaled male block [[0.5, -0.1], [-0.1, 1.2]] misses the identity at
        # (0,0) and both off-diagonal entries, by far more than the slack.
        r = np.array([[0.05, -0.01, -0.02], [-0.01, 0.12, -0.03], [-0.02, -0.03, 0.2]])
        weights = (np.full(3, 10.0), np.full(3, 10.0))
        expected = (
            "same-sex bound fails at block entry (0,0): 0.5",
            "same-sex bound fails at block entry (0,1): -0.1",
            "same-sex bound fails at block entry (1,0): -0.1",
        )
        for boundary, mode in ((False, "strict"), (True, "boundary")):
            check = _sign_check(r, *weights, 2, 1, boundary)
            assert check == SignCheckResult(mode, True, False, True, expected)
            assert not check.passed

    def test_same_sex_bound_at_identity(self):
        # Scaled diagonal exactly 1 and same-sex off-diagonal exactly 0:
        # weakly true (boundary passes), strictly false (strict fails).
        r = np.array([[0.0625, 0.0, -0.01], [0.0, 0.0625, -0.01], [-0.01, -0.01, 0.25]])
        weights = (np.full(3, 16.0), np.full(3, 16.0))
        strict = _sign_check(r, *weights, 2, 1, False)
        assert strict == SignCheckResult(
            "strict", True, False, True,
            (
                "same-sex bound fails at block entry (0,0): 1",
                "same-sex bound fails at block entry (0,1): 0",
                "same-sex bound fails at block entry (1,0): 0",
                "same-sex bound fails at block entry (1,1): 1",
            ),
        )
        assert _sign_check(r, *weights, 2, 1, True) == SignCheckResult(
            "boundary", True, True, True, ()
        )

    def test_cauchy_schwarz_failure(self):
        # |r_01| = 0.02 > sqrt(r_00 r_11) = 0.015; cross and same-sex pass.
        r = np.array([[0.015, -0.02], [-0.02, 0.015]])
        weights = (np.array([50.0, 50.0]), np.array([100.0, 100.0]))
        message = ("Cauchy-Schwarz bound |r_kl| < sqrt(r_kk r_ll) violated",)
        for boundary, mode in ((False, "strict"), (True, "boundary")):
            check = _sign_check(r, *weights, 1, 1, boundary)
            assert check == SignCheckResult(mode, True, True, False, message)
            assert not check.passed

    def test_cauchy_schwarz_equality(self):
        # |r_01| = sqrt(r_00 r_11) exactly: boundary passes, strict fails.
        r = np.array([[0.0625, -0.0625], [-0.0625, 0.0625]])
        weights = (np.array([20.0, 20.0]), np.array([20.0, 20.0]))
        assert _sign_check(r, *weights, 1, 1, False) == SignCheckResult(
            "strict", True, True, False,
            ("Cauchy-Schwarz bound |r_kl| < sqrt(r_kk r_ll) violated",),
        )
        assert _sign_check(r, *weights, 1, 1, True) == SignCheckResult(
            "boundary", True, True, True, ()
        )

    def test_cross_sex_failure_both_modes(self):
        # A cross entry of exactly 0 fails strictly but not weakly; 0.004 fails both.
        r = np.array([[0.02, 0.0, 0.004], [0.0, 0.02, 0.001], [0.004, 0.001, 0.02]])
        weights = (np.full(3, 60.0), np.full(3, 60.0))
        strict = _sign_check(r, *weights, 1, 2, False)
        assert strict == SignCheckResult(
            "strict", False, True, True,
            (
                "cross-sex entry r[0,1] = 0 is not negative",
                "cross-sex entry r[0,2] = 0.004 is not negative",
            ),
        )
        assert _sign_check(r, *weights, 1, 2, True) == SignCheckResult(
            "boundary", False, True, True,
            ("cross-sex entry r[0,2] = 0.004 is not negative",),
        )

    def test_randomized_strict_pattern(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            market = random_market(rng, max_types=6)
            # entries are uniform (0, 5]: strictly positive almost surely
            report = statics_matrix(solve(market))
            check = report.sign_check
            assert check.passed, check.failures
            n_men = market.n_male_types
            r = report.r_matrix
            assert np.all(r[:n_men, n_men:] < 0)
            off = ~np.eye(market.size, dtype=bool)
            bound = np.sqrt(np.outer(np.diag(r), np.diag(r)))
            assert np.all(np.abs(r[off]) < bound[off])


class TestGainsSensitivity:
    def test_closed_form_1x1(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        sens = gains_sensitivity(symmetric_1x1_eq, report)
        expected = -0.25 * math.sqrt(50.0)
        assert sens.d_beta[0, 0, 0] == pytest.approx(expected, rel=1e-9)

    def test_zero_gains_cross_terms_vanish(self):
        market = make_market(np.zeros((2, 2)), [2.0, 3.0, 4.0, 5.0])
        eq = solve(market)
        report = statics_matrix(eq)
        sens = gains_sensitivity(eq, report)
        # with diagonal R only k in {i, I+j} respond
        for i in range(2):
            for j in range(2):
                for k in range(4):
                    if k not in (i, 2 + j):
                        assert sens.d_beta[i, j, k] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.isnan(sens.d_log_beta))

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(23)
        market = random_market(rng, max_types=4)
        eq = solve(market)
        report = statics_matrix(eq)
        sens = gains_sensitivity(eq, report)
        pi = market.gains.entries
        i, j = 0, 0
        h = 1e-5 * (1.0 + pi[i, j])
        hi_entries = pi.copy()
        hi_entries[i, j] += h
        lo_entries = pi.copy()
        lo_entries[i, j] -= h
        hi = solve(make_market(hi_entries, market.population.counts))
        lo = solve(make_market(lo_entries, market.population.counts))
        fd = (hi.beta - lo.beta) / (2 * h)
        np.testing.assert_allclose(fd, sens.d_beta[i, j], rtol=1e-4, atol=1e-12)


class TestMarriageElasticity:
    def test_hand_computed_1x1(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        elasticity = marriage_elasticity(symmetric_1x1_eq, report)
        assert elasticity[0, 0, 0] == pytest.approx(0.005, rel=1e-9)
        # label symmetry of the instance forces the same value for k = 2
        assert elasticity[0, 0, 1] == pytest.approx(0.005, rel=1e-9)

    def test_finite_difference_oracle(self, asymmetric_1x1):
        eq = solve(asymmetric_1x1)
        report = statics_matrix(eq)
        elasticity = marriage_elasticity(eq, report)
        nu = asymmetric_1x1.population.counts
        k = 0
        h = 1e-5 * nu[k]
        hi_nu, lo_nu = nu.copy(), nu.copy()
        hi_nu[k] += h
        lo_nu[k] -= h
        hi = solve(make_market(asymmetric_1x1.gains.entries, hi_nu))
        lo = solve(make_market(asymmetric_1x1.gains.entries, lo_nu))
        fd = (
            math.log(hi.distribution.married[0, 0]) - math.log(lo.distribution.married[0, 0])
        ) / (2 * h)
        assert fd == pytest.approx(elasticity[0, 0, k], rel=1e-4)

    def test_absent_where_no_marriages(self):
        market = make_market([[0.0, 1.0]], [2.0, 3.0, 4.0])
        eq = solve(market)
        report = statics_matrix(eq)
        elasticity = marriage_elasticity(eq, report)
        assert np.all(np.isnan(elasticity[0, 0]))
        assert np.all(np.isfinite(elasticity[0, 1]))


class TestTransfers:
    def test_index_on_asymmetric_fixture(self, asymmetric_1x1_eq):
        report = statics_matrix(asymmetric_1x1_eq)
        transfers = transfer_analysis(asymmetric_1x1_eq, report)
        assert transfers.transfer_index[0, 0] == pytest.approx(math.log(16.0), rel=1e-9)

    def test_derivative_positive_in_own_type(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        transfers = transfer_analysis(symmetric_1x1_eq, report)
        assert transfers.transfer_derivatives[0, 0, 0] == pytest.approx(0.01, rel=1e-9)

    def test_tau_recovered_when_c_supplied(self, asymmetric_1x1_eq):
        report = statics_matrix(asymmetric_1x1_eq)
        baseline = transfer_analysis(asymmetric_1x1_eq, report)
        transfers = transfer_analysis(
            asymmetric_1x1_eq, report, c=baseline.transfer_index
        )
        np.testing.assert_allclose(transfers.tau, 0.0, atol=1e-15)

    def test_tau_absent_without_c(self, asymmetric_1x1_eq):
        report = statics_matrix(asymmetric_1x1_eq)
        assert transfer_analysis(asymmetric_1x1_eq, report).tau is None


class TestParticipation:
    def test_symmetric_fixture(self, symmetric_1x1_eq):
        report = statics_matrix(symmetric_1x1_eq)
        part = participation_analysis(symmetric_1x1_eq, report)
        assert part.rate[0] == pytest.approx(0.5, rel=1e-9)
        assert part.own_derivative[0] == pytest.approx(0.0025, rel=1e-9)
        assert part.strict

    def test_asymmetric_fixture(self, asymmetric_1x1_eq):
        report = statics_matrix(asymmetric_1x1_eq)
        part = participation_analysis(asymmetric_1x1_eq, report)
        assert part.rate[0] == pytest.approx(0.8, rel=1e-9)

    def test_zero_gains_boundary(self):
        market = make_market(np.zeros((1, 1)), [2.0, 3.0])
        eq = solve(market)
        part = participation_analysis(eq, statics_matrix(eq))
        np.testing.assert_allclose(part.rate, 1.0, rtol=1e-12)
        np.testing.assert_allclose(part.own_derivative, 0.0, atol=1e-12)
        assert part.boundary
        assert not part.strict


class TestSpectralDiagnostic:
    def test_symmetric_fixture_is_one_ninth(self, symmetric_1x1_eq):
        lam, ok = spectral_diagnostic(symmetric_1x1_eq)
        assert lam == pytest.approx(1.0 / 9.0, abs=1e-10)
        assert ok

    def test_zero_gains(self):
        market = make_market(np.zeros((2, 2)), [1.0, 2.0, 3.0, 4.0])
        lam, ok = spectral_diagnostic(solve(market))
        assert lam == 0.0
        assert ok

    def test_below_one_randomized(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            lam, ok = spectral_diagnostic(solve(random_market(rng, max_types=8)))
            assert ok and 0.0 <= lam < 1.0

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(25)
        eq = solve(random_market(rng, max_types=6))
        lam, _ = spectral_diagnostic(eq)
        n_men = eq.market.n_male_types
        beta_sq = eq.beta**2
        nu = eq.market.population.counts
        d_men = 1.0 + nu[:n_men] / beta_sq[:n_men]
        d_women = 1.0 + nu[n_men:] / beta_sq[n_men:]
        pi = eq.market.gains.entries
        a = (pi / d_men[:, None]) @ (pi.T / d_women[:, None])
        dense = np.max(np.abs(np.linalg.eigvals(a)))
        assert lam == pytest.approx(dense, rel=1e-8)


class TestConjectureProbe:
    def test_symmetric_fixture_positive(self, symmetric_1x1_eq):
        probe = statics_matrix(symmetric_1x1_eq).conjecture
        assert probe.male_sums[0, 0] == pytest.approx(0.01, rel=1e-9)
        assert probe.all_positive

    def test_zero_gains_positive(self):
        market = make_market(np.zeros((2, 2)), [1.0, 2.0, 3.0, 4.0])
        probe = statics_matrix(solve(market)).conjecture
        assert probe.all_positive

    def test_probe_never_asserts(self):
        # The probe returns observations; it must not raise on any input.
        rng = np.random.default_rng(26)
        for _ in range(10):
            probe = statics_matrix(solve(random_market(rng, max_types=6))).conjecture
            assert probe.male_positive.dtype == bool


class TestFiniteDifferenceCheck:
    def test_symmetric_fixture(self, symmetric_1x1):
        eq = solve(symmetric_1x1)
        report = finite_difference_check(eq, statics_matrix(eq), step=1e-5)
        assert report.max_error < 1e-4

    def test_zero_gains_diagonal(self):
        market = make_market(np.zeros((2, 1)), [4.0, 9.0, 16.0])
        eq = solve(market)
        report = finite_difference_check(eq, statics_matrix(eq), step=1e-5)
        # d beta_k / d nu_k = 1 / (2 sqrt(nu_k)); substitution errors tiny
        assert report.substitution_error < 1e-6

    def test_random_instance(self):
        rng = np.random.default_rng(27)
        n_men, n_women = 5, 4
        market = make_market(
            rng.uniform(0.1, 3.0, size=(n_men, n_women)),
            np.exp(rng.uniform(0, 6, size=n_men + n_women)),
        )
        eq = solve(market)
        report = finite_difference_check(eq, statics_matrix(eq), step=1e-5)
        assert report.max_error < 1e-3

    def test_matches_looped_reference(self):
        # The stacked re-solves against one public solve per perturbed market;
        # every third market has Pi_00 = 0, whose lower point is one-sided.
        rng = np.random.default_rng(30)
        for n in range(24):
            shape = tuple(int(x) for x in rng.integers(1, 7, size=2))
            gains = rng.uniform(0.0, 5.0, size=shape)
            if n % 3 == 0:
                gains[0, 0] = 0.0
            market = make_market(gains, np.exp(rng.uniform(0.0, 8.0, size=sum(shape))))
            eq = solve(market)
            report = statics_matrix(eq)
            stacked = dataclasses.astuple(finite_difference_check(eq, report))
            reference = dataclasses.astuple(reference_finite_difference_check(eq, report))
            np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-9)

    def test_chunked_stack_matches_unsplit(self, monkeypatch):
        rng = np.random.default_rng(31)
        market = make_market(rng.uniform(0.0, 5.0, size=(4, 3)), np.exp(rng.uniform(0, 8, size=7)))
        eq = solve(market)
        report = statics_matrix(eq)
        whole = finite_difference_check(eq, report)
        # 38 re-solves of 12 gains entries each, in chunks of 5
        monkeypatch.setattr(statics, "_STACK_ELEMENT_BUDGET", 5 * 12)
        assert finite_difference_check(eq, report) == whole

    def test_failed_resolve_named(self):
        market = make_market([[1.0, 2.0], [0.5, 3.0]], [40.0, 70.0, 30.0, 90.0])
        eq = solve(market)
        with pytest.raises(ConvergenceError, match=r"^re-solve at nu\[m1\] \+ h: no convergence"):
            finite_difference_check(
                eq, statics_matrix(eq), step=1e-2, opts=SolverOptions(max_iterations=1)
            )

    @pytest.mark.parametrize("step", [1.5, -2.0, math.nan])
    def test_step_leaving_domain_rejected(self, symmetric_1x1_eq, step):
        with pytest.raises(ValueError, match="finite-difference step"):
            finite_difference_check(symmetric_1x1_eq, statics_matrix(symmetric_1x1_eq), step=step)


class TestMonotonicity:
    def test_transfer_and_participation_increase(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            market = random_market(rng, max_types=6, gains_high=3.0)
            eq = solve(market)
            report = statics_matrix(eq)
            transfers = transfer_analysis(eq, report)
            n_men = market.n_male_types
            for i in range(n_men):
                assert np.all(transfers.transfer_derivatives[i, :, i] > 0)
            part = participation_analysis(eq, report)
            assert np.all(part.own_derivative > 0)
