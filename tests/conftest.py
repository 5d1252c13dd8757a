import numpy as np
import pytest

from choosiow import (
    FiniteDifferenceReport,
    GainsMatrix,
    PopulationVector,
    SolverOptions,
    ValidatedMarket,
    gains_sensitivity,
    marriage_elasticity,
    participation_analysis,
    solve,
    transfer_analysis,
    validate_market,
)


def make_market(gains, populations) -> ValidatedMarket:
    return validate_market(
        GainsMatrix(np.asarray(gains, dtype=float)),
        PopulationVector(np.asarray(populations, dtype=float)),
    )


def dense_hessian(blocks) -> np.ndarray:
    """Assemble [[diag(d_I), C], [C^T, diag(d_J)]] from objective_H's Hessian blocks."""
    diag, cross = blocks
    n_men = cross.shape[0]
    hess = np.diag(diag)
    hess[:n_men, n_men:] = cross
    hess[n_men:, :n_men] = cross.T
    return hess


def random_market(
    rng: np.random.Generator,
    max_types: int = 12,
    gains_high: float = 5.0,
    nu_low: float = 1.0,
    nu_high: float = 1e6,
) -> ValidatedMarket:
    n_men = int(rng.integers(1, max_types + 1))
    n_women = int(rng.integers(1, max_types + 1))
    gains = rng.uniform(0.0, gains_high, size=(n_men, n_women))
    nu = np.exp(rng.uniform(np.log(nu_low), np.log(nu_high), size=n_men + n_women))
    return make_market(gains, nu)


def _rel_error(fd: np.ndarray, analytic: np.ndarray) -> float:
    mask = np.isfinite(analytic)
    if not np.any(mask):
        return 0.0
    scale = max(float(np.max(np.abs(analytic[mask]))), 1e-300)
    return float(np.max(np.abs(fd[mask] - analytic[mask])) / scale)


def reference_finite_difference_check(
    eq, report, step: float = 1e-5, opts: SolverOptions = SolverOptions()
) -> FiniteDifferenceReport:
    """The finite-difference oracle as one public solve per perturbed market.

    A loop over the 2(I+J) + 2IJ re-solves, kept as the reference that the
    stacked finite_difference_check is compared against.
    """
    market = eq.market
    gains = gains_sensitivity(eq, report)
    elasticity = marriage_elasticity(eq, report)
    transfers = transfer_analysis(eq, report)
    participation = participation_analysis(eq, report)

    n = market.size
    n_men = market.n_male_types
    nu = market.population.counts
    pi = market.gains.entries
    b0 = eq.log_beta

    def resolve(counts, entries):
        perturbed = validate_market(
            GainsMatrix(entries, market.gains.row_labels, market.gains.col_labels),
            PopulationVector(counts),
        )
        return solve(perturbed, opts, start=b0)

    fd_r = np.empty((n, n))
    fd_mu = np.empty(elasticity.shape)
    fd_transfer = np.empty(transfers.transfer_derivatives.shape)
    fd_participation = np.empty(n)
    for k in range(n):
        h = step * nu[k]
        shifted = nu.copy()
        shifted[k] = nu[k] + h
        hi = resolve(shifted, pi)
        shifted[k] = nu[k] - h
        lo = resolve(shifted, pi)
        fd_r[:, k] = (hi.beta**2 - lo.beta**2) / (2 * h) / eq.beta**2
        with np.errstate(divide="ignore", invalid="ignore"):
            fd_mu[:, :, k] = (
                np.log(hi.distribution.married) - np.log(lo.distribution.married)
            ) / (2 * h)
        hi_index = 2.0 * (hi.log_beta[:n_men, None] - hi.log_beta[None, n_men:])
        lo_index = 2.0 * (lo.log_beta[:n_men, None] - lo.log_beta[None, n_men:])
        fd_transfer[:, :, k] = (hi_index - lo_index) / (4 * h)
        fd_participation[k] = (
            hi.beta[k] ** 2 / (nu[k] + h) - lo.beta[k] ** 2 / (nu[k] - h)
        ) / (2 * h)

    fd_gains = np.empty(gains.d_beta.shape)
    for i in range(n_men):
        for j in range(market.n_female_types):
            h = step * (1.0 + pi[i, j])
            entries = pi.copy()
            entries[i, j] = pi[i, j] + h
            hi = resolve(nu, entries)
            entries[i, j] = max(pi[i, j] - h, 0.0)
            h_lo = pi[i, j] - entries[i, j]
            lo = resolve(nu, entries)
            fd_gains[i, j, :] = (hi.beta - lo.beta) / (h + h_lo)

    return FiniteDifferenceReport(
        substitution_error=_rel_error(fd_r, report.r_matrix),
        gains_error=_rel_error(fd_gains, gains.d_beta),
        marriage_error=_rel_error(fd_mu, elasticity),
        transfer_error=_rel_error(fd_transfer, transfers.transfer_derivatives),
        participation_error=_rel_error(fd_participation, participation.own_derivative),
    )


@pytest.fixture
def symmetric_1x1():
    """Pi = [[1]], nu = (100, 100): beta = (sqrt 50, sqrt 50), mu = 50."""
    return make_market([[1.0]], [100.0, 100.0])


@pytest.fixture
def asymmetric_1x1():
    """Pi = [[1]], nu = (4, 1): beta = (4/sqrt 5, 1/sqrt 5), mu = 0.8."""
    return make_market([[1.0]], [4.0, 1.0])


@pytest.fixture
def symmetric_1x1_eq(symmetric_1x1):
    return solve(symmetric_1x1)


@pytest.fixture
def asymmetric_1x1_eq(asymmetric_1x1):
    return solve(asymmetric_1x1)
