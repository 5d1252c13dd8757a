import numpy as np
import pytest

from choosiow import (
    GainsMatrix,
    PopulationVector,
    ValidatedMarket,
    solve,
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
