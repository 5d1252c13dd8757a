"""Damped-Newton solver for the unique positive equilibrium.

The equilibrium amplitudes are the unique minimizer of the smooth strictly
convex function b -> H(b) - <nu, b> over log-amplitudes b.  The Hessian of
H is available in closed form and is symmetric positive definite.  Each
step solves the Newton system through the reduced matrix S of order
min(I, J) (core.ReducedHessian), whose Cholesky factorisation checks
positive definiteness, then backtracks on the value of H alone (Armijo);
strict convexity makes the iteration globally convergent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GainsMatrix,
    MaritalDistribution,
    PopulationVector,
    ScalingError,
    ValidatedMarket,
    marriage_distribution,
    objective_H,
    potential_value,
    reduce_hessian,
    validate_market,
)


class ConvergenceError(RuntimeError):
    """Solver failed to reach tolerance; carries the final iterate."""

    def __init__(self, message: str, log_beta: np.ndarray, residual_norm: float):
        super().__init__(message)
        self.log_beta = log_beta
        self.residual_norm = residual_norm


LINE_SEARCH_SHRINK = 0.5
ARMIJO_CONSTANT = 1e-4
# Cap on the Newton step in b-space; e^{2b} curvature explodes, so small
# steps suffice even for extreme inputs.
STEP_CAP = 10.0


@dataclass(frozen=True)
class SolverOptions:
    gradient_tolerance: float = 1e-10  # per component, relative to nu_k
    max_iterations: int = 200

    def __post_init__(self):
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")


@dataclass(frozen=True)
class Equilibrium:
    """Solved market: amplitudes, distribution, and solver diagnostics.

    beta and log_beta (beta = e^log_beta) are read-only arrays in
    [men | women] order.
    objective_value is the final H(b) - <nu, b>, i.e. minus the Legendre
    transform of H evaluated at nu.
    """

    beta: np.ndarray
    log_beta: np.ndarray
    distribution: MaritalDistribution
    market: ValidatedMarket
    residual_norm: float
    iterations: int
    objective_value: float
    objective_trace: tuple[float, ...] = ()


def initial_guess(population: PopulationVector) -> np.ndarray:
    """Start from b0_k = log(sqrt(nu_k)), exact when the gains matrix is zero."""
    return 0.5 * np.log(population.counts)


def solve(
    market: ValidatedMarket,
    opts: SolverOptions = SolverOptions(),
    start: np.ndarray | None = None,
) -> Equilibrium:
    """Find the unique positive equilibrium of a validated market.

    Newton steps solve the SPD Hessian system through its reduced matrix,
    with Armijo backtracking on the objective value; the objective
    decreases monotonically (up to rounding) and the iteration stops once
    every component of the clearing residual (the gradient, in persons)
    drops below gradient_tolerance * nu_k, a test that does not depend on
    the units of nu.
    """
    nu = market.population.counts
    b = initial_guess(market.population) if start is None else np.array(start, dtype=float)
    # Componentwise criterion in the clearing metric; implies
    # ||grad|| <= gradient_tolerance * ||nu||.
    tol_per_component = opts.gradient_tolerance * nu
    # Near the minimum the objective comparison is noise limited; allow the
    # line search to accept steps within rounding error of the current value.
    noise_floor = lambda value: 4.0 * np.finfo(float).eps * abs(value)

    def eval_objective(b_trial: np.ndarray) -> float:
        try:
            return potential_value(b_trial, market.gains) - nu @ b_trial
        except ScalingError:
            return float("inf")

    obj = potential_value(b, market.gains) - nu @ b
    _, grad, hess = objective_H(b, market.gains)
    grad = grad - nu
    trace = [obj]
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        if np.all(np.abs(grad) <= tol_per_component):
            iterations -= 1
            break
        try:
            step = reduce_hessian(*hess).solve(-grad)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"Hessian factorization failed at iteration {iterations}",
                b,
                float(np.linalg.norm(grad)),
            ) from exc
        cap = np.max(np.abs(step))
        if cap > STEP_CAP:
            step *= STEP_CAP / cap

        slope = grad @ step
        t = 1.0
        while True:
            trial = b + t * step
            trial_obj = eval_objective(trial)
            if trial_obj <= obj + ARMIJO_CONSTANT * t * slope + noise_floor(obj):
                break
            t *= LINE_SEARCH_SHRINK
            if t < 1e-14:
                raise ConvergenceError(
                    f"line search failed at iteration {iterations}",
                    b,
                    float(np.linalg.norm(grad)),
                )
        b, obj = trial, trial_obj
        _, grad, hess = objective_H(b, market.gains)
        grad = grad - nu
        trace.append(obj)
    else:
        if not np.all(np.abs(grad) <= tol_per_component):
            raise ConvergenceError(
                f"no convergence within {opts.max_iterations} iterations "
                f"(residual norm {np.linalg.norm(grad):.3e})",
                b,
                float(np.linalg.norm(grad)),
            )

    # Every accepted b passed the range check of potential_value, so beta is
    # positive and finite.
    beta = np.exp(b)
    beta.setflags(write=False)
    b.setflags(write=False)
    return Equilibrium(
        beta=beta,
        log_beta=b,
        distribution=marriage_distribution(beta, market.gains),
        market=market,
        residual_norm=float(np.linalg.norm(grad)),
        iterations=iterations,
        objective_value=float(obj),
        objective_trace=tuple(trace),
    )


@dataclass(frozen=True)
class IndexMap:
    """Mapping from a reduced market back to the originally supplied types."""

    kept_men: tuple[int, ...]
    kept_women: tuple[int, ...]
    n_men: int
    n_women: int

    @property
    def identity(self) -> bool:
        return len(self.kept_men) == self.n_men and len(self.kept_women) == self.n_women

    def embed_distribution(self, reduced: MaritalDistribution) -> MaritalDistribution:
        """Re-embed a reduced distribution; dropped types get explicit zeros."""
        married = np.zeros((self.n_men, self.n_women))
        single_men = np.zeros(self.n_men)
        single_women = np.zeros(self.n_women)
        married[np.ix_(self.kept_men, self.kept_women)] = reduced.married
        single_men[list(self.kept_men)] = reduced.single_men
        single_women[list(self.kept_women)] = reduced.single_women
        return MaritalDistribution(married, single_men, single_women)

    def embed_amplitudes(self, beta: np.ndarray) -> np.ndarray:
        """Full-length amplitude vector with NaN for dropped (undefined) types."""
        out = np.full(self.n_men + self.n_women, np.nan)
        n_kept_men = len(self.kept_men)
        out[list(self.kept_men)] = beta[:n_kept_men]
        out[[self.n_men + j for j in self.kept_women]] = beta[n_kept_men:]
        return out


def reduce_unpopulated(
    gains: GainsMatrix, raw_population
) -> tuple[ValidatedMarket, IndexMap]:
    """Drop types with zero population and return the reduced market.

    The equilibrium of the reduced market extends the solution to merely
    non-negative population vectors: dropped types have zero singles and
    zero marriages, with amplitudes undefined.
    """
    raw = np.asarray(raw_population, dtype=float)
    n_men, n_women = gains.n_male_types, gains.n_female_types
    if raw.shape != (n_men + n_women,):
        raise ValueError(
            f"population has {raw.size} entries, expected {n_men + n_women}"
        )
    if np.any(raw < 0) or not np.all(np.isfinite(raw)):
        raise ValueError("population entries must be non-negative and finite")
    kept_men = tuple(int(i) for i in np.flatnonzero(raw[:n_men] > 0))
    kept_women = tuple(int(j) for j in np.flatnonzero(raw[n_men:] > 0))
    if not kept_men and not kept_women:
        raise ValueError("all types are unpopulated")
    if not kept_men or not kept_women:
        # With one side empty nobody can marry and the reduced gains matrix
        # would have no rows or no columns, which GainsMatrix rejects.
        raise ValueError("one side of the market is entirely unpopulated")
    reduced_gains = GainsMatrix(
        entries=gains.entries[np.ix_(kept_men, kept_women)],
        row_labels=tuple(gains.row_labels[i] for i in kept_men),
        col_labels=tuple(gains.col_labels[j] for j in kept_women),
    )
    counts = np.concatenate(
        [raw[list(kept_men)], raw[[n_men + j for j in kept_women]]]
    )
    market = validate_market(reduced_gains, PopulationVector(counts))
    return market, IndexMap(kept_men, kept_women, n_men, n_women)
