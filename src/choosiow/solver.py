"""Damped-Newton solver for the unique positive equilibrium.

The equilibrium amplitudes are the unique minimizer of the smooth strictly
convex function b -> H(b) - <nu, b> over log-amplitudes b.  The Hessian of
H is available in closed form and is symmetric positive definite.  Each
step solves the Newton system through the reduced matrix S of order
min(I, J) (core.ReducedHessian), whose Cholesky factorisation checks
positive definiteness, then backtracks on the value of H alone (Armijo);
strict convexity makes the iteration globally convergent.

One loop (_solve_stack) runs this iteration on a stack of equal-shape
markets at once, with batched factorisations and a per-market line search;
markets leave the stack as they converge, and each follows the same
sequence of iterates as when solved alone.  solve is its one-market case;
the finite-difference oracle in statics solves its perturbed markets as
stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    LOG_AMPLITUDE_BOUND,
    GainsMatrix,
    MaritalDistribution,
    PopulationVector,
    ValidatedMarket,
    _amplitudes,
    marriage_distribution,
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
_NOISE = 4.0 * np.finfo(float).eps


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
    stack = _solve_stack(market.gains.entries[None], nu[None], b[None], opts)
    iterations = int(stack.iterations[0])
    # Every accepted b passed the range check, so beta is positive and finite.
    b = stack.log_beta[0]
    beta = np.exp(b)
    beta.setflags(write=False)
    b.setflags(write=False)
    trace = stack.objective_trace[: iterations + 1, 0]
    return Equilibrium(
        beta=beta,
        log_beta=b,
        distribution=marriage_distribution(beta, market.gains),
        market=market,
        residual_norm=float(np.linalg.norm(stack.residual[0])),
        iterations=iterations,
        objective_value=float(trace[-1]),
        objective_trace=tuple(trace.tolist()),
    )


class _StackSolution(NamedTuple):
    log_beta: np.ndarray  # (B, I+J)
    residual: np.ndarray  # (B, I+J), the final gradient of H(b) - <nu, b>
    iterations: np.ndarray  # (B,)
    # (T+1, B): row t holds each member's objective after t steps, or after
    # its last step once it has converged.
    objective_trace: np.ndarray


def _solve_stack(
    gains: np.ndarray,
    nu: np.ndarray,
    start: np.ndarray,
    opts: SolverOptions,
    name: Callable[[int], str] = lambda member: "",
) -> _StackSolution:
    """Damped Newton on a stack of equal-shape markets at once.

    gains has shape (B, I, J), nu and start (B, I+J).  Each member follows
    exactly the iteration solve describes: a Newton step through the reduced
    Hessian, capped at STEP_CAP, then Armijo backtracking with a noise
    floor; members leave the stack as they converge.  A failure raises
    ConvergenceError for the first failing member, whose message starts
    with name(member index).
    """
    n_men = gains.shape[1]
    _amplitudes(start)  # a non-finite or out-of-range start raises here
    b = np.array(start, dtype=float)
    tol = opts.gradient_tolerance * nu
    beta, obj = _objective(gains, nu, b, n_men)

    count = b.shape[0]
    log_beta_out = np.empty(b.shape)
    residual_out = np.empty(b.shape)
    iterations_out = np.empty(count, dtype=int)
    obj_out = obj.copy()
    history = [obj_out.copy()]
    idx = np.arange(count)  # stack position of each active member
    iterations = 0

    def fail(member: int, message: str) -> ConvergenceError:
        return ConvergenceError(
            name(int(idx[member])) + message, b[member], float(np.linalg.norm(grad[member]))
        )

    while True:
        # Gradient and Hessian blocks at the accepted point, from its amplitudes.
        men, women = beta[:, :n_men], beta[:, n_men:]
        cross = gains * (men[:, :, None] * women[:, None, :])
        h_grad = np.empty(b.shape)
        h_grad[:, :n_men] = men**2 + cross.sum(axis=2)
        h_grad[:, n_men:] = women**2 + cross.sum(axis=1)
        grad = h_grad - nu
        done = (np.abs(grad) <= tol).all(axis=1)
        n_done = np.count_nonzero(done)
        if n_done:
            log_beta_out[idx[done]] = b[done]
            residual_out[idx[done]] = grad[done]
            iterations_out[idx[done]] = iterations
            if n_done == done.size:
                break
            keep = ~done
            idx, gains, nu, tol, b, beta, cross, obj, grad, h_grad = (
                x[keep] for x in (idx, gains, nu, tol, b, beta, cross, obj, grad, h_grad)
            )
        if iterations == opts.max_iterations:
            raise fail(
                0,
                f"no convergence within {opts.max_iterations} iterations "
                f"(residual norm {np.linalg.norm(grad[0]):.3e})",
            )
        iterations += 1

        diag = h_grad + beta**2
        try:
            step = reduce_hessian(diag, cross).solve(-grad)
        except np.linalg.LinAlgError as exc:
            member = _unfactorable(diag, cross)
            message = f"Hessian factorization failed at iteration {iterations}"
            raise fail(member, message) from exc
        cap = np.abs(step).max(axis=1)
        capped = cap > STEP_CAP
        if np.count_nonzero(capped):
            step[capped] *= (STEP_CAP / cap[capped])[:, None]

        slope = (grad[:, None, :] @ step[:, :, None])[:, 0, 0]
        # Near the minimum the objective comparison is noise limited; allow the
        # line search to accept steps within rounding error of the current value.
        floor = _NOISE * np.abs(obj)
        trial = b + step
        beta, trial_obj = _objective(gains, nu, trial, n_men)
        accept = trial_obj <= obj + ARMIJO_CONSTANT * slope + floor  # t = 1
        t = None
        while np.count_nonzero(accept) < accept.size:
            if t is None:
                t = np.ones(accept.size)
            p = np.flatnonzero(~accept)
            if p.size == t.size:
                p = slice(None)  # the whole stack backtracks: views, not copies
            t[p] *= LINE_SEARCH_SHRINK
            if (t[p] < 1e-14).any():
                raise fail(
                    int(np.flatnonzero(t < 1e-14)[0]),
                    f"line search failed at iteration {iterations}",
                )
            trial[p] = b[p] + t[p, None] * step[p]
            beta[p], trial_obj[p] = _objective(gains[p], nu[p], trial[p], n_men)
            accept[p] = trial_obj[p] <= obj[p] + (ARMIJO_CONSTANT * t[p]) * slope[p] + floor[p]
        b, obj = trial, trial_obj
        obj_out[idx] = obj
        history.append(obj_out.copy())

    return _StackSolution(log_beta_out, residual_out, iterations_out, np.array(history))


def _objective(
    gains: np.ndarray, nu: np.ndarray, b: np.ndarray, n_men: int
) -> tuple[np.ndarray, np.ndarray]:
    """beta = e^b and H(b) - <nu, b> for a stack of log-amplitudes.

    The objective is +inf for members whose log-amplitudes leave the safe
    range, so that the line search shortens such a step.
    """
    in_range = (np.abs(b) <= LOG_AMPLITUDE_BOUND).all(axis=1)
    all_in_range = np.count_nonzero(in_range) == in_range.size
    beta = np.exp(b if all_in_range else np.where(in_range[:, None], b, 0.0))
    # H(b) = 1/2 |beta|^2 + beta_I^T Pi beta_J, as matrix-vector products.
    row = beta[:, None, :]
    obj = (
        0.5 * (row @ beta[:, :, None])
        + row[:, :, :n_men] @ gains @ beta[:, n_men:, None]
        - nu[:, None, :] @ b[:, :, None]
    )[:, 0, 0]
    if not all_in_range:
        obj[~in_range] = np.inf
    return beta, obj


def _unfactorable(diag: np.ndarray, cross: np.ndarray) -> int:
    """Position of the first stack member whose Hessian cannot be factored."""
    for member in range(diag.shape[0]):
        try:
            reduce_hessian(diag[member], cross[member])
        except np.linalg.LinAlgError:
            return member
    return 0


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
