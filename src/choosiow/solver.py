"""Damped-Newton solver for the unique positive equilibrium.

The equilibrium amplitudes are the unique minimizer of the smooth strictly
convex function b -> H(b) - <nu, b> over log-amplitudes b.  A solve without
a given start first runs IPFP sweeps (_sweep): each side in turn is set to
the amplitudes that clear it against the other side's, at O(IJ) per sweep.
When the sweeps bring the men's clearing residual down to SWEEP_HANDOFF,
Newton starts from them; when they stall, reach SWEEP_CAP or leave the safe
range, Newton starts from initial_guess instead, exactly as without sweeps.

The Hessian of H is available in closed form and is symmetric positive
definite.  At each accepted point, core.objective_H gives the gradient and
Hessian blocks.  The step solves the Newton system through the reduced
matrix S of order min(I, J) (core.ReducedHessian), whose Cholesky
factorisation checks positive definiteness, then backtracks (Armijo) on the
exact decrease along the step, built from the same blocks; strict convexity
makes the iteration globally convergent.

One loop (_solve_stack) runs this iteration on a stack of equal-shape
markets at once, with batched factorisations and a per-market line search;
markets leave the stack as they converge, and each follows the same
sequence of iterates as when solved alone.  solve is its one-market case;
the finite-difference oracle in statics solves its perturbed markets as
stacks.

Every type has nu_k > 0 here: a zero-population type has beta_k = 0 and no
log-amplitude, so core.reduce_unpopulated drops such types before solving
and the CLI puts them back in its reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    LOG_AMPLITUDE_BOUND,
    MaritalDistribution,
    PopulationVector,
    ValidatedMarket,
    marriage_distribution,
    objective_H,
    reduce_hessian,
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
# IPFP sweeps hand off to Newton once the max scaled men's clearing residual
# is at most SWEEP_HANDOFF.  They stall, and Newton starts from initial_guess,
# when after MIN_SWEEPS sweeps the residual does not drop below
# SWEEP_CONTRACTION times the previous sweep's, or after SWEEP_CAP sweeps.
SWEEP_HANDOFF = 1e-6
SWEEP_CONTRACTION = 0.9
MIN_SWEEPS = 3
SWEEP_CAP = 50


@dataclass(frozen=True)
class SolverOptions:
    gradient_tolerance: float = 1e-10  # per component, relative to nu_k
    max_iterations: int = 200

    def __post_init__(self):
        if not 0 < self.gradient_tolerance < math.inf:
            raise ValueError("gradient_tolerance must be positive and finite")
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be a positive integer")


@dataclass(frozen=True)
class Equilibrium:
    """Solved market: amplitudes, distribution, and solver diagnostics.

    beta and log_beta (beta = e^log_beta) are read-only arrays in
    [men | women] order.
    sweeps counts the IPFP sweeps that gave Newton its start: 0 when Newton
    started from initial_guess or from a start the caller gave.
    objective_value is the final H(b) - <nu, b>, i.e. minus the Legendre
    transform of H evaluated at nu: the starting value plus the exact
    decreases of the accepted steps, whose partial sums are objective_trace.
    """

    beta: np.ndarray
    log_beta: np.ndarray
    distribution: MaritalDistribution
    market: ValidatedMarket
    residual_norm: float
    iterations: int
    sweeps: int
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

    Without a start, IPFP sweeps seed Newton when they reach SWEEP_HANDOFF;
    when they stall, Newton starts from initial_guess, and the result is the
    one solve(market, opts, start=initial_guess(market.population)) gives.
    Newton steps solve the SPD Hessian system through its reduced matrix,
    with Armijo backtracking on the exact decrease of the objective, which
    therefore decreases monotonically; the iteration stops once every
    component of the clearing residual (the gradient, in persons) drops
    below gradient_tolerance * nu_k, a test that does not depend on the
    units of nu.  A start must have shape (I+J,).
    """
    nu = market.population.counts
    sweeps = 0
    if start is not None:
        b = np.array(start, dtype=float)
    elif (swept := _sweep(market.gains.entries, nu)) is not None:
        b, sweeps = swept
    else:
        b = initial_guess(market.population)
    if b.shape != nu.shape:
        raise ValueError(f"start has shape {b.shape}, expected ({nu.size},)")
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
        sweeps=sweeps,
        objective_value=float(trace[-1]),
        objective_trace=tuple(trace.tolist()),
    )


def _sweep(gains: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, int] | None:
    """IPFP from initial_guess: (log-amplitudes, sweeps) on hand-off, None on a stall.

    A sweep sets each man's amplitude to the root of beta (beta + s) = m
    with s = Pi beta_J, as 2m / (s + sqrt(s^2 + 4m)), which does not cancel
    when s^2 >> 4m, then each woman's the same way.  The women then clear
    exactly and the men's scaled residual |beta_i (beta_i + s_i) - m_i| / m_i
    measures the distance to the equilibrium.  Sweeps that overflow or
    underflow stall or give amplitudes outside the safe range, and numpy
    warns of neither.
    """
    n_men = gains.shape[0]
    men, women = nu[:n_men], nu[n_men:]
    s = gains @ np.sqrt(women)
    previous = np.inf
    with np.errstate(all="ignore"):
        for sweep in range(1, SWEEP_CAP + 1):
            beta_men = 2.0 * men / (s + np.sqrt(s * s + 4.0 * men))
            t = beta_men @ gains
            beta_women = 2.0 * women / (t + np.sqrt(t * t + 4.0 * women))
            s = gains @ beta_women
            residual = (np.abs(beta_men * (beta_men + s) - men) / men).max()
            if residual <= SWEEP_HANDOFF:
                b = np.log(np.concatenate((beta_men, beta_women)))
                # False for a zero or non-finite amplitude.
                return (b, sweep) if np.abs(b).max() <= LOG_AMPLITUDE_BOUND else None
            if sweep > MIN_SWEEPS and not residual <= SWEEP_CONTRACTION * previous:
                return None
            previous = residual
    return None


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
    Hessian, capped at STEP_CAP, then Armijo backtracking on the exact
    decrease (_decrease); members leave the stack as they converge.  A
    failure raises ConvergenceError for the first failing member, whose
    message starts with name(member index).
    """
    b = np.array(start, dtype=float)
    # A non-finite or out-of-range start raises here.
    value, h_grad, (beta_sq, cross) = objective_H(b, gains)
    tol = opts.gradient_tolerance * nu

    count = b.shape[0]
    log_beta_out = np.empty(b.shape)
    residual_out = np.empty(b.shape)
    iterations_out = np.empty(count, dtype=int)
    obj_out = value - (nu[:, None, :] @ b[:, :, None])[:, 0, 0]
    history = [obj_out.copy()]
    idx = np.arange(count)  # stack position of each active member
    iterations = 0

    def fail(member: int, message: str) -> ConvergenceError:
        return ConvergenceError(
            name(int(idx[member])) + message, b[member], float(np.linalg.norm(grad[member]))
        )

    while True:
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
            idx, gains, nu, tol, b, beta_sq, cross, grad, h_grad = (
                x[keep] for x in (idx, gains, nu, tol, b, beta_sq, cross, grad, h_grad)
            )
        if iterations == opts.max_iterations:
            raise fail(
                0,
                f"no convergence within {opts.max_iterations} iterations "
                f"(residual norm {np.linalg.norm(grad[0]):.3e})",
            )
        iterations += 1

        diag = h_grad + beta_sq
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
        trial, delta = _decrease(b, step, nu, h_grad, beta_sq, cross)
        accept = delta <= ARMIJO_CONSTANT * slope  # t = 1
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
            trial[p], delta[p] = _decrease(
                b[p], t[p, None] * step[p], nu[p], h_grad[p], beta_sq[p], cross[p]
            )
            accept[p] = delta[p] <= (ARMIJO_CONSTANT * t[p]) * slope[p]
        b = trial
        _, h_grad, (beta_sq, cross) = objective_H(b, gains)
        obj_out[idx] += delta
        history.append(obj_out.copy())

    return _StackSolution(log_beta_out, residual_out, iterations_out, np.array(history))


def _decrease(
    b: np.ndarray,
    d: np.ndarray,
    nu: np.ndarray,
    h_grad: np.ndarray,
    beta_sq: np.ndarray,
    cross: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Trial points b + d and the exact change F(b + d) - F(b) of F = H - <nu, .>.

    From objective_H's gradient and blocks at b, stacked: with u = expm1(d),
    H(b + d) - H(b) = sum_k u_k (grad_k + beta_k^2 u_k / 2) + u_I^T C u_J,
    whose rounding scales with the decrease, not with H.  The change is +inf
    where the trial point leaves the safe range, so that the line search
    shortens such a step.
    """
    trial = b + d
    all_in_range = np.abs(trial).max() <= LOG_AMPLITUDE_BOUND  # False for a NaN
    if not all_in_range:
        in_range = (np.abs(trial) <= LOG_AMPLITUDE_BOUND).all(axis=1)
        d = np.where(in_range[:, None], d, 0.0)
    u = np.expm1(d)
    n_men = cross.shape[1]
    row = u[:, None, :]
    delta = (
        row @ (h_grad + 0.5 * beta_sq * u)[:, :, None]
        + row[:, :, :n_men] @ cross @ u[:, n_men:, None]
        - nu[:, None, :] @ d[:, :, None]
    )[:, 0, 0]
    if not all_in_range:
        delta[~in_range] = np.inf
    return trial, delta


def _unfactorable(diag: np.ndarray, cross: np.ndarray) -> int:
    """Position of the first stack member whose Hessian cannot be factored."""
    for member in range(diag.shape[0]):
        try:
            reduce_hessian(diag[member], cross[member])
        except np.linalg.LinAlgError:
            return member
    return 0

