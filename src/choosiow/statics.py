"""Substitution matrix and derived sensitivities of a solved market.

Everything here flows from the substitution matrix

    r_kl = (1 / beta_k^2) d(beta_k^2)/d(nu_l) = 2 * (D^2 H)^{-1}_kl,

evaluated at the equilibrium log-amplitudes.  statics_matrix(eq), the one
entry point, builds R block by block from the reduced matrix S of order
min(I, J) (core.ReducedHessian) of core.objective_H's blocks, never
assembling the (I+J)^2 Hessian, and returns a StaticsReport that carries eq;
every derived sensitivity takes that report alone.  Gains sensitivities,
marriage elasticities and transfer derivatives each pair a male row with a
female row of R (or of d_beta^T) in _pairs; participation reads R's
diagonal.  R is symmetric positive definite; with a gains matrix that has
no vanishing row or column it also has a strict sign pattern (same-sex
entries positive, cross-sex entries negative) and a spectral certificate
lambda_max < 1 for the associated non-negative operator, read from the
same reduced Hessian.  All derivatives can be cross-checked against a
brute-force re-solve oracle (finite_difference_check), whose 2(I+J) + 2IJ
perturbed markets are solved together as stacks by the solver's batched
Newton loop, each stack holding at most _STACK_ELEMENT_BUDGET gains entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import objective_H, reduce_hessian
from .solver import Equilibrium, SolverOptions, _solve_stack

_STRICTNESS_SLACK = 1e-12
# The finite-difference re-solves run in stacks of at most this many gains
# entries (B x I x J), so check on a 40 x 300 market does not allocate its
# 24,680 perturbed gains matrices at once.
_STACK_ELEMENT_BUDGET = 1_000_000


@dataclass(frozen=True)
class SignCheckResult:
    """Outcome of the sign/symmetry/bound checks on the substitution matrix.

    mode is "strict" when no gains row/column vanishes and "boundary"
    otherwise; in boundary mode inequalities are only checked weakly.
    """

    mode: str
    cross_negative: bool
    diagonal_dominant: bool
    cauchy_schwarz: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.cross_negative and self.diagonal_dominant and self.cauchy_schwarz


@dataclass(frozen=True)
class ConjectureProbe:
    """Non-asserting observations on whether r_kk dominates cross entries.

    male_sums[i, j] holds r_ii + r_{i, I+j}; female_sums[i, j] holds
    r_{I+j, I+j} + r_{I+j, i}.  Diagnostic only: positivity is unproven in
    general and must never be turned into a hard assertion.
    """

    male_sums: np.ndarray
    female_sums: np.ndarray

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.male_sums > 0) and np.all(self.female_sums > 0))


@dataclass(frozen=True)
class StaticsReport:
    """Substitution matrix and companions for a solved market.

    Built only by statics_matrix; carries the equilibrium it was computed
    at, so the derived sensitivities below take the report alone.
    """

    equilibrium: Equilibrium
    r_matrix: np.ndarray  # (I+J) x (I+J), symmetric positive definite
    d_beta: np.ndarray  # d_beta[k, l] = d(beta_k)/d(nu_l)
    spectral_radius: float
    spectral_pass: bool
    sign_check: SignCheckResult
    conjecture: ConjectureProbe


@dataclass(frozen=True)
class TransferReport:
    """Transfer index log(mu_i0 / mu_0j) and its population derivatives.

    The index equals twice the equilibrium transfer plus an exogenous
    constant c_ij; tau itself is only identified when c is supplied.
    """

    transfer_index: np.ndarray  # I x J
    transfer_derivatives: np.ndarray  # I x J x (I+J), d(tau_ij)/d(nu_k)
    tau: np.ndarray | None = None


@dataclass(frozen=True)
class ParticipationReport:
    """Non-participation rates s_k = beta_k^2 / nu_k and own-derivatives."""

    rate: np.ndarray  # length I+J
    own_derivative: np.ndarray  # d s_k / d nu_k
    strict: bool  # all own-derivatives strictly positive


def statics_matrix(eq: Equilibrium) -> StaticsReport:
    """R = 2 (D^2 H)^{-1} and companions, from one reduced Hessian at eq.log_beta."""
    _, grad, (beta_sq, cross) = objective_H(eq.log_beta, eq.market.gains.entries)
    try:
        hess = reduce_hessian(grad + beta_sq, cross)
    except np.linalg.LinAlgError as exc:
        raise ValueError("equilibrium Hessian is not positive definite") from exc
    r = 2.0 * hess.inverse()
    lam = float(hess.spectral_radius())

    market = eq.market
    n_men = market.n_male_types
    diag = np.diag(r)
    return StaticsReport(
        equilibrium=eq,
        r_matrix=r,
        d_beta=0.5 * eq.beta[:, None] * r,
        spectral_radius=lam,
        spectral_pass=lam < 1.0,
        sign_check=_sign_check(
            r, beta_sq, market.population.counts, n_men, market.n_female_types, market.degenerate
        ),
        # female_sums[i, j] = r_{I+j, I+j} + r_{I+j, i}; symmetry of R lets
        # us read the cross entry from the male-row block.
        conjecture=ConjectureProbe(
            male_sums=diag[:n_men, None] + r[:n_men, n_men:],
            female_sums=diag[None, n_men:] + r[:n_men, n_men:],
        ),
    )


def _sign_check(
    r: np.ndarray, beta_sq: np.ndarray, nu: np.ndarray, n_men: int, n_women: int, boundary: bool
) -> SignCheckResult:
    # max |r_kl|, without an (I+J)^2 copy for np.abs(r).
    slack = _STRICTNESS_SLACK * max(1.0, r.max(), -r.min())

    def holds(lhs, rhs):
        """lhs < rhs, relaxed to lhs <= rhs + slack in boundary mode."""
        return lhs <= rhs + slack if boundary else lhs < rhs

    # The index scans that name failing entries run only when a check fails.
    failures: list[str] = []
    cross = r[:n_men, n_men:]
    cross_ok = holds(cross, 0.0)
    cross_negative = bool(cross_ok.all())
    if not cross_negative:
        for i, j in zip(*np.nonzero(~cross_ok)):
            failures.append(f"cross-sex entry r[{i},{n_men + j}] = {cross[i, j]:.6g} is not negative")

    # Same-sex blocks: (beta_k^2 + nu_k) r_kl / 2 must exceed the identity,
    # i.e. 1 on the diagonal and 0 off it.
    weight = 0.5 * (beta_sq + nu)
    diag_ok = True
    for block in (slice(0, n_men), slice(n_men, n_men + n_women)):
        sub = weight[block, None] * r[block, block]
        ok = holds(0.0, sub)
        np.fill_diagonal(ok, holds(1.0, np.diagonal(sub)))
        if ok.all():
            continue
        diag_ok = False
        for k, l in np.argwhere(~ok):
            failures.append(
                f"same-sex bound fails at block entry ({block.start + k},{block.start + l}): "
                f"{sub[k, l]:.6g}"
            )

    # Off the diagonal |r_kl| < sqrt(r_kk r_ll); the diagonal bound is inf.
    # |r| < bound is r < bound and r > -bound, negation being exact.
    d = np.diag(r)
    bound = np.outer(d, d)
    np.sqrt(bound, out=bound)
    np.fill_diagonal(bound, np.inf)
    if boundary:
        bound += slack
        cs_ok = bool((r <= bound).all()) and bool((r >= np.negative(bound, out=bound)).all())
    else:
        cs_ok = bool((r < bound).all()) and bool((r > np.negative(bound, out=bound)).all())
    if not cs_ok:
        failures.append("Cauchy-Schwarz bound |r_kl| < sqrt(r_kk r_ll) violated")

    return SignCheckResult(
        mode="boundary" if boundary else "strict",
        cross_negative=cross_negative,
        diagonal_dominant=diag_ok,
        cauchy_schwarz=cs_ok,
        failures=tuple(failures),
    )


def _pairs(m: np.ndarray, n_men: int, sign: float) -> np.ndarray:
    """out[i, j, :] = m[i] + sign * m[I+j]: a male row paired with a female row."""
    return m[:n_men, None, :] + sign * m[None, n_men:, :]


def gains_sensitivity(report: StaticsReport) -> np.ndarray:
    """d_beta[i, j, k] = d(beta_k)/d(Pi_ij), by the implicit function theorem.

    d(beta_k)/d(Pi_ij) = -beta_i beta_{I+j} (d beta_k/d nu_i + d beta_k/d nu_{I+j}).
    """
    eq = report.equilibrium
    n_men = eq.market.n_male_types
    weight = np.outer(eq.beta[:n_men], eq.beta[n_men:])
    return -weight[:, :, None] * _pairs(report.d_beta.T, n_men, 1.0)


def marriage_elasticity(report: StaticsReport) -> np.ndarray:
    """d log(mu_ij) / d nu_k = (r_ik + r_{I+j,k}) / 2; NaN where mu_ij = 0."""
    market = report.equilibrium.market
    out = 0.5 * _pairs(report.r_matrix, market.n_male_types, 1.0)
    return np.where((market.gains.entries == 0)[:, :, None], np.nan, out)


def transfer_analysis(report: StaticsReport, c: np.ndarray | None = None) -> TransferReport:
    """Transfer index log(beta_i^2 / beta_{I+j}^2) and its nu-derivatives."""
    eq = report.equilibrium
    n_men = eq.market.n_male_types
    b = eq.log_beta
    index = 2.0 * (b[:n_men, None] - b[None, n_men:])
    derivatives = 0.5 * _pairs(report.r_matrix, n_men, -1.0)
    tau = None
    if c is not None:
        c = np.asarray(c, dtype=float)
        if c.shape != index.shape:
            raise ValueError(f"c matrix must have shape {index.shape}, got {c.shape}")
        tau = 0.5 * (index - c)
    return TransferReport(transfer_index=index, transfer_derivatives=derivatives, tau=tau)


def participation_analysis(report: StaticsReport) -> ParticipationReport:
    """Non-participation rate s_k = beta_k^2 / nu_k and its own-derivative."""
    eq = report.equilibrium
    nu = eq.market.population.counts
    beta_sq = eq.beta**2
    rate = beta_sq / nu
    own = (beta_sq / nu**2) * (nu * np.diag(report.r_matrix) - 1.0)
    return ParticipationReport(rate=rate, own_derivative=own, strict=bool(np.all(own > 0)))


@dataclass(frozen=True)
class FiniteDifferenceReport:
    """Max-norm relative errors of analytic derivatives vs. re-solve oracles."""

    substitution_error: float
    gains_error: float
    marriage_error: float
    transfer_error: float
    participation_error: float

    @property
    def max_error(self) -> float:
        return max(
            self.substitution_error,
            self.gains_error,
            self.marriage_error,
            self.transfer_error,
            self.participation_error,
        )


def _rel_error(fd: np.ndarray, analytic: np.ndarray) -> float:
    mask = np.isfinite(analytic)
    if not np.any(mask):
        return 0.0
    scale = max(float(np.max(np.abs(analytic[mask]))), 1e-300)
    return float(np.max(np.abs(fd[mask] - analytic[mask])) / scale)


def finite_difference_check(
    report: StaticsReport,
    step: float = 1e-5,
    opts: SolverOptions = SolverOptions(),
) -> FiniteDifferenceReport:
    """Independent oracle: central differences of re-solved equilibria.

    Takes a statics_matrix report, re-solves its market (warm-started at
    the report's equilibrium) at nu_k (1 +/- step) for every k and at
    Pi_ij +/- step (1 + Pi_ij) for every (i, j), then compares the central
    differences of beta^2, log mu, the transfer index, and the
    participation rate against the analytic values.  Where Pi_ij < step
    (1 + Pi_ij) the lower point is Pi_ij = 0 and the difference is
    one-sided.  The 2(I+J) + 2IJ re-solves run as stacks of perturbed
    copies of the market, in chunks of at most _STACK_ELEMENT_BUDGET gains
    entries.
    """
    eq = report.equilibrium
    market = eq.market
    n = market.size
    n_men = market.n_male_types
    nu = market.population.counts
    pi = market.gains.entries.ravel()
    n_pairs = pi.size

    # Re-solve m sets entry position[m] of theta = [nu | Pi.ravel()] to
    # value[m]; the four blocks of re-solves are nu_k + h_k, nu_k - h_k,
    # Pi_ij + h_ij and max(Pi_ij - h_ij, 0).
    h_nu = step * nu
    h_pi = step * (1.0 + pi)
    pi_lo = np.maximum(pi - h_pi, 0.0)
    theta = np.concatenate([nu, pi])
    position = np.concatenate([np.tile(np.arange(n), 2), n + np.tile(np.arange(n_pairs), 2)])
    value = np.concatenate([nu + h_nu, nu - h_nu, pi + h_pi, pi_lo])
    count = value.size
    counts, entries = value[: 2 * n], value[2 * n :]
    if not (np.isfinite(value).all() and (counts > 0).all() and (entries >= 0).all()):
        raise ValueError(
            f"finite-difference step {step!r} makes a population non-positive or a gain negative"
        )

    labels = market.gains.row_labels + market.gains.col_labels

    def name(m: int) -> str:
        k = position[m]
        if k < n:
            entry = f"nu[{labels[k]}]"
        else:
            i, j = divmod(k - n, market.n_female_types)
            entry = f"Pi[{labels[i]}, {labels[n_men + j]}]"
        sign = "-" if n <= m < 2 * n or m >= 2 * n + n_pairs else "+"
        return f"re-solve at {entry} {sign} h: "

    log_beta = np.empty((count, n))
    chunk = max(1, _STACK_ELEMENT_BUDGET // n_pairs)
    for first in range(0, count, chunk):
        members = slice(first, min(first + chunk, count))
        stack = np.tile(theta, (members.stop - first, 1))
        stack[np.arange(len(stack)), position[members]] = value[members]
        log_beta[members] = _solve_stack(
            stack[:, n:].reshape(len(stack), n_men, -1),
            stack[:, :n],
            np.broadcast_to(eq.log_beta, (len(stack), n)),
            opts,
            lambda m, first=first: name(first + m),
        ).log_beta
    beta = np.exp(log_beta)

    # Row k of hi (lo) is the re-solve at nu_k + h_k (nu_k - h_k); the
    # differences come out with k first and move to the last axis.
    hi, lo = beta[:n], beta[n : 2 * n]
    two_h = 2.0 * h_nu[:, None]
    fd_r = ((hi**2 - lo**2) / two_h / eq.beta**2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = market.gains.entries * (beta[: 2 * n, :n_men, None] * beta[: 2 * n, None, n_men:])
        log_mu = np.log(mu)
        fd_mu = np.moveaxis((log_mu[:n] - log_mu[n:]) / two_h[:, :, None], 0, -1)
    # transfer index = 2 tau + c with c exogenous, so d tau = d index / 2
    index = 2.0 * (log_beta[: 2 * n, :n_men, None] - log_beta[: 2 * n, None, n_men:])
    fd_transfer = np.moveaxis((index[:n] - index[n:]) / (2.0 * two_h[:, :, None]), 0, -1)
    k = np.arange(n)
    fd_participation = (
        hi[k, k] ** 2 / (nu + h_nu) - lo[k, k] ** 2 / (nu - h_nu)
    ) / (2.0 * h_nu)
    gains_hi, gains_lo = beta[2 * n : 2 * n + n_pairs], beta[2 * n + n_pairs :]
    fd_gains = (gains_hi - gains_lo) / (h_pi + (pi - pi_lo))[:, None]

    return FiniteDifferenceReport(
        substitution_error=_rel_error(fd_r, report.r_matrix),
        gains_error=_rel_error(fd_gains.reshape(n_men, -1, n), gains_sensitivity(report)),
        marriage_error=_rel_error(fd_mu, marriage_elasticity(report)),
        transfer_error=_rel_error(fd_transfer, transfer_analysis(report).transfer_derivatives),
        participation_error=_rel_error(
            fd_participation, participation_analysis(report).own_derivative
        ),
    )
