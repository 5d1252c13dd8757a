"""Substitution matrix and derived sensitivities of a solved market.

Everything here flows from the substitution matrix

    r_kl = (1 / beta_k^2) d(beta_k^2)/d(nu_l) = 2 * (D^2 H)^{-1}_kl,

evaluated at the equilibrium log-amplitudes.  R is built block by block
from the reduced matrix S of order min(I, J) (core.ReducedHessian); the
(I+J)^2 Hessian is never assembled.  R is symmetric positive definite;
with a gains matrix that has no vanishing row or column it also has a
strict sign pattern (same-sex entries positive, cross-sex entries
negative) and a spectral certificate lambda_max < 1 for the associated
non-negative operator, computed by eigvalsh on the smaller side.  All
derivatives can be cross-checked against a brute-force re-solve oracle
(finite_difference_check), whose 2(I+J) + 2IJ perturbed markets are solved
together as stacks by the solver's batched Newton loop, each stack holding
at most _STACK_ELEMENT_BUDGET gains entries.
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
    male_positive: np.ndarray
    female_positive: np.ndarray

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.male_positive) and np.all(self.female_positive))


@dataclass(frozen=True)
class StaticsReport:
    """Substitution matrix and companions for a solved market."""

    r_matrix: np.ndarray  # (I+J) x (I+J), symmetric positive definite
    d_beta: np.ndarray  # d_beta[k, l] = d(beta_k)/d(nu_l)
    spectral_radius: float
    spectral_pass: bool
    sign_check: SignCheckResult
    conjecture: ConjectureProbe
    beta_sq: np.ndarray
    nu: np.ndarray
    n_male_types: int
    n_female_types: int


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
    boundary: bool  # degenerate gains: derivative may sit at zero


@dataclass(frozen=True)
class GainsSensitivity:
    """Derivatives of amplitudes with respect to individual gains entries.

    d_beta[i, j, k] = d(beta_k)/d(Pi_ij).  d_log_beta carries the log form
    -(mu_ij / (2 Pi_ij)) (r_ki + r_{k,I+j}) and is NaN where Pi_ij = 0.
    """

    d_beta: np.ndarray
    d_log_beta: np.ndarray


def statics_matrix(eq: Equilibrium) -> StaticsReport:
    """Compute the substitution matrix R = 2 (D^2 H)^{-1} and companions."""
    _, _, hess = objective_H(eq.log_beta, eq.market.gains)
    try:
        r = 2.0 * reduce_hessian(*hess).inverse()
    except np.linalg.LinAlgError as exc:
        raise ValueError("equilibrium Hessian is not positive definite") from exc

    beta = eq.beta
    nu = eq.market.population.counts
    n_men = eq.market.n_male_types
    n_women = eq.market.n_female_types
    d_beta = 0.5 * beta[:, None] * r

    lam, spectral_ok = spectral_diagnostic(eq)
    report = StaticsReport(
        r_matrix=r,
        d_beta=d_beta,
        spectral_radius=lam,
        spectral_pass=spectral_ok,
        sign_check=_sign_check(r, beta**2, nu, n_men, n_women, eq.market.degenerate),
        conjecture=_conjecture(r, n_men, n_women),
        beta_sq=beta**2,
        nu=nu,
        n_male_types=n_men,
        n_female_types=n_women,
    )
    return report


def _sign_check(
    r: np.ndarray,
    beta_sq: np.ndarray,
    nu: np.ndarray,
    n_men: int,
    n_women: int,
    boundary: bool,
) -> SignCheckResult:
    abs_r = np.abs(r)
    slack = _STRICTNESS_SLACK * max(1.0, np.max(abs_r))

    def holds(lhs, rhs):
        """lhs < rhs, relaxed to lhs <= rhs + slack in boundary mode."""
        return lhs <= rhs + slack if boundary else lhs < rhs

    failures: list[str] = []
    cross = r[:n_men, n_men:]
    cross_bad = ~holds(cross, 0.0)
    for i, j in zip(*np.nonzero(cross_bad)):
        failures.append(f"cross-sex entry r[{i},{n_men + j}] = {cross[i, j]:.6g} is not negative")

    # Same-sex blocks: (beta_k^2 + nu_k) r_kl / 2 must exceed the identity.
    weight = 0.5 * (beta_sq + nu)
    diag_ok = True
    for block in (slice(0, n_men), slice(n_men, n_men + n_women)):
        sub = weight[block, None] * r[block, block]
        bad = np.argwhere(~holds(np.eye(sub.shape[0]), sub))
        diag_ok = diag_ok and bad.size == 0
        for k, l in bad:
            failures.append(
                f"same-sex bound fails at block entry ({block.start + k},{block.start + l}): "
                f"{sub[k, l]:.6g}"
            )

    # Off the diagonal |r_kl| < sqrt(r_kk r_ll); the diagonal bound is inf.
    d = np.diag(r)
    bound = np.sqrt(np.outer(d, d))
    np.fill_diagonal(bound, np.inf)
    cs_ok = bool(np.all(holds(abs_r, bound)))
    if not cs_ok:
        failures.append("Cauchy-Schwarz bound |r_kl| < sqrt(r_kk r_ll) violated")

    return SignCheckResult(
        mode="boundary" if boundary else "strict",
        cross_negative=not cross_bad.any(),
        diagonal_dominant=diag_ok,
        cauchy_schwarz=cs_ok,
        failures=tuple(failures),
    )


def _conjecture(r: np.ndarray, n_men: int, n_women: int) -> ConjectureProbe:
    diag = np.diag(r)
    male_sums = diag[:n_men, None] + r[:n_men, n_men:]
    female_sums = diag[None, n_men:] + r[:n_men, n_men:]
    # female_sums[i, j] = r_{I+j, I+j} + r_{I+j, i}; symmetry of R lets us
    # read the cross entry from the male-row block.
    return ConjectureProbe(
        male_sums=male_sums,
        female_sums=female_sums,
        male_positive=male_sums > 0,
        female_positive=female_sums > 0,
    )


def gains_sensitivity(eq: Equilibrium, report: StaticsReport) -> GainsSensitivity:
    """Amplitude response to gains entries via the implicit function theorem.

    d(beta_k)/d(Pi_ij) = -beta_i beta_{I+j} (d beta_k/d nu_i + d beta_k/d nu_{I+j}).
    """
    n_men = report.n_male_types
    beta = eq.beta
    pi = eq.market.gains.entries
    mu = eq.distribution.married

    # sums[i, j, k] = d beta_k/d nu_i + d beta_k/d nu_{I+j}
    d_nu = report.d_beta  # (K, K): d beta_k / d nu_l
    sums = d_nu[:, :n_men].T[:, None, :] + d_nu[:, n_men:].T[None, :, :]
    weight = np.outer(beta[:n_men], beta[n_men:])
    d_beta = -weight[:, :, None] * sums

    r = report.r_matrix
    r_sums = r[:, :n_men].T[:, None, :] + r[:, n_men:].T[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_log = -(mu / (2.0 * pi))[:, :, None] * r_sums
    d_log[pi == 0] = np.nan
    return GainsSensitivity(d_beta=d_beta, d_log_beta=d_log)


def marriage_elasticity(eq: Equilibrium, report: StaticsReport) -> np.ndarray:
    """d log(mu_ij) / d nu_k = (r_ik + r_{I+j,k}) / 2; NaN where mu_ij = 0."""
    n_men = report.n_male_types
    r = report.r_matrix
    out = 0.5 * (r[:n_men, None, :] + r[None, n_men:, :])
    out = np.where((eq.market.gains.entries == 0)[:, :, None], np.nan, out)
    return out


def transfer_analysis(
    eq: Equilibrium, report: StaticsReport, c: np.ndarray | None = None
) -> TransferReport:
    """Transfer index log(beta_i^2 / beta_{I+j}^2) and its nu-derivatives."""
    n_men = report.n_male_types
    b = eq.log_beta
    index = 2.0 * (b[:n_men, None] - b[None, n_men:])
    r = report.r_matrix
    derivatives = 0.5 * (r[:n_men, None, :] - r[None, n_men:, :])
    tau = None
    if c is not None:
        c = np.asarray(c, dtype=float)
        if c.shape != index.shape:
            raise ValueError(f"c matrix must have shape {index.shape}, got {c.shape}")
        tau = 0.5 * (index - c)
    return TransferReport(transfer_index=index, transfer_derivatives=derivatives, tau=tau)


def participation_analysis(eq: Equilibrium, report: StaticsReport) -> ParticipationReport:
    """Non-participation rate s_k = beta_k^2 / nu_k and its own-derivative."""
    nu = report.nu
    beta_sq = report.beta_sq
    rate = beta_sq / nu
    own = (beta_sq / nu**2) * (nu * np.diag(report.r_matrix) - 1.0)
    return ParticipationReport(
        rate=rate,
        own_derivative=own,
        strict=bool(np.all(own > 0)),
        boundary=eq.market.degenerate,
    )


def spectral_diagnostic(eq: Equilibrium) -> tuple[float, bool]:
    """Perron root of the non-negative operator certifying the sign pattern.

    A = D_I^{-1} Pi D_J^{-1} Pi^T with diagonal entries d_k = 1 + nu_k / beta_k^2.
    Its non-zero spectrum equals that of the partner product on the other
    side, so the largest eigenvalue is taken by eigvalsh of the symmetric
    form D_a^{-1/2} Pi_ac D_c^{-1} Pi_ac^T D_a^{-1/2} on the side a with
    fewer types; the certified bound is lambda_max < 1.
    """
    market = eq.market
    n_men = market.n_male_types
    d = 1.0 + market.population.counts / eq.beta**2
    pi, d_a, d_c = market.gains.entries, d[:n_men], d[n_men:]
    if n_men > market.n_female_types:
        pi, d_a, d_c = pi.T, d_c, d_a
    scaled = pi / np.sqrt(d_a)[:, None] / np.sqrt(d_c)[None, :]
    lam = float(np.linalg.eigvalsh(scaled @ scaled.T)[-1])
    return lam, lam < 1.0


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
    eq: Equilibrium,
    report: StaticsReport,
    step: float = 1e-5,
    opts: SolverOptions = SolverOptions(),
) -> FiniteDifferenceReport:
    """Independent oracle: central differences of re-solved equilibria.

    Takes a solved market and its statics_matrix report, re-solves the
    market (warm-started at eq) at nu_k (1 +/- step) for every k and at
    Pi_ij +/- step (1 + Pi_ij) for every (i, j), then compares the central
    differences of beta^2, log mu, the transfer index, and the
    participation rate against the analytic values.  Where Pi_ij < step
    (1 + Pi_ij) the lower point is Pi_ij = 0 and the difference is
    one-sided.  The 2(I+J) + 2IJ re-solves run as stacks of perturbed
    copies of the market, in chunks of at most _STACK_ELEMENT_BUDGET gains
    entries.
    """
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
        gains_error=_rel_error(
            fd_gains.reshape(n_men, -1, n), gains_sensitivity(eq, report).d_beta
        ),
        marriage_error=_rel_error(fd_mu, marriage_elasticity(eq, report)),
        transfer_error=_rel_error(
            fd_transfer, transfer_analysis(eq, report).transfer_derivatives
        ),
        participation_error=_rel_error(
            fd_participation, participation_analysis(eq, report).own_derivative
        ),
    )
