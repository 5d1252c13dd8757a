"""Output checks computed apart from the program.

Each function takes plain arrays (read from a library result or from a CLI
JSON report) and returns a list of failure messages; an empty list means the
output passed.  Nothing here calls into ``choosiow``: the Hessian, the
clearing totals and the spectral operator are rebuilt from the returned
amplitudes and the input gains, following the paper's formulas.
"""

from __future__ import annotations

import numpy as np

CLEARING_TOL = 1e-9  # row/column totals against nu, relative
IDENTITY_TOL = 1e-12  # mu_ij^2 = Pi_ij^2 mu_i0 mu_0j, relative
INVERSE_TOL = 1e-8  # max |R (D^2 H / 2) - I|
SPECTRAL_TOL = 1e-7  # program's power iteration against eigvalsh
GAINS_TOL = 1e-8  # estimate-gains against the file's gains, relative
# simulate: each type's shares are multinomial frequencies over n draws, so an
# alternative's share deviates from p by more than 6 sqrt(p(1-p)/n), which is
# at most 3/sqrt(n), with probability below 2e-9.
SIMULATION_SIGMAS = 6.0


def clearing(mu, single_men, single_women, nu) -> list[str]:
    """Row and column totals of the returned distribution equal nu."""
    mu = np.asarray(mu, dtype=float)
    n_men = mu.shape[0]
    totals = np.concatenate(
        [np.asarray(single_men) + mu.sum(axis=1), np.asarray(single_women) + mu.sum(axis=0)]
    )
    nu = np.asarray(nu, dtype=float)
    err = np.abs(totals - nu) / nu
    if np.all(err <= CLEARING_TOL):
        return []
    k = int(np.argmax(err))
    side = "man" if k < n_men else "woman"
    return [f"clearing: {side} type {k} total off by {err[k]:.3g} relative"]


def choo_siow_identity(mu, single_men, single_women, pi) -> list[str]:
    """mu_ij^2 = Pi_ij^2 mu_i0 mu_0j for every pair."""
    mu = np.asarray(mu, dtype=float)
    rhs = np.asarray(pi) ** 2 * np.outer(single_men, single_women)
    scale = np.maximum(mu**2, rhs)
    err = np.abs(mu**2 - rhs) / np.where(scale > 0, scale, 1.0)
    if np.all(err <= IDENTITY_TOL):
        return []
    return [f"Choo-Siow identity off by {float(err.max()):.3g} relative"]


def _half_hessian(beta, pi) -> np.ndarray:
    """D^2 H / 2 at b = log beta, built from H(b) = 1/2 sum e^{2b} + sum Pi e^{b_i + b_j}."""
    beta = np.asarray(beta, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n_men = pi.shape[0]
    men, women = beta[:n_men], beta[n_men:]
    cross = pi * np.outer(men, women)
    hess = np.zeros((beta.size, beta.size))
    hess[:n_men, n_men:] = cross
    hess[n_men:, :n_men] = cross.T
    diag = np.concatenate([2 * men**2 + cross.sum(axis=1), 2 * women**2 + cross.sum(axis=0)])
    hess[np.diag_indices(beta.size)] = diag
    return 0.5 * hess


def own_spectral_radius(beta, pi, nu) -> float:
    """Largest eigenvalue of D_I^-1 Pi D_J^-1 Pi^T, d_k = 1 + nu_k / beta_k^2.

    The non-zero spectrum of that product equals the spectrum of the
    partner product on the other side, so the smaller side is used, in the
    symmetric form D^-1/2 (.) D^-1/2 that eigvalsh accepts.
    """
    beta = np.asarray(beta, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n_men = pi.shape[0]
    d = 1.0 + np.asarray(nu, dtype=float) / beta**2
    d_men, d_women = d[:n_men], d[n_men:]
    if pi.shape[0] > pi.shape[1]:
        pi, d_men, d_women = pi.T, d_women, d_men
    scaled = pi / np.sqrt(d_men)[:, None] / np.sqrt(d_women)[None, :]
    return float(np.linalg.eigvalsh(scaled @ scaled.T)[-1])


def substitution(r, beta, pi, nu, spectral_radius) -> list[str]:
    """R inverts D^2 H / 2, has the paper's sign pattern, and lambda_max < 1."""
    r = np.asarray(r, dtype=float)
    n_men = np.asarray(pi).shape[0]
    failures = []
    residual = float(np.max(np.abs(r @ _half_hessian(beta, pi) - np.eye(r.shape[0]))))
    if not residual <= INVERSE_TOL:
        failures.append(f"R (D^2 H / 2) differs from I by {residual:.3g}")
    if not np.all(r[:n_men, n_men:] < 0):
        failures.append("a cross-sex entry of R is not negative")
    diag = np.diag(r)
    off = ~np.eye(r.shape[0], dtype=bool)
    if not np.all(np.abs(r[off]) < np.sqrt(np.outer(diag, diag))[off]):
        failures.append("|r_kl| < sqrt(r_kk r_ll) fails")
    own = own_spectral_radius(beta, pi, nu)
    if not spectral_radius < 1.0:
        failures.append(f"spectral radius {spectral_radius:.6g} is not below 1")
    if not abs(spectral_radius - own) <= SPECTRAL_TOL * max(1.0, own):
        failures.append(f"spectral radius {spectral_radius:.12g} but eigvalsh gives {own:.12g}")
    return failures


def recovered_gains(estimated, pi) -> list[str]:
    estimated = np.asarray(estimated, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if estimated.shape != pi.shape:
        return [f"estimated gains have shape {estimated.shape}, expected {pi.shape}"]
    err = np.abs(estimated - pi) / np.maximum(pi, np.finfo(float).tiny)
    if np.all(err <= GAINS_TOL):
        return []
    return [f"estimate-gains off by {float(err.max()):.3g} relative"]


def simulation(max_divergence, samples) -> list[str]:
    bound = SIMULATION_SIGMAS * 0.5 / np.sqrt(samples)
    if max_divergence <= bound:
        return []
    return [f"simulated shares diverge by {max_divergence:.4g} > {bound:.4g}"]


def shock_signs(baseline, shocked) -> list[str]:
    """More men of one type: every male singles count rises, every female one falls."""
    failures = []
    if not np.all(np.asarray(shocked["single_men"]) > np.asarray(baseline["single_men"])):
        failures.append("whatif: a single_men count did not rise")
    if not np.all(np.asarray(shocked["single_women"]) < np.asarray(baseline["single_women"])):
        failures.append("whatif: a single_women count did not fall")
    return failures
