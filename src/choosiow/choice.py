"""Gumbel random-utility microfoundation and Monte Carlo validation.

Each decision maker sees J + 1 alternatives (index 0 = staying single) with
utility eta_j + sigma * epsilon_j, where the epsilon_j are independent
Gumbel draws.  The resulting choice probabilities are the softmax of
eta / sigma; simulate_choices and equilibrium_consistency verify this
empirically against a solved market.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import Equilibrium


@dataclass(frozen=True)
class ChoiceModel:
    """Systematic utilities over J + 1 alternatives plus a noise scale."""

    systematic_utilities: np.ndarray
    sigma: float = 1.0

    def __post_init__(self):
        utilities = np.array(self.systematic_utilities, dtype=float)
        if utilities.ndim != 1 or utilities.size < 1:
            raise ValueError("systematic utilities must form a non-empty vector")
        if not np.all(np.isfinite(utilities)):
            raise ValueError("systematic utilities must be finite")
        if not self.sigma > 0:
            raise ValueError("sigma must be strictly positive")
        utilities.setflags(write=False)
        object.__setattr__(self, "systematic_utilities", utilities)

    @property
    def n_alternatives(self) -> int:
        return self.systematic_utilities.size


@dataclass(frozen=True)
class SimulationResult:
    """Empirical choice frequencies of a simulated sample."""

    frequencies: np.ndarray
    sample_count: int

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if abs(freq.sum() - 1.0) > 1e-12:
            raise ValueError("frequencies must sum to one")
        freq.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)


def gumbel_from_uniform(u):
    """Inverse-CDF transform: u in (0, 1) -> -log(-log u)."""
    return -np.log(-np.log(u))


def gumbel_sample(rng: np.random.Generator, size=None):
    """Draw standard Gumbel variates (CDF exp(-exp(-x))) by CDF inversion."""
    u = rng.random(size)
    # rng.random() lives in [0, 1); nudge exact zeros off the boundary.
    u = np.maximum(u, np.finfo(float).tiny)
    return gumbel_from_uniform(u)


def choice_probabilities(model: ChoiceModel) -> np.ndarray:
    """Closed-form logit probabilities: softmax of eta / sigma."""
    scaled = model.systematic_utilities / model.sigma
    scaled = scaled - scaled.max()
    weights = np.exp(scaled)
    return weights / weights.sum()


def sigma_limit(model: ChoiceModel) -> np.ndarray:
    """Zero-noise limit: uniform mass on the maximizers of eta."""
    eta = model.systematic_utilities
    winners = eta == eta.max()
    return winners / winners.sum()


def simulate_choices(model: ChoiceModel, n: int, rng: np.random.Generator) -> SimulationResult:
    """Simulate n agents with independent Gumbel perturbations per alternative.

    Ties are broken toward the lowest index, a probability-zero event under
    continuous noise.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    counts = np.zeros(model.n_alternatives, dtype=np.int64)
    # Chunked so that n = 1e7 does not allocate n x (J+1) at once.
    chunk = max(1, min(n, 1_000_000 // max(1, model.n_alternatives)))
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        noise = gumbel_sample(rng, (take, model.n_alternatives))
        picks = np.argmax(model.systematic_utilities + model.sigma * noise, axis=1)
        counts += np.bincount(picks, minlength=model.n_alternatives)
        remaining -= take
    return SimulationResult(frequencies=counts / n, sample_count=n)


@dataclass(frozen=True)
class ConsistencyRecord:
    """Per-type divergence between simulated and equilibrium match rates."""

    male_divergence: np.ndarray  # length I, max abs deviation per male type
    female_divergence: np.ndarray  # length J
    sample_count: int

    @property
    def max_divergence(self) -> float:
        return float(max(self.male_divergence.max(), self.female_divergence.max()))


def _type_divergence(
    targets: np.ndarray, n: int, rng: np.random.Generator
) -> float:
    """Simulate one type whose target shares are (p_single, p_match_1, ...)."""
    live = targets > 0
    # Alternatives with zero equilibrium share have log-probability -inf;
    # exclude them rather than feed -inf utilities to the model.
    utilities = np.log(targets[live] / targets[0])
    model = ChoiceModel(systematic_utilities=utilities)
    sim = simulate_choices(model, n, rng)
    freq = np.zeros(targets.size)
    freq[live] = sim.frequencies
    return float(np.max(np.abs(freq - targets)))


def equilibrium_consistency(
    eq: Equilibrium, n_per_type: int, rng: np.random.Generator
) -> ConsistencyRecord:
    """Monte Carlo check that simulated agents reproduce the solved market.

    For each type the identified utility differences are reconstructed from
    the solution (eta_j - eta_0 = log of the match-to-single ratio) and
    n_per_type agents are simulated; the record holds the max absolute
    deviation between empirical frequencies and the equilibrium shares.
    """
    dist = eq.distribution
    men = eq.market.men
    women = eq.market.women
    male_div = np.empty(eq.market.n_male_types)
    for i in range(eq.market.n_male_types):
        targets = np.concatenate(([dist.single_men[i]], dist.married[i])) / men[i]
        male_div[i] = _type_divergence(targets, n_per_type, rng)
    female_div = np.empty(eq.market.n_female_types)
    for j in range(eq.market.n_female_types):
        targets = np.concatenate(([dist.single_women[j]], dist.married[:, j])) / women[j]
        female_div[j] = _type_divergence(targets, n_per_type, rng)
    return ConsistencyRecord(
        male_divergence=male_div,
        female_divergence=female_div,
        sample_count=n_per_type,
    )
