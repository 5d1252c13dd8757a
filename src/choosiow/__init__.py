"""Choo-Siow marriage-matching inverse problem: solver and comparative statics."""

__version__ = "0.1.0"

from .core import (
    GainsMatrix,
    MaritalDistribution,
    PopulationVector,
    ScalingError,
    ValidatedMarket,
    marriage_distribution,
    reduce_unpopulated,
    validate_market,
)
from .solver import ConvergenceError, Equilibrium, SolverOptions, solve
from .statics import (
    FiniteDifferenceReport,
    StaticsReport,
    TransferReport,
    finite_difference_check,
    gains_sensitivity,
    marriage_elasticity,
    participation_analysis,
    statics_matrix,
    transfer_analysis,
)
from .choice import (
    ChoiceModel,
    SimulationResult,
    choice_probabilities,
    equilibrium_consistency,
    gumbel_sample,
    sigma_limit,
    simulate_choices,
)

__all__ = [
    "ChoiceModel",
    "ConvergenceError",
    "Equilibrium",
    "FiniteDifferenceReport",
    "GainsMatrix",
    "MaritalDistribution",
    "PopulationVector",
    "ScalingError",
    "SimulationResult",
    "SolverOptions",
    "StaticsReport",
    "TransferReport",
    "ValidatedMarket",
    "choice_probabilities",
    "equilibrium_consistency",
    "finite_difference_check",
    "gains_sensitivity",
    "gumbel_sample",
    "marriage_distribution",
    "marriage_elasticity",
    "participation_analysis",
    "reduce_unpopulated",
    "sigma_limit",
    "simulate_choices",
    "solve",
    "statics_matrix",
    "transfer_analysis",
    "validate_market",
]
