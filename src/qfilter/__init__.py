"""Optimal unambiguous quantum state filtering.

Closed-form failure probabilities for filtering one target state out of a
known ensemble, an explicit dilated-unitary construction of the optimal
generalized measurement, Monte Carlo simulation of all strategies, and the
application to discriminating biased Boolean functions from balanced ones.
"""

from .boolfn import (
    BooleanFunction,
    ComplementVariant,
    PriorMode,
    average_overlap_full,
    biased_fraction,
    boolean_problem,
    dj_encode,
    enumerate_balanced,
    povm_advantage,
    wk_spec,
)
from .ensemble import (
    Decomposition,
    FilteringProblem,
    StateVector,
    decompose_target,
)
from .ensemble_io import load_problem, save_problem
from .errors import (
    DegenerateDecompositionError,
    InfeasibleError,
    InvalidInputError,
    NumericalError,
    QFilterError,
    ResourceLimitError,
)
from .neumark import (
    FailureAllocation,
    MeasurementScheme,
    NeumarkModel,
    Outcome,
    SchemeKind,
    SuccessGram,
    build_neumark,
    failure_allocations,
    povm_elements,
    projective_scheme,
    success_gram,
)
from .simulate import (
    SimulationStats,
    aggregate_failure,
    simulate,
)
from .strategies import (
    Regime,
    StrategyReport,
    failure_curve,
    optimal_filtering,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "ComplementVariant",
    "Decomposition",
    "DegenerateDecompositionError",
    "FailureAllocation",
    "FilteringProblem",
    "InfeasibleError",
    "InvalidInputError",
    "MeasurementScheme",
    "NeumarkModel",
    "NumericalError",
    "Outcome",
    "PriorMode",
    "QFilterError",
    "Regime",
    "ResourceLimitError",
    "SchemeKind",
    "SimulationStats",
    "StateVector",
    "StrategyReport",
    "SuccessGram",
    "aggregate_failure",
    "average_overlap_full",
    "biased_fraction",
    "boolean_problem",
    "build_neumark",
    "decompose_target",
    "dj_encode",
    "enumerate_balanced",
    "failure_allocations",
    "failure_curve",
    "load_problem",
    "optimal_filtering",
    "povm_advantage",
    "povm_elements",
    "projective_scheme",
    "save_problem",
    "simulate",
    "success_gram",
    "wk_spec",
]
