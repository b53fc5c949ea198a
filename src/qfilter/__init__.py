"""Optimal unambiguous quantum state filtering.

Closed-form failure probabilities for filtering one target state out of a
known ensemble, an explicit dilated-unitary construction of the optimal
generalized measurement, Monte Carlo simulation of all strategies, and the
application to discriminating biased Boolean functions from balanced ones.

``import qfilter`` loads no submodule and no numpy: each public name is
imported from its home submodule the first time it is read (PEP 562), and
then kept on the package.
"""

import importlib
import sys
import types

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "boolfn": (
            "BooleanFunction", "ComplementVariant", "PriorMode", "average_overlap_full",
            "biased_fraction", "boolean_problem", "dj_encode", "enumerate_balanced",
            "povm_advantage", "wk_spec",
        ),
        "ensemble": ("Decomposition", "FilteringProblem", "StateVector", "decompose_target"),
        "ensemble_io": ("load_problem", "save_problem"),
        "errors": (
            "DegenerateDecompositionError", "InfeasibleError", "InvalidInputError",
            "NumericalError", "QFilterError", "ResourceLimitError",
        ),
        "neumark": (
            "FailureAllocation", "MeasurementScheme", "NeumarkModel", "Outcome", "SchemeKind",
            "SuccessGram", "build_neumark", "failure_allocations", "povm_elements",
            "projective_scheme", "success_gram",
        ),
        "simulate": ("SimulationStats", "aggregate_failure", "simulate"),
        "strategies": ("Regime", "StrategyReport", "failure_curve", "optimal_filtering"),
    }.items()
    for name in names
}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package; the public name
        # ``simulate`` stays the function, in every import order.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

__all__ = sorted(_HOME)
