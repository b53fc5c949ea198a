"""The public API, and every qfilter name that code outside the package reads.

The acceptance criteria, the README example and the benchmark import these
names; the benchmark is not part of this suite, so a removal that breaks it
shows up here first. The files are read, not imported or run.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import qfilter

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = [
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


def resolve(module: str, dotted: str):
    """``module``'s attribute at the dotted path ``dotted``; AttributeError if absent."""
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def imported_names(source: str, label: str):
    """(module, name) for every ``from qfilter[.x] import name`` in ``source``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source, label))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qfilter"
        for alias in node.names
    ]


def test_public_api_is_the_listed_names():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert qfilter.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        resolve("qfilter", name)


def test_acceptance_and_readme_imports_resolve():
    sources = [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    pairs = [pair for i, text in enumerate(sources) for pair in imported_names(text, f"<{i}>")]
    assert ("qfilter", "optimal_filtering") in pairs
    for module, name in pairs:
        resolve(module, name)


def test_benchmark_workload_names_resolve():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "qfilter"
    }
    assert {"wk_spec", "enumerate_balanced", "simulate"} <= names
    for name in names:
        resolve("qfilter", name)


def span_targets():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.parametrize("module, attribute", span_targets())
def test_benchmark_span_targets_resolve(module, attribute):
    assert callable(resolve(module, attribute))
