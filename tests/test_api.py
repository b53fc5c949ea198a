"""The public API, and every qfilter name that code outside the package reads.

The acceptance criteria, the README example and the benchmark import these
names; the benchmark is not part of this suite, so a removal that breaks it
shows up here first. The files are read, not imported or run. The package
loads lazily; the last tests check, in fresh interpreters, what each entry
point loads.
"""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import typing
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


# Every qfilter module. The checks below run in fresh interpreters, since this
# one has imported them all.
SUBMODULES = {
    f"qfilter.{m}"
    for m in ("boolfn", "cli", "ensemble", "ensemble_io", "errors", "neumark", "simulate",
              "strategies", "tolerances")
}


@pytest.mark.parametrize("module", sorted(SUBMODULES))
def test_annotations_name_types_the_module_can_resolve(module):
    # each module imports what its own annotations name, even where it
    # imports the rest of the package only inside a function
    namespace = importlib.import_module(module)
    defined = [
        obj for obj in vars(namespace).values()
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module
    ]
    methods = [
        getattr(member, "fget", member)
        for cls in defined if inspect.isclass(cls)
        for member in vars(cls).values()
        if inspect.isfunction(getattr(member, "fget", member))
    ]
    for obj in defined + methods:
        typing.get_type_hints(obj)


def fresh_run(code: str, cwd) -> str:
    """The last stdout line of ``code`` run in a new interpreter on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def loaded_after(code: str, cwd) -> set[str]:
    """numpy and the qfilter modules loaded once ``code`` has run."""
    probe = "import sys; print(*(m for m in sys.modules if m == 'numpy' or m in %r))"
    return set(fresh_run(code + "\n" + probe % (SUBMODULES,), cwd).split())


def test_bare_import_loads_no_submodule_and_no_numpy(tmp_path):
    assert loaded_after("import qfilter", tmp_path) == set()


@pytest.fixture
def ensemble_file(tmp_path):
    qfilter.save_problem(qfilter.boolean_problem(2, 2), tmp_path / "p.json")
    return "p.json"


@pytest.mark.parametrize(
    "argv, needed, unloaded",
    [
        (["--help"], {"qfilter.cli", "qfilter.errors"}, {"numpy"} | SUBMODULES),
        (["sweep", "--eta1", "0.4", "--f", "0.25", "--smin", "0", "--smax", "0.6",
          "--steps", "5", "--out", "c.csv"],
         {"qfilter.strategies"}, {"qfilter.boolfn", "qfilter.ensemble_io", "qfilter.simulate"}),
        (["strategies", "--input", "p.json"],
         {"qfilter.strategies", "qfilter.ensemble_io"}, {"qfilter.boolfn", "qfilter.simulate"}),
        (["boolean", "--n", "2", "--k", "2"], {"qfilter.boolfn"}, {"qfilter.simulate"}),
    ],
    ids=["help", "sweep", "strategies", "boolean"],
)
def test_subcommand_loads_only_its_modules(tmp_path, ensemble_file, argv, needed, unloaded):
    loaded = loaded_after(f"from qfilter.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert needed <= loaded
    assert not (loaded - needed) & unloaded


@pytest.mark.parametrize(
    "code",
    [
        "import qfilter.simulate",
        "import qfilter\nqfilter.simulate\nimport qfilter.simulate",
        "from qfilter.simulate import SimulationStats",
        "from qfilter.cli import main\n"
        "assert main(['simulate', '--input', 'p.json', '--strategy', 'povm', '--trials', '10']) == 0",
    ],
    ids=["submodule-first", "function-first", "from-submodule", "cli-simulate"],
)
def test_simulate_is_the_function_in_every_import_order(tmp_path, ensemble_file, code):
    check = "import qfilter, sys\nprint(qfilter.simulate is sys.modules['qfilter.simulate'].simulate)"
    assert fresh_run(code + "\n" + check, tmp_path) == "True"


def test_dir_lists_every_public_name():
    assert set(qfilter.__all__) <= set(dir(qfilter))


def test_unknown_attribute_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qfilter.no_such_name
