"""The tolerance table: six names, defined in one module and nowhere else."""
import ast
from pathlib import Path

import qfilter
from qfilter import tolerances

PACKAGE = Path(qfilter.__file__).parent


def test_table_holds_exactly_the_six_tolerances():
    names = {name for name in vars(tolerances) if name.isupper()}
    assert names == {
        "NORM_TOL", "RANK_TOL", "DEPENDENCY_TOL", "PSD_TOL", "OPERATOR_TOL", "PROB_TOL",
    }
    assert (tolerances.NORM_TOL, tolerances.RANK_TOL) == (1e-9, 1e-8)
    assert (tolerances.DEPENDENCY_TOL, tolerances.PSD_TOL, tolerances.OPERATOR_TOL) == (
        1e-8, 1e-9, 1e-10
    )
    assert tolerances.PROB_TOL == 1e-12


def test_no_tolerance_literal_outside_the_table():
    # A float literal in (0, 1e-6) is a tolerance; only the table may spell one.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0.0 < node.value < 1e-6:
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []


def test_retired_names_are_gone():
    for module in ("ensemble", "neumark", "simulate", "boolfn", "tolerances"):
        namespace = vars(getattr(qfilter, module))
        for name in ("ZERO_TOL", "ZERO_PROB", "IDENTITY_TOL", "SOLVE_RCOND"):
            assert name not in namespace, f"{module}.{name}"
