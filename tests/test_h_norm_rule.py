"""Every H-norm of a state in the package is `spaces._h_norm`: no module
calls `np.linalg.norm`, whose 1-D calls go through BLAS `dot` and round
differently in the last bit."""

import ast
from pathlib import Path

import randstep

PACKAGE = Path(randstep.__file__).parent


def _linalg_norm_callers() -> set[str]:
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "norm"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "linalg"):
                callers.add(path.stem)
    return callers


def test_no_module_calls_linalg_norm():
    assert _linalg_norm_callers() == set()
