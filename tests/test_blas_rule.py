"""The package calls no BLAS routine, so the CLI's default of one OpenBLAS
thread costs nothing: no module uses the `@` operator, `np.linalg`, or a
numpy function that goes through BLAS."""

import ast
from pathlib import Path

import randstep

PACKAGE = Path(randstep.__file__).parent

# numpy functions (or array methods of the same name) that call BLAS
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "cov", "corrcoef",
                  "polyfit"}


def _blas_uses(source: str) -> list[tuple[int, str]]:
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            uses.append((node.lineno, "linalg"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in BLAS_FUNCTIONS):
            uses.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names = {node.module.split(".")[-1], *(alias.name for alias in node.names)}
            uses.extend((node.lineno, name) for name in names & (BLAS_FUNCTIONS | {"linalg"}))
    return sorted(uses)


def test_no_module_calls_blas():
    uses = {path.stem: _blas_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in uses.items() if found} == {}


def test_the_rule_sees_each_form():
    source = """
import numpy as np
from numpy.linalg import solve
from numpy import einsum
a = x @ y
a @= y
b = np.linalg.norm(x)
c = np.dot(x, y)
d = x.dot(y)
e = np.corrcoef(x, y)
"""
    assert _blas_uses(source) == [(3, "linalg"), (4, "einsum"), (5, "@"), (6, "@"),
                                  (7, "linalg"), (8, "dot"), (9, "dot"), (10, "corrcoef")]
