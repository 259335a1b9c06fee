"""The package's import graph, read from each module's top-level relative
imports (imports under `if TYPE_CHECKING:` or inside a function are not
top-level, so they close no cycle at import time)."""

import ast
from pathlib import Path

import randstep

PACKAGE = Path(randstep.__file__).parent


def _import_graph() -> dict[str, set[str]]:
    graph = {}
    for path in PACKAGE.glob("*.py"):
        targets = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    targets.update(alias.name for alias in node.names)
                else:
                    targets.add(node.module)
        graph[path.stem] = targets
    return graph


def test_package_import_graph_has_no_cycle():
    graph = _import_graph()
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_analysis_imports_nothing_from_the_package():
    assert _import_graph()["analysis"] == set()
