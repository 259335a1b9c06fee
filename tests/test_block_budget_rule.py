"""One byte budget for raw normals: only `randomisation`, the module that
draws every raw normal, defines a module-level name ending in
BLOCK_BYTES; every other array pass is sized from it or needs none."""

import ast
from pathlib import Path

import randstep

PACKAGE = Path(randstep.__file__).parent


def _budget_owners() -> set[str]:
    owners = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if any(name.endswith("BLOCK_BYTES") for name in names):
                owners.add(path.stem)
    return owners


def test_only_randomisation_defines_a_block_budget():
    assert _budget_owners() == {"randomisation"}
