"""The package's import graph, read from each module's top-level relative
imports (imports under `if TYPE_CHECKING:` or inside a function are not
top-level, so they close no cycle at import time), and its lazy namespace:
`import randstep` loads no submodule, and each public name loads its
module on first use."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

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


# `from randstep import *` before the namespace was lazy: every re-exported
# name and the eight submodules that `import randstep` loaded
STAR_NAMES = {
    "DiagonalGaussianModel", "Ensemble", "ErrorStatistics", "EstimationError", "MethodConfig",
    "NoiseModel", "Problem", "RateFit", "SpaceDescriptor", "TimeGrid", "analysis",
    "bayes", "biased_limit", "build_grid", "centred_gaussian", "error_statistics", "exact_flow",
    "exact_method", "exact_states", "explicit_euler", "fit_rate", "flow_table", "grids",
    "gronwall_nonuniform", "gronwall_special", "gronwall_uniform", "heat_1d", "implicit_euler",
    "integrators", "laplacian_1d", "lr_norm_estimate", "measure_truncation_constant",
    "noise_path", "norm", "orlicz_norm_estimate", "posterior", "problems", "psi2_amplitude",
    "randomisation", "run_ensemble", "sampler", "scalar_linear",
    "single_mode_model", "small_noise_sweep", "spaces", "steklov_average", "step", "step_table",
    "theoretical_bound", "theoretical_noise_norm", "trajectory_stream", "two_stage",
    "validate_two_stage",
}


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's package;
    return its stdout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_loads_no_numpy():
    assert _fresh("import sys, randstep; print('numpy' in sys.modules)") == "False\n"


def test_run_ensemble_imports_numpy_random_in_the_caller():
    # the caller imports numpy.random before the pass forks, so its
    # workers inherit it and a second study does not import it again
    code = ("import sys, numpy as np\n"
            "from randstep import build_grid, centred_gaussian, heat_1d, implicit_euler, "
            "run_ensemble\n"
            "run_ensemble(heat_1d(4), implicit_euler(), centred_gaussian(4), "
            "build_grid(1.0, 6), np.ones(4), 10, 5)\n"
            "print('numpy.random' in sys.modules)")
    assert _fresh(code) == "True\n"


def test_submodule_resolves_after_a_bare_import():
    code = "import sys, randstep; print(randstep.sampler is sys.modules['randstep.sampler'])"
    assert _fresh(code) == "True\n"


def test_star_import_binds_the_same_names():
    code = "from randstep import *; print(sorted(n for n in dir() if not n.startswith('_')))"
    assert set(ast.literal_eval(_fresh(code))) == STAR_NAMES
    assert set(randstep.__all__) == STAR_NAMES


def test_every_public_name_is_its_modules_object():
    for name in randstep.__all__:
        module = randstep._MODULE_OF.get(name)
        expected = (import_module(f"randstep.{name}") if module is None
                    else getattr(import_module(f"randstep.{module}"), name))
        assert getattr(randstep, name) is expected, name


def test_dir_lists_every_public_name():
    assert set(randstep.__all__) <= set(dir(randstep))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'randstep' has no attribute 'no_such_name'"):
        randstep.no_such_name  # noqa: B018
