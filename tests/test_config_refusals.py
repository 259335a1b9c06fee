"""Every config refusal names its key.

One- and two-key mutations of small converge (J = 4, M = 6), noise-check
and bayes configs, each run through `main` in this process.  Every run
exits 0, 1 or 2; a failed run writes one stderr line (a warning would
add its own); a config refusal (exit 1) writes no output file and names
a mutated key.
"""

import configparser
import io
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randstep.cli import main
from randstep.config import _KEYS

CONVERGE = """
[problem]
dimension = 4
theta = power:-2
horizon = 1.0

[grid_family]
n_values = 4, 8, 16
gamma = 1.0

[method]
kind = implicit_euler

[noise]
kind = centred_gaussian
p = 1.0
c_xi = 0.5

[ensemble]
m = 6
seed = 11

[analysis]
r = 2
young = psi2
"""

# base configs that between them reach every method and noise kind
CONFIGS = {
    "converge": [
        CONVERGE,
        CONVERGE.replace("kind = implicit_euler", "kind = two_stage\ncoefficients = 0.5, 0.5, 1, 1")
        .replace("kind = centred_gaussian", "kind = biased\nbias_mode = 1\nbias_coefficient = 0.2")
        .replace("n_values = 4, 8, 16", "n_values = 16, 32, 64"),
        CONVERGE.replace("dimension = 4", "lambda_spec = explicit\nlambda_values = 1, 2, 3, 4")
        .replace("kind = implicit_euler", "kind = explicit_euler")
        .replace("kind = centred_gaussian", "kind = shared_factor\nrho = 0.5"),
        CONVERGE.replace("kind = centred_gaussian", "kind = bounded_uniform")
        .replace("horizon = 1.0", "horizon = 1.0\nalpha = 1, 0.5\nforcing = 1, 0, 0"),
    ],
    "noise-check": ["[problem]\ndimension = 4\n\n[noise]\nkind = centred_gaussian\n\n"
                    "[ensemble]\nseed = 3\n"],
    "bayes": ["[problem]\ndimension = 3\ntheta = 1, 2, 3\n\n[bayes]\nh = 0.1\n"
              "delta_grid = 1, 0.1, 0\nnoisy_data = true\n\n[ensemble]\nseed = 3\n"],
}
# the sections each subcommand reads, so that every mutation can matter
READS = {"converge": set(_KEYS) - {"bayes"}, "noise-check": {"problem", "noise", "ensemble"},
         "bayes": {"problem", "bayes", "ensemble"}}
KEYS = {sub: sorted((section, key) for section in sections for key in _KEYS[section])
        for sub, sections in READS.items()}
# bad values, and two valid floats that let a run reach its run-time
# checks.  None is an integer >= 1, so no `dimension` changes J, and the
# one base config with explicit eigenvalues holds no per-mode list: a J
# that disagrees with an unmutated list is refused by the list's key alone
VALUES = ["nan", "inf", "-1", "0", "1e308", "1e-320", "", "abc", "1, 2", "true",
          "0.5", "1e-300"]


def _mutated(text, changes):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    for (section, key), value in changes:
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


@pytest.mark.parametrize("subcommand", ["converge", "noise-check", "bayes"])
@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_refusal_names_a_mutated_key(tmp_path, capfd, subcommand, data):
    text = data.draw(st.sampled_from(CONFIGS[subcommand]))
    keys = data.draw(st.lists(st.sampled_from(KEYS[subcommand]), min_size=1, max_size=2,
                              unique=True))
    changes = [(key, data.draw(st.sampled_from(VALUES))) for key in keys]
    case = tmp_path / str(len(list(tmp_path.iterdir())))
    case.mkdir()
    config, out = case / "exp.cfg", case / "out"
    config.write_text(_mutated(text, changes))
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([subcommand, "--config", str(config), "--out", str(out)])
    lines = capfd.readouterr().err.splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code:
        assert len(lines) == 1, lines
    if code == 1:
        assert not out.exists()
        assert any(re.search(rf"\b{key}\b", lines[0]) for (_, key), _ in changes), lines
