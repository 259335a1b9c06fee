"""Smoke tests of the benchmark's harness at tiny size (not timing gates)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """
[problem]
lambda_spec = laplacian_1d
dimension = 4
alpha = 1.0
forcing = none
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
s = 1.0

[ensemble]
m = 20
seed = 7
"""


def _src_env():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _harness():
    """perfbench/run.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _setup_facts(run, config):
    """The facts the harness's SETUP_PROBE prints for config."""
    result = subprocess.run(
        [sys.executable, "-c", run.SETUP_PROBE, str(config)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_traced_cli_writes_spans(tmp_path):
    # traced_cli sizes what sampler.run_ensemble returns by its states,
    # errors, noise and defects, which an Ensemble does not hold, so this
    # also pins that converge does not call run_ensemble
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans),
         "converge", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(spans.read_text())
    assert set(trace) >= {"spans", "nbytes"}
    assert "cli.main" in {span[0] for span in trace["spans"]}


@pytest.mark.parametrize(
    "workload, m, n_values, j",
    [
        ("ens-wide", 1000, [64, 128, 256, 512], 64),
        ("ens-many-w2", 4000, [64, 128, 256, 512], 8),
        ("oracle-affine", 50, [32, 64, 128, 256], 128),
    ],
)
def test_setup_probe_loads_each_workload(workload, m, n_values, j):
    # the harness times SETUP_PROBE, which reads these config fields
    # through randstep.cli.load_config, so they must keep loading
    facts = _setup_facts(_harness(), ROOT / "perfbench" / "workloads" / f"{workload}.ini")
    assert (facts["m"], facts["n_values"], facts["j"], facts["seed"]) == (m, n_values, j, 7)


@pytest.mark.parametrize(
    "workload", sorted(path.stem for path in (ROOT / "perfbench" / "workloads").glob("*.ini"))
)
def test_workload_matches_its_reference(tmp_path, workload):
    # the benchmark's check run: converge at the config's committed seed
    # and worker count, checked by the harness's own output checks and
    # against perfbench/reference/ to its REFERENCE_RTOL
    run = _harness()
    config = ROOT / "perfbench" / "workloads" / f"{workload}.ini"
    facts = _setup_facts(run, config)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "randstep.cli", "converge", "--config", str(config),
         "--workers", str(run.WORKLOADS[workload]["workers"]), "--out", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert run.check_outputs(out, facts, facts["seed"]) == []
    assert run.compare_reference(out, ROOT / "perfbench" / "reference" / workload) == []


def test_oracle_check_passes():
    # the closed-form exact states of oracle-affine against a Radau solve of
    # the same ODE at rtol 1e-9 (perfbench/oracle_check.py)
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "oracle_check.py"),
         str(ROOT / "perfbench" / "workloads" / "oracle-affine.ini")],
        env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["ok"] is True
