"""Smoke test of the benchmark's trace harness at tiny size (not a timing gate)."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_traced_cli_writes_spans(tmp_path):
    # traced_cli sizes what sampler.run_ensemble returns by its states,
    # errors, noise and defects, which an Ensemble does not hold, so this
    # also pins that converge does not call run_ensemble
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    spans = tmp_path / "spans.json"
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans),
         "converge", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(spans.read_text())
    assert set(trace) >= {"spans", "nbytes"}
    assert "cli.main" in {span[0] for span in trace["spans"]}
