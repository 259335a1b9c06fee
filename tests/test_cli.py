import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from randstep.cli import main
from randstep.config import load_config

CONVERGE_CONFIG = """
[problem]
lambda_spec = laplacian_1d
dimension = 4
alpha = 1.0
forcing = none
theta = power:-2
horizon = 1.0

[grid_family]
n_values = 4, 8, 16, 32
gamma = 1.0

[method]
kind = implicit_euler

[noise]
kind = centred_gaussian
p = 1.0
c_xi = 0.5
s = 1.0

[ensemble]
m = 24
seed = 11

[analysis]
r = 2
young = psi2
"""

NOISE_KINDS = ["centred_gaussian", "biased", "shared_factor", "bounded_uniform"]

BAYES_CONFIG = """
[bayes]
lambda_values = 1.0
h = 0.1
p = 0.0
delta_grid = 1.0, 0.1, 0.01, 0.0001, 0.0
gamma0 = 1.0
gamma_obs = 1.0
gamma1 = 1.0
m0 = 0.0
theta = 1.0
"""

NOISE_CONFIG = """
[noise]
dimension = 6
kind = centred_gaussian
p = 1.0
c_xi = 1.0

[ensemble]
seed = 3
"""

GRONWALL_CONFIG = """
[ensemble]
seed = 5
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConverge:
    def test_runs_and_writes_artifacts(self, tmp_path):
        cfg = _write(tmp_path, CONVERGE_CONFIG)
        out = tmp_path / "out"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        csv_text = (out / "series.csv").read_text()
        assert csv_text.splitlines()[0] == "h,err_l2_maxnorm,err_l2_normmax,err_psi2,bound"
        assert len(csv_text.splitlines()) == 5
        assert report["fingerprint"]
        assert math.isfinite(report["slope"])
        assert report["theory_slope"] == 1.0
        # bound column dominates the psi2 estimate on every row
        for line in csv_text.splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[4]) >= float(cells[3])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, CONVERGE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["converge", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["converge", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_worker_counts_byte_identical_for_every_noise_kind(self, tmp_path, monkeypatch,
                                                               kind):
        # on a uniform family and a graded one listed out of order; groups
        # of B = 4 trajectories make six tasks per grid family, so two
        # workers share the Gaussian kinds' one family and the bounded
        # kind's set of one-grid families
        from randstep import sampler

        monkeypatch.setattr(sampler, "BLOCK_BYTES", 8 * 4 * 4**2)
        for family in ("4, 8, 16, 32\ngamma = 1.0", "16, 4, 32, 8\ngamma = 1.5"):
            text = CONVERGE_CONFIG.replace(
                "kind = centred_gaussian",
                f"kind = {kind}\nbias_mode = 1\nbias_coefficient = 0.2\nrho = 0.5",
            ).replace("4, 8, 16, 32\ngamma = 1.0", family)
            cfg = _write(tmp_path, text)
            outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
            for workers, out in zip((1, 2), outs):
                assert main(["converge", "--config", cfg, "--workers", str(workers),
                             "--out", str(out)]) == 0
            for name in ("report.json", "series.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_readme_sample_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(_write(tmp_path, block))
        assert cfg.problem.space.dimension == 64
        assert cfg.theta.shape == (64,)
        assert [grid.num_steps for grid in cfg.grids] == [8, 16, 32, 64]
        assert cfg.method.kind == "implicit_euler"
        assert (cfg.noise.kind, cfg.noise.c_xi) == ("centred_gaussian", 1.0)
        assert (cfg.ensemble_size, cfg.seed, cfg.r, cfg.young) == (200, 7, 2.0, "psi2")

    def test_seed_override_changes_series(self, tmp_path):
        cfg = _write(tmp_path, CONVERGE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["converge", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["converge", "--config", cfg, "--out", str(out2), "--seed", "999"]) == 0
        assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()

    def test_zero_amplitude_reproduces_deterministic_study(self, tmp_path):
        degenerate = CONVERGE_CONFIG.replace("c_xi = 0.5", "c_xi = 0.0")
        deterministic = CONVERGE_CONFIG.replace(
            "kind = centred_gaussian\np = 1.0\nc_xi = 0.5\ns = 1.0", "kind = none"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["converge", "--config", _write(tmp_path, degenerate, "d.cfg"),
                     "--out", str(out1)]) == 0
        assert main(["converge", "--config", _write(tmp_path, deterministic, "n.cfg"),
                     "--out", str(out2)]) == 0
        rows1 = [l.split(",") for l in (out1 / "series.csv").read_text().splitlines()[1:]]
        rows2 = [l.split(",") for l in (out2 / "series.csv").read_text().splitlines()[1:]]
        for r1, r2 in zip(rows1, rows2):
            assert float(r1[1]) == pytest.approx(float(r2[1]), rel=1e-12)  # err_l2_maxnorm
            assert float(r1[2]) == pytest.approx(float(r2[2]), rel=1e-12)  # err_l2_normmax

    def test_invalid_grading_exits_one_naming_section(self, tmp_path, capsys):
        bad = CONVERGE_CONFIG.replace("gamma = 1.0", "gamma = 0.5")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        assert "grid_family" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["converge", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_undecodable_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[problem]\ndimension = \xff\n")
        assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "config error in [file]" in capsys.readouterr().err

    def test_mesh_versus_h_star_validated(self, tmp_path, capsys):
        bad = CONVERGE_CONFIG.replace("kind = implicit_euler", "kind = implicit_euler\nh_star = 0.1")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        assert "grid_family" in capsys.readouterr().err

    def test_non_finite_noise_amplitude_exits_one(self, tmp_path, capsys):
        bad = CONVERGE_CONFIG.replace("c_xi = 0.5", "c_xi = nan")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        assert "config error in [noise]" in capsys.readouterr().err

    def test_unstable_explicit_step_exits_two(self, tmp_path, capsys):
        # explicit Euler on heat_1d(64) at h = 1/8: h lam_5 = 3.125 > 2
        bad = (
            CONVERGE_CONFIG.replace("dimension = 4", "dimension = 64")
            .replace("n_values = 4, 8, 16, 32", "n_values = 8, 16, 32")
            .replace("kind = implicit_euler", "kind = explicit_euler")
            .replace("kind = centred_gaussian\np = 1.0\nc_xi = 0.5\ns = 1.0", "kind = none")
        )
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 2
        assert "unstable" in capsys.readouterr().err

    @pytest.mark.parametrize("n_values", ["8, 16", "8, 8, 16"])
    def test_too_few_distinct_step_counts_exit_one(self, tmp_path, capsys, n_values):
        # a rate fit needs three distinct meshes; no ensemble runs first
        bad = CONVERGE_CONFIG.replace("n_values = 4, 8, 16, 32", f"n_values = {n_values}")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [grid_family]" in err
        assert "three distinct step counts" in err

    def test_schema_key_aliases(self, tmp_path):
        # T / J / method are accepted alongside horizon / dimension / kind,
        # and explicit eigenvalue lists work
        aliased = """
[problem]
lambda_spec = explicit
lambda_values = 1.0, 4.0
alpha = 1.0
theta = ones
T = 1.0

[grid_family]
n_values = 4, 8, 16
gamma = 1.0

[method]
method = explicit_euler

[noise]
kind = none

[ensemble]
m = 1
seed = 0
"""
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, aliased), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["theory_slope"] == 1.0

    def test_per_mode_forcing(self, tmp_path):
        cfg = CONVERGE_CONFIG.replace(
            "forcing = none",
            "forcing = 1.0, 0.0, 0.0; 0.0, 1.0, 0.0; 0.0, 0.0, 1.0; 0.5, 0.5, 0.0",
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0

    def test_per_mode_forcing_row_count_checked(self, tmp_path, capsys):
        cfg = CONVERGE_CONFIG.replace("forcing = none", "forcing = 1, 0, 0; 0, 1, 0")
        assert main(["converge", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 1
        assert "problem" in capsys.readouterr().err

    def test_r_list_reports_extra_orders(self, tmp_path):
        cfg = CONVERGE_CONFIG.replace("r = 2", "r = 2, 3")
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["series"][0]
        assert entry["extra_lr"]["3"]["normmax"] >= entry["err_l2_normmax"]

    def test_output_section_controls_formats_and_dir(self, tmp_path):
        cfg_text = CONVERGE_CONFIG + f"\n[output]\nformats = json\ndir = {tmp_path / 'fromcfg'}\n"
        assert main(["converge", "--config", _write(tmp_path, cfg_text)]) == 0
        assert (tmp_path / "fromcfg" / "report.json").exists()
        assert not (tmp_path / "fromcfg" / "series.csv").exists()

    def test_bad_output_format_rejected(self, tmp_path, capsys):
        cfg_text = CONVERGE_CONFIG + "\n[output]\nformats = parquet\n"
        assert main(["converge", "--config", _write(tmp_path, cfg_text)]) == 1
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("noise_kind", ["centred_gaussian", "none"])
    def test_builds_each_exact_flow_table_once(self, tmp_path, monkeypatch, noise_kind):
        from randstep import measure_truncation_constant, sampler
        from randstep.config import load_config

        cfg_text = CONVERGE_CONFIG.replace("kind = centred_gaussian", f"kind = {noise_kind}")
        path = _write(tmp_path, cfg_text)
        built = []

        def counting(problem, steps, points):
            built.append(len(steps))
            return flow_table(problem, steps, points)

        flow_table = sampler.flow_table
        monkeypatch.setattr(sampler, "flow_table", counting)
        out = tmp_path / "out"
        assert main(["converge", "--config", path, "--out", str(out)]) == 0
        assert built == [4, 8, 16, 32]
        # the shared build gives the constant measure_truncation_constant gives
        monkeypatch.setattr(sampler, "flow_table", flow_table)
        cfg = load_config(path)
        expected = max(
            measure_truncation_constant(cfg.problem, cfg.method, grid, cfg.theta)
            for grid in cfg.grids
        )
        report = json.loads((out / "report.json").read_text())
        assert report["measured_c_phi_psi"] == expected

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_one_stream_per_trajectory_and_one_pool_per_study(self, tmp_path, monkeypatch,
                                                               kind):
        # counts, not times: a Gaussian kind draws each trajectory's noise
        # once for all G = 4 grids (M = 24 streams), the bounded kind once
        # per grid (M G streams); with two workers and several groups the
        # whole study runs in one pool; converge never calls run_ensemble
        from concurrent.futures import ProcessPoolExecutor

        from randstep import sampler

        text = CONVERGE_CONFIG.replace("kind = centred_gaussian", f"kind = {kind}\nrho = 0.5")
        cfg = _write(tmp_path, text)
        streams, pools = [], []
        trajectory_stream = sampler.trajectory_stream

        def counting_stream(master_seed, index):
            streams.append(index)
            return trajectory_stream(master_seed, index)

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        def no_run_ensemble(*args, **kwargs):
            raise AssertionError("converge called run_ensemble")

        monkeypatch.setattr(sampler, "trajectory_stream", counting_stream)
        monkeypatch.setattr(sampler, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(sampler, "run_ensemble", no_run_ensemble)
        monkeypatch.setattr(sampler, "BLOCK_BYTES", 8 * 4 * 4**2)  # B = 4: six groups
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "w1")]) == 0
        grids = 4 if kind == "bounded_uniform" else 1
        assert sorted(streams) == sorted(list(range(24)) * grids)
        assert pools == []
        assert main(["converge", "--config", cfg, "--workers", "2",
                     "--out", str(tmp_path / "w2")]) == 0
        assert pools == [1]


class TestBayes:
    def test_sweep_artifacts(self, tmp_path):
        cfg = _write(tmp_path, BAYES_CONFIG)
        out = tmp_path / "out"
        assert main(["bayes", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "delta,err_exact_mean,err_tilde_mean_vs_biased_limit,min_hat_variance"
        assert len(lines) == 6
        last = [float(tok) for tok in lines[-1].split(",")]
        assert last[0] == 0.0
        assert last[1] == 0.0
        assert abs(last[3] - 121.0 / 10121.0) < 1e-12
        report = json.loads((out / "report.json").read_text())
        assert report["biased_limit"][0] == pytest.approx(1.1 * math.exp(-0.1), rel=1e-14)

    def test_increasing_grid_rejected(self, tmp_path, capsys):
        bad = BAYES_CONFIG.replace("1.0, 0.1, 0.01, 0.0001, 0.0", "0.1, 1.0")
        assert main(["bayes", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 2
        assert "run failed" in capsys.readouterr().err


class TestChecks:
    def test_gronwall_check_passes(self, tmp_path):
        cfg = _write(tmp_path, GRONWALL_CONFIG)
        out = tmp_path / "out"
        assert main(["gronwall-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert {row[0] for row in report["rows"]} == {"uniform", "special", "nonuniform"}
        assert all(row[2] <= 1.0 + 1e-12 for row in report["rows"])

    def test_noise_check_passes(self, tmp_path):
        cfg = _write(tmp_path, NOISE_CONFIG)
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True

    def test_noise_check_requires_noise_section(self, tmp_path, capsys):
        cfg = _write(tmp_path, GRONWALL_CONFIG)
        assert main(["noise-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "noise" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, text, old, new, section",
    [
        ("converge", CONVERGE_CONFIG, "horizon = 1.0", "horizon = abc", "problem"),
        ("converge", CONVERGE_CONFIG, "gamma = 1.0", "gamma = abc", "grid_family"),
        ("converge", CONVERGE_CONFIG, "kind = implicit_euler",
         "kind = implicit_euler\nh_star = abc", "method"),
        ("converge", CONVERGE_CONFIG, "p = 1.0", "p = abc", "noise"),
        ("converge", CONVERGE_CONFIG, "m = 24", "m = abc", "ensemble"),
        ("converge", CONVERGE_CONFIG, "r = 2", "r = abc", "analysis"),
        ("converge", CONVERGE_CONFIG + "\n[output]\nformats = csv\n", "formats = csv",
         "formats = xml", "output"),
        ("bayes", BAYES_CONFIG, "h = 0.1", "h = abc", "bayes"),
        ("bayes", BAYES_CONFIG + "noisy_data = true\nseed = 3\n", "seed = 3", "seed = -1",
         "bayes"),
        ("noise-check", NOISE_CONFIG, "dimension = 6", "dimension = abc", "noise"),
    ],
    ids=["problem", "grid_family", "method", "noise", "ensemble", "analysis", "output",
         "bayes", "bayes-seed", "noise-check-dimension"],
)
def test_bad_value_exits_one_naming_its_section(tmp_path, capsys, subcommand, text, old,
                                                new, section):
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    assert main([subcommand, "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, text, section",
    [("converge", CONVERGE_CONFIG, "ensemble"), ("bayes", BAYES_CONFIG, "bayes")],
    ids=["converge", "bayes"],
)
def test_negative_seed_override_exits_one_naming_the_seed_section(tmp_path, capsys,
                                                                 subcommand, text, section):
    cfg = _write(tmp_path, text)
    assert main([subcommand, "--config", cfg, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert f"config error in [{section}]" in capsys.readouterr().err


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special is loaded on first use by the affine-alpha flow only
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, randstep.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
