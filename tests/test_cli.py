import json
import math

import pytest

from randstep.cli import main

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
            .replace("n_values = 4, 8, 16, 32", "n_values = 8")
            .replace("kind = implicit_euler", "kind = explicit_euler")
            .replace("kind = centred_gaussian\np = 1.0\nc_xi = 0.5\ns = 1.0", "kind = none")
        )
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 2
        assert "unstable" in capsys.readouterr().err

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
