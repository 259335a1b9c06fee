import hashlib
import json
import math
import os
import re
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from randstep import NoiseModel, fit_rate, lr_norm_estimate, randomisation, single_mode_model
from randstep import small_noise_sweep
from randstep.cli import main
from randstep.config import _floats, load_config

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

FORCING_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]

NOISE_KINDS = ["centred_gaussian", "biased", "shared_factor", "bounded_uniform"]

# the keys that each noise kind alone reads; another kind refuses them
KIND_KEYS = {"centred_gaussian": "", "biased": "\nbias_mode = 1\nbias_coefficient = 0.2",
             "shared_factor": "\nrho = 0.5", "bounded_uniform": ""}


def _noise_kind(kind):
    """The [noise] lines of kind and of the keys it alone reads."""
    return f"kind = {kind}{KIND_KEYS[kind]}"


BAYES_CONFIG = """
[problem]
lambda_spec = explicit
lambda_values = 1.0
theta = 1.0

[bayes]
h = 0.1
p = 0.0
delta_grid = 1.0, 0.1, 0.01, 0.0001, 0.0
gamma0 = 1.0
gamma_obs = 1.0
gamma1 = 1.0
m0 = 0.0
"""

NOISE_CONFIG = """
[problem]
dimension = 6

[noise]
kind = centred_gaussian
p = 1.0
c_xi = 1.0

[ensemble]
seed = 3
"""

SEED_ONLY_CONFIG = """
[ensemble]
seed = 5
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class _Log:
    """Events appended to a file as (pid, event) lines, by this process and
    by the ensemble workers it forks, whose own memory is gone when they
    exit; each line is one small O_APPEND write, so lines do not mix."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def clear(self):
        self.path.write_text("")

    def append(self, event):
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()} {event}\n")

    def read(self) -> list:
        return [(int(pid), event) for pid, event in
                (line.split(" ", 1) for line in self.path.read_text().splitlines())]

    def by_worker(self) -> list:
        """Each worker's events in order, these lists sorted, since workers
        run at once; the events of this process are left out."""
        workers = {}
        for pid, event in self.read():
            if pid != os.getpid():
                workers.setdefault(pid, []).append(event)
        return sorted(workers.values())


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
        # of B = 4 trajectories (every kind, the bounded one drawing J + 2
        # normals a step) make six tasks on all grids, which two workers
        # share
        from randstep import randomisation

        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 8 * (4 + 2) * 4**2)
        for family in ("4, 8, 16, 32\ngamma = 1.0", "16, 4, 32, 8\ngamma = 1.5"):
            text = CONVERGE_CONFIG.replace("kind = centred_gaussian", _noise_kind(kind)).replace(
                "4, 8, 16, 32\ngamma = 1.0", family)
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

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library example\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
        printed = capsys.readouterr().out.strip()
        match = re.fullmatch(r"RateFit\(slope=(\S+), intercept=\S+, r_squared=\S+\)", printed)
        assert match is not None, printed
        assert math.isfinite(float(match.group(1)))

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_table_fault_is_named_before_an_amplitude_fault(self, tmp_path, capsys, workers):
        # the unstable explicit step above and amplitude draws beyond the
        # largest double; M = 400 makes five tasks (B = 90 at J = 64).  For
        # any worker count the tables come first and the amplitude is the
        # pass's first job, so the table fault is named before any worker forks
        bad = (
            CONVERGE_CONFIG.replace("dimension = 4", "dimension = 64")
            .replace("n_values = 4, 8, 16, 32", "n_values = 8, 16, 32")
            .replace("kind = implicit_euler", "kind = explicit_euler")
            .replace("c_xi = 0.5", "c_xi = 1e308").replace("m = 24", "m = 400")
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = main(["converge", "--config", _write(tmp_path, bad), "--workers", workers,
                         "--out", str(out)])
        assert code == 2
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err == (
            "run failed: unstable explicit step 0: mode 4 has h lam alpha = 3.125 and factor "
            "-2.125, |factor| > 1 where the exact flow contracts; reduce the step\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n_values", ["8, 16", "8, 8, 16"])
    def test_too_few_distinct_step_counts_exit_one(self, tmp_path, capsys, n_values):
        # a rate fit needs three distinct meshes; no ensemble runs first
        bad = CONVERGE_CONFIG.replace("n_values = 4, 8, 16, 32", f"n_values = {n_values}")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [grid_family]" in err
        assert "three distinct step counts" in err

    def test_repeated_step_count_exits_one_before_any_ensemble(self, tmp_path, capsys,
                                                                monkeypatch):
        from randstep import sampler

        def no_converge(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr(sampler, "_converge", no_converge)
        bad = CONVERGE_CONFIG.replace("n_values = 4, 8, 16, 32", "n_values = 4, 8, 16, 16")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [grid_family]" in err and "each once" in err

    @pytest.mark.parametrize("r_list", ["2, inf", "nan", "-inf", "2, 0.5"])
    def test_non_finite_or_small_r_exits_one(self, tmp_path, capsys, r_list):
        # x^inf is 0 or inf and its 1/inf-th root is 1: every grid would
        # report an L^inf norm of 1
        bad = CONVERGE_CONFIG.replace("r = 2", f"r = {r_list}")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [analysis]" in err and "finite" in err

    def test_explicit_eigenvalues(self, tmp_path):
        text = """
[problem]
lambda_spec = explicit
lambda_values = 1.0, 4.0
alpha = 1.0
theta = ones
horizon = 1.0

[grid_family]
n_values = 4, 8, 16
gamma = 1.0

[method]
kind = explicit_euler

[noise]
kind = none

[ensemble]
m = 1
seed = 0
"""
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["theory_slope"] == 1.0
        cfg = load_config(_write(tmp_path, text))
        assert cfg.problem.space.eigenvalues.tolist() == [1.0, 4.0]
        assert cfg.problem.horizon == 1.0 and cfg.method.kind == "explicit_euler"

    def test_per_mode_forcing(self, tmp_path):
        cfg = CONVERGE_CONFIG.replace(
            "forcing = none",
            "forcing = 1.0, 0.0, 0.0; 0.0, 1.0, 0.0; 0.0, 0.0, 1.0; 0.5, 0.5, 0.0",
        )
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "forcing, rows",
        [("1, 0.5, -0.25", [[1.0, 0.5, -0.25]] * 4),
         ("1, 0.5, -0.25;", [[1.0, 0.5, -0.25]] * 4),
         ("1,0,0;0,1,0;0,0,1;0.5,0.5,0", FORCING_ROWS),
         ("1, 0, 0 ; 0, 1, 0 ; 0, 0, 1 ; 0.5, 0.5, 0", FORCING_ROWS),
         ("1, 0, 0; 0, 1, 0", None),
         ("1, 0, 0; 0, 1, 0; 0, 0, 1; 0.5, 0.5, 0; 1, 1, 1", None),
         ("1, 0, 0; 0, 1; 0, 0, 1; 0.5, 0.5, 0", None),
         ("1, 0, 0; 0, 1, 0, 0; 0, 0, 1; 0.5, 0.5, 0", None)],
        ids=["one-row", "one-row-trailing-semicolon", "rows", "spaced-rows", "two-rows",
             "five-rows", "ragged-short", "ragged-long"],
    )
    def test_forcing_rows(self, tmp_path, capsys, forcing, rows):
        # one row serves every mode and J = 4 rows give one row per mode;
        # any other count, or a row of other than three, is refused by the
        # rule before numpy sees the rows
        cfg = _write(tmp_path, CONVERGE_CONFIG.replace("forcing = none", f"forcing = {forcing}"))
        if rows is None:
            assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert ("config error in [problem]: forcing takes one row of three polynomial "
                    "coefficients for every mode, or 4 such rows separated by ';'") in err
            assert "inhomogeneous" not in err
        else:
            assert load_config(cfg).problem.forcing.tolist() == rows

    def test_forcing_comment_after_semicolon(self, tmp_path, capsys):
        # ";" only separates forcing rows, so a note after it is a bad row;
        # "#" starts the inline comment
        text = CONVERGE_CONFIG.replace("forcing = none", "forcing = 1, 0, 0 ; every mode alike")
        assert main(["converge", "--config", _write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        assert "config error in [problem]" in capsys.readouterr().err
        text = CONVERGE_CONFIG.replace("forcing = none", "forcing = 1, 0, 0 # every mode alike")
        assert load_config(_write(tmp_path, text)).problem.forcing.tolist() == [[1.0, 0.0, 0.0]] * 4

    def test_extra_orders_with_one_report_key_exit_one(self, tmp_path, capsys):
        # 4 and 4.0000001 both print as "4": one estimate would be lost
        bad = CONVERGE_CONFIG.replace("r = 2", "r = 2, 4, 4.0000001")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [analysis]" in err and "repeat a report key" in err
        # the first order is reported apart from the extra ones
        same = CONVERGE_CONFIG.replace("r = 2", "r = 2, 2")
        assert load_config(_write(tmp_path, same)).extra_r == (2.0,)

    def test_explicit_theta_list(self, tmp_path, capsys):
        text = CONVERGE_CONFIG.replace("theta = power:-2", "theta = 1, 0.5, -0.25, 0.125")
        assert load_config(_write(tmp_path, text)).theta.tolist() == [1.0, 0.5, -0.25, 0.125]
        bad = CONVERGE_CONFIG.replace("theta = power:-2", "theta = 1, 0.5, 0.25")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [problem]" in err and "theta has 3 entries, expected 4" in err

    def test_overflowing_power_theta_exits_one_with_one_stderr_line(self, tmp_path, capsys):
        # 4^600 overflows at load; the finiteness check alone speaks, with
        # no numpy warning before it
        bad = CONVERGE_CONFIG.replace("theta = power:-2", "theta = power:600")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["converge", "--config", _write(tmp_path, bad), "--out",
                         str(tmp_path / "out")]) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "config error in [problem]: initial state theta must be finite, entry 3 is inf\n")

    def test_non_finite_theta_exits_one_naming_problem(self, tmp_path, capsys):
        bad = CONVERGE_CONFIG.replace("theta = power:-2", "theta = 1, 2, inf, 4")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [problem]" in err and "theta must be finite, entry 2 is inf" in err

    def test_nan_grading_exits_one_naming_gamma(self, tmp_path, capsys):
        bad = CONVERGE_CONFIG.replace("gamma = 1.0", "gamma = nan")
        assert main(["converge", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [grid_family]" in err and "gamma" in err

    def test_r_list_reports_extra_orders(self, tmp_path):
        cfg = CONVERGE_CONFIG.replace("r = 2", "r = 2, 3")
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["series"][0]
        assert entry["extra_lr"]["3"]["normmax"] >= entry["err_l2_normmax"]

    def test_high_order_norm_of_max_does_not_underflow(self, tmp_path):
        # norms near 0.05 to the power 400 underflow to 0, so the plain sum
        # of x^R reported normmax = 0.0 on every grid; rescaled by the
        # largest sample it dominates maxnorm, as norm of max must
        cfg = (CONVERGE_CONFIG.replace("r = 2", "r = 2, 400").replace("m = 24", "m = 50")
               .replace("n_values = 4, 8, 16, 32", "n_values = 8, 16, 32")
               .replace("seed = 11", "seed = 1"))
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        series = json.loads((out / "report.json").read_text())["series"]
        assert len(series) == 3
        for entry in series:
            extra = entry["extra_lr"]["400"]
            assert extra["normmax"] >= extra["maxnorm"] > 0.0

    def test_default_out_dir_gets_both_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["converge", "--config", _write(tmp_path, CONVERGE_CONFIG)]) == 0
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
            "report.json", "series.csv"]

    def test_lipschitz_read_off_the_steps_taken(self, tmp_path):
        # alpha = 1 - 1.02 t turns negative inside the last step of every
        # grid, but each step's Steklov mean stays positive: every implicit
        # solve is sound and no step expands
        text = (CONVERGE_CONFIG.replace("dimension = 4", "dimension = 16")
                .replace("alpha = 1.0", "alpha = 1.0, -1.02")
                .replace("n_values = 4, 8, 16, 32", "n_values = 4, 8, 16"))
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["lipschitz"] == 0.0

    def test_lipschitz_of_a_growing_problem_is_the_table_reading(self, tmp_path):
        # implicit Euler on u' = u has factor 1 / (1 - h); the largest step
        # taken, h = 1/4, sets L = (4/3 - 1) / (1/4) = 4/3, below the 2 a
        # step of h* = 1/2 would give
        from randstep import analysis, sampler
        from randstep.integrators import step_table

        text = (CONVERGE_CONFIG.replace("lambda_spec = laplacian_1d\ndimension = 4",
                                        "lambda_spec = explicit\nlambda_values = 1")
                .replace("alpha = 1.0", "alpha = -1")
                .replace("n_values = 4, 8, 16, 32", "n_values = 4, 8, 16")
                .replace("kind = implicit_euler", "kind = implicit_euler\nh_star = 0.5"))
        path = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["converge", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        cfg = load_config(path)
        tables = [(step_table(cfg.method, cfg.problem, grid.steps, grid.points[:-1])[0], grid)
                  for grid in cfg.grids]
        lipschitz = report["lipschitz"]
        assert lipschitz == max(sampler._lipschitz_constant(a, g.steps) for a, g in tables)
        assert lipschitz == pytest.approx(4.0 / 3.0, rel=1e-12)
        for a, grid in tables:
            assert np.all(np.abs(a) <= 1.0 + lipschitz * grid.steps[:, None])
        for entry, bound in zip(report["series"], report["theory"]):
            assert bound == analysis.theoretical_bound(
                entry["h"], c_phi_psi=report["measured_c_phi_psi"],
                c_xi=report["noise_amplitude"], lipschitz=lipschitz, q=1.0, p=1.0,
                horizon=1.0,
            )

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
        # counts, not times: every kind draws each trajectory's noise once
        # for all G = 4 grids (M = 24 streams), in the forked workers and
        # never in this process; the whole study runs in one set of forked
        # workers, not one set per grid: one worker for --workers 1, two
        # for --workers 2 and six groups; converge never calls run_ensemble
        from randstep import randomisation, sampler

        text = CONVERGE_CONFIG.replace("kind = centred_gaussian", _noise_kind(kind))
        cfg = _write(tmp_path, text)
        streams, forks = _Log(tmp_path / "streams.log"), []
        trajectory_stream = sampler.trajectory_stream
        fork = os.fork

        def counting_stream(master_seed, index):
            streams.append(index)
            return trajectory_stream(master_seed, index)

        def counting_fork():
            forks.append(1)
            return fork()

        def no_run_ensemble(*args, **kwargs):
            raise AssertionError("converge called run_ensemble")

        monkeypatch.setattr(sampler, "trajectory_stream", counting_stream)
        monkeypatch.setattr(sampler.os, "fork", counting_fork)
        monkeypatch.setattr(sampler, "run_ensemble", no_run_ensemble)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 8 * (4 + 2) * 4**2)  # B = 4: six groups
        for workers in (1, 2):
            streams.clear()
            forks.clear()
            assert main(["converge", "--config", cfg, "--workers", str(workers),
                         "--out", str(tmp_path / f"w{workers}")]) == 0
            assert sorted(int(index) for _, index in streams.read()) == list(range(24))
            assert len(streams.by_worker()) == workers
            assert forks == [1] * workers

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_pooled_parent_draws_no_noise_amplitude(self, tmp_path, monkeypatch, kind):
        # M = 400 makes two tasks for every kind (B <= 362 at J = 4).  This
        # process builds the four grids' tables and draws nothing; the
        # amplitude's one draw is worker 0's first job, after every table
        # and before its first group, for one worker and for two.  The
        # cache is cleared so that each run draws
        from randstep import sampler

        text = CONVERGE_CONFIG.replace("kind = centred_gaussian", _noise_kind(kind))
        cfg = _write(tmp_path, text.replace("m = 24", "m = 400"))
        log = _Log(tmp_path / "calls.log")
        draw_norms, flow_table = randomisation._draw_norms, sampler.flow_table
        run_group = sampler._run_group

        def recording_draw(*args):
            log.append("draw")
            return draw_norms(*args)

        def recording_flow(*args):
            log.append("flow")
            return flow_table(*args)

        def recording_group(study, task):
            log.append(f"group {task[0]}")
            return run_group(study, task)

        monkeypatch.setattr(randomisation, "_draw_norms", recording_draw)
        monkeypatch.setattr(sampler, "flow_table", recording_flow)
        monkeypatch.setattr(sampler, "_run_group", recording_group)
        recorded = {}
        for workers in ("2", "1"):
            randomisation._PSI2_AMPLITUDES.clear()
            log.clear()
            assert main(["converge", "--config", cfg, "--workers", workers,
                         "--out", str(tmp_path / f"w{workers}")]) == 0
            calls = log.read()
            assert calls[:4] == [(os.getpid(), "flow")] * 4
            assert all(pid != os.getpid() for pid, _ in calls[4:])
            recorded[workers] = log.by_worker()
        assert recorded == {"2": [["draw", "group 0"], ["group 1"]],
                            "1": [["draw", "group 0", "group 1"]]}
        for name in ("report.json", "series.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    @pytest.mark.parametrize("young", ["psi2", "none"])
    def test_study_keeps_its_noise_amplitude_in_this_process(self, tmp_path, monkeypatch,
                                                             young):
        # worker 0 draws the psi2 amplitude; this process keeps the float it
        # returns in psi2_amplitude's cache, so neither a later call here
        # nor a later study of the model, in its workers, draws again.  The
        # L^2 amplitude is exact, drawn by no one, and kept nowhere
        cfg = _write(tmp_path, CONVERGE_CONFIG.replace("young = psi2", f"young = {young}"))
        noise = load_config(cfg).noise
        log = _Log(tmp_path / "draws.log")
        draw_norms = randomisation._draw_norms

        def recording_draw(*args):
            log.append("draw")
            return draw_norms(*args)

        monkeypatch.setattr(randomisation, "_draw_norms", recording_draw)
        randomisation._PSI2_AMPLITUDES.pop(noise, None)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "first")]) == 0
        report = json.loads((tmp_path / "first" / "report.json").read_text())
        assert log.by_worker() == ([["draw"]] if young == "psi2" else [])
        assert (noise in randomisation._PSI2_AMPLITUDES) == (young == "psi2")
        if young == "psi2":
            log.clear()
            assert randomisation.psi2_amplitude(noise) == report["noise_amplitude"]
            assert main(["converge", "--config", cfg, "--workers", "2",
                         "--out", str(tmp_path / "again")]) == 0
            assert log.read() == []
            for name in ("report.json", "series.csv"):
                assert ((tmp_path / "again" / name).read_bytes()
                        == (tmp_path / "first" / name).read_bytes())

    @staticmethod
    def _small_ens_wide(*changes, m=20) -> str:
        """perfbench's ens-wide config at M = m on n = 4, 8, 16, with the
        further (old, new) line changes."""
        workload = Path(__file__).resolve().parents[1] / "perfbench/workloads/ens-wide.ini"
        text = workload.read_text()
        for old, new in [("m = 1000", f"m = {m}"),
                         ("n_values = 64, 128, 256, 512", "n_values = 4, 8, 16"), *changes]:
            assert text.count(old) == 1
            text = text.replace(old, new)
        return text

    @pytest.mark.parametrize(
        "young, quantity, workers",
        [("psi2", "noise amplitude draws", "1"), ("psi2", "noise amplitude draws", "2"),
         ("none", "error norms at h = 4", "1")],
    )
    def test_overflowing_run_exits_two_and_writes_nothing(self, tmp_path, capsys, young,
                                                           quantity, workers):
        # c_xi = 1e308 puts some of the amplitude draws c_xi sqrt(gamma_j) Y_j
        # and, on steps of up to h = 4, every noise scale c_xi h^(p + 1)
        # beyond the largest double; the first estimator to see an inf
        # refuses it, naming what it held.  M = 100 makes two tasks (B = 90
        # at J = 64), so with two workers the amplitude fails in worker 0
        # and its message comes back over the pipe, with no worker left
        text = self._small_ens_wide(("c_xi = 1.0", "c_xi = 1e308"),
                                    ("horizon = 1.0", "horizon = 16.0"),
                                    ("young = psi2", f"young = {young}"), m=100)
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = main(["converge", "--config", _write(tmp_path, text), "--workers", workers,
                         "--out", str(out)])
        assert code == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "run failed" in err and quantity in err and "must be finite" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_overflowing_growth_factor_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # explicit Euler on u' = 720 u: the states stay finite from
        # theta = 1e-300, but the bound's growth factor exp(L T) with the
        # table's L = 720 does not fit a double
        text = """
[problem]
lambda_spec = explicit
lambda_values = 1.0
alpha = -720.0
theta = 1e-300
forcing = none

[grid_family]
n_values = 64, 128, 256

[method]
kind = explicit_euler

[noise]
kind = none

[ensemble]
m = 1
seed = 1
"""
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert ("run failed: the growth factor exp(L T) of the bound overflows at L = 720.0, "
                "T = 1.0" in capsys.readouterr().err)

    def test_overflowing_power_of_the_bound_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # a declared order of 600 on a step of h = 16 / 4 = 4: h^q = 2^1200
        # does not fit a double, and Python's float power raises
        text = (CONVERGE_CONFIG.replace("horizon = 1.0", "horizon = 16.0")
                .replace("n_values = 4, 8, 16, 32", "n_values = 4, 8, 16")
                .replace("kind = implicit_euler", "kind = implicit_euler\ndeclared_order = 600"))
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("run failed: the power h^q or h^p of the bound overflows at h = 4.0, q = 600.0, "
                "p = 1.0" in err)

    @pytest.mark.parametrize("horizon", ["1e150", "1e160"])
    def test_noise_free_run_on_a_huge_horizon_exits_zero(self, tmp_path, horizon):
        # past about 1.34e154 the squared step ends overflow; a constant
        # alpha's integral has no such term, so every step decays to 0
        text = CONVERGE_CONFIG.replace("horizon = 1.0", f"horizon = {horizon}").replace(
            "kind = centred_gaussian", "kind = none")
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(math.isfinite(entry["err_l2_maxnorm"]) for entry in report["series"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_huge_finite_noise_gives_finite_report(self, tmp_path, monkeypatch, workers):
        # c_xi = 1e200: the squared sums behind the error norms and the
        # squares behind their L^2 norms overflow, but every number the
        # report holds is a finite double, and the run gives it.  M = 100
        # makes two tasks (B = 90 at J = 64), so one worker forks for
        # --workers 1 and two for --workers 2, the amplitude comes back
        # through worker 0's shared slot, and the outputs are those of one
        # worker
        cfg = _write(tmp_path, self._small_ens_wide(("c_xi = 1.0", "c_xi = 1e200"), m=100))
        forks, fork = {}, os.fork

        def counting_fork():
            forks[count] += 1
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for count in dict.fromkeys(("1", workers)):
            forks[count] = 0
            assert main(["converge", "--config", cfg, "--workers", count,
                         "--out", str(tmp_path / f"w{count}")]) == 0
        assert forks == ({"1": 1, "2": 2} if workers == "2" else {"1": 1})
        out = tmp_path / f"w{workers}"
        for name in ("report.json", "series.csv"):
            assert (out / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()
        report = json.loads((out / "report.json").read_text())
        for entry in report["series"]:
            for key in ("err_l2_maxnorm", "err_l2_normmax", "err_psi2"):
                assert 1e190 < entry[key] < 1e200
        assert report["noise_amplitude"] == pytest.approx(1.4e200, rel=0.1)


class TestConvergeReportSchema:
    TOP_KEYS = {
        "subcommand", "fingerprint", "seed", "ensemble_size", "series", "slope", "intercept",
        "r2", "theory_slope", "theory", "measured_c_phi_psi", "lipschitz", "noise_amplitude",
    }
    ENTRY_KEYS = {"h", "err_l2_maxnorm", "err_l2_normmax", "err_psi2", "samples", "r"}
    NOISE_FREE = ("kind = centred_gaussian\np = 1.0\nc_xi = 0.5\ns = 1.0", "kind = none")

    @pytest.mark.parametrize(
        "r_list, noisy", [("2", True), ("2, 3", True), ("2, 3", False), ("4, 6", False)],
        ids=["one-order", "extra-orders", "noise-free", "noise-free-r4"],
    )
    def test_report_and_series_layout(self, tmp_path, r_list, noisy):
        text = CONVERGE_CONFIG.replace("r = 2", f"r = {r_list}")
        if not noisy:
            text = text.replace(*self.NOISE_FREE)
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        lines = (out / "series.csv").read_text().splitlines()
        assert set(report) == self.TOP_KEYS
        assert report["subcommand"] == "converge"
        assert (report["seed"], report["ensemble_size"]) == (11, 24)
        assert report["fingerprint"] == load_config(_write(tmp_path, text)).fingerprint
        series = report["series"]
        assert [entry["h"] for entry in series] == [0.25, 0.125, 0.0625, 0.03125]
        extra = noisy and "," in r_list
        for entry in series:
            assert set(entry) == self.ENTRY_KEYS | ({"extra_lr"} if extra else set())
            if extra:
                assert set(entry["extra_lr"]) == {"3"}
                assert set(entry["extra_lr"]["3"]) == {"maxnorm", "normmax"}
            if noisy:
                assert (entry["samples"], entry["r"]) == (24, 2.0)
                assert math.isfinite(entry["err_psi2"])
            else:
                # one deterministic value: every L^R norm is that value
                r = float(r_list.split(",")[0])
                assert (entry["samples"], entry["r"], entry["err_psi2"]) == (1, r, None)
        assert lines[0] == "h,err_l2_maxnorm,err_l2_normmax,err_psi2,bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(series)
        for row, entry in zip(rows, series):
            psi2 = None if row[3] == "" else float(row[3])
            assert [float(row[0]), float(row[1]), float(row[2]), psi2] == [
                entry["h"], entry["err_l2_maxnorm"], entry["err_l2_normmax"], entry["err_psi2"]
            ]
        assert report["theory"] == [float(row[4]) for row in rows]
        fit = fit_rate([(entry["h"], entry["err_l2_normmax"]) for entry in series])
        assert (report["slope"], report["intercept"], report["r2"]) == (
            fit.slope, fit.intercept, fit.r_squared
        )
        assert math.isfinite(report["slope"])

    @pytest.mark.parametrize("kind", ["explicit_euler", "two_stage", "implicit_euler"])
    def test_declared_order_sets_theory_slope_for_every_kind(self, tmp_path, kind):
        text = (CONVERGE_CONFIG.replace(*self.NOISE_FREE)
                .replace("n_values = 4, 8, 16, 32", "n_values = 16, 32, 64, 128")
                .replace("kind = implicit_euler", f"kind = {kind}\ndeclared_order = 7"))
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["theory_slope"] == 7.0

    @pytest.mark.parametrize("kind, slope", [("centred_gaussian", 1.5), ("bounded_uniform", 1.5),
                                             ("biased", 1.0), ("shared_factor", 1.0)])
    def test_theory_slope_of_each_noise_kind(self, tmp_path, kind, slope):
        # Heun (q = 2) with p = 1: min(q, p + 1/2) for noise that is mean-zero
        # and independent across steps, min(q, p) for the biased and the
        # shared-factor kind
        heun = "kind = two_stage\ncoefficients = 0.5, 0.5, 1.0, 1.0"
        text = (CONVERGE_CONFIG.replace("kind = centred_gaussian", _noise_kind(kind))
                .replace("kind = implicit_euler", heun)
                .replace("n_values = 4, 8, 16, 32", "n_values = 80, 160, 320")
                .replace("m = 24", "m = 4"))
        out = tmp_path / "out"
        assert main(["converge", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["theory_slope"] == slope


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

    def test_dimension_alone_loads_laplacian_eigenvalues_and_defaults(self, tmp_path):
        path = _write(tmp_path, "[problem]\ndimension = 3\n\n[bayes]\n")
        cfg = load_config(path, "bayes")
        model = cfg.bayes_model
        assert model.eigenvalues.tolist() == [1.0, 4.0, 9.0]
        assert (model.h, model.p) == (0.1, 0.0)
        assert not hasattr(model, "delta")  # delta is the sweep's, not the model's
        assert cfg.bayes_delta_grid.tolist() == [1.0, 0.1, 0.01, 0.001]
        assert model.prior_mean.tolist() == [0.0] * 3
        for per_mode in (model.prior_var, model.obs_var, model.rand_var, model.theta):
            assert per_mode.tolist() == [1.0] * 3
        assert (cfg.seed, cfg.bayes_noisy_data) == (0, False)
        assert load_config(path, "bayes", seed=4).seed == 4

    def test_increasing_grid_rejected(self, tmp_path, capsys):
        bad = BAYES_CONFIG.replace("1.0, 0.1, 0.01, 0.0001, 0.0", "0.1, 1.0")
        assert main(["bayes", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        assert "config error in [bayes]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [("1.0, nan", "delta values must be finite"), ("1.0, -0.5", "delta values must be >= 0"),
         ("", "empty delta grid")],
        ids=["nan", "negative", "empty"],
    )
    def test_bad_delta_grid_exits_one_with_the_sweep_message(self, tmp_path, capsys, grid,
                                                             message):
        bad = BAYES_CONFIG.replace("1.0, 0.1, 0.01, 0.0001, 0.0", grid)
        assert main(["bayes", "--config", _write(tmp_path, bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error in [bayes]" in err and message in err
        with pytest.raises(ValueError, match=message):
            small_noise_sweep(single_mode_model(), _floats(grid))

    @staticmethod
    def _per_mode_config(key, raw):
        """A J = 3 bayes config that sets key, a [bayes] per-mode key or
        [problem] theta, to raw."""
        if key == "theta":
            return f"[problem]\ndimension = 3\ntheta = {raw}\n\n[bayes]\n"
        return f"[problem]\ndimension = 3\n\n[bayes]\n{key} = {raw}\n"

    @pytest.mark.parametrize("key", ["m0", "gamma0", "gamma_obs", "gamma1", "theta"])
    @pytest.mark.parametrize("raw, count", [("1, 2", 2), ("1, 2, 3, 4", 4), ("", 0)],
                             ids=["two", "four", "empty"])
    def test_per_mode_key_refuses_a_count_other_than_one_or_j(self, tmp_path, capsys, key,
                                                              raw, count):
        # at J = 3 a per-mode key takes one value for every mode or three,
        # one per mode; any other count, none included, is refused by key
        text = self._per_mode_config(key, raw)
        assert main(["bayes", "--config", _write(tmp_path, text), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        if key == "theta":
            assert f"config error in [problem]: theta has {count} entries, expected 3" in err
        else:
            assert "config error in [bayes]" in err
            assert f"{key} takes one value or one per mode (3), got {count}" in err

    @pytest.mark.parametrize("key", ["m0", "gamma0", "gamma_obs", "gamma1", "theta"])
    def test_per_mode_key_takes_one_value_or_one_per_mode(self, tmp_path, key):
        field = {"m0": "prior_mean", "gamma0": "prior_var", "gamma_obs": "obs_var",
                 "gamma1": "rand_var", "theta": "theta"}[key]
        for raw, want in (("2.5", [2.5] * 3), ("0.5, 2, 3", [0.5, 2.0, 3.0])):
            path = _write(tmp_path, self._per_mode_config(key, raw))
            assert getattr(load_config(path, "bayes").bayes_model, field).tolist() == want

    def test_noisy_data_is_reproducible_per_seed(self, tmp_path):
        def sweep(text, name):
            out = tmp_path / name
            assert main(["bayes", "--config", _write(tmp_path, text, f"{name}.cfg"),
                         "--out", str(out)]) == 0
            return (out / "series.csv").read_bytes()

        noisy = BAYES_CONFIG + "noisy_data = true\n\n[ensemble]\nseed = 3\n"
        first, again = sweep(noisy, "a"), sweep(noisy, "b")
        assert first == again
        assert first != sweep(BAYES_CONFIG, "noiseless")
        assert first != sweep(noisy.replace("seed = 3", "seed = 4"), "other")


class TestChecks:
    def test_noise_check_passes(self, tmp_path):
        cfg = _write(tmp_path, NOISE_CONFIG)
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True

    @pytest.mark.parametrize("kind", ["centred_gaussian", "shared_factor\nrho = 0.5"])
    def test_zero_amplitude_noise_check_passes_without_a_correlation_row(self, tmp_path, kind):
        # all-zero draws have no spread, so no step correlation to check
        text = NOISE_CONFIG.replace("c_xi = 1.0", "c_xi = 0.0")
        cfg = _write(tmp_path, text.replace("kind = centred_gaussian", f"kind = {kind}"))
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert [row[0] for row in report["rows"]] == [
            "scaling_t=0.5", "scaling_t=0.25", "scaling_t=0.125"]

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_noise_check_output_does_not_depend_on_the_block_size(self, tmp_path, monkeypatch,
                                                                   kind):
        # blocks of 250 rows of one step and 125 of two, whose two row
        # buffers share a quarter of the budget (166 and 83 for the
        # shared-factor kind's three, fewer for the bounded kind's J + 2
        # normals a step); a row kept as a view of the reused block buffer
        # would read a later block's draws
        from randstep import randomisation

        text = NOISE_CONFIG.replace("kind = centred_gaussian", _noise_kind(kind))
        cfg = _write(tmp_path, text)
        assert main(["noise-check", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 8 * 2 * 6 * 1000)
        assert main(["noise-check", "--config", cfg, "--out", str(tmp_path / "many")]) == 0
        for name in ("report.json", "series.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes()

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_noise_check_memory_is_a_few_blocks(self, tmp_path, kind):
        # not a timing gate: numpy reports its buffers to tracemalloc.  At
        # J = 64 one check's 100,000 draws take 51 MB at once.  In row
        # blocks a check holds at most three blocks (raw normals, squares
        # for the norms, and the shared factors or the bounded kind's
        # squares for its unit draw), which share a quarter of
        # BLOCK_BYTES, beside O(m) floats: the norms and the correlation
        # row's one (m, 2) array
        from randstep import randomisation

        text = NOISE_CONFIG.replace("kind = centred_gaussian", _noise_kind(kind))
        # the first run at J = 6 makes the imports outside the trace
        assert main(["noise-check", "--config", _write(tmp_path, text), "--out",
                     str(tmp_path / "small")]) == 0
        cfg = _write(tmp_path, text.replace("dimension = 6", "dimension = 64"))
        tracemalloc.start()
        try:
            assert main(["noise-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < randomisation.BLOCK_BYTES + 40 * 100_000

    def test_failed_noise_check_exits_two_and_still_writes_its_report(self, tmp_path,
                                                                      monkeypatch, capsys):
        # a reference amplitude twice the true one puts every scaling row
        # about 50% off its 2% tolerance; the concentration rows, against
        # eps = 2, 4 and 8 times the true amplitude, still pass
        from randstep import randomisation

        true_norm = randomisation.theoretical_noise_norm
        monkeypatch.setattr(randomisation, "theoretical_noise_norm",
                            lambda *args: 2.0 * true_norm(*args))
        out = tmp_path / "out"
        cfg = _write(tmp_path, NOISE_CONFIG)
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        failed = [row for row in report["rows"] if row[3] is False]
        assert [row[0] for row in failed] == ["scaling_t=0.5", "scaling_t=0.25", "scaling_t=0.125"]
        assert all(row[2] > 0.02 for row in failed)
        assert (out / "series.csv").exists()
        assert "run failed: a noise-model check failed its tolerance" in capsys.readouterr().err

    def test_noise_check_requires_noise_section(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[problem]\ndimension = 6\n" + SEED_ONLY_CONFIG)
        assert main(["noise-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "config error in [noise]: missing required section [noise]" in capsys.readouterr().err

    @pytest.mark.parametrize("name, model", [
        ("ens-wide", NoiseModel(64, p=1.0, c_xi=1.0, s=1.0)),
        ("ens-many-w2", NoiseModel(8, p=1.0, c_xi=1.0, s=1.0, kind="shared_factor", rho=0.5)),
        ("oracle-affine", NoiseModel(128, p=1.0, c_xi=1.0, s=1.0)),
    ])
    def test_noise_check_on_a_converge_config_draws_the_problem_dimension(self, tmp_path,
                                                                         name, model):
        # the workload's J from [problem], not a default of 1: the first
        # scaling row is the library's draw of the J-mode model at seed 7
        config = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / f"{name}.ini"
        out = tmp_path / "out"
        assert main(["noise-check", "--config", str(config), "--out", str(out)]) == 0
        row = json.loads((out / "report.json").read_text())["rows"][0]
        rng = np.random.default_rng(np.random.SeedSequence([7]))
        norms = randomisation._draw_norms(model, rng, 0.5, 100_000)
        assert row[:2] == ["scaling_t=0.5", lr_norm_estimate(norms, 2.0) / 0.5**2]

    def test_gronwall_check_is_not_a_subcommand(self, tmp_path, capsys):
        # criterion 06 checks the Gronwall bounds; argparse refuses the name
        cfg = _write(tmp_path, SEED_ONLY_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["gronwall-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'gronwall-check'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_readme_synopsis_lists_every_subcommand():
    from randstep import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.search(r"^randstep \{([^}]*)\} --config FILE$", readme, re.MULTILINE)
    assert synopsis is not None
    assert tuple(synopsis.group(1).split(",")) == tuple(cli.SUBCOMMANDS)


@pytest.mark.parametrize("subcommand", ["gronwall", "check", "", "noise"])
def test_load_config_refuses_an_unknown_requirement_by_name(tmp_path, subcommand):
    # not a fall-through to converge's "missing required section [problem]";
    # load_config takes the subcommand's own name, so "noise" is unknown
    cfg = _write(tmp_path, NOISE_CONFIG)
    message = f"unknown subcommand {subcommand!r}, expected one of converge, noise-check, bayes"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(cfg, subcommand)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_refuses_a_non_finite_value_and_writes_nothing(tmp_path, bad):
    from randstep.analysis import EstimationError
    from randstep.cli import _write as write_outputs

    out = tmp_path / "out"
    out.mkdir()
    cases = [
        ({"series": [{"h": 0.5}, {"h": bad}]}, [(0.5,)], "report.json.series[1].h"),
        ({"slope": bad}, [(0.5,)], "report.json.slope"),
        ({"slope": 1.0}, [(0.5,), (bad,)], "series.csv[1].h"),
        ({"slope": 1.0}, np.array([[0.5], [bad]]), "series.csv[1].h"),
    ]
    for payload, rows, key in cases:
        with pytest.raises(EstimationError, match=re.escape(f"non-finite value at {key};")):
            write_outputs(out, payload, ("h",), rows)
        assert list(out.iterdir()) == []


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
        ("bayes", BAYES_CONFIG, "h = 0.1", "h = abc", "bayes"),
        ("bayes", BAYES_CONFIG + "noisy_data = true\n\n[ensemble]\nseed = 3\n", "seed = 3",
         "seed = -1", "ensemble"),
        ("noise-check", NOISE_CONFIG, "dimension = 6", "dimension = abc", "problem"),
        ("converge", CONVERGE_CONFIG, "kind = implicit_euler",
         "kind = two_stage\ncoefficients = nan, 0.5, 1.0, 1.0", "method"),
        ("converge", CONVERGE_CONFIG, "kind = implicit_euler",
         "kind = implicit_euler\ndeclared_order = -1", "method"),
        ("converge", CONVERGE_CONFIG, "kind = implicit_euler",
         "kind = implicit_euler\ndeclared_order = nan", "method"),
        ("bayes", BAYES_CONFIG, "p = 0.0", "p = nan", "bayes"),
        ("bayes", BAYES_CONFIG, "lambda_values = 1.0", "lambda_values = 1.0, inf", "problem"),
        ("converge", CONVERGE_CONFIG, "lambda_spec = laplacian_1d", "lambda_spec = bogus",
         "problem"),
        ("converge", CONVERGE_CONFIG, "alpha = 1.0", "alpha = 1.0, 0.5, 0.25", "problem"),
        ("converge", CONVERGE_CONFIG, "forcing = none", "forcing = 1.0, 0.5", "problem"),
        ("converge", CONVERGE_CONFIG, "kind = implicit_euler", "kind = bogus", "method"),
        ("converge", CONVERGE_CONFIG, "kind = implicit_euler",
         "kind = two_stage\ncoefficients = 0.5, 0.5, 1.0", "method"),
        ("converge", CONVERGE_CONFIG, "p = 1.0", "p = -1", "noise"),
        ("converge", CONVERGE_CONFIG, "young = psi2", "young = foo", "analysis"),
        ("converge", CONVERGE_CONFIG, "[problem]", "stray = 1\n[problem]", "file"),
        ("noise-check", NOISE_CONFIG, "kind = centred_gaussian", "kind = none", "noise"),
        # a valid config with a bad option: the worker count is the ensemble's
        ("converge --workers 0", CONVERGE_CONFIG, "m = 24", "m = 24", "ensemble"),
        ("converge", CONVERGE_CONFIG, "m = 24", "m = 0", "ensemble"),
        ("converge", CONVERGE_CONFIG, "seed = 11", "seed = -1", "ensemble"),
        ("converge", CONVERGE_CONFIG, "horizon = 1.0", "horizon = inf", "problem"),
        ("converge", CONVERGE_CONFIG, "alpha = 1.0", "alpha = 0.0", "problem"),
        ("converge", CONVERGE_CONFIG, "forcing = none", "forcing = nan, 0, 0", "problem"),
        ("converge", CONVERGE_CONFIG, "dimension = 4", "dimension = 0", "problem"),
        ("converge", CONVERGE_CONFIG, "lambda_spec = laplacian_1d",
         "lambda_spec = explicit\nlambda_values =", "problem"),
        ("bayes", BAYES_CONFIG, "lambda_values = 1.0", "lambda_values = 1.0, -1.0", "problem"),
        ("bayes", BAYES_CONFIG, "h = 0.1", "h = 0", "bayes"),
        ("bayes", BAYES_CONFIG, "p = 0.0", "p = -1", "bayes"),
        ("converge", CONVERGE_CONFIG, "c_xi = 0.5", "cxi = 50.0", "noise"),
        ("converge", CONVERGE_CONFIG, "young = psi2", "young = psi2\n\n[anlysis]\nyoung = none",
         "anlysis"),
        ("bayes", BAYES_CONFIG, "lambda_values = 1.0", "lambda_values = 4.0, 1.0", "problem"),
        ("bayes", BAYES_CONFIG, "h = 0.1", "h = 1e160", "bayes"),
    ],
    ids=["problem", "grid_family", "method", "noise", "ensemble", "analysis",
         "bayes", "bayes-seed", "noise-check-dimension", "method-nan-coefficient",
         "method-negative-order", "method-nan-order", "bayes-nan-p", "bayes-inf-lambda",
         "problem-unknown-lambda-spec", "problem-three-alpha", "problem-two-forcing",
         "method-unknown-kind", "method-three-coefficients", "noise-negative-p",
         "analysis-unknown-young", "line-before-first-section", "noise-check-kind-none",
         "workers-zero", "ensemble-m-zero", "ensemble-negative-seed", "problem-inf-horizon",
         "problem-zero-alpha", "problem-nan-forcing", "problem-zero-dimension",
         "problem-empty-lambda-values", "bayes-negative-lambda", "bayes-zero-h",
         "bayes-negative-p", "noise-unknown-key", "unknown-section",
         "bayes-decreasing-lambda", "bayes-overflowing-inflation"],
)
def test_bad_value_exits_one_naming_its_section(tmp_path, capsys, subcommand, text, old,
                                                new, section):
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    assert main([*subcommand.split(), "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [("c_xi = 0.5", "cxi = 50.0", "[noise]: unknown key 'cxi' in [noise]"),
     ("[analysis]", "[anlysis]", "[anlysis]: unknown section [anlysis]")],
    ids=["key", "section"],
)
def test_unknown_key_or_section_is_named(tmp_path, capsys, old, new, message):
    # one table of the keys that any subcommand reads; anything else fails
    bad = _write(tmp_path, CONVERGE_CONFIG.replace(old, new))
    assert main(["converge", "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in {message}" in capsys.readouterr().err


# configs that between them set every key that converge or bayes reads: a
# two-stage method, the biased and shared-factor kinds' keys, explicit
# eigenvalues, and bayes on explicit and on Laplacian eigenvalues
NOTE_CONFIGS = [
    ("converge", CONVERGE_CONFIG),
    ("converge", CONVERGE_CONFIG.replace(
        "kind = implicit_euler",
        "kind = two_stage\ncoefficients = 0.5, 0.5, 1.0, 1.0\nh_star = 0.5\ndeclared_order = 2",
    ).replace("kind = centred_gaussian", _noise_kind("biased"))
     .replace("n_values = 4, 8, 16, 32", "n_values = 16, 32, 64")),
    ("converge", CONVERGE_CONFIG.replace(
        "lambda_spec = laplacian_1d\ndimension = 4",
        "lambda_spec = explicit\nlambda_values = 1, 4, 9, 16",
    ).replace("kind = centred_gaussian", _noise_kind("shared_factor"))),
    ("bayes", BAYES_CONFIG + "noisy_data = true\n\n[ensemble]\nseed = 3\n"),
    ("bayes", BAYES_CONFIG.replace("lambda_spec = explicit\nlambda_values = 1.0",
                                   "dimension = 3")),
]


def _key_lines(text):
    """(line index, section, key) of each key line of a config text."""
    section = None
    for index, line in enumerate(text.splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line:
            yield index, section, line.split(" = ")[0]


NOTE_CASES = [(subcommand, text, index, section)
              for subcommand, text in NOTE_CONFIGS for index, section, _ in _key_lines(text)]
NOTE_IDS = [f"{n}-{section}-{key}"
            for n, (_, text) in enumerate(NOTE_CONFIGS) for _, section, key in _key_lines(text)]


def test_note_configs_set_every_key_of_converge_and_bayes():
    from randstep.config import _KEYS

    keys = {(section, key) for _, text in NOTE_CONFIGS for _, section, key in _key_lines(text)}
    assert keys == {(section, key) for section, names in _KEYS.items() for key in names}


@pytest.mark.parametrize("subcommand, text", NOTE_CONFIGS,
                         ids=[f"{n}-{sub}" for n, (sub, _) in enumerate(NOTE_CONFIGS)])
def test_hash_note_after_every_value_loads(tmp_path, subcommand, text):
    # " #" starts an inline comment in every section; the run writes what
    # it writes without the notes
    noted = "\n".join(line + " # note" if " = " in line else line for line in text.splitlines())
    outs = [tmp_path / "plain", tmp_path / "noted"]
    for body, out in zip((text, noted), outs):
        assert main([subcommand, "--config", _write(tmp_path, body), "--out", str(out)]) == 0
    assert (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()


@pytest.mark.parametrize("subcommand, text, index, section", NOTE_CASES, ids=NOTE_IDS)
def test_semicolon_note_after_a_value_exits_one_naming_its_section(tmp_path, capsys, subcommand,
                                                                    text, index, section):
    # ";" starts no inline comment, so the note stays in the value, which
    # no key reads as valid: not a silently dropped comment
    lines = text.splitlines()
    lines[index] += " ; note"
    bad = _write(tmp_path, "\n".join(lines))
    assert main([subcommand, "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in [{section}]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand, text",
    [("converge", CONVERGE_CONFIG), ("bayes", BAYES_CONFIG), ("noise-check", NOISE_CONFIG)],
    ids=["converge", "bayes", "noise-check"],
)
def test_negative_seed_override_exits_one_naming_the_seed_section(tmp_path, capsys,
                                                                 subcommand, text):
    # every subcommand reads its seed from [ensemble]
    cfg = _write(tmp_path, text)
    assert main([subcommand, "--config", cfg, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "config error in [ensemble]: seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, text, old, new, message",
    [("converge", CONVERGE_CONFIG, "dimension = 4", "J = 4", "[problem]: unknown key 'j'"),
     ("converge", CONVERGE_CONFIG, "horizon = 1.0", "T = 1.0", "[problem]: unknown key 't'"),
     ("converge", CONVERGE_CONFIG, "kind = implicit_euler", "method = implicit_euler",
      "[method]: unknown key 'method'"),
     ("converge", CONVERGE_CONFIG, "c_xi = 0.5", "c_xi = 0.5\ndimension = 4",
      "[noise]: unknown key 'dimension'"),
     ("noise-check", NOISE_CONFIG, "[problem]\ndimension = 6\n\n[noise]",
      "[noise]\ndimension = 6", "[noise]: unknown key 'dimension'"),
     ("converge", CONVERGE_CONFIG, "young = psi2", "young = psi2\n\n[output]\nformats = csv",
      "[output]: unknown section [output]"),
     ("converge", CONVERGE_CONFIG, "young = psi2", "young = psi2\n\n[output]\ndir = elsewhere",
      "[output]: unknown section [output]"),
     ("bayes", BAYES_CONFIG, "h = 0.1", "h = 0.1\nseed = 3", "[bayes]: unknown key 'seed'"),
     ("bayes", BAYES_CONFIG, "h = 0.1", "h = 0.1\ndimension = 3",
      "[bayes]: unknown key 'dimension'"),
     ("bayes", BAYES_CONFIG, "h = 0.1", "h = 0.1\nlambda_values = 1.0",
      "[bayes]: unknown key 'lambda_values'"),
     ("bayes", BAYES_CONFIG, "h = 0.1", "h = 0.1\ntheta = 1.0", "[bayes]: unknown key 'theta'")],
    ids=["problem-j", "problem-t", "method-method", "noise-dimension", "noise-check-dimension",
         "output-formats", "output-dir", "bayes-seed", "bayes-dimension", "bayes-lambda-values",
         "bayes-theta"],
)
def test_removed_key_exits_one_as_unknown(tmp_path, capsys, subcommand, text, old, new,
                                          message):
    # each setting has one key in one section; the old second homes fail
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    assert main([subcommand, "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand, text, old, new, message",
    [("converge", CONVERGE_CONFIG, "kind = implicit_euler",
      "kind = implicit_euler\ncoefficients = 0.5, 0.5, 1.0, 1.0",
      "[method]: key 'coefficients' does not apply to kind implicit_euler"),
     ("converge", CONVERGE_CONFIG, "c_xi = 0.5", "c_xi = 0.5\nrho = 0.9\nbias_mode = 7",
      "[noise]: key 'rho' does not apply to kind centred_gaussian"),
     ("converge", CONVERGE_CONFIG, "c_xi = 0.5", "c_xi = 0.5\nbias_coefficient = 0.2",
      "[noise]: key 'bias_coefficient' does not apply to kind centred_gaussian"),
     ("converge", CONVERGE_CONFIG, "kind = centred_gaussian", "kind = shared_factor\nbias_mode = 1",
      "[noise]: key 'bias_mode' does not apply to kind shared_factor"),
     ("noise-check", NOISE_CONFIG, "kind = centred_gaussian", "kind = biased\nrho = 0.5",
      "[noise]: key 'rho' does not apply to kind biased"),
     ("converge", CONVERGE_CONFIG, "dimension = 4", "dimension = 64\nlambda_values = 1.0, 4.0",
      "[problem]: key 'lambda_values' does not apply to lambda_spec laplacian_1d"),
     ("converge", CONVERGE_CONFIG, "lambda_spec = laplacian_1d",
      "lambda_spec = explicit\nlambda_values = 1.0, 4.0",
      "[problem]: key 'dimension' does not apply to lambda_spec explicit")],
    ids=["method-coefficients", "noise-rho-and-bias-mode", "noise-bias-coefficient",
         "noise-bias-mode", "noise-check-rho", "problem-lambda-values", "problem-dimension"],
)
def test_key_of_another_kind_exits_one(tmp_path, capsys, subcommand, text, old, new, message):
    # a key that only another kind reads would be ignored; it is refused
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    assert main([subcommand, "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, text, old, new, message",
    [("converge", CONVERGE_CONFIG, "dimension = 4\n", "", "[problem]: dimension must be >= 1"),
     ("noise-check", NOISE_CONFIG, "dimension = 6\n", "", "[problem]: dimension must be >= 1"),
     ("converge", CONVERGE_CONFIG, "lambda_spec = laplacian_1d\ndimension = 4",
      "lambda_spec = explicit",
      "[problem]: key 'lambda_values': eigenvalues must be a non-empty 1-d array"),
     ("converge", CONVERGE_CONFIG, "n_values = 4, 8, 16, 32\n", "",
      "[grid_family]: n_values must list at least three distinct step counts")],
    ids=["converge-dimension", "noise-check-dimension", "lambda-values", "n-values"],
)
def test_missing_key_without_a_default_exits_one_naming_it(tmp_path, capsys, subcommand, text,
                                                           old, new, message):
    # not a default, and not a TypeError or AttributeError on None
    assert text.count(old) == 1
    bad = _write(tmp_path, text.replace(old, new))
    assert main([subcommand, "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert f"config error in {message}" in capsys.readouterr().err


def test_noise_kind_none_ignores_the_other_noise_keys(tmp_path):
    # one key turns noise off, whatever the rest of [noise] says
    text = CONVERGE_CONFIG.replace("c_xi = 0.5", "c_xi = 0.5\nrho = 0.9\nbias_mode = 7").replace(
        "kind = centred_gaussian", "kind = none")
    assert load_config(_write(tmp_path, text)).noise is None


def _subprocess_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


AFFINE_FORCED_CONFIG = (
    CONVERGE_CONFIG.replace("dimension = 4", "dimension = 16")
    .replace("forcing = none", "forcing = 1.0, 0.5, -0.25")
    .replace("n_values = 4, 8, 16, 32", "n_values = 4, 8, 16")
    .replace("m = 24", "m = 8")
)

# runs converge on each config given and reports, per config, its exit code
# and how many entries of the forcing response were split into substeps
# (series order above the cap), which scipy modules loaded and whether
# numpy.ma did
SCIPY_PROBE = """
import json, sys
import randstep.cli, randstep.problems as problems

order = problems._series_order
split = []

def counted(*args):
    n = order(*args)
    split[-1] += int((n > problems._ORDER_CAP).sum())
    return n

problems._series_order = counted
codes = []
for cfg in sys.argv[1:]:
    split.append(0)
    codes.append(randstep.cli.main(["converge", "--config", cfg, "--out", cfg + ".out"]))
print(json.dumps({"codes": codes, "split": split, "numpy.ma": "numpy.ma" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_affine_forced_converge_loads_no_scipy(tmp_path):
    # alpha = 1 + t and alpha = 1 - 1.01 t (which vanishes at t = 0.990,
    # inside the last step of every grid) both split entries into substeps
    configs = [
        _write(tmp_path, AFFINE_FORCED_CONFIG.replace("alpha = 1.0", f"alpha = {alpha}"),
               f"{name}.cfg")
        for name, alpha in (("rising", "1.0, 1.0"), ("falling", "1.0, -1.01"))
    ]
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *map(str, configs)], env=_subprocess_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["scipy"] == []
    assert not report["numpy.ma"]
    assert all(count > 0 for count in report["split"]), report["split"]


def test_cli_import_loads_no_pool_and_no_scipy():
    # no import of the CLI needs the pool or scipy modules; a pooled run
    # forks its workers directly
    probe = ("import json, sys, randstep.cli; print(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'scipy'))))")
    result = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# the CLI module's BLAS default: the variable numpy's OpenBLAS read at
# import, and the process's thread count (one, with no idle OpenBLAS pool)
BLAS_PROBE = """
import json, os, sys, randstep.cli
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], threads]))
"""


def _blas_probe(**variables) -> list:
    # a caller's OMP_ or GOTO_NUM_THREADS would also cap OpenBLAS's pool
    env = {k: v for k, v in _subprocess_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=dict(env, **variables),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_cli_import_starts_openblas_with_one_thread():
    value, threads = _blas_probe()
    assert value == "1"
    if sys.platform.startswith("linux"):
        assert threads == 1
    else:
        pytest.skip("the thread count is read from /proc/self/status, on Linux only")


def test_cli_import_keeps_the_callers_openblas_threads():
    assert _blas_probe(OPENBLAS_NUM_THREADS="3")[0] == "3"


def test_converge_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs a fresh process about 15 ms to import; the rate fit
    # checks for distinct meshes without np.unique, which would load it
    cfg = _write(tmp_path, CONVERGE_CONFIG.replace("m = 24", "m = 8"))
    probe = ("import json, sys, randstep.cli; "
             "code = randstep.cli.main(['converge', '--config', sys.argv[1], '--out', sys.argv[2]]); "
             "print(json.dumps([code, 'numpy.ma' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", probe, cfg, str(tmp_path / "out")],
                            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, False]


def test_pooled_converge_loads_no_numpy_random(tmp_path):
    # M = 400 makes two tasks (B = 362 at J = 4), so two workers pool the
    # pass and worker 0 draws the noise amplitude: this process never
    # loads numpy.random, where numpy itself loads it lazily (numpy >= 2)
    cfg = _write(tmp_path, CONVERGE_CONFIG.replace("m = 24", "m = 400"))
    probe = ("import json, sys, numpy; eager = 'numpy.random' in sys.modules; "
             "import randstep.cli; "
             "code = randstep.cli.main(['converge', '--config', sys.argv[1], '--workers', '2', "
             "'--out', sys.argv[2]]); "
             "print(json.dumps([eager, code, 'numpy.random' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", probe, cfg, str(tmp_path / "out")],
                            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    eager, code, loaded = json.loads(result.stdout.splitlines()[-1])
    if eager:
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert (code, loaded) == (0, False)


@pytest.mark.parametrize("name", ["ens-wide", "ens-many-w2", "oracle-affine", "non-ascii"])
def test_fingerprint_is_the_sha256_of_the_config_text(tmp_path, name):
    # the built-in SHA-256 gives hashlib's hex digest, so reports keep
    # their fingerprints
    if name == "non-ascii":
        text = "# Konvergenzstudie, \u03b3 = 1 \u2014 \u00e9t\u00e9\n" + CONVERGE_CONFIG
        config = _write(tmp_path, text)
    else:
        config = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / f"{name}.ini"
        text = config.read_text()
    assert load_config(config).fingerprint == hashlib.sha256(text.encode()).hexdigest()


def test_one_task_converge_forks_one_worker_and_loads_no_numpy_random(tmp_path):
    # M = 24 is one task (B = 362 at J = 4): for --workers 1 and 2 alike
    # the pass forks one worker, which draws the noise amplitude and every
    # trajectory, so this process never loads numpy.random, where numpy
    # itself loads it lazily (numpy >= 2); and since the config's
    # fingerprint comes from CPython's built-in SHA-256, it never loads
    # _hashlib, OpenSSL's binding, either
    cfg = _write(tmp_path, CONVERGE_CONFIG)
    probe = ("import json, os, sys, numpy; "
             "eager = ['numpy.random' in sys.modules, '_hashlib' in sys.modules]; "
             "import randstep.cli; forks, fork = [], os.fork\n"
             "def counting_fork():\n    forks.append(1)\n    return fork()\n"
             "os.fork = counting_fork; codes = {}\n"
             "for workers in ('1', '2'):\n"
             "    codes[workers] = randstep.cli.main(['converge', '--config', sys.argv[1], "
             "'--workers', workers, '--out', sys.argv[2] + workers]), len(forks)\n"
             "    forks.clear()\n"
             "print(json.dumps([eager, codes, "
             "['numpy.random' in sys.modules, '_hashlib' in sys.modules]]))")
    result = subprocess.run([sys.executable, "-c", probe, cfg, str(tmp_path / "out")],
                            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    (eager, eager_openssl), codes, (loaded, openssl) = json.loads(result.stdout.splitlines()[-1])
    assert codes == {"1": [0, 1], "2": [0, 1]}
    for name in ("report.json", "series.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
    if eager:
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert not loaded
    # only an interpreter built without a built-in SHA-256 may fall back to
    # hashlib; a renamed built-in module fails here rather than skipping
    builtin = sysconfig.get_config_var("PY_BUILTIN_HASHLIB_HASHES")
    if eager_openssl:
        pytest.skip("this interpreter loads _hashlib before randstep.cli")
    if builtin is not None and not {"sha2", "sha256"} & set(builtin.strip('"').split(",")):
        pytest.skip("this interpreter has no built-in SHA-256")
    assert not openssl


@pytest.mark.parametrize("order", ["1e6", "1e308"])
def test_huge_declared_order_fails_with_one_stderr_line(tmp_path, order):
    # h^(q + 1) underflows to 0 on every step (h <= 1/4), so the truncation
    # constant would divide by zero; the load refuses the order by its key,
    # and q = 2 on the same grids loads
    text = CONVERGE_CONFIG.replace("kind = implicit_euler",
                                   "kind = implicit_euler\ndeclared_order = {order}")
    assert load_config(_write(tmp_path, text.format(order=2), "two.cfg")).method.order == 2.0
    cfg = _write(tmp_path, text.format(order=order))
    result = subprocess.run(
        [sys.executable, "-m", "randstep.cli", "converge", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"config error in [method]: declared_order = {float(order)} makes h^(q + 1) underflow "
        "to 0 on the step h = 0.25 of n = 4"]
    assert not (tmp_path / "out").exists()


def test_errors_that_underflow_to_zero_exit_two_naming_the_pair(tmp_path, capsys):
    # at T = 1e-300 every error underflows to 0, which no rate fit takes
    cfg = _write(tmp_path, CONVERGE_CONFIG.replace("horizon = 1.0", "horizon = 1e-300"))
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "run failed: mesh and error values must be positive, pair 0 is (h, err) = "
        "(2.5000000000000005e-301, 0.0)\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_overflowing_noise_fails_with_one_stderr_line(tmp_path, workers):
    # some amplitude draws c_xi sqrt(gamma_j) Y_j exceed the largest
    # double; only the finiteness check speaks
    cfg = _write(tmp_path, CONVERGE_CONFIG.replace("c_xi = 0.5", "c_xi = 1e308"))
    result = subprocess.run(
        [sys.executable, "-m", "randstep.cli", "converge", "--config", str(cfg),
         "--workers", workers, "--out", str(tmp_path / "out")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("run failed:"), result.stderr


def _run_pool_probe(tmp_path, text: str, odd_task: str, timeout: float, even_task: str = "pass"):
    """converge of config text in a fresh process with two workers and
    B = 4, so six groups of M = 24, where each odd task first runs the
    line odd_task and each even task the line even_task; the probe
    prints whether a child is left."""
    probe = (
        "import os, sys, time, randstep.cli\n"
        "from randstep import randomisation, sampler\n"
        "randomisation.BLOCK_BYTES = 8 * (4 + 2) * 4**2\n"
        "run_group = sampler._run_group\n"
        "def odd_first(study, task):\n"
        "    if task[0] % 2:\n"
        f"        {odd_task}\n"
        "    else:\n"
        f"        {even_task}\n"
        "    run_group(study, task)\n"
        "sampler._run_group = odd_first\n"
        "code = randstep.cli.main(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    print('a child is left')\n"
        "except ChildProcessError:\n"
        "    print('no child is left')\n"
        "sys.exit(code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe, "converge", "--config", _write(tmp_path, text),
         "--workers", "2", "--out", str(tmp_path / "out")],
        env=_subprocess_env(), capture_output=True, text=True, timeout=timeout,
    )


def test_failed_amplitude_stops_the_pool_at_once(tmp_path):
    # worker 0 fails in its first job, the amplitude (c_xi = 1e308), while
    # worker 1 would sleep 30 s in each of its three groups: the parent
    # kills it and reports worker 0's failure well within the timeout
    result = _run_pool_probe(tmp_path, CONVERGE_CONFIG.replace("c_xi = 0.5", "c_xi = 1e308"),
                             "time.sleep(30)", timeout=15)
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == ["run failed: noise amplitude draws must be finite"]
    assert result.stdout.splitlines()[-1] == "no child is left"
    assert list((tmp_path / "out").iterdir()) == []


def test_failed_worker_gives_one_stderr_line_and_leaves_no_child(tmp_path):
    # of two forked workers, the second fails at its first task (task 1)
    # while the first runs all of its own
    result = _run_pool_probe(tmp_path, CONVERGE_CONFIG,
                             "raise ValueError(f'task {task[0]} failed')", timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == ["run failed: task 1 failed"]
    assert result.stdout.splitlines()[-1] == "no child is left"


def test_a_later_worker_failure_stops_the_pool_at_once(tmp_path):
    # worker 0 would sleep 30 s in each of its groups (tasks 0, 2, 4)
    # while worker 1 fails at its first (task 1): the parent waits for
    # the workers as they finish, not in order, so it kills worker 0 and
    # reports worker 1's failure well within the timeout
    result = _run_pool_probe(tmp_path, CONVERGE_CONFIG,
                             "raise ValueError(f'task {task[0]} failed')", timeout=15,
                             even_task="time.sleep(30)")
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == ["run failed: task 1 failed"]
    assert result.stdout.splitlines()[-1] == "no child is left"
    assert list((tmp_path / "out").iterdir()) == []
