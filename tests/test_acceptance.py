"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; expected values are either direct
arithmetic, closed forms derived in-test (Fraction-exact where stated),
or Monte Carlo estimates at the stated sample sizes and percentages.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import randstep as rs
from reference import run_deterministic, sample_noise_matrix

HEUN = (0.5, 0.5, 1.0, 1.0)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _deterministic_slope(problem, method, theta, k_range):
    points = []
    for k in k_range:
        grid = rs.build_grid(1.0, 2**k)
        trajectory = run_deterministic(problem, method, grid, theta)
        points.append((grid.mesh, float(trajectory.error_h_norms().max())))
    return rs.fit_rate(points).slope


def test_criterion_1_deterministic_orders():
    problem = rs.scalar_linear(1.0)
    theta = np.array([1.0])
    slopes = {
        "two_stage": _deterministic_slope(problem, rs.two_stage(*HEUN), theta, range(3, 9)),
        "explicit_euler": _deterministic_slope(problem, rs.explicit_euler(), theta, range(3, 9)),
        "implicit_euler": _deterministic_slope(
            problem, rs.implicit_euler(h_star=0.2), theta, range(3, 9)
        ),
    }
    ok = (
        abs(slopes["two_stage"] - 2.0) <= 0.1
        and abs(slopes["explicit_euler"] - 1.0) <= 0.1
        and abs(slopes["implicit_euler"] - 1.0) <= 0.1
    )
    detail = ", ".join(f"{k} slope {v:.3f}" for k, v in slopes.items())
    assert _report("criterion-01 deterministic orders", ok, detail)


def test_criterion_2_heat_implicit_euler_order():
    problem = rs.heat_1d(64)
    theta = np.arange(1, 65, dtype=float) ** -4.0
    slope = _deterministic_slope(problem, rs.implicit_euler(), theta, range(3, 9))
    ok = abs(slope - 1.0) <= 0.15
    assert _report(
        "criterion-02 heat model implicit Euler", ok, f"H-norm error slope {slope:.3f} (1.0 +- 0.15)"
    )


def test_criterion_3_rate_gap_centred_vs_biased():
    problem = rs.scalar_linear(1.0)
    method = rs.two_stage(*HEUN)
    theta = np.array([1.0])
    centred = rs.centred_gaussian(1, p=1.0, c_xi=1.0)
    biased = rs.NoiseModel(1, p=1.0, c_xi=1.0, kind="biased", bias_mode=0, bias_coefficient=1.0)
    slopes = {}
    for label, noise in (("centred", centred), ("biased", biased)):
        points = []
        for k in range(3, 8):
            grid = rs.build_grid(1.0, 2**k)
            ensemble = rs.run_ensemble(problem, method, noise, grid, theta, 2000, 7)
            stats = rs.error_statistics(ensemble, 2.0, None)
            points.append((grid.mesh, stats.max_of_norm))
        slopes[label] = rs.fit_rate(points).slope
    ok = abs(slopes["centred"] - 1.5) <= 0.15 and abs(slopes["biased"] - 1.0) <= 0.15
    detail = (
        f"centred p=1 slope {slopes['centred']:.3f} (1.5 +- 0.15), "
        f"biased p=1 slope {slopes['biased']:.3f} (1.0 +- 0.15)"
    )
    assert _report("criterion-03 rate gap", ok, detail)


def test_criterion_4_noise_scaling_law():
    model = rs.centred_gaussian(16, p=1.0, c_xi=1.0)
    stream = np.random.default_rng(1001)
    worst = 0.0
    for t in (0.5, 0.25, 0.125):
        draws = sample_noise_matrix(model, stream, t, 100_000)
        est = rs.lr_norm_estimate(np.linalg.norm(draws, axis=1), 2.0)
        worst = max(worst, abs(est / t ** (model.p + 1.0) - model.c_xi) / model.c_xi)
    ok = worst <= 0.02
    assert _report(
        "criterion-04 noise scaling law", ok, f"max relative deviation {worst:.4f} (<= 0.02)"
    )


def test_criterion_5_orlicz_estimator_oracle():
    # Gaussian identity E exp(Z^2/k^2) = (1 - 2/k^2)^(-1/2) = 2 at k = sqrt(8/3)
    target = math.sqrt(8.0 / 3.0)
    stream = np.random.default_rng(1002)
    est = rs.orlicz_norm_estimate(np.abs(stream.standard_normal(100_000)), "psi2")
    ok = abs(est - target) / target <= 0.05
    assert _report(
        "criterion-05 Orlicz oracle", ok, f"psi2 estimate {est:.5f} vs sqrt(8/3) = {target:.5f}"
    )


def test_criterion_6_gronwall_dominance():
    rng = np.random.default_rng(1003)
    tol = 1e-12
    worst = {"uniform": 0.0, "special": 0.0, "nonuniform": 0.0}

    for _ in range(1000):
        n = int(rng.integers(1, 41))
        horizon = float(rng.uniform(0.1, 2.0))
        h = horizon / n
        a = float(rng.uniform(0.0, 3.0)) if rng.uniform() < 0.9 else 0.0
        b = float(rng.uniform(0.0, 2.0))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        y = y0 = float(rng.uniform(0.0, 2.0))
        bound = rs.gronwall_uniform(y0, a, b, p, h, horizon)
        for _ in range(n):
            y = (1.0 + a * h) * y + float(rng.uniform()) * b * h**p
            if bound > 0.0:
                worst["uniform"] = max(worst["uniform"], y / bound)

    for _ in range(1000):
        n = int(rng.integers(1, 41))
        c = float(rng.uniform(0.0, 2.0))
        g = rng.uniform(0.0, 0.5, n)
        bounds = rs.gronwall_special(c, g)
        ys = [float(rng.uniform()) * c]
        for k in range(n):
            hypothesis_cap = c + sum(g[j] * ys[j] for j in range(k + 1))
            ys.append(float(rng.uniform()) * hypothesis_cap)
            if bounds[k] > 0.0:
                worst["special"] = max(worst["special"], ys[-1] / bounds[k])

    for _ in range(1000):
        n = int(rng.integers(1, 41))
        a = float(rng.uniform(0.0, 3.0))
        h_seq = rng.uniform(0.0, 0.3, n)
        b_seq = rng.uniform(0.0, 0.5, n)
        y = y0 = float(rng.uniform(0.0, 2.0))
        bounds = rs.gronwall_nonuniform(y0, a, h_seq, b_seq)
        for k in range(n):
            y = (1.0 + a * h_seq[k]) * y + float(rng.uniform()) * b_seq[k]
            if bounds[k] > 0.0:
                worst["nonuniform"] = max(worst["nonuniform"], y / bounds[k])

    ok = all(v <= 1.0 + tol for v in worst.values())
    detail = ", ".join(f"{k} max ratio {v:.6f}" for k, v in worst.items())
    assert _report("criterion-06 Gronwall dominance", ok, detail)


def test_criterion_7_orlicz_bound_dominance():
    problem = rs.heat_1d(64)
    theta = np.arange(1, 65, dtype=float) ** -4.0
    method = rs.implicit_euler()
    noise = rs.centred_gaussian(64, p=1.0, c_xi=1.0)
    grids = [rs.build_grid(1.0, 2**k) for k in range(3, 7)]
    c_meas = max(
        rs.measure_truncation_constant(problem, method, g, theta, 1.0) for g in grids
    )
    amp = rs.psi2_amplitude(noise)
    dominated, ordered = True, True
    ratios = []
    for grid in grids:
        ensemble = rs.run_ensemble(problem, method, noise, grid, theta, 400, 13)
        stats = rs.error_statistics(ensemble, 2.0, "psi2")
        bound = rs.theoretical_bound(
            grid.mesh, c_phi_psi=c_meas, c_xi=amp,
            lipschitz=0.0, q=1.0, p=1.0, horizon=problem.horizon,
        )
        ratios.append(stats.psi2_norm_of_max / bound)
        dominated &= stats.psi2_norm_of_max <= bound
        ordered &= stats.max_of_norm <= stats.norm_of_max * (1 + 1e-12)
    ok = dominated and ordered
    detail = (
        f"psi2/bound ratios {['%.3f' % r for r in ratios]}, "
        f"max-of-norm <= norm-of-max: {ordered}"
    )
    assert _report("criterion-07 Orlicz bound dominance", ok, detail)


def test_criterion_8_implicit_euler_nonexpansive():
    problem = rs.heat_1d(64)
    method = rs.implicit_euler()
    rng = np.random.default_rng(1004)
    worst = -math.inf
    for _ in range(1000):
        x, y = rng.standard_normal((2, 64))
        h = float(rng.uniform(1e-4, 0.5))
        t = float(rng.uniform(0.0, 1.0 - h))
        gap = np.linalg.norm(
            rs.step(method, problem, h, t, x) - rs.step(method, problem, h, t, y)
        )
        worst = max(worst, float(gap - np.linalg.norm(x - y)))
    ok = worst <= 1e-12
    assert _report(
        "criterion-08 nonexpansivity", ok, f"max |psi x - psi y| - |x - y| = {worst:.3e}"
    )


def test_criterion_9_bayes_limits():
    model = rs.single_mode_model(lam=1.0, h=0.1, p=0.0, prior_var=1.0, obs_var=1.0,
                                 rand_var=1.0, prior_mean=0.0, theta=1.0)
    deltas = np.array([10.0**-k for k in range(0, 9)] + [0.0])
    rows = rs.small_noise_sweep(model, deltas)
    # independent closed forms: biased limit (g/gt) theta, and the exact
    # randomised-variance limit 1 - (100/121)/(1/100 + 100/121) = 121/10121
    biased_target = 1.1 * math.exp(-0.1)
    hat_limit = float(Fraction(121, 10121))
    err_exact = rows[-2, 1]           # delta = 1e-8 row
    mean_tilde_gap = rows[-2, 2]
    hat_var_limit = rows[-1, 3]       # delta = 0 row
    ok = (
        err_exact < 1e-6
        and mean_tilde_gap < 1e-6
        and abs(biased_target - 0.995321) < 1e-6
        and abs(hat_var_limit - hat_limit) < 1e-9
        and hat_var_limit > 0.0
    )
    detail = (
        f"|m - theta| = {err_exact:.2e} at delta = 1e-8, "
        f"|m_tilde - {biased_target:.6f}| = {mean_tilde_gap:.2e}, "
        f"hat variance limit {hat_var_limit:.9f} vs 121/10121"
    )
    assert _report("criterion-09 Bayes limits", ok, detail)


def test_criterion_10_reproducibility(tmp_path):
    from randstep.cli import main
    from randstep.randomisation import _chunk_shape

    config = tmp_path / "exp.cfg"
    config.write_text(
        "[problem]\nlambda_spec = laplacian_1d\ndimension = 8\nalpha = 1.0\n"
        "theta = power:-2\nhorizon = 1.0\n\n"
        "[grid_family]\nn_values = 8, 16, 32\ngamma = 1.0\n\n"
        "[method]\nkind = implicit_euler\n\n"
        "[noise]\nkind = centred_gaussian\np = 1.0\nc_xi = 1.0\n\n"
        "[ensemble]\nm = 600\nseed = 2024\n\n"
        "[analysis]\nr = 2\nyoung = psi2\n"
    )
    # the pool forks only for a run of several groups of trajectories
    assert _chunk_shape(rs.centred_gaussian(8, 1.0, 1.0), 32, 600)[0] < 600
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = main(
            ["converge", "--config", str(config), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outs[workers] = (out / "series.csv").read_bytes()
    ok = outs[1] == outs[8]
    assert _report(
        "criterion-10 reproducibility", ok,
        f"series.csv identical across worker counts 1 and 8: {ok}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
