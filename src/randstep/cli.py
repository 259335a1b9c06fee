"""Experiment runner: converge / bayes / gronwall-check / noise-check.

Each run reads one config file, executes the requested study, and writes
`report.json` plus `series.csv` into the output directory.  CSV floats
carry 17 significant digits; identical config and seed give byte-identical
outputs for any worker count.

Exit codes: 0 success, 1 configuration/validation failure (the message
names the failing section), 2 runtime or estimation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, bayes, randomisation, sampler
from .analysis import EstimationError
from .config import ConfigError, ExperimentConfig, load_config
from .integrators import lipschitz_constant
from .randomisation import CENTRED_GAUSSIAN

__all__ = ["main"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(cfg: ExperimentConfig, path: Path, columns, rows) -> None:
    if "csv" not in cfg.formats:
        return
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_report(cfg: ExperimentConfig, path: Path, payload: dict) -> None:
    if "json" not in cfg.formats:
        return
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")


def _run_converge(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    problem, method, theta = cfg.problem, cfg.method, cfg.theta
    h_ref = method.h_star if math.isfinite(method.h_star) else max(g.mesh for g in cfg.grids)
    l_psi = lipschitz_constant(method, problem, h_ref)
    if cfg.noise is None:
        noise_p, c_xi_amp, theory_slope = 0.0, 0.0, float(method.order)
    else:
        noise_p = cfg.noise.p
        norm_kind = "psi2" if cfg.young == "psi2" else "l2"
        c_xi_amp = randomisation.theoretical_noise_norm(cfg.noise, 1.0, norm_kind)
        if cfg.noise.kind == CENTRED_GAUSSIAN:
            theory_slope = min(method.order, noise_p + 0.5)
        else:
            theory_slope = min(method.order, noise_p)
    stats, extras = [], []
    c_meas = 0.0
    for grid in cfg.grids:
        # one build of the grid's tables serves the truncation constant and the run
        c_grid, run = sampler._converge_grid(
            problem, method, cfg.noise, grid, theta,
            cfg.ensemble_size, cfg.seed, workers, cfg.fingerprint,
        )
        c_meas = max(c_meas, c_grid)
        extra = {}
        if cfg.noise is None:
            worst = float(run.error_h_norms().max())
            stats.append(analysis.ErrorStatistics(grid.mesh, 1, 2.0, worst, worst, None))
        else:
            stats.append(analysis.error_statistics(run, cfg.r, cfg.young))
            for r_extra in cfg.extra_r:
                more = analysis.error_statistics(run, r_extra, None)
                extra[f"{r_extra:g}"] = {
                    "maxnorm": more.max_of_norm,
                    "normmax": more.norm_of_max,
                }
        del run  # free its norms before the next grid's gather, the memory peak
        extras.append(extra)
    # the bounds share the largest truncation constant over all grids
    bounds = [
        analysis.theoretical_bound(
            "gelfand_orlicz", grid.mesh,
            c_phi_psi=c_meas, c_xi=c_xi_amp, lipschitz=l_psi,
            q=method.order, p=noise_p, horizon=problem.horizon,
        )
        for grid in cfg.grids
    ]
    report = analysis.convergence_report(stats, theory_slope, bounds, cfg.fingerprint)
    payload = report.to_json_dict()
    for entry, extra in zip(payload["series"], extras):
        if extra:
            entry["extra_lr"] = extra
    payload.update(
        {
            "subcommand": "converge",
            "seed": cfg.seed,
            "ensemble_size": cfg.ensemble_size,
            "measured_c_phi_psi": c_meas,
            "lipschitz": l_psi,
            "noise_amplitude": c_xi_amp,
        }
    )
    _write_report(cfg, out / "report.json", payload)
    _write_csv(cfg, out / "series.csv", report.columns, report.rows())


def _run_bayes(cfg: ExperimentConfig, out: Path) -> None:
    model = cfg.bayes_model
    draw = None
    if cfg.bayes_noisy_data:
        stream = np.random.default_rng(np.random.SeedSequence([cfg.bayes_seed]))
        draw = stream.standard_normal(model.eigenvalues.size)
    rows = bayes.small_noise_sweep(model, cfg.bayes_delta_grid, draw)
    payload = {
        "subcommand": "bayes",
        "fingerprint": cfg.fingerprint,
        "columns": list(bayes.SWEEP_COLUMNS),
        "rows": [list(map(float, row)) for row in rows],
        "biased_limit": [float(v) for v in bayes.biased_limit(model)],
    }
    _write_report(cfg, out / "report.json", payload)
    _write_csv(cfg, out / "series.csv", bayes.SWEEP_COLUMNS, rows)


def _gronwall_trials(rng: np.random.Generator, trials: int) -> list[tuple]:
    """Simulate each bound's hypothesis recursion and record the worst
    realised-to-bound ratio; a ratio above 1 falsifies dominance."""
    rows = []

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 41))
        horizon = float(rng.uniform(0.1, 2.0))
        h = horizon / n
        a = float(rng.uniform(0.0, 3.0)) if rng.uniform() < 0.9 else 0.0
        b = float(rng.uniform(0.0, 2.0))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        y = float(rng.uniform(0.0, 2.0))
        y0 = y
        bound = analysis.gronwall_uniform(y0, a, b, p, h, horizon)
        for _ in range(n):
            y = (1.0 + a * h) * y + float(rng.uniform()) * b * h**p
            worst = max(worst, y / bound if bound > 0 else 0.0)
    rows.append(("uniform", trials, worst, worst <= 1.0 + 1e-12))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 41))
        c = float(rng.uniform(0.0, 2.0))
        g = rng.uniform(0.0, 0.5, size=n)
        bounds = analysis.gronwall_special(c, g)
        ys = [float(rng.uniform(0.0, 1.0)) * c]
        for k in range(n):
            acc = c + sum(g[j] * ys[j] for j in range(k + 1))
            ys.append(float(rng.uniform()) * acc)
            if bounds[k] > 0:
                worst = max(worst, ys[-1] / bounds[k])
    rows.append(("special", trials, worst, worst <= 1.0 + 1e-12))

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 41))
        a = float(rng.uniform(0.0, 3.0))
        h_seq = rng.uniform(0.0, 0.3, size=n)
        b_seq = rng.uniform(0.0, 0.5, size=n)
        y0 = float(rng.uniform(0.0, 2.0))
        bounds = analysis.gronwall_nonuniform(y0, a, h_seq, b_seq)
        y = y0
        for k in range(n):
            y = (1.0 + a * h_seq[k]) * y + float(rng.uniform()) * b_seq[k]
            if bounds[k] > 0:
                worst = max(worst, y / bounds[k])
    rows.append(("nonuniform", trials, worst, worst <= 1.0 + 1e-12))
    return rows


def _run_gronwall_check(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    rows = _gronwall_trials(rng, 1000)
    ok = all(row[3] for row in rows)
    payload = {
        "subcommand": "gronwall-check",
        "fingerprint": cfg.fingerprint,
        "columns": ["bound", "trials", "max_ratio", "pass"],
        "rows": [[r[0], r[1], float(r[2]), bool(r[3])] for r in rows],
        "pass": ok,
    }
    _write_report(cfg, out / "report.json", payload)
    _write_csv(cfg, out / "series.csv", ("bound", "trials", "max_ratio", "pass"), rows)
    if not ok:
        raise EstimationError("a realised recursion exceeded its bound")


def _run_noise_check(cfg: ExperimentConfig, out: Path, seed: int) -> None:
    noise = cfg.noise
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    m = 100_000
    rows = []
    ok = True

    times = (0.5, 0.25, 0.125)
    for t in times:
        draws = randomisation.sample_noise_matrix(noise, rng, t, m)
        est = analysis.lr_norm_estimate(np.linalg.norm(draws, axis=1), 2.0)
        target = randomisation.theoretical_noise_norm(noise, t, "l2")
        rel = abs(est - target) / target if target > 0 else 0.0
        ok &= rel <= 0.02
        rows.append((f"scaling_t={t}", est / t ** (noise.p + 1.0), rel, rel <= 0.02))

    pair = randomisation.sample_path_matrix(noise, rng, np.array([0.25, 0.25]), m)
    first, second = pair[:, 0, 0], pair[:, 1, 0]
    if first.std() > 0 and second.std() > 0:
        corr = float(np.corrcoef(first, second)[0, 1])
    else:
        corr = 0.0
    expected = noise.rho**2 if noise.kind == "shared_factor" else 0.0
    corr_ok = abs(corr - expected) <= 3.0 / math.sqrt(m)
    ok &= corr_ok
    rows.append(("step_correlation", corr, expected, corr_ok))

    t = 0.25
    draws = randomisation.sample_noise_matrix(noise, rng, t, m)
    norms = np.linalg.norm(draws, axis=1)
    amp = randomisation.theoretical_noise_norm(noise, t, "l2")
    for factor in (1.0, 2.0, 4.0):
        eps = factor * amp
        if eps == 0.0:
            continue
        tail = float(np.mean(norms >= eps))
        markov = min(1.0, (amp / eps) ** 2)
        slack = 3.0 / math.sqrt(m)
        conc_ok = tail <= markov + slack
        ok &= conc_ok
        rows.append((f"concentration_eps={factor}x", tail, markov, conc_ok))

    payload = {
        "subcommand": "noise-check",
        "fingerprint": cfg.fingerprint,
        "columns": ["check", "value", "reference", "pass"],
        "rows": [[r[0], float(r[1]), float(r[2]), bool(r[3])] for r in rows],
        "pass": bool(ok),
    }
    _write_report(cfg, out / "report.json", payload)
    _write_csv(cfg, out / "series.csv", ("check", "value", "reference", "pass"), rows)
    if not ok:
        raise EstimationError("a noise-model check failed its tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randstep", description=__doc__)
    parser.add_argument(
        "subcommand", choices=("converge", "bayes", "gronwall-check", "noise-check")
    )
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=1, help="ensemble worker count")
    parser.add_argument("--out", default=None, help="output directory (default: config [output] dir or ./out)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        require = {
            "bayes": "bayes",
            "gronwall-check": "gronwall",
            "noise-check": "noise",
        }.get(args.subcommand, "converge")
        cfg = load_config(args.config, require)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("ensemble", "seed must be non-negative")
            cfg = dataclasses.replace(cfg, seed=args.seed, bayes_seed=args.seed)
        if args.workers < 1:
            raise ConfigError("ensemble", "worker count must be >= 1")
    except ConfigError as exc:
        print(f"config error in [{exc.section}]: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out if args.out is not None else (cfg.out_dir or "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "converge":
            _run_converge(cfg, out, args.workers)
        elif args.subcommand == "bayes":
            _run_bayes(cfg, out)
        elif args.subcommand == "gronwall-check":
            _run_gronwall_check(cfg, out, cfg.seed)
        else:
            _run_noise_check(cfg, out, cfg.seed)
    except ConfigError as exc:
        print(f"config error in [{exc.section}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
