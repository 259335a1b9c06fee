"""Experiment runner: converge / bayes / noise-check.

Each run reads one config file, executes the requested study, and writes
`report.json` plus `series.csv` into the output directory.  CSV floats
carry 17 significant digits; identical config and seed give byte-identical
outputs for any worker count.

Exit codes: 0 success, 1 configuration/validation failure (the message
names the failing section), 2 runtime or estimation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# randstep calls no BLAS routine, so OpenBLAS's thread pool only spins; numpy
# reads this when it loads, and a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import analysis, bayes, randomisation, sampler
from .analysis import EstimationError
from .config import ConfigError, ExperimentConfig, _order_key, load_config
from .randomisation import BOUNDED_UNIFORM, CENTRED_GAUSSIAN, SHARED_FACTOR
from .spaces import _h_norm

__all__ = ["main"]

# series.csv of converge: one row per grid; the rate is fitted on err_l2_normmax
CONVERGE_COLUMNS = ("h", "err_l2_maxnorm", "err_l2_normmax", "err_psi2", "bound")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _non_finite(value, key: str = "") -> str | None:
    """The key path of the first non-finite float in value, else None."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return key if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_non_finite(v, k) for k, v in items)), None)


def _write(out: Path, payload: dict, columns, rows) -> None:
    """report.json (payload) and series.csv (columns, rows) into out;
    neither if a number in them is not finite."""
    table = [dict(zip(columns, row)) for row in rows]
    key = _non_finite({"report.json": payload, "series.csv": table})
    if key is not None:
        raise EstimationError(f"non-finite value at {key}; no output written")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    (out / "report.json").write_text(text, newline="\n")
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    (out / "series.csv").write_text("\n".join(lines) + "\n", newline="\n")


def _run_converge(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    problem, method, theta = cfg.problem, cfg.method, cfg.theta
    if cfg.noise is None:
        noise_p, c_xi_amp, theory_slope = 0.0, 0.0, float(method.order)
    else:
        noise_p = cfg.noise.p
        norm_kind = "psi2" if cfg.young == "psi2" else "l2"
        c_xi_amp = randomisation.theoretical_noise_norm(cfg.noise, 1.0, norm_kind)
        # mean-zero noise, independent across steps, gains half an order
        gain = 0.5 if cfg.noise.kind in (CENTRED_GAUSSIAN, BOUNDED_UNIFORM) else 0.0
        theory_slope = min(method.order, noise_p + gain)
    # one build of each grid's tables; all ensembles come from one pass,
    # which reduces them to the statistics' inputs at every reported order
    constants, lipschitz, runs = sampler._converge(problem, method, cfg.noise, cfg.grids,
                                                   theta, cfg.ensemble_size, cfg.seed, workers,
                                                   (cfg.r, *cfg.extra_r))
    c_meas, l_psi = max(0.0, *constants), max(0.0, *lipschitz)
    series, rows = [], []
    for grid, run in zip(cfg.grids, runs):
        if cfg.noise is None:
            worst = float(_h_norm(run).max())
            st = analysis.ErrorStatistics(grid.mesh, 1, cfg.r, worst, worst, None)
        else:
            st = analysis.error_statistics(run, cfg.r, cfg.young)
        # the bounds share the largest constants C and L over all grids
        bound = analysis.theoretical_bound(
            grid.mesh, c_phi_psi=c_meas, c_xi=c_xi_amp, lipschitz=l_psi,
            q=method.order, p=noise_p, horizon=problem.horizon,
        )
        rows.append((st.mesh, st.max_of_norm, st.norm_of_max, st.psi2_norm_of_max, bound))
        entry = dict(zip(CONVERGE_COLUMNS, rows[-1][:-1]), samples=st.sample_size, r=st.r)
        if cfg.noise is not None and cfg.extra_r:
            more = [analysis.error_statistics(run, r, None) for r in cfg.extra_r]
            entry["extra_lr"] = {_order_key(m.r): {"maxnorm": m.max_of_norm,
                                                   "normmax": m.norm_of_max} for m in more}
        series.append(entry)
    fit = analysis.fit_rate([(entry["h"], entry["err_l2_normmax"]) for entry in series])
    payload = {
        "subcommand": "converge",
        "fingerprint": cfg.fingerprint,
        "seed": cfg.seed,
        "ensemble_size": cfg.ensemble_size,
        "series": series,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "theory_slope": theory_slope,
        "theory": [row[-1] for row in rows],
        "measured_c_phi_psi": c_meas,
        "lipschitz": l_psi,
        "noise_amplitude": c_xi_amp,
    }
    _write(out, payload, CONVERGE_COLUMNS, rows)


def _run_bayes(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    model = cfg.bayes_model
    draw = None
    if cfg.bayes_noisy_data:
        stream = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
        draw = stream.standard_normal(model.eigenvalues.size)
    rows = bayes.small_noise_sweep(model, cfg.bayes_delta_grid, draw)
    payload = {
        "subcommand": "bayes",
        "fingerprint": cfg.fingerprint,
        "columns": list(bayes.SWEEP_COLUMNS),
        "rows": [list(map(float, row)) for row in rows],
        "biased_limit": [float(v) for v in bayes.biased_limit(model)],
    }
    _write(out, payload, bayes.SWEEP_COLUMNS, rows)


def _run_noise_check(cfg: ExperimentConfig, out: Path, workers: int) -> None:
    noise = cfg.noise
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    m = 100_000
    rows = []

    times = (0.5, 0.25, 0.125)
    for t in times:
        est = analysis.lr_norm_estimate(randomisation._draw_norms(noise, rng, t, m), 2.0)
        target = randomisation.theoretical_noise_norm(noise, t, "l2")
        rel = abs(est - target) / target if target > 0 else 0.0
        rows.append((f"scaling_t={t}", est / t ** (noise.p + 1.0), rel, rel <= 0.02))

    # mode 0 of both steps, copied out of each block's reused buffer
    pair = np.empty((m, 2))
    for start, block in randomisation._row_blocks(noise, rng, np.array([0.25, 0.25]), m):
        pair[start:start + len(block)] = block[:, :, 0]
    first, second = pair.T
    # draws with no spread (zero amplitude) have no correlation to check
    if first.std() > 0 and second.std() > 0:
        # Pearson's r from sums of centred products, not np.corrcoef's BLAS dot
        first -= first.mean()
        second -= second.mean()
        corr = float(np.add.reduce(first * second) / math.sqrt(np.add.reduce(first * first))
                     / math.sqrt(np.add.reduce(second * second)))
        expected = noise.rho**2 if noise.kind == SHARED_FACTOR else 0.0
        corr_ok = abs(corr - expected) <= 3.0 / math.sqrt(m)
        rows.append(("step_correlation", corr, expected, corr_ok))

    t = 0.25
    norms = randomisation._draw_norms(noise, rng, t, m)
    amp = randomisation.theoretical_noise_norm(noise, t, "l2")
    for factor in (1.0, 2.0, 4.0):
        eps = factor * amp
        if eps == 0.0:
            continue
        tail = float(np.mean(norms >= eps))
        markov = min(1.0, (amp / eps) ** 2)
        slack = 3.0 / math.sqrt(m)
        conc_ok = tail <= markov + slack
        rows.append((f"concentration_eps={factor}x", tail, markov, conc_ok))

    # every row is written, then a failed row fails the run
    columns = ("check", "value", "reference", "pass")
    ok = all(row[3] for row in rows)
    payload = {
        "subcommand": "noise-check",
        "fingerprint": cfg.fingerprint,
        "columns": list(columns),
        "rows": [[r[0], r[1], float(r[2]), bool(r[3])] for r in rows],
        "pass": ok,
    }
    _write(out, payload, columns, rows)
    if not ok:
        raise EstimationError("a noise-model check failed its tolerance")


# subcommand -> runner(cfg, out, workers); load_config reads what the name needs
SUBCOMMANDS = {"converge": _run_converge, "bayes": _run_bayes, "noise-check": _run_noise_check}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randstep", description=__doc__)
    parser.add_argument("subcommand", choices=tuple(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=1, help="ensemble worker count")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.subcommand, args.seed)
        if args.workers < 1:
            raise ConfigError("ensemble", "worker count must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # an overflow or NaN is reported once, by the finiteness check that
        # names its cause, not also as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            SUBCOMMANDS[args.subcommand](cfg, out, args.workers)
    except ConfigError as exc:
        print(f"config error in [{exc.section}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
