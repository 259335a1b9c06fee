"""Experiment configuration: sectioned key-value files, one experiment per file.

The format is INI-style (configparser).  A converge experiment uses the
sections [problem], [grid_family], [method], [noise], [ensemble] and
[analysis]; a bayes experiment uses [bayes], whose `seed` key is its
seed.  Every read and check of a section runs inside `_reading`, so a
bad value in any section raises a ConfigError that names the section.

Example::

    [problem]
    lambda_spec = laplacian_1d
    dimension = 64
    alpha = 1.0
    forcing = none
    theta = power:-4
    horizon = 1.0

    [grid_family]
    n_values = 8, 16, 32, 64
    gamma = 1.0

    [method]
    kind = implicit_euler

    [noise]
    kind = centred_gaussian
    p = 1.0
    c_xi = 1.0
    s = 1.0

    [ensemble]
    m = 200
    seed = 7

    [analysis]
    r = 2
    young = psi2
"""

from __future__ import annotations

import configparser
import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import integrators
from .bayes import DiagonalGaussianModel
from .grids import TimeGrid, build_grid
from .integrators import MethodConfig
from .problems import Problem
from .randomisation import NoiseModel
from .spaces import SpaceDescriptor, laplacian_1d

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; carries the failing section."""

    def __init__(self, section: str, message: str):
        super().__init__(message)
        self.section = section


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description plus provenance fingerprint."""

    fingerprint: str
    problem: Problem | None = None
    theta: np.ndarray | None = None
    grids: tuple[TimeGrid, ...] = ()
    method: MethodConfig | None = None
    noise: NoiseModel | None = None
    ensemble_size: int = 1
    seed: int = 0
    r: float = 2.0
    young: str | None = "psi2"
    extra_r: tuple[float, ...] = ()
    formats: tuple[str, ...] = ("csv", "json")
    out_dir: str | None = None
    bayes_model: DiagonalGaussianModel | None = None
    bayes_delta_grid: np.ndarray | None = None
    bayes_noisy_data: bool = False


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _section(parser: configparser.ConfigParser, name: str,
             required: bool = True) -> configparser.SectionProxy:
    """parser[name]; an absent optional section reads as empty (all defaults)."""
    if not parser.has_section(name):
        if required:
            raise ConfigError(name, f"missing required section [{name}]")
        parser.add_section(name)
    return parser[name]


@contextmanager
def _reading(section: str):
    """Raise any failure of the block as a ConfigError naming section."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(section, str(exc)) from exc


def _parse_theta(raw: str, dimension: int) -> np.ndarray:
    raw = raw.strip()
    if raw == "ones":
        return np.ones(dimension)
    if raw.startswith("power:"):
        exponent = float(raw.split(":", 1)[1])
        return np.arange(1, dimension + 1, dtype=float) ** exponent
    values = np.array(_floats(raw))
    if values.size != dimension:
        raise ValueError(f"theta has {values.size} entries, expected {dimension}")
    return values


def _parse_problem(parser) -> tuple[Problem, np.ndarray]:
    sec = _section(parser, "problem")
    with _reading("problem"):
        horizon = sec.getfloat("horizon", fallback=None)
        if horizon is None:
            horizon = sec.getfloat("t", 1.0)
        family = sec.get("lambda_spec", "laplacian_1d").strip()
        if family == "laplacian_1d":
            dimension = sec.getint("dimension", fallback=None)
            if dimension is None:
                dimension = sec.getint("j")
            space = laplacian_1d(dimension)
        elif family == "explicit":
            space = SpaceDescriptor(np.array(_floats(sec.get("lambda_values"))))
        else:
            raise ValueError(f"unknown lambda_spec {family!r}")
        alpha_coeffs = _floats(sec.get("alpha", "1.0"))
        if len(alpha_coeffs) == 1:
            alpha_coeffs.append(0.0)
        if len(alpha_coeffs) != 2:
            raise ValueError("alpha takes one (constant) or two (affine) coefficients")
        forcing_raw = sec.get("forcing", "none").strip()
        if forcing_raw == "none":
            forcing = None
        elif ";" in forcing_raw:
            rows = [_floats(row) for row in forcing_raw.split(";") if row.strip()]
            if len(rows) != space.dimension or any(len(r) != 3 for r in rows):
                raise ValueError(
                    f"per-mode forcing needs {space.dimension} rows of three coefficients"
                )
            forcing = np.array(rows)
        else:
            coeffs = _floats(forcing_raw)
            if len(coeffs) != 3:
                raise ValueError("forcing takes three polynomial coefficients per mode")
            forcing = np.tile(coeffs, (space.dimension, 1))
        problem = Problem(space, tuple(alpha_coeffs), forcing, horizon)
        theta = _parse_theta(sec.get("theta", "ones"), space.dimension)
    return problem, theta


def _parse_grids(parser, horizon: float) -> tuple[TimeGrid, ...]:
    sec = _section(parser, "grid_family")
    with _reading("grid_family"):
        n_values = _ints(sec.get("n_values"))
        gamma = sec.getfloat("gamma", 1.0)
        if len(set(n_values)) < 3:
            raise ValueError(
                "n_values must list at least three distinct step counts (a rate fit "
                f"needs three meshes), got {n_values}"
            )
        if gamma < 1.0:
            raise ValueError(f"grading exponent must be >= 1, got {gamma}")
        return tuple(build_grid(horizon, n, gamma) for n in n_values)


def _parse_method(parser) -> MethodConfig:
    sec = _section(parser, "method")
    with _reading("method"):
        kind = sec.get("kind", sec.get("method", "")).strip()
        h_star = sec.getfloat("h_star", math.inf)
        declared = sec.getfloat("declared_order", fallback=None)
        if kind == "two_stage":
            coeffs = _floats(sec.get("coefficients", "0.5, 0.5, 1.0, 1.0"))
            if len(coeffs) != 4:
                raise ValueError("two_stage needs four coefficients a1, a2, b1, b2")
            return integrators.two_stage(*coeffs, h_star=h_star)
        if kind == "explicit_euler":
            return integrators.explicit_euler(h_star)
        if kind == "implicit_euler":
            return integrators.implicit_euler(h_star, declared)
        raise ValueError(f"unknown method kind {kind!r}")


def _parse_noise(parser, dimension: int | None = None) -> NoiseModel | None:
    """The [noise] model of dimension, or of its own `dimension` key."""
    sec = _section(parser, "noise")
    with _reading("noise"):
        if dimension is None:
            dimension = sec.getint("dimension", 1)
        kind = sec.get("kind", "centred_gaussian").strip()
        if kind == "none":
            return None
        p = sec.getfloat("p", 1.0)
        if p < 0.0:
            raise ValueError("configured decay order p must be >= 0")
        return NoiseModel(
            dimension,
            p=p,
            c_xi=sec.getfloat("c_xi", 1.0),
            s=sec.getfloat("s", 1.0),
            kind=kind,
            bias_mode=sec.getint("bias_mode", 0),
            bias_coefficient=sec.getfloat("bias_coefficient", 0.0),
            rho=sec.getfloat("rho", 0.0),
        )


def _parse_bayes(parser) -> tuple[DiagonalGaussianModel, np.ndarray, bool, int]:
    sec = _section(parser, "bayes")
    with _reading("bayes"):
        if sec.get("lambda_values", "").strip():
            lam = np.array(_floats(sec.get("lambda_values")))
        else:
            lam = laplacian_1d(sec.getint("dimension", 1)).eigenvalues
        j = lam.size

        def per_mode(key: str, default: float) -> np.ndarray:
            raw = sec.get(key, "").strip()
            if not raw:
                return np.full(j, default)
            vals = _floats(raw)
            return np.full(j, vals[0]) if len(vals) == 1 else np.array(vals)

        delta_grid = np.array(_floats(sec.get("delta_grid", "1 0.1 0.01 0.001")))
        model = DiagonalGaussianModel(
            lam,
            h=sec.getfloat("h", 0.1),
            p=sec.getfloat("p", 0.0),
            delta=float(delta_grid[0]),
            prior_mean=per_mode("m0", 0.0),
            prior_var=per_mode("gamma0", 1.0),
            obs_var=per_mode("gamma_obs", 1.0),
            rand_var=per_mode("gamma1", 1.0),
            theta=per_mode("theta", 1.0),
        )
        seed = sec.getint("seed", 0)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return model, delta_grid, sec.getboolean("noisy_data", False), seed


def _parse_ensemble(parser, required: bool) -> tuple[int, int]:
    """[ensemble] size m and seed.  A run without an ensemble (required
    False) reads only the seed, which is 0 when the section is absent."""
    sec = _section(parser, "ensemble", required)
    with _reading("ensemble"):
        m = sec.getint("m", 1) if required else 1
        seed = sec.getint("seed", 0)
        if m < 1:
            raise ValueError(f"ensemble size must be >= 1, got {m}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
    return m, seed


def load_config(path: str | Path, require: str = "converge") -> ExperimentConfig:
    """Parse and validate a config file for the given subcommand.

    require selects how much of the file must be present: "converge"
    (all run sections), "noise" (noise model and seed), "gronwall" (seed
    only), or "bayes".
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise ConfigError("file", f"cannot read config {path}: {exc}") from exc
    fingerprint = hashlib.sha256(text.encode()).hexdigest()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("file", f"malformed config: {exc}") from exc

    if require == "bayes":
        model, delta_grid, noisy, seed = _parse_bayes(parser)
        return ExperimentConfig(
            fingerprint, seed=seed,
            bayes_model=model, bayes_delta_grid=delta_grid, bayes_noisy_data=noisy,
        )
    if require in ("gronwall", "noise"):
        noise = None
        if require == "noise":
            noise = _parse_noise(parser)
            if noise is None:
                raise ConfigError("noise", "noise-check needs a non-degenerate noise kind")
        return ExperimentConfig(fingerprint, noise=noise, seed=_parse_ensemble(parser, False)[1])

    problem, theta = _parse_problem(parser)
    grids = _parse_grids(parser, problem.horizon)
    method = _parse_method(parser)
    noise = _parse_noise(parser, problem.space.dimension)
    m, seed = _parse_ensemble(parser, True)
    sec = _section(parser, "analysis", False)
    with _reading("analysis"):
        r_values = _floats(sec.get("r", "2.0"))
        young = sec.get("young", "psi2").strip()
        if young == "none":
            young = None
        elif young != "psi2":
            raise ValueError(f"unsupported young function {young!r}")
        if not r_values or any(r < 1.0 for r in r_values):
            raise ValueError("every r must be >= 1")
    sec = _section(parser, "output", False)
    with _reading("output"):
        raw = sec.get("formats", "csv, json")
        formats = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
        if not formats or any(fmt not in ("csv", "json") for fmt in formats):
            raise ValueError(f"formats must be a subset of csv, json; got {raw!r}")
        out_dir = sec.get("dir", fallback=None)
    for grid in grids:
        if grid.mesh > method.h_star:
            raise ConfigError(
                "grid_family", f"mesh {grid.mesh} exceeds method h* = {method.h_star}"
            )
    return ExperimentConfig(
        fingerprint, problem, theta, grids, method, noise, m, seed,
        r_values[0], young, tuple(r_values[1:]), formats, out_dir,
    )
