"""Experiment configuration: sectioned key-value files, one experiment per file.

The format is INI-style (configparser), read once.  A line that starts
with `#` or `;` is a comment, and ` #` starts an inline comment after a
value; `;` inside a value only separates the rows of [problem] forcing.
A converge experiment uses the sections [problem], [grid_family],
[method], [noise], [ensemble] and [analysis]; noise-check uses [problem]
(for J), [noise] and the [ensemble] seed; bayes uses [problem] (for the
eigenvalues and theta), [bayes] and the [ensemble] seed.  Each setting
has one key in one section.  A key that no subcommand reads, or that
only another kind reads (say `rho` beside a noise kind other than
shared_factor), is refused.  Every read and check of a section runs
inside `_reading`, so a bad value in any section raises a ConfigError
that names the section; every typed value is read by `_get`, which names
the key of a value that does not convert or fails its check.

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
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bayes import DiagonalGaussianModel, _check_delta_grid
from .grids import TimeGrid, build_grid
from .integrators import MethodConfig
from .problems import Problem
from .randomisation import BIASED, SHARED_FACTOR, NoiseModel
from .spaces import SpaceDescriptor, _check_state, laplacian_1d

# the config fingerprint's SHA-256 from CPython's built-in module (_sha2
# from 3.12, _sha256 before), not hashlib, whose import loads OpenSSL
# (about 3.5 MB resident): the hex digest is the same, and so the CLI
# process, which leaves numpy.random (and its hashlib) to the workers,
# never loads OpenSSL where numpy imports numpy.random lazily (numpy >= 2;
# numpy 1.x loads it, and so OpenSSL, with numpy itself)
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

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
    bayes_model: DiagonalGaussianModel | None = None
    bayes_delta_grid: np.ndarray | None = None
    bayes_noisy_data: bool = False


# every key that some subcommand reads, per section, so that one file may
# serve several subcommands; any other section or key fails at load
_KEYS = {name: set(keys.split()) for name, keys in [
    ("problem", "lambda_spec dimension lambda_values alpha forcing theta horizon"),
    ("grid_family", "n_values gamma"), ("ensemble", "m seed"), ("analysis", "r young"),
    ("method", "kind coefficients h_star declared_order"),
    ("noise", "kind p c_xi s bias_mode bias_coefficient rho"),
    ("bayes", "delta_grid h p m0 gamma0 gamma_obs gamma1 noisy_data"),
]}


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[raw.lower()]


def _get(sec: configparser.SectionProxy, key: str, convert, default: str | None):
    """convert(sec[key]), or convert(default) when key is absent, None when
    default is None too.  convert is int, float, _bool, _floats or _ints,
    or one of them and a check; a value that it refuses names key."""
    raw = sec.get(key, default)
    try:
        return None if raw is None else convert(raw)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


def _order_key(r: float) -> str:
    """The report's extra_lr key of an extra order r."""
    return f"{r:g}"


def _section(parser: configparser.ConfigParser, name: str,
             required: bool = True) -> configparser.SectionProxy:
    """parser[name]; an absent optional section reads as empty (all defaults)."""
    if not parser.has_section(name):
        if required:
            raise ConfigError(name, f"missing required section [{name}]")
        parser.add_section(name)
    return parser[name]


def _refuse(sec: configparser.SectionProxy, keys, choice: str) -> None:
    """Refuse the first of keys given in sec: choice does not read it."""
    given = [key for key in keys if key in sec]
    if given:
        raise ValueError(f"key {given[0]!r} does not apply to {choice}")


@contextmanager
def _reading(section: str):
    """Raise any failure of the block as a ConfigError naming section."""
    try:
        yield
    except Exception as exc:
        raise ConfigError(section, str(exc)) from exc


def _parse_theta(raw: str, dimension: int) -> np.ndarray:
    """theta's values: ones, power:e (j^e on mode j = 1..J) or a list."""
    if raw == "ones":
        return np.ones(dimension)
    if raw.startswith("power:"):
        return np.arange(1, dimension + 1, dtype=float) ** float(raw.split(":", 1)[1])
    return np.array(_floats(raw))


def _parse_problem(parser) -> tuple[Problem, np.ndarray]:
    sec = _section(parser, "problem")
    with _reading("problem"):
        horizon = _get(sec, "horizon", float, "1.0")
        family = sec.get("lambda_spec", "laplacian_1d")
        if family == "laplacian_1d":
            _refuse(sec, ["lambda_values"], f"lambda_spec {family}")
            space = laplacian_1d(_get(sec, "dimension", int, "0"))
        elif family == "explicit":
            _refuse(sec, ["dimension"], f"lambda_spec {family}")
            space = _get(sec, "lambda_values",
                         lambda raw: SpaceDescriptor(np.array(_floats(raw))), "")
        else:
            raise ValueError(f"unknown lambda_spec {family!r}")
        j = space.dimension
        alpha_coeffs = _get(sec, "alpha", _floats, "1.0")
        if len(alpha_coeffs) == 1:
            alpha_coeffs.append(0.0)
        if len(alpha_coeffs) != 2:
            raise ValueError("alpha takes one (constant) or two (affine) coefficients")
        rows = _get(sec, "forcing", lambda raw: None if raw == "none" else
                    [_floats(row) for row in raw.split(";") if row.strip()], "none")
        if rows is not None:
            if len(rows) not in (1, j) or any(len(row) != 3 for row in rows):
                raise ValueError(
                    "forcing takes one row of three polynomial coefficients for every mode, "
                    f"or {j} such rows separated by ';', one per mode; got "
                    f"{len(rows)} rows of {sorted({len(row) for row in rows})} coefficients"
                )
            rows = np.tile(rows, (j // len(rows), 1))
        problem = Problem(space, tuple(alpha_coeffs), rows, horizon)
        theta = _get(sec, "theta", lambda raw: _parse_theta(raw, j), "ones")
        if theta.size not in (1, j):
            raise ValueError(f"theta has {theta.size} entries, expected {j}")
        theta = _check_state(np.tile(theta, j // theta.size), j)
    return problem, theta


def _parse_grids(parser, horizon: float) -> tuple[TimeGrid, ...]:
    sec = _section(parser, "grid_family")
    with _reading("grid_family"):
        n_values = _get(sec, "n_values", _ints, "")
        gamma = _get(sec, "gamma", float, "1.0")
        if len(set(n_values)) < 3 or len(set(n_values)) < len(n_values):
            raise ValueError(
                "n_values must list at least three distinct step counts, each once (a "
                f"rate fit needs three distinct meshes), got {n_values}"
            )
        return tuple(build_grid(horizon, n, gamma) for n in n_values)


def _parse_method(parser) -> MethodConfig:
    sec = _section(parser, "method")
    with _reading("method"):
        kind = sec.get("kind", "")
        if kind not in ("explicit_euler", "two_stage", "implicit_euler"):
            raise ValueError(f"unknown method kind {kind!r}")
        coeffs = []
        if kind == "two_stage":
            coeffs = _get(sec, "coefficients", _floats, "0.5, 0.5, 1.0, 1.0")
            if len(coeffs) != 4:
                raise ValueError("two_stage needs four coefficients a1, a2, b1, b2")
        else:
            _refuse(sec, ["coefficients"], f"kind {kind}")
        return MethodConfig(kind, *coeffs, h_star=_get(sec, "h_star", float, "inf"),
                            declared_order=_get(sec, "declared_order", float, None))


def _parse_noise(parser, dimension: int) -> NoiseModel | None:
    """The [noise] model on the problem's dimension; None for kind none,
    which turns noise off whatever the other keys say."""
    sec = _section(parser, "noise")
    with _reading("noise"):
        kind = sec.get("kind", "centred_gaussian")
        if kind == "none":
            return None
        p = _get(sec, "p", float, "1.0")
        if p < 0.0:
            raise ValueError("configured decay order p must be >= 0")
        model = NoiseModel(
            dimension,
            p=p,
            c_xi=_get(sec, "c_xi", float, "1.0"),
            s=_get(sec, "s", float, "1.0"),
            kind=kind,
            bias_mode=_get(sec, "bias_mode", int, "0"),
            bias_coefficient=_get(sec, "bias_coefficient", float, "0.0"),
            rho=_get(sec, "rho", float, "0.0"),
        )
        readers = {"rho": SHARED_FACTOR, "bias_mode": BIASED, "bias_coefficient": BIASED}
        _refuse(sec, [key for key, reader in readers.items() if reader != kind], f"kind {kind}")
        return model


def _parse_bayes(parser) -> tuple[DiagonalGaussianModel, np.ndarray, bool]:
    """The model on [problem]'s eigenvalues and theta, with [bayes]'s step,
    variances and noise-scale grid."""
    problem, theta = _parse_problem(parser)
    sec = _section(parser, "bayes")
    with _reading("bayes"):
        j = problem.space.dimension

        def per_mode(key: str, default: str, positive: bool = True) -> np.ndarray:
            vals = _get(sec, key, _floats, default)
            if len(vals) not in (1, j):
                raise ValueError(f"{key} takes one value or one per mode ({j}), got {len(vals)}")
            if not all(math.isfinite(v) and (v > 0.0 or not positive) for v in vals):
                raise ValueError(f"{key} must be finite{' and positive' * positive}, got {vals}")
            return np.tile(vals, j // len(vals))

        delta_grid = _get(sec, "delta_grid", lambda raw: _check_delta_grid(_floats(raw)),
                          "1 0.1 0.01 0.001")
        model = DiagonalGaussianModel(
            problem.space.eigenvalues,
            h=_get(sec, "h", float, "0.1"),
            p=_get(sec, "p", float, "0.0"),
            prior_mean=per_mode("m0", "0", positive=False),
            prior_var=per_mode("gamma0", "1"),
            obs_var=per_mode("gamma_obs", "1"),
            rand_var=per_mode("gamma1", "1"),
            theta=theta,
        )
        return model, delta_grid, _get(sec, "noisy_data", _bool, "false")


def _parse_ensemble(parser, required: bool, seed) -> tuple[int, int]:
    """[ensemble] size m and seed (or the seed override).  A run without
    an ensemble (required False) reads only the seed, which is 0 when the
    section is absent."""
    sec = _section(parser, "ensemble", required)
    with _reading("ensemble"):
        m = _get(sec, "m", int, "1") if required else 1
        if m < 1:
            raise ValueError(f"ensemble size m must be >= 1, got {m}")
        own = _get(sec, "seed", int, "0")
        if own < 0 or (seed is not None and seed < 0):
            raise ValueError("seed must be non-negative")
        return m, own if seed is None else seed


def load_config(path: str | Path, subcommand: str = "converge",
                seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file for the named subcommand.

    subcommand selects how much of the file must be present: "converge"
    (all run sections), "noise-check" (the problem, its noise model and
    the seed), or "bayes"; any other value is a ValueError.  seed, if
    given, replaces the file's [ensemble] seed after both pass the same
    check.
    """
    if subcommand not in ("converge", "noise-check", "bayes"):
        raise ValueError(f"unknown subcommand {subcommand!r}, "
                         "expected one of converge, noise-check, bayes")
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise ConfigError("file", f"cannot read config {path}: {exc}") from exc
    fingerprint = sha256(text.encode()).hexdigest()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("file", f"malformed config: {exc}") from exc
    for name in parser.sections():
        unknown = sorted(set(parser[name]) - _KEYS.get(name, set()))
        if name not in _KEYS or unknown:
            what = f"key {unknown[0]!r} in" if name in _KEYS else "section"
            raise ConfigError(name, f"unknown {what} [{name}]")

    if subcommand == "bayes":
        model, delta_grid, noisy = _parse_bayes(parser)
        return ExperimentConfig(
            fingerprint, seed=_parse_ensemble(parser, False, seed)[1],
            bayes_model=model, bayes_delta_grid=delta_grid, bayes_noisy_data=noisy,
        )
    problem, theta = _parse_problem(parser)
    noise = _parse_noise(parser, problem.space.dimension)
    if subcommand == "noise-check":
        if noise is None:
            raise ConfigError("noise", "noise-check needs a non-degenerate noise kind")
        return ExperimentConfig(fingerprint, noise=noise, seed=_parse_ensemble(parser, False, seed)[1])

    grids = _parse_grids(parser, problem.horizon)
    method = _parse_method(parser)
    m, seed = _parse_ensemble(parser, True, seed)
    sec = _section(parser, "analysis", False)
    with _reading("analysis"):
        r_values = _get(sec, "r", _floats, "2.0")
        young = sec.get("young", "psi2")
        if young == "none":
            young = None
        elif young != "psi2":
            raise ValueError(f"unsupported young function {young!r}")
        if not r_values or not all(1.0 <= r < math.inf for r in r_values):
            raise ValueError(f"every r must be >= 1 and finite, got {r_values}")
        keys = [_order_key(r) for r in r_values[1:]]
        if len(set(keys)) < len(keys):
            raise ValueError(f"extra orders {r_values[1:]} repeat a report key, got keys {keys}")
    for grid in grids:
        if grid.mesh > method.h_star:
            raise ConfigError("grid_family", f"mesh {grid.mesh} of n = {grid.num_steps} "
                              f"exceeds [method] h_star = {method.h_star}")
        # the truncation constant divides by h^(q + 1) on every step h
        step = float(grid.steps.min())
        if method.declared_order is not None and step < 1.0 and step ** (method.order + 1) == 0:
            raise ConfigError("method", f"declared_order = {method.order} makes h^(q + 1) "
                              f"underflow to 0 on the step h = {step} of n = {grid.num_steps}")
    return ExperimentConfig(
        fingerprint, problem, theta, grids, method, noise, m, seed,
        r_values[0], young, tuple(r_values[1:]),
    )
