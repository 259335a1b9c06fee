"""Randomised one-step time integration for operator differential equations.

Deterministic one-step methods (explicit/implicit Euler, a two-stage
explicit family) are perturbed per step by decaying random noise,
U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k), on spectrally discretised
problems with closed-form exact flows.  The analysis layer estimates
strong errors in L^R and Orlicz norms, fits convergence rates, and
evaluates the matching closed-form error bounds; a small Gaussian
inverse-problem module demonstrates the posterior overconfidence that
the randomisation mitigates.

`import randstep` is lazy (PEP 562): it loads no submodule and so not
numpy; each name below loads its module on first use.  The package leaves
the caller's BLAS set-up alone; only the CLI module, `randstep.cli`, picks
a default for it.
"""

# module -> the names the package re-exports from it
_EXPORTS = {
    "analysis": ("ErrorStatistics", "EstimationError", "RateFit", "error_statistics", "fit_rate",
                 "gronwall_nonuniform", "gronwall_special", "gronwall_uniform",
                 "lr_norm_estimate", "orlicz_norm_estimate", "theoretical_bound"),
    "bayes": ("DiagonalGaussianModel", "biased_limit", "posterior", "single_mode_model",
              "small_noise_sweep"),
    "grids": ("TimeGrid", "build_grid"),
    "integrators": ("MethodConfig", "exact_method", "explicit_euler", "implicit_euler", "step",
                    "step_table", "steklov_average", "two_stage", "validate_two_stage"),
    "problems": ("Problem", "exact_flow", "flow_table", "heat_1d", "scalar_linear"),
    "randomisation": ("NoiseModel", "centred_gaussian", "noise_path", "psi2_amplitude",
                      "sample_noise_matrix", "sample_path_matrix", "theoretical_noise_norm"),
    "sampler": ("Ensemble", "Trajectory", "exact_states", "measure_truncation_constant",
                "run_deterministic", "run_ensemble", "run_randomised", "trajectory_stream"),
    "spaces": ("SpaceDescriptor", "laplacian_1d", "norm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
