"""Randomised one-step time integration for operator differential equations.

Deterministic one-step methods (explicit/implicit Euler, a two-stage
explicit family) are perturbed per step by decaying random noise,
U_(k+1) = psi(h_k, t_k, U_k) + xi_k(h_k), on spectrally discretised
problems with closed-form exact flows.  The analysis layer estimates
strong errors in L^R and Orlicz norms, fits convergence rates, and
evaluates the matching closed-form error bounds; a small Gaussian
inverse-problem module demonstrates the posterior overconfidence that
the randomisation mitigates.
"""

from .analysis import (
    ConvergenceReport,
    ErrorStatistics,
    EstimationError,
    RateFit,
    convergence_report,
    derived_lipschitz,
    error_statistics,
    fit_rate,
    gronwall_nonuniform,
    gronwall_special,
    gronwall_uniform,
    lr_norm_estimate,
    orlicz_norm_estimate,
    theoretical_bound,
)
from .bayes import DiagonalGaussianModel, biased_limit, posterior, single_mode_model, small_noise_sweep
from .grids import TimeGrid, build_grid, power_step_sum
from .integrators import (
    MethodConfig,
    admissible_max_step,
    exact_method,
    explicit_euler,
    implicit_euler,
    lipschitz_constant,
    step,
    step_table,
    steklov_average,
    two_stage,
    validate_two_stage,
)
from .problems import (
    Problem,
    apply_operator,
    exact_flow,
    flow_lipschitz,
    flow_table,
    garding_constants,
    heat_1d,
    scalar_linear,
    vector_field,
)
from .randomisation import (
    NoiseModel,
    centred_gaussian,
    noise_path,
    psi2_amplitude,
    sample_noise_matrix,
    sample_path_matrix,
    theoretical_noise_norm,
)
from .sampler import (
    Ensemble,
    Trajectory,
    exact_states,
    measure_truncation_constant,
    run_deterministic,
    run_ensemble,
    run_randomised,
    trajectory_stream,
)
from .spaces import SpaceDescriptor, inner_h, laplacian_1d, norm

__version__ = "0.1.0"
