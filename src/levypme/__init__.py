"""Spectral backward-Euler solver and verification harness for monotone-drift
SPDEs driven by compensated Poisson jumps.

The package is organized bottom-up:

- :mod:`levypme.operators` — diagonal operator models
- :mod:`levypme.spaces` — the norm family
- :mod:`levypme.nonlinearity` — monotone scalar nonlinearities + audits
- :mod:`levypme.noise` — compensated Poisson models, sampling, audits
- :mod:`levypme.stepper` — the implicit scheme and trajectory records
- :mod:`levypme.variational` — drift hypothesis audits and constants
- :mod:`levypme.cascade` — regularization-ladder studies
- :mod:`levypme.scenario` / :mod:`levypme.cli` — runnable entry points
"""

__version__ = "0.1.0"

from .cascade import (
    StudyPlan,
    apriori_study,
    eps_cauchy_study,
    lambda_cauchy_study,
    uniqueness_check,
)
from .nonlinearity import NonlinearityPsi, make_psi, verify_psi_inequalities
from .noise import (
    AdditiveCoefficient,
    MultiplicativeCoefficient,
    NoiseModel,
    NoisePath,
    ZeroCoefficient,
    audit_h2_h3,
    path_seed,
    sample_noise_path,
)
from .operators import (
    OperatorSpectrum,
    build_fractional_laplacian_torus,
    random_field,
    smooth_field,
    spectrum_from_eigenvalues,
)
from .reporting import StudyReport
from .scenario import (
    Scenario,
    ScenarioError,
    build_plan,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)
from .spaces import F12, F12_star, F_STAR, L2, NormKind, norm
from .stepper import StepConfig, Trajectory, implicit_step, solve_regularized_path
from .variational import EstimateConstants, check_variational_conditions

__all__ = [
    "__version__",
    "StudyPlan",
    "apriori_study",
    "eps_cauchy_study",
    "lambda_cauchy_study",
    "uniqueness_check",
    "NonlinearityPsi",
    "make_psi",
    "verify_psi_inequalities",
    "AdditiveCoefficient",
    "MultiplicativeCoefficient",
    "NoiseModel",
    "NoisePath",
    "ZeroCoefficient",
    "audit_h2_h3",
    "path_seed",
    "sample_noise_path",
    "OperatorSpectrum",
    "build_fractional_laplacian_torus",
    "random_field",
    "smooth_field",
    "spectrum_from_eigenvalues",
    "StudyReport",
    "Scenario",
    "ScenarioError",
    "build_plan",
    "load_scenario",
    "parse_scenario",
    "scenario_hash",
    "serialize_scenario",
    "F12",
    "F12_star",
    "F_STAR",
    "L2",
    "NormKind",
    "norm",
    "StepConfig",
    "Trajectory",
    "implicit_step",
    "solve_regularized_path",
    "EstimateConstants",
    "check_variational_conditions",
]
