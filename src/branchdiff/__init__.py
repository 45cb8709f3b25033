"""Simulation and PDE toolkit for controlled branching diffusions.

The package pairs a Monte Carlo particle engine (exact event times via
dominating-rate thinning, Euler-Maruyama diffusion between events, keyed
per-particle random streams) with a monotone explicit finite-difference
solver for the associated value PDE in one dimension, plus estimators that
verify the structural identities tying the two together: the product form of
multi-particle values, martingale residuals of smooth test functions,
dynamic-programming inequalities, population moment bounds, and coupling
stability under parameter perturbation.
"""

from .errors import ConfigurationError, ExplosionGuardError, NumericalFailureError
from .labels import Label, ROOT
from .model import (
    CoefficientSpec,
    Coefficients,
    ControlSet,
    ModelParams,
    ValidationReport,
    VectorSpec,
    coefficient_distance,
    constant,
    constant_vector,
    generator,
    interval_overlap,
    offspring_intervals,
    validate_params,
)
from .simulator import (
    ConstantPolicy,
    OpenLoopPolicy,
    PopulationPath,
    pathwise_cost,
    pathwise_cost_log_form,
    simulate,
    simulate_coupled,
)
from .hjb import (
    FeedbackPolicy,
    GridConfig,
    ValueGrid,
    cfl_ratio,
    check_cfl,
    evaluate,
    extract_feedback,
    solve,
)
from .estimator import (
    Estimate,
    SmoothTestFunction,
    check_branching,
    coupling_probe,
    dpp_check,
    dynkin_residual,
    estimate_value,
    moment_check,
    run_replications,
)

__version__ = "0.1.0"
