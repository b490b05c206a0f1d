"""Estimation of a hidden population's size from a combined cluster and
link-tracing sample: design simulation, unconditional and conditional
maximum-likelihood estimators, analytic and empirical asymptotic variances,
and a Monte Carlo harness."""

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    InvariantViolation,
    NoConvergence,
    NonFiniteLikelihood,
    OscillationDetected,
    ParseError,
    PatternSpaceTooLarge,
    ScopeViolation,
    SingularMatrix,
    SnowlinkError,
    Unidentifiable,
)
from .estimators import (
    ComponentFit,
    EstimateReport,
    fit_component,
    fit_total,
)
from .experiments import (
    ExperimentConfig,
    MonteCarloSummary,
    emit_reports,
    experiment_config_from_dict,
    run_experiment,
)
from .likelihood import (
    LogLikTerms,
    loglik_cond,
    loglik_full,
)
from .link_model import (
    HomogeneousLinkModel,
    QuadratureRule,
    RaschLinkModel,
    model_from_spec,
)
from .patterns import (
    Component,
    SampleData,
    enumerate_patterns,
    load_sample,
    pattern_from_string,
    pattern_to_string,
    sample_from_dict,
    sample_to_dict,
    save_sample,
)
from .simulator import (
    ConditionalMultinomial,
    GroundTruth,
    PoissonMean,
    PopulationConfig,
    draw_cluster_sizes,
    draw_sample,
    population_config_from_dict,
    population_config_to_dict,
    replicate_rng,
)
from .variance import (
    AsymptoticMatrices,
    VarianceReport,
    attach_variance,
    empirical_v_covariance,
    psi1_inverse,
    sigma1_inverse,
    sigma1_sq_cmle,
    sigma1_sq_umle,
    sigma2_inverse,
    sigma2_sq,
    theta_covariances,
)

__version__ = "0.1.0"
