"""Bayesian inference for small multilayer perceptrons via MCMC.

Modules: model and gradients (mlp), samplers (samplers), convergence
diagnostics (diagnostics), posterior predictive classification
(predictive), datasets (data), chain persistence (chainio) and the
experiment CLI (cli).
"""

from .data import (
    LabeledDataset,
    NoisyXorConfig,
    StandardizationStats,
    exact_xor,
    generate_noisy_xor,
    load_csv_dataset,
    load_vendored,
    standardize,
)
from .diagnostics import (
    CovarianceEstimate,
    EssResult,
    PsrfResult,
    diagnostics_report,
    lag_autocovariance,
    minse,
    multivariate_ess,
    multivariate_psrf,
)
from .mlp import (
    ActivationKind,
    Architecture,
    DimensionError,
    Posterior,
    event_probabilities,
    forward,
    grad_log_posterior,
    grad_log_prior,
    log_likelihood,
    log_posterior,
    log_prior,
    parameter_count,
)
from .predictive import (
    PredictionReport,
    accuracy,
    classify,
    grid_predictive,
    predictive_distribution,
    prior_predictive_accuracy,
)
from .samplers import (
    Chain,
    HmcConfig,
    MhConfig,
    PpConfig,
    SgdConfig,
    hmc_chain,
    mh_chain,
    pp_chain,
    pp_normalizer,
    pp_swap_pmf,
    run_posterior_chain,
    run_posterior_chains,
    sgd_ensemble,
)

__all__ = [
    "ActivationKind",
    "Architecture",
    "Chain",
    "CovarianceEstimate",
    "DimensionError",
    "EssResult",
    "HmcConfig",
    "LabeledDataset",
    "MhConfig",
    "NoisyXorConfig",
    "Posterior",
    "PpConfig",
    "PredictionReport",
    "PsrfResult",
    "SgdConfig",
    "StandardizationStats",
    "accuracy",
    "classify",
    "diagnostics_report",
    "event_probabilities",
    "exact_xor",
    "forward",
    "generate_noisy_xor",
    "grad_log_posterior",
    "grad_log_prior",
    "grid_predictive",
    "hmc_chain",
    "lag_autocovariance",
    "load_csv_dataset",
    "load_vendored",
    "log_likelihood",
    "log_posterior",
    "log_prior",
    "mh_chain",
    "minse",
    "multivariate_ess",
    "multivariate_psrf",
    "parameter_count",
    "pp_chain",
    "pp_normalizer",
    "pp_swap_pmf",
    "predictive_distribution",
    "prior_predictive_accuracy",
    "run_posterior_chain",
    "run_posterior_chains",
    "sgd_ensemble",
    "standardize",
]

__version__ = "0.1.0"
