"""Bayesian inference for small multilayer perceptrons via MCMC.

Modules: model and gradients (mlp), samplers (samplers), convergence
diagnostics (diagnostics), posterior predictive classification
(predictive), datasets (data), chain persistence (chainio) and the
experiment CLI (cli).

The exported names load their module on first use, so importing the package
loads no submodule and a command loads only the modules it runs.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "Chain": "chainio",
    "LabeledDataset": "data",
    "NoisyXorConfig": "data",
    "StandardizationStats": "data",
    "exact_xor": "data",
    "generate_noisy_xor": "data",
    "load_csv_dataset": "data",
    "load_vendored": "data",
    "standardize": "data",
    "CovarianceEstimate": "diagnostics",
    "EssResult": "diagnostics",
    "PsrfResult": "diagnostics",
    "diagnostics_report": "diagnostics",
    "lag_autocovariance": "diagnostics",
    "minse": "diagnostics",
    "multivariate_ess": "diagnostics",
    "multivariate_psrf": "diagnostics",
    "ActivationKind": "mlp",
    "Architecture": "mlp",
    "DimensionError": "mlp",
    "Posterior": "mlp",
    "event_probabilities": "mlp",
    "forward": "mlp",
    "grad_log_posterior": "mlp",
    "grad_log_prior": "mlp",
    "log_likelihood": "mlp",
    "log_posterior": "mlp",
    "log_prior": "mlp",
    "parameter_count": "mlp",
    "PredictionReport": "predictive",
    "accuracy": "predictive",
    "classify": "predictive",
    "grid_predictive": "predictive",
    "predictive_distribution": "predictive",
    "prior_predictive_accuracy": "predictive",
    "HmcConfig": "samplers",
    "MhConfig": "samplers",
    "PpConfig": "samplers",
    "SgdConfig": "samplers",
    "hmc_chain": "samplers",
    "mh_chain": "samplers",
    "pp_chain": "samplers",
    "pp_normalizer": "samplers",
    "pp_swap_pmf": "samplers",
    "run_posterior_chain": "samplers",
    "run_posterior_chains": "samplers",
    "sgd_ensemble": "samplers",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
