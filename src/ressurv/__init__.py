"""Survival-risk prediction with a residual feed-forward network trained on
the Cox negative log partial likelihood.

Public surface: dataset handling and synthetic generation (`data`), the Cox
objective and a Newton-Raphson linear fitter (`cox`), the network with exact
manual backpropagation (`model`), the training/CV/grid-search protocol
(`training`), Harrell's concordance index (`metrics`), and the `ressurv`
command-line tool (`cli`).
"""

import importlib

# each public name and the module that defines it; the package imports a
# module on first use of one of its names, so that `import ressurv` loads no
# numpy and `ressurv.cli` can set OpenBLAS's thread count before numpy loads
_SOURCES = {
    "cox": ("LinearCoxFit", "RiskSetIndex", "build_risk_index", "fit_linear_cox_newton",
            "l2_penalty", "loss_and_gradient", "neg_log_partial_likelihood",
            "nll_gradient"),
    "data": ("FoldAssignment", "StandardizationParams", "SurvivalDataset", "SyntheticSpec",
             "filter_features", "filter_patients", "generate_synthetic", "kfold_split",
             "load_csv", "standardize_apply", "standardize_fit", "stratified_holdout",
             "write_csv"),
    "errors": ("DataRowError", "DivergenceError", "RessurvError", "SchemaError",
               "StratificationError", "UndefinedMetricError", "UnusableDatasetError"),
    "metrics": ("ConcordanceResult", "concordance_fast", "concordance_index"),
    "model": ("ResSurvParams", "init_params", "load_checkpoint", "model_backward",
              "model_forward", "save_checkpoint"),
    "training": ("CVResult", "GridSearchResult", "GRID_DOMAINS", "Hyperparameters",
                 "TrainReport", "UnitPool", "cross_validate", "enumerate_grid",
                 "grid_search", "train"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE_OF)


def __getattr__(name: str):
    if name not in _SOURCE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
