"""Survival-risk prediction with a residual feed-forward network trained on
the Cox negative log partial likelihood.

Public surface: dataset handling and synthetic generation (`data`), the Cox
objective and a Newton-Raphson linear fitter (`cox`), the network with exact
manual backpropagation (`model`), the training/CV/grid-search protocol
(`training`), Harrell's concordance index (`metrics`), and the `ressurv`
command-line tool (`cli`).
"""

from .cox import (
    LinearCoxFit,
    RiskSetIndex,
    build_risk_index,
    fit_linear_cox_newton,
    l2_penalty,
    loss_and_gradient,
    neg_log_partial_likelihood,
    nll_gradient,
)
from .data import (
    FoldAssignment,
    StandardizationParams,
    SurvivalDataset,
    SyntheticSpec,
    filter_features,
    filter_patients,
    generate_synthetic,
    kfold_split,
    load_csv,
    standardize_apply,
    standardize_fit,
    stratified_holdout,
    write_csv,
)
from .errors import (
    DataRowError,
    DivergenceError,
    RessurvError,
    SchemaError,
    StratificationError,
    UndefinedMetricError,
    UnusableDatasetError,
)
from .metrics import ConcordanceResult, concordance_fast, concordance_index
from .model import (
    ResSurvParams,
    init_params,
    load_checkpoint,
    model_backward,
    model_forward,
    save_checkpoint,
)
from .training import (
    CVResult,
    GridSearchResult,
    GRID_DOMAINS,
    Hyperparameters,
    TrainReport,
    UnitPool,
    cross_validate,
    enumerate_grid,
    grid_search,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CVResult",
    "ConcordanceResult",
    "DataRowError",
    "DivergenceError",
    "FoldAssignment",
    "GRID_DOMAINS",
    "GridSearchResult",
    "Hyperparameters",
    "LinearCoxFit",
    "ResSurvParams",
    "RessurvError",
    "RiskSetIndex",
    "SchemaError",
    "StandardizationParams",
    "StratificationError",
    "SurvivalDataset",
    "SyntheticSpec",
    "TrainReport",
    "UndefinedMetricError",
    "UnitPool",
    "UnusableDatasetError",
    "build_risk_index",
    "concordance_fast",
    "concordance_index",
    "cross_validate",
    "enumerate_grid",
    "filter_features",
    "filter_patients",
    "fit_linear_cox_newton",
    "generate_synthetic",
    "grid_search",
    "init_params",
    "kfold_split",
    "l2_penalty",
    "load_checkpoint",
    "load_csv",
    "loss_and_gradient",
    "model_backward",
    "model_forward",
    "neg_log_partial_likelihood",
    "nll_gradient",
    "save_checkpoint",
    "standardize_apply",
    "standardize_fit",
    "stratified_holdout",
    "train",
    "write_csv",
]
