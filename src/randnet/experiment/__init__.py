"""Experiment harness: trials, cross-validation, statistics, reports, CLI."""

from .config import (
    ExperimentConfig,
    ProblemSpec,
    build_config,
    describe_config,
    load_config_file,
)
from .stats import (
    EXACT_MAX_N,
    Histogram,
    WilcoxonResult,
    summarize,
    weight_histogram,
    wilcoxon_signed_rank,
)
from .trials import (
    CvCell,
    GridSearchConfig,
    SweepPoint,
    TrialReport,
    cross_validate,
    fit_trial,
    kfold_indices,
    run_trials,
    select_best,
    uae_sweep,
)

__all__ = [
    "CvCell",
    "EXACT_MAX_N",
    "ExperimentConfig",
    "GridSearchConfig",
    "Histogram",
    "ProblemSpec",
    "SweepPoint",
    "TrialReport",
    "WilcoxonResult",
    "build_config",
    "cross_validate",
    "describe_config",
    "fit_trial",
    "kfold_indices",
    "load_config_file",
    "run_trials",
    "select_best",
    "summarize",
    "uae_sweep",
    "weight_histogram",
    "wilcoxon_signed_rank",
]
