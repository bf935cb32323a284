"""Experiment configuration: JSON file schema plus CLI flag overlay.

A config file is a single JSON object; every key can also be set (and
overridden) by a command-line flag. Example:

    {
      "problem": {"tf": "TF1", "n": 2},
      "methods": [
        {"method": "ralpham", "alpha_max_deg": 90.0},
        {"method": "ram", "u": 20.0}
      ],
      "nodes": 800,
      "trials": 10,
      "seed": 1,
      "grid": {"node_counts": [100, 300, 800], "interval_grid": [1, 10, 100]},
      "sweep": {"points": 25, "lo": 1e-5, "hi": 10.0},
      "output_dir": "out",
      "format": "csv"
    }

A problem is either a sampled target function ({"tf": name, "n": dim,
optional "train_size"/"test_size"}) or a data file ({"data": path, optional
"target_column", "header", "delimiter"}), which is normalized to [0, 1] and
split 75/25. The problem, grid and sweep sections, like the methods, are
read by ``config_from_dict``: each key is typed and checked, and an
unknown key is a ConfigError.

Seed namespace: child 0 samples or splits the problem, child (1, i) runs
method i's trials, child (2, i) its cross-validation, child 3 the sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Union

import numpy as np

from ..benchfn import SampledProblem, TargetFunction, sample_problem
from ..dataio import load_csv, normalize, split_75_25
from ..errors import ConfigError, config_from_dict, config_value
from ..methods import GeneratorConfig, check_method_dict, method_from_dict
from ..rng import RngStream, as_stream
from .trials import GridSearchConfig

DEFAULT_SEED = 1
DEFAULT_TRIALS = 10
TF_KEYS = ("tf", "n", "train_size", "test_size")
DATA_KEYS = ("data", "target_column", "header", "delimiter")


@dataclass(frozen=True)
class ProblemSpec:
    """Where the train/test data comes from: a TF sample or a file."""

    tf: Optional[str] = None
    n: Optional[int] = None
    train_size: Optional[int] = None
    test_size: Optional[int] = None
    data: Optional[str] = None
    target_column: Optional[Union[int, str]] = None
    header: bool = False
    delimiter: str = ","

    def __post_init__(self):
        if (self.tf is None) == (self.data is None):
            raise ConfigError("problem needs exactly one of 'tf' or 'data'")
        if self.tf is not None and self.n is None:
            raise ConfigError("a tf problem needs 'n'")

    def realize(self, rng: RngStream) -> SampledProblem:
        """Sample the TF or load+normalize+split the file, deterministically."""
        if self.tf is not None:
            return sample_problem(
                TargetFunction(self.tf, self.n),
                rng,
                train_size=self.train_size,
                test_size=self.test_size,
            )
        ds = load_csv(
            self.data,
            delimiter=self.delimiter,
            header=self.header,
            target_column=self.target_column,
        )
        train_raw, test_raw = split_75_25(ds, rng)
        train, spec = normalize(train_raw, input_range=(0.0, 1.0), output_range=(0.0, 1.0))
        test, _ = normalize(test_raw, spec)
        return SampledProblem(train=train, test=test, normalization=spec)

    def describe(self) -> dict:
        keys = TF_KEYS if self.tf is not None else DATA_KEYS
        return {key: getattr(self, key) for key in keys}


@dataclass(frozen=True)
class SweepSpec:
    """The u_ae values a sweep runs: the explicit ``values`` if given, else
    ``points`` log-spaced values from ``lo`` to ``hi``."""

    values: Optional[tuple[float, ...]] = None
    lo: float = 1e-5
    hi: float = 10.0
    points: int = 25

    def u_ae_values(self) -> tuple[float, ...]:
        if self.values is not None:
            vals = self.values
        elif 0 < self.lo < self.hi < math.inf and self.points >= 2:
            vals = tuple(float(v) for v in np.geomspace(self.lo, self.hi, self.points))
        else:
            raise ConfigError("sweep needs 0 < lo < hi, hi finite, and points >= 2")
        if any(v <= 0 for v in vals):
            raise ConfigError("sweep values must be positive")
        return vals


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one CLI invocation.

    Method specs are kept as dicts so a bare family tag (enough for grid
    search, where the interval is searched rather than given) stays valid;
    `generator(i)` materializes a full config and rejects incomplete specs.
    """

    problem: ProblemSpec
    method_specs: tuple[dict, ...]
    nodes: int = 100
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    grid: Optional[GridSearchConfig] = None
    sweep_values: tuple[float, ...] = ()
    output_dir: str = "out"
    out_format: str = "csv"
    jobs: int = 1  # validated but unused: fits run on every core
    histogram_bins: int = 50

    def __post_init__(self):
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.out_format!r}")
        if min(self.nodes, self.trials, self.jobs, self.histogram_bins) < 1:
            raise ConfigError("nodes, trials, jobs and histogram_bins must all be >= 1")
        for spec in self.method_specs:
            check_method_dict(spec)

    @property
    def method_count(self) -> int:
        return len(self.method_specs)

    def family(self, i: int) -> str:
        return self.method_specs[i]["method"]

    def generator(self, i: int) -> GeneratorConfig:
        return method_from_dict(self.method_specs[i])

    def root_stream(self) -> RngStream:
        return as_stream(self.seed)

    def problem_stream(self) -> RngStream:
        return self.root_stream().child(0)

    def trial_stream(self, method_index: int) -> RngStream:
        return self.root_stream().child(1, method_index)

    def cv_stream(self, method_index: int) -> RngStream:
        return self.root_stream().child(2, method_index)

    def sweep_stream(self) -> RngStream:
        return self.root_stream().child(3)


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return raw


def build_config(raw: dict, overrides: dict) -> ExperimentConfig:
    """Merge a config dict with CLI overrides (overrides win) and validate."""
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    known = {"problem", "method", "methods", "nodes", "trials", "seed", "grid",
             "sweep", "output_dir", "format", "jobs", "histogram_bins"}
    extra = set(merged) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    if "problem" not in merged:
        raise ConfigError("missing 'problem' section (or --tf/--data flag)")
    problem = config_from_dict(ProblemSpec, merged["problem"], "problem")

    if "methods" in merged:
        raw_methods = merged["methods"]
        if not isinstance(raw_methods, list):
            raise ConfigError(f"'methods' must be a list, got {raw_methods!r}")
    elif "method" in merged:
        raw_methods = [merged["method"]]
    else:
        raw_methods = []
    specs = []
    for m in raw_methods:
        if isinstance(m, str):
            specs.append({"method": m})
        elif isinstance(m, dict):
            specs.append(dict(m))
        else:
            raise ConfigError("each method must be a tag string or an object")
    method_specs = tuple(specs)

    seed = config_value(int, merged.get("seed", DEFAULT_SEED), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    grid = None
    if "grid" in merged:
        grid = config_from_dict(GridSearchConfig, merged["grid"], "grid")
        if "seed" not in merged["grid"]:  # the grid seed defaults to the experiment's
            grid = replace(grid, seed=seed)
    sweep = config_from_dict(SweepSpec, merged.get("sweep", {}), "sweep")

    return ExperimentConfig(
        problem=problem,
        method_specs=method_specs,
        nodes=config_value(int, merged.get("nodes", 100), "nodes"),
        trials=config_value(int, merged.get("trials", DEFAULT_TRIALS), "trials"),
        seed=seed,
        grid=grid,
        sweep_values=sweep.u_ae_values(),
        output_dir=str(merged.get("output_dir", "out")),
        out_format=str(merged.get("format", "csv")),
        jobs=config_value(int, merged.get("jobs", 1), "jobs"),
        histogram_bins=config_value(int, merged.get("histogram_bins", 50), "histogram_bins"),
    )


def describe_config(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of the resolved configuration (for summary files)."""
    out = {
        "problem": cfg.problem.describe(),
        "methods": [dict(spec) for spec in cfg.method_specs],
        "nodes": cfg.nodes,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "format": cfg.out_format,
    }
    if cfg.grid is not None:
        out["grid"] = asdict(cfg.grid)
    return out
