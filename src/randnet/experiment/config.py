"""Experiment configuration: JSON file schema plus CLI flag overlay.

A config file is a single JSON object. Example:

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
split 75/25. A method is a tag string or an object; "method" names a
single one in place of "methods".

Every flag amends its own key: a top-level flag sets the key, a problem,
grid or sweep flag sets its key in the file's section (``--tf`` or
``--data`` starts a new problem section), and a method flag sets its field
in every configured method whose config has that field. ``build_config``
then reads the merged object, top level and sections alike, with
``config_from_dict``: each key is typed and checked, and an unknown key is
a ConfigError.

Seed namespace: child 0 samples or splits the problem, child (1, i) runs
method i's trials, child (2, i) its cross-validation, child 3 the sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Literal, Optional, Union

import numpy as np

from ..benchfn import SampledProblem, TargetFunction, sample_problem
from ..dataio import load_csv, normalize, split_75_25
from ..errors import ConfigError, check_distinct, config_from_dict, numpy_sized
from ..methods import GeneratorConfig, check_method_dict, method_from_dict
from ..rng import RngStream, as_stream
from .trials import GridSearchConfig

DEFAULT_SEED = 1
DEFAULT_TRIALS = 10
OutputFormat = Literal["csv", "json"]
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
            with numpy_sized(f"cannot space sweep points={self.points} values"):
                vals = tuple(float(v) for v in np.geomspace(self.lo, self.hi, self.points))
        else:
            raise ConfigError("sweep needs 0 < lo < hi, hi finite, and points >= 2")
        if any(v <= 0 for v in vals):
            raise ConfigError("sweep values must be positive")
        check_distinct(vals, "sweep values")
        return vals


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one CLI invocation, one field per
    top-level config key, read by ``config_from_dict`` as the sections are.

    Method specs are kept as dicts, which grid search and the sweep fill
    in, so a tunable method may leave its interval out. Each dict is still
    read whole here, by ``check_method_dict``, so a bad key or value stops
    the run before any fit; `generator(i)` builds the method's config and
    rejects one without its interval.
    """

    problem: ProblemSpec
    methods: tuple[dict, ...] = ()
    nodes: int = 100
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    grid: Optional[GridSearchConfig] = None
    sweep: SweepSpec = SweepSpec()
    output_dir: str = "out"
    format: OutputFormat = "csv"
    jobs: int = 1  # validated but unused: fits run on every core
    histogram_bins: int = 50

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if min(self.nodes, self.trials, self.jobs, self.histogram_bins) < 1:
            raise ConfigError("nodes, trials, jobs and histogram_bins must all be >= 1")
        for spec in self.methods:
            check_method_dict(spec)
        self.sweep.u_ae_values()  # a bad sweep fails every command, not only uae-sweep

    @property
    def method_count(self) -> int:
        return len(self.methods)

    def label(self, i: int) -> str:
        """Method i's name in every table, summary entry and printed line:
        its tag, or ``tag#k`` for the k-th of the methods that share it."""
        tags = [spec["method"] for spec in self.methods]
        tag = tags[i]
        return tag if tags.count(tag) == 1 else f"{tag}#{tags[:i + 1].count(tag)}"

    def generator(self, i: int) -> GeneratorConfig:
        return method_from_dict(self.methods[i])

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
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return raw


def method_list(d: dict) -> list[dict]:
    """The methods the config dict ``d`` names, under "methods" or as a single
    "method", with each bare tag turned into a ``{"method": tag}`` dict."""
    methods = d.get("methods", [d["method"]] if "method" in d else [])
    if not isinstance(methods, list):
        raise ConfigError(f"'methods' must be a list, got {methods!r}")
    if not all(isinstance(m, (str, dict)) for m in methods):
        raise ConfigError("each method must be a tag string or an object")
    return [{"method": m} if isinstance(m, str) else m for m in methods]


def build_config(raw: dict, overrides: dict) -> ExperimentConfig:
    """Merge CLI overrides over a config dict (overrides win) and read it."""
    merged = {**raw, **overrides}
    merged["methods"] = method_list(merged)
    return config_from_dict(ExperimentConfig, merged, "config", skip=frozenset({"method"}))


def describe_config(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of the resolved configuration (for summary files)."""
    out = {
        "problem": cfg.problem.describe(),
        "methods": [dict(spec) for spec in cfg.methods],
        "nodes": cfg.nodes,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "format": cfg.format,
    }
    if cfg.grid is not None:
        out["grid"] = asdict(cfg.grid)
    return out
