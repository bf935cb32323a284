"""Command-line interface for training and experiment reproduction.

Subcommands:

* ``fit``         train one configuration, report RMSE, optionally save the model
* ``benchmark``   repeated trials of one or more methods on a target function
* ``grid-search`` 5-fold cross-validated selection of nodes and interval
* ``uae-sweep``   encoder-interval sweep (weight magnitudes and RMSE per u_ae)
* ``compare``     multi-method comparison with pairwise signed-rank tests
* ``emit``        write a sampled problem to CSV files
* ``histogram``   pooled hidden-weight histogram of a generator

Every command starts from ``_setup``, which resolves the config, checks its
method count, builds the problem and starts the summary; the first write
creates the output directory. A command's default method (the sweep's
raem1) joins the config when no flag or file names one, and is amended,
read and echoed as a configured method is. Methods come from the registry in
``randnet.methods``, where a method is declared by one entry.

Each flag's argparse ``dest`` is the config key it sets, so the config
dataclasses name the flags: ``_overrides`` reads the top-level flags from
``ExperimentConfig``'s fields, the problem flags from ``ProblemSpec``'s and
the grid and sweep flags from ``GridSearchConfig``'s and ``SweepSpec``'s,
and a method flag applies to every method whose config has its field.
``--method`` alone sets no field of its own name: its ``methods`` list is
read by the method branch of ``_overrides``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure,
5 out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from typing import NamedTuple, Optional, get_args

import numpy as np

from .. import linalg
from ..benchfn import SampledProblem
from ..dataio import dataset_summary, write_dataset_csv
from ..errors import (
    ConfigError,
    DataFormatError,
    DegenerateNodeError,
    InvalidInputError,
    NumericFailureError,
)
from ..methods import (
    METHODS,
    generate_hidden_layer,
    method_spec,
    method_to_dict,
)
from ..model import save_network
from ..paramgen import AnchorKind
from .config import (
    ExperimentConfig,
    OutputFormat,
    ProblemSpec,
    SweepSpec,
    build_config,
    describe_config,
    load_config_file,
    method_list,
)
from .outputs import (
    cv_rows,
    histogram_rows,
    method_summary,
    trial_rows,
    write_summary,
    write_table,
)
from .stats import MIN_PAIRS, median, weight_histogram, wilcoxon_signed_rank
from .trials import (
    CvCell,
    GridSearchConfig,
    cross_validate,
    grid_methods,
    run_trials,
    select_best,
    uae_sweep,
)


def _split(text: str) -> list[str]:
    """Comma-separated flag values; build_config converts them."""
    return [v for v in text.split(",") if v.strip()]


def _column(text: str):
    """A target column: an index if the text is an integer, else a header name."""
    return int(text) if text.lstrip("-").isdigit() else text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int, help="experiment seed")
    p.add_argument("--trials", type=int, help="number of independent trials")
    p.add_argument("--nodes", type=int, help="hidden node count m")
    p.add_argument("--method", action="append", dest="methods",
                   help="method tag (ram, ralpham, raem1..raem5) or JSON object; repeatable")
    p.add_argument("--u", type=float, help="weight half-width for ram")
    p.add_argument("--alpha-max", type=float, dest="alpha_max_deg", metavar="ALPHA_MAX",
                   help="top slope angle (deg) for ralpham")
    p.add_argument("--alpha-min", type=float, dest="alpha_min_deg", metavar="ALPHA_MIN",
                   help="bottom slope angle (deg) for ralpham")
    p.add_argument("--u-ae", type=float, help="encoder half-width for raem1")
    p.add_argument("--anchor", choices=get_args(AnchorKind), help="anchor point kind")
    p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p.add_argument("--format", choices=get_args(OutputFormat), help="tabular output format")
    p.add_argument("--jobs", type=int,
                   help="accepted and ignored: fits run on every core the process "
                        "may use (limit them with taskset)")
    p.add_argument("--tf", help="target function name (TF1, TF2, TF3)")
    p.add_argument("--n", type=int, help="target function input dimension")
    p.add_argument("--train-size", type=int, help="training sample count")
    p.add_argument("--test-size", type=int, help="test sample count")
    p.add_argument("--data", help="CSV/KEEL data file (normalized and split 75/25)")
    p.add_argument("--target-column", type=_column,
                   help="target column index or header name")
    p.add_argument("--header", action="store_true", default=None,
                   help="data file has a header row")
    p.add_argument("--delimiter", help="data file delimiter (default comma)")


def _given(args, cls) -> dict:
    """Config key -> value of each flag given whose ``dest`` names a field
    of the dataclass ``cls``."""
    values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {key: value for key, value in values.items() if value is not None}


def _parse_method(text: str):
    """A ``--method`` value: a JSON object, or else a bare tag."""
    text = text.strip()
    if not text.startswith("{"):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--method is not valid JSON: {exc}") from exc


def _amend(method: dict, args) -> dict:
    """The method dict with each method flag given whose field its config has."""
    return {**method, **_given(args, method_spec(method.get("method")).config)}


def _overlay(raw: dict, key: str, over: dict) -> dict:
    base = raw.get(key, {})
    return {**base, **over} if isinstance(base, dict) else over


def _overrides(args, raw: dict) -> dict:
    """The config keys the flags set, each amending the file's value."""
    overrides = _given(args, ExperimentConfig)
    problem = _given(args, ProblemSpec)
    if problem:
        overrides["problem"] = (problem if "tf" in problem or "data" in problem
                                else _overlay(raw, "problem", problem))
    # the top-level read above took --method's raw strings as "methods";
    # this branch, which runs whenever --method is given, replaces them
    if args.methods or any(_given(args, spec.config) for spec in METHODS.values()):
        methods = method_list({"methods": [_parse_method(s) for s in args.methods]}
                              if args.methods else raw)
        overrides["methods"] = [_amend(m, args) for m in methods]
    for key, cls in (("grid", GridSearchConfig), ("sweep", SweepSpec)):
        if section := _given(args, cls):
            overrides[key] = _overlay(raw, key, section)
    return overrides


class Run(NamedTuple):
    """What every command starts from: the resolved config, the output
    directory, the problem and the summary so far."""

    cfg: ExperimentConfig
    out: str
    problem: SampledProblem
    summary: dict

    def path(self, name: str) -> str:
        """``name`` in the output directory, which the first write creates."""
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, name)

    def write_table(self, name: str, rows) -> None:
        write_table(self.path(name), rows, self.cfg.format)

    def write_summary(self, name: str = "summary.json") -> None:
        write_summary(self.path(name), self.summary)


def _setup(args, least: int = 0, exact: bool = False,
           trials: Optional[int] = None, method: Optional[str] = None) -> Run:
    """Resolve the config, check it names at least ``least`` methods, or
    exactly ``least`` if ``exact``, build the problem and start the summary
    with the config echo and the dataset summaries. ``trials``, if given, is
    the trial count when neither the flags nor the file set one, and
    ``method`` the method tag when neither names a method."""
    raw = load_config_file(args.config) if args.config else {}
    if method is not None and not args.methods and not method_list(raw):
        raw = {**raw, "methods": [method]}
    overrides = _overrides(args, raw)
    if trials is not None and "trials" not in raw:
        overrides.setdefault("trials", trials)
    cfg = build_config(raw, overrides)
    count = cfg.method_count
    if count < least or (exact and count > least):
        want = "exactly" if exact else "at least"
        raise ConfigError(f"{args.command} takes {want} {least} method(s), got {count}")
    problem = cfg.problem.realize(cfg.problem_stream())
    summary = {
        "config": describe_config(cfg),
        "problem": {
            "train": dataset_summary(problem.train, "train"),
            "test": dataset_summary(problem.test, "test"),
        },
    }
    return Run(cfg, cfg.output_dir, problem, summary)


def _grid(cfg: ExperimentConfig) -> GridSearchConfig:
    """The config's grid, which a grid search needs."""
    if cfg.grid is None:
        raise ConfigError("grid search needs a 'grid' config section or --grid-nodes")
    return cfg.grid


def _cross_validate(run: Run, i: int) -> tuple[CvCell, ...]:
    """Grid search for method i."""
    cfg = run.cfg
    return cross_validate(_grid(cfg), cfg.methods[i], run.problem.train, cfg.cv_stream(i))


def _trial_methods(run: Run, tune: bool = False) -> tuple[list, list]:
    """Trials of every configured method, each tuned by grid search first
    when ``tune``. Adds one summary entry per method and returns
    ``(label, reports)`` per method plus the grid-search table rows. Every
    method is read once, before the first fit: untuned as it is, or tuned
    as its plan, the method at every interval of its grid, from which the
    search's cell picks. So one without its interval, or with a grid
    interval it rejects, stops the command before any fit."""
    cfg = run.cfg
    plans = [dict(grid_methods(_grid(cfg), method)) if tune else cfg.generator(i)
             for i, method in enumerate(cfg.methods)]
    run.summary["methods"] = []
    results: list = []
    cv_table: list = []
    for i, plan in enumerate(plans):
        label, method, nodes, chosen = cfg.label(i), plan, cfg.nodes, {}
        if tune:
            table = _cross_validate(run, i)
            best = select_best(table)
            method, nodes = plan[best.interval], best.m
            chosen = {"chosen": {"m": best.m, "interval": best.interval}}
            cv_table.extend(cv_rows(label, table))
        reports = run_trials(method, run.problem, nodes, cfg.trials, cfg.trial_stream(i))
        run.summary["methods"].append({"method": method_to_dict(method), "nodes": nodes,
                                       **method_summary(reports), **chosen})
        results.append((label, reports))
    return results, cv_table


def _write_results(run: Run, results: list) -> None:
    """Write the summary and the trials table of ``_trial_methods``' results."""
    run.write_summary()
    run.write_table("trials", [row for label, reports in results
                               for row in trial_rows(label, reports)])


def cmd_fit(args) -> int:
    run = _setup(args, 1, exact=True, trials=1)
    results, _ = _trial_methods(run)
    _write_results(run, results)
    if args.save_model:
        [(_, reports)] = results
        save_network(replace(reports[0].network, normalization=run.problem.normalization),
                     args.save_model)
    print(f"fit: test rmse mean {run.summary['methods'][0]['rmse_test']['mean']:.6g} "
          f"over {run.cfg.trials} trial(s); outputs in {run.out}")
    return 0


def cmd_benchmark(args) -> int:
    run = _setup(args, 1)
    results, _ = _trial_methods(run)
    _write_results(run, results)
    for (label, _), entry in zip(results, run.summary["methods"]):
        print(f"benchmark: {label} mean test rmse {entry['rmse_test']['mean']:.6g}")
    return 0


def cmd_grid_search(args) -> int:
    run = _setup(args, 1, exact=True)
    label = run.cfg.label(0)
    table = _cross_validate(run, 0)
    best = select_best(table)
    run.summary["grid_search"] = {
        "method": label,
        "best_m": best.m,
        "best_interval": best.interval,
        "cells": len(table),
    }
    run.write_summary()
    run.write_table("cv_table", cv_rows(label, table))
    print(f"grid-search: {label} best m={best.m} interval={best.interval}")
    return 0


def cmd_uae_sweep(args) -> int:
    run = _setup(args, 1, exact=True, method="raem1")
    cfg = run.cfg
    points = uae_sweep(run.problem, cfg.nodes, cfg.sweep.u_ae_values(), cfg.trials,
                       cfg.sweep_stream(), method=cfg.methods[0])
    best = min(points, key=lambda p: (p.mean_rmse, p.u_ae))
    run.summary["sweep"] = {
        "nodes": cfg.nodes,
        "trials": cfg.trials,
        "u_ae_at_min": best.u_ae,
        "min_mean_rmse": best.mean_rmse,
        "median_abs_weight_at_min": best.median_abs_weight,
    }
    run.write_summary()
    run.write_table("sweep", map(asdict, points))
    print(f"uae-sweep: min mean rmse {best.mean_rmse:.6g} at u_ae={best.u_ae:.6g}")
    return 0


def cmd_compare(args) -> int:
    run = _setup(args, 2)
    cfg = run.cfg
    if cfg.trials < MIN_PAIRS:
        raise ConfigError(f"compare needs at least {MIN_PAIRS} trials for its "
                          f"signed-rank tests, got {cfg.trials}")
    results, cv_table = _trial_methods(run, tune=args.cv)
    run.summary["wilcoxon"] = []
    for i, (name_a, reports_a) in enumerate(results):
        for name_b, reports_b in results[i + 1:]:
            res = wilcoxon_signed_rank([r.rmse_test for r in reports_a],
                                       [r.rmse_test for r in reports_b])
            run.summary["wilcoxon"].append({
                "a": name_a,
                "b": name_b,
                "statistic": res.statistic,
                "p_value": res.p_value,
            })
    hist_table = []
    for label, reports in results:
        layers = [r.network.hidden for r in reports]
        hist_table.extend(histogram_rows(label, weight_histogram(layers, cfg.histogram_bins)))
    _write_results(run, results)
    run.write_table("histogram", hist_table)
    if cv_table:
        run.write_table("cv_table", cv_table)
    for (label, _), entry in zip(results, run.summary["methods"]):
        print(f"compare: {label} m={entry['nodes']} "
              f"mean test rmse {entry['rmse_test']['mean']:.6g}")
    return 0


def cmd_emit(args) -> int:
    run = _setup(args)
    train, test = run.problem.train, run.problem.test
    write_dataset_csv(run.path("train.csv"), train)
    write_dataset_csv(run.path("test.csv"), test)
    run.summary["normalization"] = run.problem.normalization.to_dict()
    run.write_summary("problem.json")
    print(f"emit: wrote train.csv ({train.n_samples} rows) and "
          f"test.csv ({test.n_samples} rows) to {run.out}")
    return 0


def cmd_histogram(args) -> int:
    run = _setup(args, 1, exact=True)
    cfg = run.cfg
    method = cfg.generator(0)
    x = run.problem.train.x
    stream = cfg.trial_stream(0)
    layers = [generate_hidden_layer(method, x, cfg.nodes, stream.child(t))
              for t in range(cfg.trials)]
    hist = weight_histogram(layers, cfg.histogram_bins)
    label = cfg.label(0)
    pooled = np.concatenate([layer.weights.ravel() for layer in layers])
    run.summary["histogram"] = {
        "method": label,
        "nodes": cfg.nodes,
        "trials": cfg.trials,
        "bins": cfg.histogram_bins,
        "weight_count": int(pooled.size),
        "median_abs_weight": median(np.abs(pooled)),
    }
    run.write_summary()
    run.write_table("histogram", histogram_rows(label, hist))
    print(f"histogram: {label} median |a| = "
          f"{run.summary['histogram']['median_abs_weight']:.6g}")
    return 0


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-nodes", type=_split, dest="node_counts", metavar="GRID_NODES",
                   help="comma-separated node counts")
    p.add_argument("--grid-intervals", type=_split, dest="interval_grid",
                   metavar="GRID_INTERVALS", help="comma-separated interval values")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randnet",
        description="Randomized training and comparison of single-hidden-layer "
                    "regression networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    p = command("fit", cmd_fit, "train one configuration and report RMSE")
    p.add_argument("--save-model", help="write the trained network as JSON")
    command("benchmark", cmd_benchmark, "repeated trials on a target function")
    _add_grid(command("grid-search", cmd_grid_search, "cross-validated hyperparameter search"))

    p = command("uae-sweep", cmd_uae_sweep, "encoder interval sweep for raem1")
    p.add_argument("--sweep-lo", type=float, dest="lo", metavar="SWEEP_LO", help="smallest u_ae")
    p.add_argument("--sweep-hi", type=float, dest="hi", metavar="SWEEP_HI", help="largest u_ae")
    p.add_argument("--sweep-points", type=int, dest="points", metavar="SWEEP_POINTS",
                   help="number of log-spaced values")
    p.add_argument("--sweep-values", type=_split, dest="values", metavar="SWEEP_VALUES",
                   help="comma-separated explicit u_ae values")

    p = command("compare", cmd_compare, "multi-method comparison with rank tests")
    p.add_argument("--cv", action="store_true",
                   help="tune each method by cross-validation first")
    _add_grid(p)
    p.add_argument("--histogram-bins", type=int, help="histogram bin count")

    command("emit", cmd_emit, "write a sampled problem as CSV")
    p = command("histogram", cmd_histogram, "hidden-weight histogram of one method")
    p.add_argument("--histogram-bins", type=int, help="histogram bin count")
    return parser


def main(argv=None) -> int:
    linalg.pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # One BLAS thread for the whole command: the fit maps and the
        # histogram draw need it for their bits, and a pin per map would
        # start the library's worker threads again between maps.
        with linalg.single_thread_blas():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, InvalidInputError, DegenerateNodeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
