"""Command-line interface for training and experiment reproduction.

Subcommands:

* ``fit``         train one configuration, report RMSE, optionally save the model
* ``benchmark``   repeated trials of one or more methods on a target function
* ``grid-search`` 5-fold cross-validated selection of nodes and interval
* ``uae-sweep``   encoder-interval sweep (weight magnitudes and RMSE per u_ae)
* ``compare``     multi-method comparison with pairwise signed-rank tests
* ``emit``        write a sampled problem to CSV files
* ``histogram``   pooled hidden-weight histogram of a generator

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from ..dataio import dataset_summary
from ..errors import (
    ConfigError,
    DataFormatError,
    DegenerateNodeError,
    InvalidInputError,
    NumericFailureError,
)
from ..benchfn import write_dataset_csv
from ..methods import (
    METHOD_NAMES,
    TUNABLE,
    family_config,
    generate_hidden_layer,
    method_name,
    method_to_dict,
)
from ..model import save_network
from ..paramgen import AnchorPolicy, input_hypercube
from .config import (
    ExperimentConfig,
    build_config,
    default_interval_grid,
    describe_config,
    load_config_file,
)
from .outputs import (
    CV_COLUMNS,
    HISTOGRAM_COLUMNS,
    SWEEP_COLUMNS,
    TRIAL_COLUMNS,
    cv_rows,
    ensure_dir,
    histogram_rows,
    method_summary,
    sweep_rows,
    trial_rows,
    write_summary,
    write_table,
)
from .stats import weight_histogram, wilcoxon_signed_rank
from .trials import GridSearchConfig, TrialReport, cross_validate, run_trials, uae_sweep


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int, help="experiment seed")
    p.add_argument("--trials", type=int, help="number of independent trials")
    p.add_argument("--nodes", type=int, help="hidden node count m")
    p.add_argument("--method", action="append", dest="methods",
                   help="method tag (ram, ralpham, raem1..raem5) or JSON object; repeatable")
    p.add_argument("--u", type=float, help="weight half-width for ram")
    p.add_argument("--alpha-max", type=float, help="top slope angle (deg) for ralpham")
    p.add_argument("--alpha-min", type=float, help="bottom slope angle (deg) for ralpham")
    p.add_argument("--u-ae", type=float, help="encoder half-width for raem1")
    p.add_argument("--anchor", choices=("uniform", "train-point", "cluster"),
                   help="anchor point policy")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), help="tabular output format")
    p.add_argument("--jobs", type=int, help="parallel worker count")
    p.add_argument("--tf", help="target function name (TF1, TF2, TF3)")
    p.add_argument("--n", type=int, help="target function input dimension")
    p.add_argument("--train-size", type=int, help="training sample count")
    p.add_argument("--test-size", type=int, help="test sample count")
    p.add_argument("--data", help="CSV/KEEL data file (normalized and split 75/25)")
    p.add_argument("--target-column", help="target column index or header name")
    p.add_argument("--header", action="store_true", default=None,
                   help="data file has a header row")
    p.add_argument("--delimiter", help="data file delimiter (default comma)")


def _parse_method(text: str, args) -> dict:
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--method is not valid JSON: {exc}") from exc
    if text not in METHOD_NAMES:
        raise ConfigError(f"unknown method {text!r}; choose from {list(METHOD_NAMES)}")
    d: dict = {"method": text}
    if text == "ram" and args.u is not None:
        d["u"] = args.u
    if text == "ralpham":
        if args.alpha_max is not None:
            d["alpha_max_deg"] = args.alpha_max
        if args.alpha_min is not None:
            d["alpha_min_deg"] = args.alpha_min
    if text == "raem1" and args.u_ae is not None:
        d["u_ae"] = args.u_ae
    if args.anchor is not None and text != "raem4" and text != "raem5":
        d["anchor"] = {"kind": args.anchor}
    return d


def _resolve(args) -> ExperimentConfig:
    raw = load_config_file(args.config) if args.config else {}
    overrides: dict = {}
    if args.tf or args.data:
        problem: dict = {}
        if args.tf:
            problem["tf"] = args.tf
            if args.n is not None:
                problem["n"] = args.n
            if args.train_size is not None:
                problem["train_size"] = args.train_size
            if args.test_size is not None:
                problem["test_size"] = args.test_size
        else:
            problem["data"] = args.data
            if args.target_column is not None:
                tc = args.target_column
                problem["target_column"] = int(tc) if tc.lstrip("-").isdigit() else tc
            if args.header is not None:
                problem["header"] = args.header
            if args.delimiter is not None:
                problem["delimiter"] = args.delimiter
        overrides["problem"] = problem
    if args.methods:
        overrides["methods"] = [_parse_method(s, args) for s in args.methods]
    for key, value in (
        ("seed", args.seed),
        ("trials", args.trials),
        ("nodes", args.nodes),
        ("output_dir", args.out),
        ("format", args.format),
        ("jobs", args.jobs),
    ):
        if value is not None:
            overrides[key] = value
    grid_over = {}
    if getattr(args, "grid_nodes", None) is not None:
        grid_over["node_counts"] = _int_list(args.grid_nodes)
    if getattr(args, "grid_intervals", None) is not None:
        grid_over["interval_grid"] = _float_list(args.grid_intervals)
    if getattr(args, "folds", None) is not None:
        grid_over["folds"] = args.folds
    if grid_over:
        base = dict(raw.get("grid", {}))
        base.update(grid_over)
        overrides["grid"] = base
    sweep_over = {}
    for key, flag in (("lo", "sweep_lo"), ("hi", "sweep_hi"), ("points", "sweep_points")):
        value = getattr(args, flag, None)
        if value is not None:
            sweep_over[key] = value
    if getattr(args, "sweep_values", None) is not None:
        sweep_over = {"values": _float_list(args.sweep_values)}
    if sweep_over:
        base = dict(raw.get("sweep", {}))
        base.update(sweep_over)
        overrides["sweep"] = base
    if getattr(args, "histogram_bins", None) is not None:
        overrides["histogram_bins"] = args.histogram_bins
    return build_config(raw, overrides)


def _require_methods(cfg: ExperimentConfig, at_least: int = 1) -> None:
    if cfg.method_count < at_least:
        raise ConfigError(f"this command needs at least {at_least} --method/config method(s)")


def _base_summary(cfg: ExperimentConfig, problem) -> dict:
    return {
        "config": describe_config(cfg),
        "problem": {
            "train": dataset_summary(problem.train, "train"),
            "test": dataset_summary(problem.test, "test"),
        },
    }


def cmd_fit(args) -> int:
    cfg = _resolve(args)
    _require_methods(cfg)
    if cfg.method_count != 1:
        raise ConfigError("fit takes exactly one method")
    method = cfg.generator(0)
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    explicit = args.trials is not None or (
        args.config and "trials" in load_config_file(args.config)
    )
    trials = cfg.trials if explicit else 1
    reports = run_trials(method, problem, cfg.nodes, trials,
                         cfg.trial_stream(0), jobs=cfg.jobs)
    summary = _base_summary(cfg, problem)
    summary["methods"] = [{
        "method": method_to_dict(method),
        "nodes": cfg.nodes,
        **method_summary(reports),
    }]
    write_summary(os.path.join(out, "summary.json"), summary)
    write_table(os.path.join(out, "trials"), TRIAL_COLUMNS,
                trial_rows(method_name(method), reports), cfg.out_format)
    if args.save_model:
        save_network(replace(reports[0].network, normalization=problem.normalization),
                     args.save_model)
    print(f"fit: test rmse mean {summary['methods'][0]['rmse_test']['mean']:.6g} "
          f"over {trials} trial(s); outputs in {out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _resolve(args)
    _require_methods(cfg)
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    summary = _base_summary(cfg, problem)
    summary["methods"] = []
    rows: list = []
    for i in range(cfg.method_count):
        method = cfg.generator(i)
        reports = run_trials(method, problem, cfg.nodes, cfg.trials,
                             cfg.trial_stream(i), jobs=cfg.jobs)
        summary["methods"].append({
            "method": method_to_dict(method),
            "nodes": cfg.nodes,
            **method_summary(reports),
        })
        rows.extend(trial_rows(method_name(method), reports))
    write_summary(os.path.join(out, "summary.json"), summary)
    write_table(os.path.join(out, "trials"), TRIAL_COLUMNS, rows, cfg.out_format)
    for entry in summary["methods"]:
        print(f"benchmark: {entry['method']['method']} mean test rmse "
              f"{entry['rmse_test']['mean']:.6g}")
    return 0


def _grid_for(cfg: ExperimentConfig, family: str) -> GridSearchConfig:
    if cfg.grid is None:
        raise ConfigError("grid search needs a 'grid' config section or --grid-nodes")
    grid = cfg.grid
    if family in TUNABLE and len(grid.interval_grid) == 0:
        grid = GridSearchConfig(
            node_counts=grid.node_counts,
            interval_grid=default_interval_grid(family),
            folds=grid.folds,
            trials_per_cell=grid.trials_per_cell,
            seed=grid.seed,
        )
    return grid


def cmd_grid_search(args) -> int:
    cfg = _resolve(args)
    _require_methods(cfg)
    if cfg.method_count != 1:
        raise ConfigError("grid-search takes exactly one method")
    family = cfg.family(0)
    anchor = cfg.anchor(0)
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    grid = _grid_for(cfg, family)
    result = cross_validate(grid, family, problem.train, anchor=anchor,
                            jobs=cfg.jobs, stream=cfg.cv_stream(0))
    summary = _base_summary(cfg, problem)
    summary["grid_search"] = {
        "method": family,
        "best_m": result.best_m,
        "best_interval": result.best_interval,
        "cells": len(result.table),
    }
    write_summary(os.path.join(out, "summary.json"), summary)
    write_table(os.path.join(out, "cv_table"), CV_COLUMNS,
                cv_rows(family, result.table), cfg.out_format)
    print(f"grid-search: {family} best m={result.best_m} "
          f"interval={result.best_interval}")
    return 0


def cmd_uae_sweep(args) -> int:
    cfg = _resolve(args)
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    anchor = AnchorPolicy(kind=args.anchor) if args.anchor else None
    if anchor is None and cfg.method_count:
        anchor = cfg.anchor(0)
    points = uae_sweep(problem, cfg.nodes, cfg.sweep_values, cfg.trials,
                       cfg.sweep_stream(), anchor=anchor, jobs=cfg.jobs)
    best = min(points, key=lambda p: (p.mean_rmse, p.u_ae))
    summary = _base_summary(cfg, problem)
    summary["sweep"] = {
        "nodes": cfg.nodes,
        "trials": cfg.trials,
        "u_ae_at_min": best.u_ae,
        "min_mean_rmse": best.mean_rmse,
        "median_abs_weight_at_min": best.median_abs_weight,
    }
    write_summary(os.path.join(out, "summary.json"), summary)
    write_table(os.path.join(out, "sweep"), SWEEP_COLUMNS, sweep_rows(points),
                cfg.out_format)
    print(f"uae-sweep: min mean rmse {best.mean_rmse:.6g} at u_ae={best.u_ae:.6g}")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve(args)
    _require_methods(cfg, at_least=2)
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    summary = _base_summary(cfg, problem)
    summary["methods"] = []
    trial_table: list = []
    cv_table: list = []
    hist_table: list = []
    per_method_errors: list[list[float]] = []
    names: list[str] = []

    for i in range(cfg.method_count):
        family = cfg.family(i)
        anchor = cfg.anchor(i)
        nodes = cfg.nodes
        chosen: dict = {}
        if args.cv:
            grid = _grid_for(cfg, family)
            result = cross_validate(grid, family, problem.train, anchor=anchor,
                                    jobs=cfg.jobs, stream=cfg.cv_stream(i))
            nodes = result.best_m
            tuned = family_config(family, result.best_interval, anchor)
            chosen = {"m": result.best_m, "interval": result.best_interval}
            cv_table.extend(cv_rows(family, result.table))
        else:
            tuned = cfg.generator(i)
        reports = run_trials(tuned, problem, nodes, cfg.trials, cfg.trial_stream(i),
                             snapshot_weights=True, jobs=cfg.jobs)
        entry = {
            "method": method_to_dict(tuned),
            "nodes": nodes,
            **method_summary(reports),
        }
        if chosen:
            entry["chosen"] = chosen
        summary["methods"].append(entry)
        trial_table.extend(trial_rows(family, reports))
        hist_table.extend(histogram_rows(family, weight_histogram(reports,
                                                                  cfg.histogram_bins)))
        per_method_errors.append([r.rmse_test for r in reports])
        names.append(family)

    summary["wilcoxon"] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            res = wilcoxon_signed_rank(per_method_errors[i], per_method_errors[j])
            summary["wilcoxon"].append({
                "a": names[i],
                "b": names[j],
                "statistic": res.statistic,
                "p_value": res.p_value,
            })
    write_summary(os.path.join(out, "summary.json"), summary)
    write_table(os.path.join(out, "trials"), TRIAL_COLUMNS, trial_table, cfg.out_format)
    write_table(os.path.join(out, "histogram"), HISTOGRAM_COLUMNS, hist_table,
                cfg.out_format)
    if cv_table:
        write_table(os.path.join(out, "cv_table"), CV_COLUMNS, cv_table, cfg.out_format)
    for entry in summary["methods"]:
        print(f"compare: {entry['method']['method']} m={entry['nodes']} "
              f"mean test rmse {entry['rmse_test']['mean']:.6g}")
    return 0


def cmd_emit(args) -> int:
    cfg = _resolve(args)
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    write_dataset_csv(os.path.join(out, "train.csv"), problem.train)
    write_dataset_csv(os.path.join(out, "test.csv"), problem.test)
    meta = _base_summary(cfg, problem)
    meta["normalization"] = problem.normalization.to_dict()
    write_summary(os.path.join(out, "problem.json"), meta)
    print(f"emit: wrote train.csv ({problem.train.n_samples} rows) and "
          f"test.csv ({problem.test.n_samples} rows) to {out}")
    return 0


def cmd_histogram(args) -> int:
    cfg = _resolve(args)
    _require_methods(cfg)
    if cfg.method_count != 1:
        raise ConfigError("histogram takes exactly one method")
    out = ensure_dir(cfg.output_dir)
    problem = cfg.problem.realize(cfg.problem_stream())
    method = cfg.generator(0)
    cube = input_hypercube(problem.train.x)
    stream = cfg.trial_stream(0)
    reports = []
    for t in range(cfg.trials):
        layer = generate_hidden_layer(method, problem.train.x, cube, cfg.nodes,
                                      stream.child(t))
        reports.append(TrialReport(trial=t, seed=stream.seed, rmse_train=0.0,
                                   rmse_test=0.0, wall_time_s=0.0,
                                   weights=layer.weights.copy()))
    hist = weight_histogram(reports, cfg.histogram_bins)
    family = method_name(method)
    pooled = np.concatenate([r.weights.ravel() for r in reports])
    summary = _base_summary(cfg, problem)
    summary["histogram"] = {
        "method": family,
        "nodes": cfg.nodes,
        "trials": cfg.trials,
        "bins": cfg.histogram_bins,
        "weight_count": int(pooled.size),
        "median_abs_weight": float(np.median(np.abs(pooled))),
    }
    write_summary(os.path.join(out, "summary.json"), summary)
    write_table(os.path.join(out, "histogram"), HISTOGRAM_COLUMNS,
                histogram_rows(family, hist), cfg.out_format)
    print(f"histogram: {family} median |a| = "
          f"{summary['histogram']['median_abs_weight']:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randnet",
        description="Randomized training and comparison of single-hidden-layer "
                    "regression networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train one configuration and report RMSE")
    _add_common(p)
    p.add_argument("--save-model", help="write the trained network as JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("benchmark", help="repeated trials on a target function")
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("grid-search", help="cross-validated hyperparameter search")
    _add_common(p)
    p.add_argument("--grid-nodes", help="comma-separated node counts")
    p.add_argument("--grid-intervals", help="comma-separated interval values")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("uae-sweep", help="encoder interval sweep for raem1")
    _add_common(p)
    p.add_argument("--sweep-lo", type=float, help="smallest u_ae")
    p.add_argument("--sweep-hi", type=float, help="largest u_ae")
    p.add_argument("--sweep-points", type=int, help="number of log-spaced values")
    p.add_argument("--sweep-values", help="comma-separated explicit u_ae values")
    p.set_defaults(func=cmd_uae_sweep)

    p = sub.add_parser("compare", help="multi-method comparison with rank tests")
    _add_common(p)
    p.add_argument("--cv", action="store_true",
                   help="tune each method by cross-validation first")
    p.add_argument("--grid-nodes", help="comma-separated node counts")
    p.add_argument("--grid-intervals", help="comma-separated interval values")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
    p.add_argument("--histogram-bins", type=int, help="histogram bin count")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("emit", help="write a sampled problem as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("histogram", help="hidden-weight histogram of one method")
    _add_common(p)
    p.add_argument("--histogram-bins", type=int, help="histogram bin count")
    p.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
