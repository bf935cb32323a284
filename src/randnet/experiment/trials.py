"""Repeated training trials, k-fold cross-validation and the encoder sweep.

All routines take a seed or an RngStream and derive one child stream per
independent work unit (trial, or grid cell x fold x trial), so results are
identical for any worker count and any execution order. Every fit goes
through ``fit_trial``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..benchfn import SampledProblem
from ..dataio import Dataset
from ..errors import ConfigError, InvalidInputError
from ..linalg import block_budget, single_thread_blas
from ..methods import TUNABLE, GeneratorConfig, family_config, generate_hidden_layer
from ..model import TrainedNetwork, predict, rmse, train_readout
from ..paramgen import AnchorPolicy, Hypercube, input_hypercube
from ..rae import Raem1Config
from ..rng import as_stream


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one training trial; ``network`` is the network it trained."""

    trial: int
    seed: int
    rmse_train: float
    rmse_test: float
    wall_time_s: float
    weights: Optional[np.ndarray] = None
    network: Optional[TrainedNetwork] = None

    def __post_init__(self):
        if self.rmse_train < 0 or self.rmse_test < 0:
            raise InvalidInputError("rmse values must be nonnegative")


class TrialFit(NamedTuple):
    """Trained network of one trial and its train and test RMSE."""

    network: TrainedNetwork
    rmse_train: float
    rmse_test: float


def fit_trial(
    method: GeneratorConfig,
    train: Dataset,
    test: Dataset,
    cube: Hypercube,
    m: int,
    stream,
) -> TrialFit:
    """One trial: generate a hidden layer, fit its readout, score it.

    The train hidden outputs exist only inside the readout fit, which also
    gives the train fit values. The test hidden outputs are built and used
    one tile at a time by ``predict`` and never held whole.
    """
    layer = generate_hidden_layer(method, train.x, cube, m, stream)
    readout, fitted = train_readout(layer, train.x, train.y, return_fitted=True)
    net = TrainedNetwork(hidden=layer, readout=readout)
    return TrialFit(net, rmse(fitted, train.y), rmse(predict(net, test.x), test.y))


def _map_units(worker, count: int, jobs: int) -> list:
    """Run worker(0..count-1) on up to ``jobs`` threads; order preserved.

    The worker count is capped at the core count, and BLAS runs on one
    thread throughout. Each unit may run the row blocks of its hidden
    matrices and solves on the cores the pool leaves idle, ``cores // workers`` of them, so a map
    of one unit uses every core and a full pool starts no block threads.
    Row blocks and their merge order are fixed by the matrix shapes, so the
    results depend on neither ``jobs`` nor the core count.
    """
    cores = os.cpu_count() or 1
    workers = min(jobs, count, cores)

    def unit(i: int):
        with block_budget(cores // max(workers, 1)):
            return worker(i)

    with single_thread_blas():
        if workers <= 1:
            return [unit(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(unit, range(count)))


def run_trials(
    method: GeneratorConfig,
    problem: SampledProblem,
    m: int,
    trials: int,
    seed,
    *,
    snapshot_weights: bool = False,
    jobs: int = 1,
) -> list[TrialReport]:
    """Train `trials` independent networks and report train/test RMSE.

    Trial t draws all randomness from child stream t of the given seed, so
    any subset of trials can be reproduced in isolation.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if m < 1:
        raise ConfigError(f"node count must be >= 1, got {m}")
    stream = as_stream(seed)
    train, test = problem.train, problem.test
    cube = input_hypercube(train.x)

    def one(t: int) -> TrialReport:
        t0 = time.perf_counter()
        fit = fit_trial(method, train, test, cube, m, stream.child(t))
        return TrialReport(
            trial=t,
            seed=stream.seed,
            rmse_train=fit.rmse_train,
            rmse_test=fit.rmse_test,
            wall_time_s=time.perf_counter() - t0,
            weights=fit.network.hidden.weights if snapshot_weights else None,
            network=fit.network,
        )

    return _map_units(one, trials, jobs)


@dataclass(frozen=True)
class GridSearchConfig:
    """Grid of node counts and interval values searched by cross-validation."""

    node_counts: Sequence[int]
    interval_grid: Sequence[float] = ()
    folds: int = 5
    trials_per_cell: int = 3
    seed: int = 0

    def __post_init__(self):
        if len(self.node_counts) == 0:
            raise ConfigError("node_counts must be nonempty")
        if any(m < 1 for m in self.node_counts):
            raise ConfigError("node counts must be >= 1")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell must be >= 1")


@dataclass(frozen=True)
class CvCell:
    m: int
    interval: Optional[float]
    mean_rmse: float


@dataclass(frozen=True)
class CvResult:
    best_m: int
    best_interval: Optional[float]
    table: tuple[CvCell, ...]


def kfold_indices(n: int, folds: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffle once, then cut into `folds` contiguous validation blocks."""
    if folds < 2 or folds > n:
        raise InvalidInputError(f"need 2 <= folds <= {n}, got {folds}")
    perm = as_stream(rng).generator().permutation(n)
    blocks = np.array_split(perm, folds)
    out = []
    for f in range(folds):
        val = np.sort(blocks[f])
        train = np.sort(np.concatenate([blocks[g] for g in range(folds) if g != f]))
        out.append((train, val))
    return out


def select_best(table: Sequence[CvCell]) -> CvCell:
    """Cell with the lowest mean RMSE; ties go to smaller m, then smaller interval."""
    if len(table) == 0:
        raise ConfigError("empty cross-validation table")

    def key(cell: CvCell):
        interval = cell.interval if cell.interval is not None else 0.0
        return (cell.mean_rmse, cell.m, interval)

    return min(table, key=key)


def cross_validate(
    grid: GridSearchConfig,
    family: str,
    train: Dataset,
    *,
    anchor: AnchorPolicy | None = None,
    jobs: int = 1,
    stream=None,
) -> CvResult:
    """Mean validation RMSE for every grid cell; returns the argmin cell.

    Tunable families (ram, ralpham, raem1) cross the node grid with the
    interval grid; the parameter-free families search node count only. Cell
    (ci), fold (f), trial (t) together index the child stream, making every
    fold evaluation independently reproducible. Randomness comes from
    `stream` when given, else from the grid's seed.
    """
    intervals: Sequence[Optional[float]]
    if family in TUNABLE:
        if len(grid.interval_grid) == 0:
            raise ConfigError(f"method {family!r} needs a nonempty interval_grid")
        intervals = list(grid.interval_grid)
    else:
        intervals = [None]
    if train.n_samples < grid.folds:
        raise InvalidInputError(
            f"need at least folds={grid.folds} samples, got {train.n_samples}"
        )

    stream = as_stream(grid.seed) if stream is None else as_stream(stream)
    cells = [(m, iv) for m in grid.node_counts for iv in intervals]
    folds = kfold_indices(train.n_samples, grid.folds, stream.child(0, 0))
    splits = [(train.subset(tr), train.subset(va)) for tr, va in folds]

    def eval_cell(ci: int) -> CvCell:
        m, interval = cells[ci]
        cfg = family_config(family, interval, anchor)
        errs = []
        for f, (fold_train, fold_val) in enumerate(splits):
            cube = input_hypercube(fold_train.x)
            for t in range(grid.trials_per_cell):
                child = stream.child(1, ci, f, t)
                fit = fit_trial(cfg, fold_train, fold_val, cube, m, child)
                errs.append(fit.rmse_test)
        return CvCell(m=m, interval=interval, mean_rmse=float(np.mean(errs)))

    table = tuple(_map_units(eval_cell, len(cells), jobs))
    best = select_best(table)
    return CvResult(best_m=best.m, best_interval=best.interval, table=table)


@dataclass(frozen=True)
class SweepPoint:
    u_ae: float
    median_abs_weight: float
    mean_rmse: float


def uae_sweep(
    problem: SampledProblem,
    m: int,
    uae_values: Sequence[float],
    trials: int,
    seed,
    *,
    anchor: AnchorPolicy | None = None,
    jobs: int = 1,
) -> list[SweepPoint]:
    """Encoder-interval sweep: how u_ae shapes the produced weights and RMSE.

    For each u_ae the reported weight statistic is the per-trial median of
    |hidden weights|, averaged over trials; RMSE is the mean test RMSE.
    """
    if len(uae_values) == 0:
        raise ConfigError("uae_values must be nonempty")
    if any(u <= 0 for u in uae_values):
        raise ConfigError("uae_values must be positive")
    stream = as_stream(seed)
    anchor = anchor if anchor is not None else AnchorPolicy()
    train, test = problem.train, problem.test
    cube = input_hypercube(train.x)

    def eval_point(k: int) -> SweepPoint:
        cfg = Raem1Config(u_ae=float(uae_values[k]), anchor=anchor)
        medians, errs = [], []
        for t in range(trials):
            fit = fit_trial(cfg, train, test, cube, m, stream.child(k, t))
            medians.append(float(np.median(np.abs(fit.network.hidden.weights))))
            errs.append(fit.rmse_test)
        return SweepPoint(
            u_ae=float(uae_values[k]),
            median_abs_weight=float(np.mean(medians)),
            mean_rmse=float(np.mean(errs)),
        )

    return _map_units(eval_point, len(uae_values), jobs)
