"""Repeated training trials, k-fold cross-validation and the encoder sweep.

All routines take a seed or an RngStream and derive one child stream per
fit (trial, grid cell x fold x trial, or sweep point x trial), so results
are identical for any worker count and any execution order. Every fit goes
through ``fit_trial``.

One map runs the fits: ``_fork_map`` runs them on every core in forked
processes, with the calling process as one of them. The grid search and
the sweep make thousands of small fits, whose short numpy calls would queue
on the interpreter lock in threads, and keep only a few floats of each;
repeated trials send back their whole, small networks.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional, Sequence, TypeVar

import numpy as np

from ..benchfn import SampledProblem
from ..dataio import Dataset
from ..errors import ConfigError, InvalidInputError, check_distinct
from .. import linalg
from ..methods import GeneratorConfig, generate_hidden_layer, method_spec, method_with_interval
from ..model import TrainedNetwork, predict, rmse, train_readout
from ..rng import as_stream
from .stats import median

T = TypeVar("T")


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one training trial; ``network`` is the network it trained."""

    trial: int
    rmse_train: float
    rmse_test: float
    network: TrainedNetwork


def fit_trial(method: GeneratorConfig, train: Dataset, test: Dataset, m: int,
              stream) -> tuple[TrainedNetwork, float]:
    """One trial: generate a hidden layer from the train inputs, which also
    bound its anchors, fit its readout, score it on the test rows; returns
    the network and its test RMSE.

    The train hidden outputs exist only inside the readout fit, which
    streams them. The test hidden outputs are built and used one tile at a
    time by ``predict`` and never held whole. The train RMSE is left to the
    caller that reports it, since most fits, those of the grid search and
    the sweep, have no use for it.
    """
    layer = generate_hidden_layer(method, train.x, m, stream)
    net = TrainedNetwork(hidden=layer, readout=train_readout(layer, train.x, train.y))
    return net, rmse(predict(net, test.x), test.y)


def _fork_map(fit: Callable[[int], T], count: int) -> list[T]:
    """``[fit(i) for i in range(count)]`` on P = min(count, cores) processes;
    each ``fit(i)`` returns a picklable value.

    The calling process is worker 0 and forks P - 1 helpers once; fit i runs
    on process i mod P. So the split is fixed by ``count``, and the results
    by the fits' own streams. The caller runs share 0 itself, fit 0 first,
    so a hook on the fit path sees fit 0 in the calling process, and an
    exit exception raised there ends the map at once. ``bench/child.py``
    needs both: it takes its set-up mark at the first hidden layer the
    caller draws, and ends a ``--setup-only`` run there. A helper inherits
    the inputs through the fork and sends back only its fits' results, or
    the failure that stopped its share, through a pipe; it leaves with
    ``os._exit``, so buffered output and exit handlers run once, in the
    caller. Every process runs BLAS on one thread with a block budget of
    ``cores // P``, so a map of one fit runs its row blocks on every core.
    Where fork is missing the caller runs every fit.

    A failed fit stops the share of its process. Once every helper has
    finished, the failure of the lowest fit index re-raises in the caller,
    as a serial run would raise it; a helper's failure carries the helper's
    traceback as its cause. A helper that did not exit 0 raises at once (see
    ``_receive``). That, or anything else that stops the caller, such as an
    interrupt, kills and reaps every other helper first; no helper outlives
    the call.
    """
    cores = linalg.core_count()
    procs = max(1, min(count, cores)) if hasattr(os, "fork") else 1
    shares = []
    helpers: dict[int, int] = {}  # pid -> read end of the pipe of each unreaped helper
    with linalg.single_thread_blas(), linalg.block_budget(cores // procs):
        try:
            for p in range(1, procs):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    os.close(read)
                    _helper(fit, range(p, count, procs), write)
                os.close(write)
                helpers[pid] = read
            shares.append(_share(fit, range(0, count, procs)))
            for pid in list(helpers):
                shares.append(_receive(pid, helpers))
        except BaseException:
            for pid in helpers:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, read in helpers.items():
                os.close(read)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * count
    for p, (rows, _) in enumerate(shares):
        results[p::procs] = rows
    return results


class _RemoteTraceback(Exception):
    """The formatted traceback of a failure in a helper process, chained as
    the cause of the exception the caller re-raises."""

    def __str__(self):
        return self.args[0]


def _share(fit, indices: range) -> tuple[list, Optional[tuple[int, Exception, str]]]:
    """``fit(i)`` for each index in turn, up to the first that raises: the
    results of the fits that ran, and that index, its exception and its
    formatted traceback."""
    rows = []
    for i in indices:
        try:
            rows.append(fit(i))
        except Exception as exc:
            return rows, (i, exc, traceback.format_exc())
    return rows, None


def _helper(fit, indices: range, write: int) -> NoReturn:
    """Body of a forked helper: run its share, send it, and exit. An
    interrupt or any other exit exception leaves without sending."""
    code = 1
    try:
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(_share(fit, indices)))
        code = 0
    finally:
        os._exit(code)


def _receive(pid: int, helpers: dict[int, int]) -> tuple:
    """The share helper ``pid`` sent, read to the end of its pipe, after
    which the helper is reaped and dropped from ``helpers``; a failure's
    exception gets the helper's traceback as its cause. A helper that did
    not exit 0 sent no share, or not all of it: SIGKILL, the signal of the
    kernel's out-of-memory killer, raises a MemoryError, any other end a
    RuntimeError."""
    sent = b"".join(iter(lambda: os.read(helpers[pid], 1 << 16), b""))
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    os.close(helpers.pop(pid))
    if code == -signal.SIGKILL:
        raise MemoryError(f"fit worker process {pid} was killed by SIGKILL")
    if code != 0:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"fit worker process {pid} ended by {how} without sending its results")
    rows, failure = pickle.loads(sent)
    if failure is not None:
        failure[1].__cause__ = _RemoteTraceback(f'\n"""\n{failure[2]}"""')
    return rows, failure


def _cell_means(fit: Callable[[int, int], tuple], cells: int, repeats: int) -> list[tuple]:
    """Per cell, the mean over its repeats, in repeat order, of each value
    ``fit(cell, repeat)`` returns; the fits run through ``_fork_map``."""
    rows = _fork_map(lambda i: fit(*divmod(i, repeats)), cells * repeats)
    return [tuple(float(np.mean(v)) for v in zip(*rows[c * repeats:(c + 1) * repeats]))
            for c in range(cells)]


def run_trials(
    method: GeneratorConfig,
    problem: SampledProblem,
    m: int,
    trials: int,
    seed,
) -> list[TrialReport]:
    """Train `trials` independent networks and report train/test RMSE.

    Trial t draws all randomness from child stream t of the given seed, so
    any subset of trials can be reproduced in isolation. The train RMSE
    scores ``predict`` on the train inputs, which is bitwise ``H @ beta``.
    The trials run on every core through ``_fork_map``; a helper sends back
    its reports, networks included.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if m < 1:
        raise ConfigError(f"node count must be >= 1, got {m}")
    stream = as_stream(seed)
    train, test = problem.train, problem.test

    def one(t: int) -> TrialReport:
        net, rmse_test = fit_trial(method, train, test, m, stream.child(t))
        return TrialReport(t, rmse(predict(net, train.x), train.y), rmse_test, net)

    return _fork_map(one, trials)


@dataclass(frozen=True)
class GridSearchConfig:
    """Grid of node counts and interval values searched by cross-validation;
    an empty interval grid searches the method's default grid."""

    node_counts: Sequence[int]
    interval_grid: Sequence[float] = ()
    folds: int = 5
    trials_per_cell: int = 3

    def __post_init__(self):
        if len(self.node_counts) == 0:
            raise ConfigError("node_counts must be nonempty")
        if any(m < 1 for m in self.node_counts):
            raise ConfigError("node counts must be >= 1")
        check_distinct(self.node_counts, "node_counts")
        check_distinct(self.interval_grid, "interval_grid")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell must be >= 1")


@dataclass(frozen=True)
class CvCell:
    m: int
    interval: Optional[float]
    mean_rmse: float


def kfold_indices(n: int, folds: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffle once, then cut into `folds` contiguous validation blocks."""
    if folds < 2 or folds > n:
        raise InvalidInputError(f"need 2 <= folds <= {n}, got {folds}")
    perm = as_stream(rng).generator().permutation(n)
    blocks = np.array_split(perm, folds)
    return [(np.sort(np.concatenate(blocks[:f] + blocks[f + 1:])), np.sort(blocks[f]))
            for f in range(folds)]


def select_best(table: Sequence[CvCell]) -> CvCell:
    """Cell with the lowest mean RMSE; ties go to smaller m, then smaller interval."""
    if len(table) == 0:
        raise ConfigError("empty cross-validation table")
    return min(table, key=lambda cell: (cell.mean_rmse, cell.m, cell.interval or 0.0))


def grid_methods(grid: GridSearchConfig, method: dict) -> list[tuple[Optional[float],
                                                                     GeneratorConfig]]:
    """``(interval, method)`` for each interval the grid search of method
    dict ``method`` tries, in grid order: the grid's intervals, or the
    method's default grid when those are empty, or the one interval None of
    a parameter-free method. Each method is read whole here, so a value it
    rejects is a ConfigError before any fit."""
    spec = method_spec(method.get("method"))
    intervals = (grid.interval_grid or spec.grid) if spec.interval else (None,)
    return [(iv, method_with_interval(method, iv)) for iv in intervals]


def cross_validate(grid: GridSearchConfig, method: dict, train: Dataset,
                   seed) -> tuple[CvCell, ...]:
    """Mean validation RMSE of every grid cell, in grid order, as
    ``uae_sweep`` returns its points; ``select_best`` picks the search's cell.

    ``method`` is a method dict, as in a config file. Tunable methods (ram,
    ralpham, raem1) cross the node grid with the interval grid, or with the
    method's default grid when the interval grid is empty; each cell is the
    method dict with its interval field set to the cell's value, so every
    other key keeps its value. The parameter-free methods search node count
    only. Cell (ci), fold (f), trial (t) together index the child stream,
    making every fold evaluation independently reproducible. ``seed`` is an
    int or a stream, as in ``run_trials``; child (0, 0) of it shuffles the
    folds. The fits run on every core through ``_fork_map``.
    """
    tried = grid_methods(grid, method)
    if train.n_samples < grid.folds:
        raise InvalidInputError(f"need at least folds={grid.folds} samples, got {train.n_samples}")

    stream = as_stream(seed)
    cells = [(m, iv, cfg) for m in grid.node_counts for iv, cfg in tried]
    folds = kfold_indices(train.n_samples, grid.folds, stream.child(0, 0))
    splits = [(train.subset(tr), train.subset(va)) for tr, va in folds]

    def fit(ci: int, r: int) -> tuple[float]:
        f, t = divmod(r, grid.trials_per_cell)
        m, _, cfg = cells[ci]
        return (fit_trial(cfg, *splits[f], m, stream.child(1, ci, f, t))[1],)

    means = _cell_means(fit, len(cells), grid.folds * grid.trials_per_cell)
    return tuple(CvCell(m, interval, *mean) for (m, interval, _), mean in zip(cells, means))


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
    method: dict | None = None,
) -> list[SweepPoint]:
    """Encoder-interval sweep: how u_ae shapes the produced weights and RMSE.

    ``method`` is a raem1 method dict (default ``{"method": "raem1"}``);
    each point is that dict with ``u_ae`` set to the point's value, as a
    grid cell of ``cross_validate`` is, so every other key keeps its value.
    The reported weight statistic is the per-trial median of |hidden
    weights|, averaged over trials; RMSE is the mean test RMSE. Trial t of
    point k draws from child stream (k, t), and the fits run on every core
    through ``_fork_map``.
    """
    if len(uae_values) == 0:
        raise ConfigError("uae_values must be nonempty")
    check_distinct(uae_values, "u_ae values")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    method = {"method": "raem1"} if method is None else method
    if method.get("method") != "raem1":
        raise ConfigError(f"the u_ae sweep runs raem1, got method {method.get('method')!r}")
    stream = as_stream(seed)
    train, test = problem.train, problem.test
    methods = [method_with_interval(method, float(u)) for u in uae_values]

    def fit(k: int, t: int) -> tuple[float, float]:
        net, rmse_test = fit_trial(methods[k], train, test, m, stream.child(k, t))
        return median(np.abs(net.hidden.weights)), rmse_test

    return [SweepPoint(method.u_ae, *means)
            for method, means in zip(methods, _cell_means(fit, len(methods), trials))]
