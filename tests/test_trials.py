"""Repeated trials, cross-validation, and the encoder-interval sweep."""

import errno
import os
import time
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import blas_threads, bundles_openblas

from randnet.dataio import Dataset
from randnet.errors import ConfigError, InvalidInputError, NumericFailureError
from randnet.benchfn import SampledProblem
from randnet.experiment import trials
from randnet.experiment.stats import median, wilcoxon_signed_rank
from randnet.experiment.trials import (
    CvCell,
    GridSearchConfig,
    cross_validate,
    fit_trial,
    kfold_indices,
    run_trials,
    select_best,
    uae_sweep,
)
from randnet import linalg
from randnet.linalg import lstsq
from randnet.methods import generate_hidden_layer, method_with_interval
from randnet.model import hidden_outputs
from randnet.paramgen import RaMConfig, RAlphaMConfig, generate_ram
from randnet.rae import Raem1Config, Raem3Config, Raem5Config
from randnet.rng import RngStream


def reports_equal(a, b):
    """Equal scores and equal hidden weights, report by report."""
    if len(a) != len(b):
        return False
    for r, s in zip(a, b):
        if (r.trial, r.rmse_train, r.rmse_test) != (s.trial, s.rmse_train, s.rmse_test):
            return False
        if not np.array_equal(r.network.hidden.weights, s.network.hidden.weights):
            return False
    return True


def recording_pool(sizes: list):
    """A pool class that records its size in ``sizes`` and runs its work in
    the calling thread, so it starts no thread."""

    class SerialPool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, **kwargs):
            pass

    return SerialPool


class TestWorkerPool:
    def test_workers_capped_at_core_count(self, monkeypatch):
        monkeypatch.setattr(linalg, "core_count", lambda: 2)
        assert trials._fork_map(lambda i: i * i, 6) == [0, 1, 4, 9, 16, 25]
        assert len(set(trials._fork_map(lambda i: os.getpid(), 6))) == 2
        monkeypatch.setattr(linalg, "core_count", lambda: 1)
        assert trials._fork_map(lambda i: os.getpid(), 3) == [os.getpid()] * 3
        assert_no_child_left()

    def test_core_count_follows_cpu_affinity(self, monkeypatch):
        # pinned to one of two cores, a map of one fit gets one core's budget
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert linalg.core_count() == 1
        assert trials._fork_map(lambda i: linalg._budget.cores, 1) == [1]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert linalg.core_count() == 2

    def test_row_blocks_run_only_on_cores_the_workers_leave_idle(
        self, monkeypatch, row_blocking
    ):
        # each fit returns the sizes of the block pools it started, which
        # a forked helper records in its own copy of ``blocks``
        blocks = []
        monkeypatch.setattr(linalg, "ThreadPoolExecutor", recording_pool(blocks))
        row_blocking(min_rows=8, cores=2)
        rng = np.random.default_rng(0)
        a, t = rng.normal(size=(80, 3)), rng.normal(size=80)
        assert len(linalg.row_blocks(80, 3)) == 4

        def solve(i):
            start = len(blocks)
            lstsq(a, t)
            return blocks[start:]

        assert solve(0) == []  # outside any map the budget is one block at a time
        assert trials._fork_map(solve, 1) == [[2]]  # one fit: its blocks take both cores
        assert trials._fork_map(solve, 2) == [[], []]  # the workers fill the cores
        assert trials._fork_map(solve, 3) == [[], [], []]
        row_blocking(min_rows=8, cores=4)
        assert trials._fork_map(solve, 2) == [[2], [2]]  # each leaves one core idle
        assert_no_child_left()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_blas_on_one_thread_inside_and_restored_after(self, monkeypatch, cores):
        get, set_ = blas_threads()
        monkeypatch.setattr(linalg, "core_count", lambda: cores)
        saved = get()
        try:
            set_(2)
            assert trials._fork_map(lambda i: get(), 4) == [1] * 4
            assert get() == 2
        finally:
            set_(saved)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Interrupt(BaseException):
    """Stands in for an interrupt: not an Exception, so no fit handler catches it."""


class TestForkMap:
    def test_split_is_fixed_by_the_fit_count_and_the_caller_runs_fit_zero(
        self, monkeypatch
    ):
        monkeypatch.setattr(linalg, "core_count", lambda: 3)
        pids = [int(pid) for (pid,) in trials._fork_map(lambda i: (os.getpid(),), 8)]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert pids == [pids[i % 3] for i in range(8)]
        # at most one process per fit, whatever the core count
        monkeypatch.setattr(linalg, "core_count", lambda: 4)
        assert len(set(trials._fork_map(lambda i: (os.getpid(),), 2))) == 2
        assert trials._fork_map(lambda i: (float(i), 0.5 * i), 5) == [
            (float(i), 0.5 * i) for i in range(5)
        ]
        assert_no_child_left()

    def test_every_process_forks_and_fits_on_one_thread(self, monkeypatch):
        if not os.path.exists("/proc/self/status") or not bundles_openblas():
            pytest.skip("no /proc, or numpy bundles no OpenBLAS")

        def threads():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

        a = np.random.default_rng(0).normal(size=(400, 400))
        a @ a  # starts the worker threads of a multi-threaded BLAS
        at_fork, fork = [], os.fork

        def counting_fork():
            at_fork.append(threads())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(linalg, "core_count", lambda: 3)
        assert trials._fork_map(lambda i: threads(), 3) == [1, 1, 1]
        assert at_fork == [1, 1]
        assert_no_child_left()

    def test_serial_in_the_caller_where_fork_is_missing(self, monkeypatch):
        monkeypatch.setattr(linalg, "core_count", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert trials._fork_map(lambda i: (os.getpid(),), 6) == [(os.getpid(),)] * 6

    def test_helper_failure_surfaces_with_its_type(self, monkeypatch):
        monkeypatch.setattr(linalg, "core_count", lambda: 2)

        def fit(i):
            if i in (3, 4):  # fit 3 runs in the helper, fit 4 in the caller
                raise NumericFailureError(f"fit {i} failed")
            return (float(i),)

        # the lowest failing fit wins, as in a serial run, and its cause
        # carries the helper's traceback down to the failing line
        with pytest.raises(NumericFailureError, match="fit 3 failed") as info:
            trials._fork_map(fit, 6)
        assert isinstance(info.value.__cause__, trials._RemoteTraceback)
        assert 'raise NumericFailureError(f"fit {i} failed")' in str(info.value.__cause__)
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_failed_fork_leaks_no_pipe_and_no_helper(self, monkeypatch):
        monkeypatch.setattr(linalg, "core_count", lambda: 3)
        real_fork, forks = os.fork, []

        def fork():  # the second fork fails, as near the process limit
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            trials._fork_map(lambda i: i, 6)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_left()

    def test_interrupt_in_the_callers_share_reaps_every_helper(self, monkeypatch):
        monkeypatch.setattr(linalg, "core_count", lambda: 3)
        caller = os.getpid()

        def fit(i):
            if os.getpid() == caller:
                raise Interrupt
            time.sleep(60)  # a helper is killed, never waited out
            return (0.0,)

        start = time.monotonic()
        with pytest.raises(Interrupt):
            trials._fork_map(fit, 6)
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestRunTrials:
    def test_single_trial_reproducible(self, demo_small):
        cfg = RAlphaMConfig(alpha_max_deg=80.0)
        a = run_trials(cfg, demo_small, 10, 1, 3)
        b = run_trials(cfg, demo_small, 10, 1, 3)
        assert reports_equal(a, b)

    def test_hundred_trials_all_finite(self, demo_small):
        reports = run_trials(RaMConfig(u=5.0), demo_small, 10, 100, 4)
        assert len(reports) == 100
        assert all(np.isfinite(r.rmse_test) and r.rmse_test >= 0 for r in reports)
        assert [r.trial for r in reports] == list(range(100))

    def test_parallel_execution_matches_serial(self, demo_small, monkeypatch):
        cfg = Raem1Config(u_ae=0.5)
        monkeypatch.setattr(linalg, "core_count", lambda: 1)
        serial = run_trials(cfg, demo_small, 12, 8, 5)
        monkeypatch.setattr(linalg, "core_count", lambda: 4)
        forked = run_trials(cfg, demo_small, 12, 8, 5)
        assert reports_equal(serial, forked)
        assert all(np.array_equal(r.network.readout.beta, s.network.readout.beta)
                   for r, s in zip(serial, forked))

    def test_trial_subsets_are_stable(self, demo_small):
        # the first k reports do not depend on how many trials run in total
        cfg = RaMConfig(u=2.0)
        few = run_trials(cfg, demo_small, 8, 3, 6)
        many = run_trials(cfg, demo_small, 8, 10, 6)
        assert reports_equal(few, many[:3])

    def test_snapshots_capture_hidden_weights(self, demo_small):
        # each report carries the network it trained, whose hidden layer is
        # the one the trial's stream generates
        reports = run_trials(RaMConfig(u=2.0), demo_small, 7, 2, 7)
        for t, r in enumerate(reports):
            assert r.network.hidden.weights.shape == (1, 7)
            want = generate_hidden_layer(RaMConfig(u=2.0), demo_small.train.x, 7,
                                         RngStream(7).child(t))
            assert np.array_equal(r.network.hidden.weights, want.weights)

    def test_autoencoder_layers_ignore_targets(self, demo_small):
        # decoder weights come from the inputs alone, so changing the target
        # vector changes the fitted readout but not the hidden weights
        flipped = SampledProblem(
            train=Dataset(demo_small.train.x, -demo_small.train.y),
            test=Dataset(demo_small.test.x, -demo_small.test.y),
            normalization=demo_small.normalization,
        )
        for cfg in (Raem3Config(), Raem5Config()):
            ours = run_trials(cfg, demo_small, 10, 3, 8)
            theirs = run_trials(cfg, flipped, 10, 3, 8)
            for r, s in zip(ours, theirs):
                assert np.array_equal(r.network.hidden.weights, s.network.hidden.weights)

    def test_tuned_autoencoder_beats_mean_bias_variant(self, demo_full):
        # paired over 20 seeds at m=25 the tuned-interval variant wins
        tuned = run_trials(Raem1Config(u_ae=0.1), demo_full, 25, 20, 9)
        mean_bias = run_trials(Raem5Config(), demo_full, 25, 20, 9)
        a = np.array([r.rmse_test for r in tuned])
        b = np.array([r.rmse_test for r in mean_bias])
        assert a.mean() < b.mean()
        assert wilcoxon_signed_rank(a, b).p_value < 0.05

    def test_validation(self, demo_small):
        with pytest.raises(ConfigError):
            run_trials(RaMConfig(u=1.0), demo_small, 10, 0, 1)
        with pytest.raises(ConfigError):
            run_trials(RaMConfig(u=1.0), demo_small, 0, 1, 1)


class TestKfold:
    def test_partition_is_exact(self):
        folds = kfold_indices(23, 5, RngStream(1))
        assert len(folds) == 5
        all_val = np.concatenate([val for _, val in folds])
        assert sorted(all_val.tolist()) == list(range(23))
        for train, val in folds:
            assert np.intersect1d(train, val).size == 0
            assert len(train) + len(val) == 23

    def test_fold_sizes_balanced(self):
        folds = kfold_indices(101, 5, RngStream(2))
        sizes = sorted(len(val) for _, val in folds)
        assert sizes == [20, 20, 20, 20, 21]

    def test_deterministic(self):
        a = kfold_indices(40, 4, RngStream(3))
        b = kfold_indices(40, 4, RngStream(3))
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            kfold_indices(10, 1, RngStream(4))
        with pytest.raises(InvalidInputError):
            kfold_indices(3, 4, RngStream(4))


class TestSelectBest:
    def test_single_cell(self):
        cell = CvCell(m=10, interval=1.0, mean_rmse=0.5)
        assert select_best([cell]) is cell

    def test_ties_prefer_smaller_nodes_then_interval(self):
        table = [
            CvCell(m=20, interval=1.0, mean_rmse=0.3),
            CvCell(m=10, interval=2.0, mean_rmse=0.3),
            CvCell(m=10, interval=1.0, mean_rmse=0.3),
        ]
        best = select_best(table)
        assert best.m == 10 and best.interval == 1.0

    def test_scaling_rmse_does_not_change_winner(self):
        rng = np.random.default_rng(5)
        table = [
            CvCell(m=int(m), interval=float(u), mean_rmse=float(r))
            for m, u, r in zip(
                rng.integers(5, 50, size=12),
                rng.uniform(0.1, 10, size=12),
                rng.uniform(0.01, 1.0, size=12),
            )
        ]
        scaled = [
            CvCell(m=c.m, interval=c.interval, mean_rmse=c.mean_rmse * 37.5)
            for c in table
        ]
        a, b = select_best(table), select_best(scaled)
        assert (a.m, a.interval) == (b.m, b.interval)

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            select_best([])


class TestCrossValidate:
    def planted_problem(self):
        gen_rng = RngStream(50)
        x = gen_rng.child(0).generator().uniform(size=(600, 2))
        layer = generate_ram(RaMConfig(u=8.0), x, 40, gen_rng.child(1))
        beta = gen_rng.child(2).generator().normal(size=40)
        return Dataset(x, hidden_outputs(layer, x) @ beta)

    def test_single_cell_returned(self, demo_small):
        grid = GridSearchConfig(node_counts=[15], interval_grid=[2.0])
        table = cross_validate(grid, {"method": "ram"}, demo_small.train, 1)
        assert select_best(table).m == 15 and select_best(table).interval == 2.0
        assert len(table) == 1

    def test_planted_interval_wins(self):
        # data generated by steepness-8 sigmoids: the matching grid cell
        # must beat both the flat and the near-step alternatives
        grid = GridSearchConfig(node_counts=[25], interval_grid=[0.08, 8.0, 800.0])
        table = cross_validate(grid, {"method": "ram"}, self.planted_problem(), 60)
        assert select_best(table).interval == 8.0

    def test_table_covers_grid(self, demo_small):
        grid = GridSearchConfig(node_counts=[5, 10], interval_grid=[30.0, 60.0])
        table = cross_validate(grid, {"method": "ralpham"}, demo_small.train, 2)
        assert {(c.m, c.interval) for c in table} == {
            (5, 30.0), (5, 60.0), (10, 30.0), (10, 60.0)
        }
        assert all(c.mean_rmse >= 0 for c in table)

    def test_untuned_family_ignores_interval_grid(self, demo_small):
        grid = GridSearchConfig(node_counts=[5, 10])
        table = cross_validate(grid, {"method": "raem5"}, demo_small.train, 3)
        assert len(table) == 2
        assert all(c.interval is None for c in table)

    def test_deterministic(self, demo_small):
        grid = GridSearchConfig(node_counts=[8], interval_grid=[45.0])
        a = cross_validate(grid, {"method": "ralpham"}, demo_small.train, 4)
        b = cross_validate(grid, {"method": "ralpham"}, demo_small.train, 4)
        assert a[0].mean_rmse == b[0].mean_rmse

    def test_parallel_matches_serial(self, demo_small, monkeypatch):
        grid = GridSearchConfig(node_counts=[5, 9], interval_grid=[1.0, 4.0])
        monkeypatch.setattr(linalg, "core_count", lambda: 1)
        a = cross_validate(grid, {"method": "ram"}, demo_small.train, 5)
        monkeypatch.setattr(linalg, "core_count", lambda: 4)
        b = cross_validate(grid, {"method": "ram"}, demo_small.train, 5)
        assert [(c.m, c.interval, c.mean_rmse) for c in a] == [
            (c.m, c.interval, c.mean_rmse) for c in b
        ]

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            GridSearchConfig(node_counts=[])
        with pytest.raises(ConfigError):
            GridSearchConfig(node_counts=[5], folds=1)
        with pytest.raises(ConfigError):
            GridSearchConfig(node_counts=[5], trials_per_cell=0)


class TestUaeSweep:
    def test_points_line_up_with_grid(self, demo_small):
        values = [0.01, 0.1, 1.0]
        points = uae_sweep(demo_small, 10, values, 3, 11)
        assert [p.u_ae for p in points] == values
        assert all(p.median_abs_weight > 0 for p in points)
        assert all(np.isfinite(p.mean_rmse) for p in points)

    def test_deterministic(self, demo_small):
        a = uae_sweep(demo_small, 10, [0.05, 0.5], 3, 12)
        b = uae_sweep(demo_small, 10, [0.05, 0.5], 3, 12)
        assert [(p.median_abs_weight, p.mean_rmse) for p in a] == [
            (p.median_abs_weight, p.mean_rmse) for p in b
        ]

    def test_unit_interval_weight_scale(self, demo_full):
        # at u_ae = 1 and m = 25 the decoder weights sit near magnitude 1.5
        points = uae_sweep(demo_full, 25, [1.0], 5, 13)
        assert abs(points[0].median_abs_weight - 1.5) <= 1.0

    def test_empty_grid_rejected(self, demo_small):
        with pytest.raises(ConfigError):
            uae_sweep(demo_small, 10, [], 3, 14)

    def test_points_are_the_method_dict_at_each_u_ae(self, demo_small):
        # a point keeps every key of the method dict but u_ae, which it sets
        def sweep(method=None):
            return uae_sweep(demo_small, 10, [0.05, 0.5], 2, 15, method=method)

        assert sweep() == sweep({"method": "raem1"}) == sweep({"method": "raem1", "u_ae": 3})
        uniform = sweep({"method": "raem1", "anchor": "uniform"})
        assert uniform != sweep()
        assert [p.u_ae for p in uniform] == [0.05, 0.5]

    @pytest.mark.parametrize("method", [{"method": "ram", "u": 1.0}, {"method": "raem2"}])
    def test_other_methods_rejected_before_any_fit(self, monkeypatch, demo_small, method):
        def no_fit(fit, count):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(trials, "_fork_map", no_fit)
        with pytest.raises(ConfigError, match="raem1"):
            uae_sweep(demo_small, 10, [0.5], 3, 14, method=method)

    @pytest.mark.parametrize("values", [[0.5, 0.0], [-1.0], [0.1, 0.1]])
    def test_nonpositive_value_rejected_before_any_fit(self, monkeypatch, demo_small, values):
        def no_fit(fit, count):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(trials, "_fork_map", no_fit)
        with pytest.raises(ConfigError, match="u_ae"):
            uae_sweep(demo_small, 10, values, 3, 14)


def test_cell_means_are_the_means_of_direct_fits(demo_small):
    # a grid cell's mean RMSE and a sweep point's two means are np.mean, in
    # trial order, of fit_trial run directly on that cell's own streams:
    # (1, ci, f, t) of the grid search's seed, (k, t) of the sweep's
    stream = RngStream(31)
    train = demo_small.train
    grid = GridSearchConfig(node_counts=[5, 9], interval_grid=[1.0, 4.0], folds=2,
                            trials_per_cell=2)
    table = cross_validate(grid, {"method": "ram"}, train, stream)
    splits = [(train.subset(tr), train.subset(va))
              for tr, va in kfold_indices(train.n_samples, 2, stream.child(0, 0))]
    cells = [(m, u) for m in (5, 9) for u in (1.0, 4.0)]
    assert [(c.m, c.interval) for c in table] == cells
    for ci, ((m, u), cell) in enumerate(zip(cells, table)):
        method = method_with_interval({"method": "ram"}, u)
        errs = [fit_trial(method, *splits[f], m, stream.child(1, ci, f, t))[1]
                for f in range(2) for t in range(2)]
        assert cell.mean_rmse == float(np.mean(errs))

    points = uae_sweep(demo_small, 6, [0.05, 0.5], 2, stream)
    assert [p.u_ae for p in points] == [0.05, 0.5]
    for k, point in enumerate(points):
        fits = [fit_trial(Raem1Config(u_ae=point.u_ae), train, demo_small.test, 6,
                          stream.child(k, t)) for t in range(2)]
        assert point.median_abs_weight == float(
            np.mean([median(np.abs(net.hidden.weights)) for net, _ in fits]))
        assert point.mean_rmse == float(np.mean([err for _, err in fits]))
