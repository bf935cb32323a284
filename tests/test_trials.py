"""Repeated trials, cross-validation, and the encoder-interval sweep."""

import numpy as np
import pytest

from randnet.dataio import Dataset
from randnet.errors import ConfigError, InvalidInputError
from randnet.benchfn import SampledProblem
from randnet.experiment import trials
from randnet.experiment.stats import wilcoxon_signed_rank
from randnet.experiment.trials import (
    CvCell,
    GridSearchConfig,
    cross_validate,
    kfold_indices,
    run_trials,
    select_best,
    uae_sweep,
)
from randnet.linalg import _openblas_handles
from randnet.model import hidden_outputs
from randnet.paramgen import RaMConfig, RAlphaMConfig, generate_ram, input_hypercube
from randnet.rae import Raem1Config, Raem3Config, Raem5Config
from randnet.rng import RngStream


def reports_equal(a, b):
    """Equality on everything except wall time, which is never reproducible."""
    if len(a) != len(b):
        return False
    for r, s in zip(a, b):
        if (r.trial, r.seed, r.rmse_train, r.rmse_test) != (
            s.trial, s.seed, s.rmse_train, s.rmse_test
        ):
            return False
        if (r.weights is None) != (s.weights is None):
            return False
        if r.weights is not None and not np.array_equal(r.weights, s.weights):
            return False
    return True


class TestWorkerPool:
    def test_workers_capped_at_core_count(self, monkeypatch):
        # a pool that records its size and runs in the calling thread
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(trials, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(trials.os, "cpu_count", lambda: 2)
        assert trials._map_units(lambda i: i * i, 6, 10**6) == [0, 1, 4, 9, 16, 25]
        assert trials._map_units(lambda i: i, 3, 2) == [0, 1, 2]
        assert sizes == [2, 2]
        monkeypatch.setattr(trials.os, "cpu_count", lambda: 1)
        assert trials._map_units(lambda i: i, 3, 10**6) == [0, 1, 2]
        assert sizes == [2, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_blas_on_one_thread_inside_and_restored_after(self, jobs):
        handles = _openblas_handles()
        if not handles:
            pytest.skip("no bundled OpenBLAS")
        saved = [get() for get, _ in handles]
        try:
            for _, set_ in handles:
                set_(2)
            seen = trials._map_units(lambda i: [get() for get, _ in handles], 2, jobs)
            assert seen == [[1] * len(handles)] * 2
            assert [get() for get, _ in handles] == [2] * len(handles)
        finally:
            for (_, set_), count in zip(handles, saved):
                set_(count)


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

    def test_parallel_execution_matches_serial(self, demo_small):
        cfg = Raem1Config(u_ae=0.5)
        serial = run_trials(cfg, demo_small, 12, 8, 5, snapshot_weights=True)
        threaded = run_trials(cfg, demo_small, 12, 8, 5, snapshot_weights=True, jobs=4)
        assert reports_equal(serial, threaded)

    def test_trial_subsets_are_stable(self, demo_small):
        # the first k reports do not depend on how many trials run in total
        cfg = RaMConfig(u=2.0)
        few = run_trials(cfg, demo_small, 8, 3, 6)
        many = run_trials(cfg, demo_small, 8, 10, 6)
        assert reports_equal(few, many[:3])

    def test_snapshots_capture_hidden_weights(self, demo_small):
        reports = run_trials(RaMConfig(u=2.0), demo_small, 7, 2, 7, snapshot_weights=True)
        assert all(r.weights is not None and r.weights.shape == (1, 7) for r in reports)
        bare = run_trials(RaMConfig(u=2.0), demo_small, 7, 2, 7)
        assert all(r.weights is None for r in bare)

    def test_autoencoder_layers_ignore_targets(self, demo_small):
        # decoder weights come from the inputs alone, so changing the target
        # vector changes the fitted readout but not the hidden weights
        flipped = SampledProblem(
            train=Dataset(demo_small.train.x, -demo_small.train.y),
            test=Dataset(demo_small.test.x, -demo_small.test.y),
            normalization=demo_small.normalization,
        )
        for cfg in (Raem3Config(), Raem5Config()):
            ours = run_trials(cfg, demo_small, 10, 3, 8, snapshot_weights=True)
            theirs = run_trials(cfg, flipped, 10, 3, 8, snapshot_weights=True)
            for r, s in zip(ours, theirs):
                assert np.array_equal(r.weights, s.weights)

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
        cube = input_hypercube(x)
        layer = generate_ram(RaMConfig(u=8.0), x, cube, 40, gen_rng.child(1))
        beta = gen_rng.child(2).generator().normal(size=40)
        return Dataset(x, hidden_outputs(layer, x) @ beta)

    def test_single_cell_returned(self, demo_small):
        grid = GridSearchConfig(node_counts=[15], interval_grid=[2.0], seed=1)
        res = cross_validate(grid, "ram", demo_small.train)
        assert res.best_m == 15 and res.best_interval == 2.0
        assert len(res.table) == 1

    def test_planted_interval_wins(self):
        # data generated by steepness-8 sigmoids: the matching grid cell
        # must beat both the flat and the near-step alternatives
        grid = GridSearchConfig(
            node_counts=[25], interval_grid=[0.08, 8.0, 800.0], seed=60
        )
        res = cross_validate(grid, "ram", self.planted_problem())
        assert res.best_interval == 8.0

    def test_table_covers_grid(self, demo_small):
        grid = GridSearchConfig(
            node_counts=[5, 10], interval_grid=[30.0, 60.0], seed=2
        )
        res = cross_validate(grid, "ralpham", demo_small.train)
        assert {(c.m, c.interval) for c in res.table} == {
            (5, 30.0), (5, 60.0), (10, 30.0), (10, 60.0)
        }
        assert all(c.mean_rmse >= 0 for c in res.table)

    def test_untuned_family_ignores_interval_grid(self, demo_small):
        grid = GridSearchConfig(node_counts=[5, 10], seed=3)
        res = cross_validate(grid, "raem5", demo_small.train)
        assert len(res.table) == 2
        assert all(c.interval is None for c in res.table)

    def test_deterministic(self, demo_small):
        grid = GridSearchConfig(node_counts=[8], interval_grid=[45.0], seed=4)
        a = cross_validate(grid, "ralpham", demo_small.train)
        b = cross_validate(grid, "ralpham", demo_small.train)
        assert a.table[0].mean_rmse == b.table[0].mean_rmse

    def test_parallel_matches_serial(self, demo_small):
        grid = GridSearchConfig(node_counts=[5, 9], interval_grid=[1.0, 4.0], seed=5)
        a = cross_validate(grid, "ram", demo_small.train)
        b = cross_validate(grid, "ram", demo_small.train, jobs=4)
        assert [(c.m, c.interval, c.mean_rmse) for c in a.table] == [
            (c.m, c.interval, c.mean_rmse) for c in b.table
        ]

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            GridSearchConfig(node_counts=[], seed=1)
        with pytest.raises(ConfigError):
            GridSearchConfig(node_counts=[5], folds=1, seed=1)
        with pytest.raises(ConfigError):
            GridSearchConfig(node_counts=[5], trials_per_cell=0, seed=1)


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
