"""Benchmark functions, problem sampling, and normalization plumbing."""

import math

import numpy as np
import pytest

from randnet.benchfn import (
    SampledProblem,
    TargetFunction,
    demo_problem_1d,
    evaluate_tf,
    sample_problem,
)
from randnet.dataio import dataset_summary
from randnet.errors import ConfigError, InvalidInputError
from randnet.rng import RngStream


class TestEvaluate:
    def test_first_function_vanishes_at_origin(self):
        tf = TargetFunction("TF1", 3)
        assert evaluate_tf(tf, [[0.0, 0.0, 0.0]])[0] == 0.0

    def test_second_function_vanishes_at_origin(self):
        tf = TargetFunction("TF2", 2)
        assert evaluate_tf(tf, [[0.0, 0.0]])[0] == 0.0

    def test_third_function_near_zero_at_known_minimizer(self):
        got = evaluate_tf(TargetFunction("TF3", 1), [[420.9687]])[0]
        assert abs(got - 1.272783748618167e-05) <= 1e-12
        assert abs(got) < 1e-4

    def test_first_function_half_point(self):
        got = evaluate_tf(TargetFunction("TF1", 1), [[0.5]])[0]
        assert abs(got - 0.24998109683268843) <= 1e-15

    def test_second_function_closed_form_point(self):
        # at (pi/2, pi/2): -(sin^20(pi/4) + sin^20(pi/2)) = -(2^-10 + 1)
        got = evaluate_tf(TargetFunction("TF2", 2), [[math.pi / 2, math.pi / 2]])[0]
        assert abs(got - (-1.0009765625)) <= 1e-14

    def test_separable_functions_sum_over_coordinates(self):
        pts = np.array([[0.21], [0.58], [0.93]])
        single = evaluate_tf(TargetFunction("TF1", 1), pts)
        joint = evaluate_tf(TargetFunction("TF1", 3), pts.T)
        assert abs(joint[0] - single.sum()) <= 1e-12

    def test_matches_per_point_loop(self):
        rng = np.random.default_rng(0)
        tf = TargetFunction("TF2", 3)
        x = rng.uniform(0.0, math.pi, size=(20, 3))
        got = evaluate_tf(tf, x)
        for l in range(20):
            want = -sum(
                math.sin(x[l, j]) * math.sin((j + 1) * x[l, j] ** 2 / math.pi) ** 20
                for j in range(3)
            )
            assert abs(got[l] - want) <= 1e-13

    def test_domain_enforced(self):
        with pytest.raises(InvalidInputError):
            evaluate_tf(TargetFunction("TF1", 1), [[1.001]])
        with pytest.raises(InvalidInputError):
            evaluate_tf(TargetFunction("TF2", 1), [[-0.1]])
        evaluate_tf(TargetFunction("TF3", 1), [[-500.0], [500.0]])  # borders ok
        with pytest.raises(InvalidInputError):
            evaluate_tf(TargetFunction("TF3", 1), [[500.1]])

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError):
            TargetFunction("TF9", 2)

    def test_border_variance_exceeds_central_variance(self):
        # the third function has its biggest swings near the domain border
        rng = np.random.default_rng(1)
        tf = TargetFunction("TF3", 2)
        x = rng.uniform(-500.0, 500.0, size=(4000, 2))
        y = evaluate_tf(tf, x)
        central = np.all(np.abs(x) <= 250.0, axis=1)
        assert np.var(y[~central]) / np.var(y[central]) > 1.0


class TestSampling:
    def test_default_sizes(self):
        assert TargetFunction("TF1", 1).default_train_size == 5000
        assert TargetFunction("TF2", 2).default_train_size == 5000
        assert TargetFunction("TF2", 5).default_train_size == 20000
        assert TargetFunction("TF3", 10).default_train_size == 50000
        with pytest.raises(ConfigError):
            TargetFunction("TF1", 3).default_train_size

    def test_two_dimensional_problem_sizes(self):
        prob = sample_problem(TargetFunction("TF1", 2), RngStream(2))
        assert prob.train.n_samples == 5000
        assert prob.test.n_samples == 5000

    def test_normalized_ranges(self):
        prob = sample_problem(
            TargetFunction("TF3", 2), RngStream(3), train_size=800, test_size=400
        )
        assert np.all(prob.train.x >= 0.0) and np.all(prob.train.x <= 1.0)
        assert prob.train.y.min() == -1.0 and prob.train.y.max() == 1.0
        # test rows use the train maps, so they may poke slightly outside
        assert np.all(prob.test.x >= -0.01) and np.all(prob.test.x <= 1.01)

    def test_test_set_uses_training_normalization(self):
        prob = sample_problem(
            TargetFunction("TF1", 1), RngStream(4), train_size=500, test_size=500
        )
        raw_test = prob.normalization.invert_inputs(prob.test.x)
        y_again = evaluate_tf(TargetFunction("TF1", 1), raw_test)
        np.testing.assert_allclose(
            prob.normalization.apply_output(y_again), prob.test.y, atol=1e-9
        )

    def test_normalization_round_trip(self):
        prob = sample_problem(
            TargetFunction("TF3", 3), RngStream(5), train_size=300, test_size=100
        )
        raw = prob.normalization.invert_inputs(prob.train.x)
        back = prob.normalization.apply_inputs(raw)
        np.testing.assert_allclose(back, prob.train.x, atol=1e-12)

    def test_reapplying_normalization_is_deterministic(self):
        prob = sample_problem(
            TargetFunction("TF1", 2), RngStream(6), train_size=200, test_size=50
        )
        raw = prob.normalization.invert_inputs(prob.train.x)
        assert np.array_equal(
            prob.normalization.apply_inputs(raw), prob.normalization.apply_inputs(raw)
        )

    def test_seed_determinism(self):
        a = sample_problem(TargetFunction("TF2", 2), RngStream(7), train_size=100)
        b = sample_problem(TargetFunction("TF2", 2), RngStream(7), train_size=100)
        assert np.array_equal(a.train.x, b.train.x)
        assert np.array_equal(a.test.y, b.test.y)
        c = sample_problem(TargetFunction("TF2", 2), RngStream(8), train_size=100)
        assert not np.array_equal(a.train.x, c.train.x)

    def test_train_and_test_draws_differ(self):
        prob = sample_problem(TargetFunction("TF1", 1), RngStream(9), train_size=50)
        assert not np.array_equal(prob.train.x, prob.test.x)

    def test_demo_problem_shape(self):
        prob = demo_problem_1d(10)
        assert isinstance(prob, SampledProblem)
        assert prob.train.n_features == 1
        assert prob.train.n_samples == 5000 and prob.test.n_samples == 5000

    def test_problems_carry_no_feature_names(self):
        # the x1..xn names are the defaults of the summary and the CSV writer,
        # so an n-long list is never built before the draw
        for name in ("TF1", "TF2", "TF3"):
            prob = sample_problem(TargetFunction(name, 3), RngStream(13), train_size=20)
            assert prob.train.feature_names is None and prob.test.feature_names is None
            columns = dataset_summary(prob.train)["columns"]
            assert [c["name"] for c in columns] == ["x1", "x2", "x3"]

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            sample_problem(TargetFunction("TF1", 1), RngStream(11), train_size=1)

