"""Network evaluation, readout training, and serialization."""

import math

import numpy as np
import pytest

from randnet.dataio import NormalizationSpec
from randnet.errors import InvalidInputError
from randnet.linalg import SolverConfig
from randnet.model import (
    HiddenLayer,
    ReadoutWeights,
    TrainedNetwork,
    hidden_outputs,
    load_network,
    predict,
    rmse,
    save_network,
    sigmoid,
    train_readout,
)


def random_layer(rng, n, m, scale=3.0):
    return HiddenLayer(
        weights=rng.normal(scale=scale, size=(n, m)),
        biases=rng.normal(scale=scale, size=m),
    )


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(50.0) - 1.0) <= 1e-15
        assert sigmoid(-50.0) <= 1e-15

    def test_log_three_maps_to_three_quarters(self):
        assert abs(sigmoid(math.log(3.0)) - 0.75) <= 1e-15

    def test_strictly_inside_unit_interval(self):
        vals = sigmoid(np.array([-800.0, -40.0, 0.0, 40.0, 800.0]))
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_monotone(self):
        grid = sigmoid(np.linspace(-30, 30, 401))
        assert np.all(np.diff(grid) >= 0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(sigmoid(1.2), float)
        assert sigmoid(np.ones((2, 3))).shape == (2, 3)

    def test_bitwise_equal_to_two_branch_formula(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([
            rng.normal(scale=10.0, size=20000), rng.uniform(-800.0, 800.0, size=20000),
            [0.0, -0.0, 800.0, -800.0, 709.0, -745.0, 5e-324, -5e-324, np.inf, -np.inf],
        ])
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        np.clip(want, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=want)
        assert sigmoid(z).tobytes() == want.tobytes()

    def test_argument_left_alone_unless_passed_as_out(self):
        z = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        before = z.copy()
        fresh = sigmoid(z)
        assert np.array_equal(z, before)
        assert sigmoid(z, out=z) is z
        assert z.tobytes() == fresh.tobytes()


class TestHiddenOutputs:
    def test_single_node_at_origin(self):
        layer = HiddenLayer(weights=[[1.0]], biases=[0.0])
        assert hidden_outputs(layer, [[0.0]])[0, 0] == 0.5

    def test_anchored_node_outputs_half(self):
        rng = np.random.default_rng(0)
        w = rng.normal(scale=5.0, size=(4, 6))
        anchors = rng.uniform(size=(6, 4))
        b = np.array([-w[:, i] @ anchors[i] for i in range(6)])
        h = hidden_outputs(HiddenLayer(weights=w, biases=b), anchors)
        assert np.max(np.abs(np.diag(h) - 0.5)) <= 1e-12

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        layer = random_layer(rng, 4, 3)
        x = rng.normal(size=(5, 4))
        h = hidden_outputs(layer, x)
        for l in range(5):
            for i in range(3):
                z = sum(layer.weights[j, i] * x[l, j] for j in range(4))
                z += layer.biases[i]
                want = 1.0 / (1.0 + math.exp(-z))
                assert abs(h[l, i] - want) <= 1e-14

    def test_outputs_strictly_inside_unit_interval(self):
        layer = HiddenLayer(weights=[[1e5], [-1e5]], biases=[0.0])
        h = hidden_outputs(layer, [[100.0, -100.0], [-100.0, 100.0]])
        assert np.all(h > 0.0) and np.all(h < 1.0)

    def test_dimension_mismatch(self):
        layer = HiddenLayer(weights=[[1.0], [2.0]], biases=[0.0])
        with pytest.raises(InvalidInputError):
            hidden_outputs(layer, [[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidInputError):
            hidden_outputs(layer, [1.0, 2.0])

    def test_row_blocks_evaluate_bit_identically(self):
        # evaluating any partition of the rows must reproduce the full result
        # exactly, so parallel row-sharded evaluation is safe
        rng = np.random.default_rng(2)
        layer = random_layer(rng, 5, 11)
        x = rng.normal(size=(97, 5))
        full = hidden_outputs(layer, x)
        for cut in (1, 13, 48, 96):
            parts = np.vstack(
                [hidden_outputs(layer, x[:cut]), hidden_outputs(layer, x[cut:])]
            )
            assert np.array_equal(full, parts)

    def test_node_permutation_permutes_columns_exactly(self):
        rng = np.random.default_rng(3)
        layer = random_layer(rng, 3, 8)
        x = rng.normal(size=(20, 3))
        perm = rng.permutation(8)
        shuffled = HiddenLayer(
            weights=layer.weights[:, perm], biases=layer.biases[perm]
        )
        assert np.array_equal(
            hidden_outputs(shuffled, x), hidden_outputs(layer, x)[:, perm]
        )


class TestTrainReadout:
    def test_square_invertible_interpolates(self):
        rng = np.random.default_rng(4)
        layer = random_layer(rng, 2, 5, scale=1.5)
        x = rng.uniform(size=(5, 2))
        y = rng.normal(size=5)
        beta = train_readout(layer, x, y).beta
        assert np.max(np.abs(hidden_outputs(layer, x) @ beta - y)) <= 1e-10

    def test_planted_solution_recovered(self):
        rng = np.random.default_rng(5)
        layer = random_layer(rng, 3, 6, scale=1.5)
        x = rng.uniform(size=(40, 3))
        planted = rng.normal(size=6)
        y = hidden_outputs(layer, x) @ planted
        beta = train_readout(layer, x, y).beta
        assert np.max(np.abs(beta - planted)) <= 1e-8

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(6)
        layer = random_layer(rng, 2, 4)
        x = rng.uniform(size=(10, 2))
        beta = train_readout(layer, x, np.zeros(10)).beta
        assert np.max(np.abs(beta)) <= 1e-12

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(7)
        layer = random_layer(rng, 2, 8, scale=2.0)
        x = rng.uniform(size=(60, 2))
        y = np.sin(6.0 * x[:, 0]) + x[:, 1]
        net = TrainedNetwork(hidden=layer, readout=train_readout(layer, x, y))
        best = rmse(predict(net, x), y)
        for _ in range(100):
            other = ReadoutWeights(net.readout.beta + rng.normal(scale=0.05, size=8))
            alt = TrainedNetwork(hidden=layer, readout=other)
            assert rmse(predict(alt, x), y) >= best

    def test_target_length_mismatch(self):
        layer = HiddenLayer(weights=[[1.0]], biases=[0.0])
        with pytest.raises(InvalidInputError):
            train_readout(layer, [[0.0], [1.0]], [1.0, 2.0, 3.0])

    def test_fitted_values_equal_predict(self):
        rng = np.random.default_rng(9)
        layer = random_layer(rng, 2, 7)
        x = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        readout, fitted = train_readout(layer, x, y, return_fitted=True)
        assert np.array_equal(readout.beta, train_readout(layer, x, y).beta)
        net = TrainedNetwork(hidden=layer, readout=readout)
        assert fitted.tobytes() == predict(net, x).tobytes()

    def test_ridge_config_is_honored(self):
        rng = np.random.default_rng(8)
        layer = random_layer(rng, 2, 6)
        x = rng.uniform(size=(30, 2))
        y = rng.normal(size=30)
        plain = train_readout(layer, x, y).beta
        ridged = train_readout(layer, x, y, SolverConfig(ridge_lambda=10.0)).beta
        assert np.linalg.norm(ridged) < np.linalg.norm(plain)


class TestPredict:
    def test_zero_readout(self):
        layer = HiddenLayer(weights=[[1.0, 2.0]], biases=[0.0, 1.0])
        net = TrainedNetwork(hidden=layer, readout=ReadoutWeights([0.0, 0.0]))
        assert np.array_equal(predict(net, [[0.3], [0.7]]), [0.0, 0.0])

    def test_single_node_at_anchor(self):
        # bias anchored at x* = 0.25, readout weight 2 -> prediction 2 * 0.5
        layer = HiddenLayer(weights=[[3.0]], biases=[-3.0 * 0.25])
        net = TrainedNetwork(hidden=layer, readout=ReadoutWeights([2.0]))
        assert predict(net, [[0.25]])[0] == 1.0

    def test_matches_oracle_loop(self):
        rng = np.random.default_rng(9)
        layer = random_layer(rng, 3, 5)
        net = TrainedNetwork(hidden=layer, readout=ReadoutWeights(rng.normal(size=5)))
        x = rng.normal(size=(10, 3))
        got = predict(net, x)
        h = hidden_outputs(layer, x)
        for l in range(10):
            want = sum(net.readout.beta[i] * h[l, i] for i in range(5))
            assert abs(got[l] - want) <= 1e-14

    def test_permuting_nodes_preserves_predictions(self):
        rng = np.random.default_rng(10)
        layer = random_layer(rng, 2, 7)
        beta = rng.normal(size=7)
        x = rng.normal(size=(15, 2))
        perm = rng.permutation(7)
        net = TrainedNetwork(hidden=layer, readout=ReadoutWeights(beta))
        shuffled = TrainedNetwork(
            hidden=HiddenLayer(weights=layer.weights[:, perm], biases=layer.biases[perm]),
            readout=ReadoutWeights(beta[perm]),
        )
        assert np.max(np.abs(predict(net, x) - predict(shuffled, x))) <= 1e-12


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        # mean squared difference (9 + 16) / 2 = 12.5
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - 3.5355339059327378) <= 1e-15

    def test_unit_difference(self):
        assert rmse([1.0], [0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            rmse([1.0, 2.0], [1.0])


class TestValidation:
    def test_bad_layer_shapes(self):
        with pytest.raises(InvalidInputError):
            HiddenLayer(weights=[1.0, 2.0], biases=[0.0])
        with pytest.raises(InvalidInputError):
            HiddenLayer(weights=[[1.0, 2.0]], biases=[0.0])
        with pytest.raises(InvalidInputError):
            HiddenLayer(weights=[[np.nan]], biases=[0.0])

    def test_readout_length_checked(self):
        layer = HiddenLayer(weights=[[1.0, 2.0]], biases=[0.0, 0.0])
        with pytest.raises(InvalidInputError):
            TrainedNetwork(hidden=layer, readout=ReadoutWeights([1.0]))

    def test_layer_arrays_frozen(self):
        layer = HiddenLayer(weights=[[1.0]], biases=[0.0])
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 2.0


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(11)
        layer = random_layer(rng, 3, 4)
        spec = NormalizationSpec(
            input_scale=rng.uniform(0.5, 2.0, size=3),
            input_offset=rng.normal(size=3),
            output_scale=1.7,
            output_offset=-0.3,
            input_range=(0.0, 1.0),
            output_range=(-1.0, 1.0),
        )
        net = TrainedNetwork(
            hidden=layer,
            readout=ReadoutWeights(rng.normal(size=4)),
            normalization=spec,
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert np.array_equal(back.hidden.weights, net.hidden.weights)
        assert np.array_equal(back.hidden.biases, net.hidden.biases)
        assert np.array_equal(back.readout.beta, net.readout.beta)
        assert back.normalization.to_dict() == spec.to_dict()

    def test_round_trip_without_normalization(self, tmp_path):
        layer = HiddenLayer(weights=[[0.1, -0.2]], biases=[0.3, 0.4])
        net = TrainedNetwork(hidden=layer, readout=ReadoutWeights([1.0, -1.0]))
        path = tmp_path / "net.json"
        save_network(net, path)
        assert load_network(path).normalization is None
