"""Network evaluation, readout training, and serialization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randnet.benchfn import SampledProblem, demo_problem_1d
from randnet.dataio import Dataset, NormalizationSpec
from randnet.errors import InvalidInputError
from randnet import linalg, model
from randnet.experiment.trials import run_trials
from randnet.linalg import lstsq
from randnet.methods import generate_hidden_layer
from randnet.model import (
    HiddenLayer,
    ReadoutWeights,
    TrainedNetwork,
    build_hidden,
    hidden_outputs,
    load_network,
    predict,
    rmse,
    save_network,
    sigmoid,
    solve_readout,
    tile_rows,
    train_readout,
)
from randnet.paramgen import RaMConfig
from randnet.rae import Raem1Config
from randnet.rng import as_stream


def random_layer(rng, n, m, scale=3.0):
    return HiddenLayer(
        weights=rng.normal(scale=scale, size=(n, m)),
        biases=rng.normal(scale=scale, size=m),
    )


def two_branch_sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise,
    evaluated at max(z, -354) and clipped to the open unit interval."""
    z = np.maximum(np.asarray(z, dtype=float), -354.0)
    want = np.empty_like(z)
    pos = z >= 0
    with np.errstate(under="ignore"):
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
    want[~pos] = ez / (1.0 + ez)
    return np.clip(want, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def fixed_order_arguments(x, w, b):
    """Node arguments ``x @ w + b`` summed in a fixed order: ``b + x0 w0``,
    then ``+ xj wj`` left to right."""
    z = b + x[:, 0, np.newaxis] * w[0]
    for j in range(1, w.shape[0]):
        z += x[:, j, np.newaxis] * w[j]
    return z


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
        floored = np.maximum(z, -354.0)
        want = np.empty_like(z)
        pos = floored >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-floored[pos]))
        ez = np.exp(floored[~pos])
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
        scalar = np.array(-3.0)
        assert sigmoid(scalar, out=scalar) is scalar
        assert scalar.tobytes() == np.float64(sigmoid(-3.0)).tobytes()

    @pytest.mark.parametrize("lo, hi", [(-745.14, -700.0), (700.0, 746.0), (-746.0, -700.0)])
    def test_saturated_bands_bitwise_equal_to_two_branch_formula(self, lo, hi):
        # the subnormal band of exp(z) and the band where exp(-z) underflows
        z = np.concatenate([np.linspace(lo, hi, 20001), np.nextafter([lo, hi], 0.0)])
        assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()

    def test_special_values_bitwise_equal_to_two_branch_formula(self):
        z = np.array([37.0, -37.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                      36.7, -36.7, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300])
        assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()

    def test_in_place_and_strided_bitwise_equal_to_two_branch_formula(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(-900.0, 900.0, size=(64, 50))
        want = two_branch_sigmoid(z)
        inplace = z.copy()
        assert sigmoid(inplace, out=inplace) is inplace  # as _hidden_tile calls it
        assert inplace.tobytes() == want.tobytes()
        big = np.zeros((128, 150))
        big[::2, ::3] = z
        out = np.full((64, 100), -1.0)
        sigmoid(big[::2, ::3], out=out[:, ::2])
        assert np.ascontiguousarray(out[:, ::2]).tobytes() == want.tobytes()
        assert np.all(out[:, 1::2] == -1.0)
        sigmoid(z.T, out=big[::2, ::3].T)
        assert np.ascontiguousarray(big[::2, ::3]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("out", [
        pytest.param(np.zeros((3, 4), dtype=np.int64), id="int64"),
        pytest.param(np.zeros((3, 4), dtype=np.float32), id="float32"),
        pytest.param(np.zeros((4, 3)), id="transposed-shape"),
        pytest.param(np.zeros((2, 3, 4)), id="broadcast-shape"),
        pytest.param(np.zeros(12), id="flat"),
        pytest.param([[0.0] * 4] * 3, id="list"),
    ])
    def test_out_checked_before_it_is_written(self, out):
        z = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        before = np.array(out, copy=True)
        with pytest.raises(InvalidInputError, match="out must be a float64 array"):
            sigmoid(z, out=out)
        assert np.array_equal(np.asarray(out), before)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    def test_every_finite_or_infinite_value_bitwise_equal(self, values):
        z = np.array(values)
        assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()

    def test_saturated_positive_and_moderate_negative_never_underflow(self):
        # exp never sees an argument below -354; exp(-800) would underflow
        z = np.array([800.0, 1e300, np.inf, -700.0, -300.0, -1.0, 0.0])
        with np.errstate(under="raise"):
            out = sigmoid(z)
        assert out.tobytes() == two_branch_sigmoid(z).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_no_value_overflows_or_underflows(self, values):
        z = np.array(values + [np.inf, -np.inf, -746.0])
        with np.errstate(over="raise", under="raise"):
            sigmoid(z)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    def test_no_output_is_subnormal_nor_the_square_of_one(self, values):
        # so no entry of H, nor a product of two in the QR or a matvec, is
        # subnormal
        out = sigmoid(np.array(values + [-np.inf]))
        tiny = np.finfo(float).tiny
        assert np.all(out >= tiny)
        assert out.min() ** 2 >= tiny

    def test_saturated_raem1_layer_has_no_subnormal_entry(self):
        # the u_ae sweep's first point: TF1, n = 1, m = 25, u_ae = 1e-5,
        # where 42% of the node arguments lie below -745
        train = demo_problem_1d(21, train_size=5000, test_size=10).train
        layer = generate_hidden_layer(Raem1Config(u_ae=1e-5), train.x, 25, as_stream(21))
        h = np.empty((train.n_samples, 25))
        build_hidden(train.x, layer.weights, layer.biases, h)
        assert np.min(h) >= np.finfo(float).tiny


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

    @pytest.mark.parametrize("budget", [1, 2])
    def test_blocked_build_equals_one_block_build(self, monkeypatch, row_blocking, budget):
        # predict builds H in row tiles, here of 64 rows, and splits them
        # into row blocks: 1001 rows at min_rows 64 give 8 blocks of 2
        # tiles, the last tile ragged at 41 rows. The steep layer saturates
        # some entries, so the clip is covered too
        monkeypatch.setattr(model, "_TILE_ELEMS", 64 * 11)
        rng = np.random.default_rng(3)
        layer = random_layer(rng, 5, 11, scale=40.0)
        x = rng.normal(size=(1001, 5))
        net = TrainedNetwork(hidden=layer, readout=ReadoutWeights(rng.normal(size=11)))
        assert tile_rows(11) == 64
        one_block = predict(net, x)
        row_blocking(min_rows=64)
        assert len(linalg.row_blocks(1001, 11)) == 8
        with linalg.block_budget(budget):
            blocked = predict(net, x)
        assert blocked.tobytes() == one_block.tobytes()
        assert np.any(hidden_outputs(layer, x) == np.nextafter(1.0, 0.0))

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

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_build_into_c_and_f_targets_equals_one_shot_build(self, n):
        # 1000x120 builds in tiles of 512 and 488 rows; the arguments are
        # the bias-first, left-to-right sum, and a work tile shared by
        # mistake between the products and the sigmoid would move bits
        rng = np.random.default_rng(20 + n)
        w = rng.normal(scale=20.0, size=(n, 120))
        b = rng.normal(scale=5.0, size=120)
        x = rng.normal(size=(1000, n))
        z = fixed_order_arguments(x, w, b)
        want = np.tile(b, (1000, 1))
        for j in range(n):
            want += x[:, j, np.newaxis] * w[j]
        assert z.tobytes() == want.tobytes()
        want = sigmoid(z)
        for order in "CF":
            out = np.empty((1000, 120), order=order)
            build_hidden(x, w, b, out)
            assert out.tobytes(order="C") == want.tobytes()
        assert sigmoid(z, out=z) is z
        assert z.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 700),
        n=st.integers(1, 3),
        nodes=st.one_of(st.integers(1, 40), st.integers(41, 1100)),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("CF"),
    )
    def test_tiled_build_equals_one_shot_build(self, rows, n, nodes, extra, seed, order):
        # ragged last tiles, one-row inputs, tiles from 64 rows (nodes above
        # 64K / 64) up to one tile for all rows, and the H columns of a
        # wider buffer, whose other columns stay untouched: strided rows in
        # a C-ordered one, column panels, ragged too, in an F-ordered one
        step = tile_rows(nodes)
        assert step % 64 == 0 and step >= 64
        assert step == 64 or step * nodes <= 1 << 16
        rng = np.random.default_rng(seed)
        w = rng.normal(scale=20.0, size=(n, nodes))
        b = rng.normal(scale=5.0, size=nodes)
        x = rng.normal(size=(rows, n))
        z = fixed_order_arguments(x, w, b)
        want = sigmoid(z, out=z)
        buf = np.full((rows, nodes + extra), np.nan, order=order)
        build_hidden(x, w, b, buf[:, :nodes])
        assert buf[:, :nodes].tobytes() == want.tobytes()
        assert np.isnan(buf[:, nodes:]).all()


    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_column_major_build_holds_one_work_panel(self, n):
        # the H columns of a 5000x26 [H | y] buffer, as a uae-sweep-m25
        # readout builds them: one work panel of 65536 // 5000 = 13 columns
        # and, for n > 1, one column-major copy of x; no row tile besides
        rng = np.random.default_rng(30 + n)
        w = rng.normal(scale=20.0, size=(n, 25))
        b = rng.normal(scale=5.0, size=25)
        x = rng.normal(size=(5000, n))
        buf = np.empty((5000, 26), order="F")
        build_hidden(x, w, b, buf[:, :25])
        tracemalloc.start()
        try:
            build_hidden(x, w, b, buf[:, :25])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = 13 * 5000 * 8 + (5000 * n * 8 if n > 1 else 0)
        assert held <= peak < held + 16 * 1024
        assert buf[:, :25].tobytes(order="C") == hidden_outputs(
            HiddenLayer(weights=w, biases=b), x).tobytes()

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

    @staticmethod
    def assert_train_rmse_is_h_times_beta(rng, rows):
        # run_trials scores its train rows by predict, whose fitted values
        # are H @ beta bit for bit, and so is its train RMSE
        x = rng.uniform(size=(rows, 2))
        y = rng.normal(size=rows)
        problem = SampledProblem(train=Dataset(x, y), test=Dataset(x[:10], y[:10]),
                                 normalization=None)
        (report,) = run_trials(RaMConfig(u=3.0), problem, 120, 1, 9)
        layer, beta = report.network.hidden, report.network.readout.beta
        assert np.array_equal(beta, train_readout(layer, x, y).beta)
        fitted = hidden_outputs(layer, x) @ beta
        assert predict(report.network, x).tobytes() == fitted.tobytes()
        assert report.rmse_train == rmse(fitted, y)

    def test_fitted_values_equal_predict(self):
        # the 1000x120 fit is one block, predicted in tiles of 512 and 488
        # rows: the last tile is ragged
        assert len(linalg.row_blocks(1000, 120)) == 1 and tile_rows(120) == 512
        self.assert_train_rmse_is_h_times_beta(np.random.default_rng(9), 1000)

    def test_fitted_values_equal_predict_in_several_blocks(self, row_blocking):
        # at min_rows 64 the 2003x120 fit streams 4 blocks, which start at
        # rows 500, 1001 and 1502, and predicts its fitted values in 4 tiles
        # of 512 rows, the last of them ragged at 467
        row_blocking(min_rows=64)
        assert len(linalg.row_blocks(2003, 120)) == 4 and tile_rows(120) == 512
        self.assert_train_rmse_is_h_times_beta(np.random.default_rng(10), 2003)

    @pytest.mark.parametrize("min_rows", [None, 64])
    @pytest.mark.parametrize("budget", [1, 2])
    def test_streamed_readout_equals_lstsq_on_hidden_outputs(self, row_blocking, min_rows,
                                                              budget):
        # one block, and 8 blocks of 125 rows at min_rows 64; the shared
        # solve takes a 2-column target, as the autoencoder's decoder fit does.
        # A wide fit (30 rows, 50 nodes) is not streamed but is held to the
        # same equality.
        rng = np.random.default_rng(11)
        layer = random_layer(rng, 3, 20)
        x = rng.uniform(size=(1000, 3))
        y = np.sin(4.0 * x[:, 0]) + x[:, 2]
        targets = np.column_stack([y, x[:, 1]])
        if min_rows is not None:
            row_blocking(min_rows=min_rows)
        assert len(linalg.row_blocks(1000, 20)) == (1 if min_rows is None else 8)
        with linalg.block_budget(budget):
            beta = train_readout(layer, x, y).beta
            solution = solve_readout(layer, x, targets)
        h = hidden_outputs(layer, x)
        assert beta.tobytes() == lstsq(h, y).tobytes()
        assert solution.shape == (20, 2)
        assert solution.tobytes() == lstsq(h, targets).tobytes()

        wide = random_layer(rng, 3, 50)
        with linalg.block_budget(budget):
            beta = train_readout(wide, x[:30], y[:30]).beta
            solution = solve_readout(wide, x[:30], targets[:30])
        h = hidden_outputs(wide, x[:30])
        assert beta.shape == (50,)
        assert beta.tobytes() == lstsq(h, y[:30]).tobytes()
        assert solution.shape == (50, 2)
        assert solution.tobytes() == lstsq(h, targets[:30]).tobytes()

    def test_streamed_readout_never_holds_all_of_h(self, row_blocking):
        # 4000x100 in 8 blocks: H alone is 3.2 MB, one block's [H | y] 0.4 MB
        rng = np.random.default_rng(12)
        layer = random_layer(rng, 3, 100)
        x = rng.uniform(size=(4000, 3))
        y = rng.normal(size=4000)
        row_blocking(min_rows=256)
        assert len(linalg.row_blocks(4000, 100)) == 8
        tracemalloc.start()
        try:
            train_readout(layer, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 100 * 8

    def test_streamed_readout_holds_under_two_block_buffers(self):
        # 40000x50 in 8 blocks at block budget 1: one block's [H | y] is
        # 5000x51 floats, 2.04 MB, and the QR factorizes it where it lies
        rng = np.random.default_rng(14)
        layer = random_layer(rng, 2, 50)
        x = rng.uniform(size=(40000, 2))
        y = rng.normal(size=40000)
        assert len(linalg.row_blocks(40000, 50)) == 8
        tracemalloc.start()
        try:
            solve_readout(layer, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 5000 * 51 * 8

    def test_one_block_readout_holds_one_buffer(self):
        # 3000x400 is one block: its [H | t] buffer, 3000x402 floats, is the
        # only H-sized array the fit holds, where building H whole beside it
        # would hold about two
        rng = np.random.default_rng(15)
        layer = random_layer(rng, 3, 400)
        x = rng.uniform(size=(3000, 3))
        targets = rng.normal(size=(3000, 2))
        assert len(linalg.row_blocks(3000, 400)) == 1
        tracemalloc.start()
        try:
            solve_readout(layer, x, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 3000 * 402 * 8

    def test_non_finite_training_data_rejected(self):
        rng = np.random.default_rng(13)
        layer = random_layer(rng, 2, 5)
        x = rng.uniform(size=(30, 2))
        y = rng.normal(size=30)
        bad_x, bad_y = x.copy(), y.copy()
        bad_x[3, 1] = np.nan
        bad_y[7] = np.inf
        for args in ((bad_x, y), (x, bad_y)):
            with pytest.raises(InvalidInputError):
                train_readout(layer, *args)


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

    def test_empty_vectors_named(self):
        with pytest.raises(InvalidInputError, match="empty"):
            rmse([], [])


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
