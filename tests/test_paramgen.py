"""Anchor kinds and the two direct weight generators."""

import math

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from randnet.errors import ConfigError
from randnet.model import HiddenLayer, hidden_outputs
from randnet.paramgen import (
    MAX_ABS_SLOPE_WEIGHT,
    RaMConfig,
    RAlphaMConfig,
    anchor_points,
    anchored_biases,
    generate_ram,
    generate_ralpham,
)
from randnet.rng import RngStream


def training_cloud(seed=0, n=2, rows=300):
    return np.random.default_rng(seed).uniform(size=(rows, n))


def inside_bounds(points, x) -> bool:
    """Every point lies in the bounding box of the rows of ``x``."""
    return bool(np.all(points >= x.min(axis=0)) and np.all(points <= x.max(axis=0)))


class TestAnchorPoints:
    def test_uniform_policy_stays_in_cube(self):
        x = np.array([[2.0, -1.0], [3.0, 4.0], [2.5, 0.0]])
        pts = anchor_points("uniform", x, 200, RngStream(3))
        assert pts.shape == (200, 2)
        assert inside_bounds(pts, x)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 50),
        cols=st.integers(1, 5),
        constant=st.booleans(),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=1, cols=3, constant=False, m=5, seed=0)
    @example(rows=20, cols=1, constant=True, m=5, seed=1)
    def test_uniform_anchors_are_one_draw_in_the_bounding_box(self, rows, cols, constant, m,
                                                              seed):
        # the box is the training inputs' own: per-column min and max, a
        # constant column and a single row giving zero-width sides
        x = np.random.default_rng(seed).normal(scale=3.0, size=(rows, cols))
        if constant:
            x[:, -1] = 0.7
        pts = anchor_points("uniform", x, m, RngStream(seed))
        want = RngStream(seed).generator().uniform(x.min(0), x.max(0), size=(m, cols))
        assert pts.tobytes() == want.tobytes()
        assert inside_bounds(pts, x)

    def test_train_point_policy_returns_training_rows(self):
        x = training_cloud(2)
        pts = anchor_points("train-point", x, 50, RngStream(4))
        rows = {tuple(r) for r in x}
        assert all(tuple(p) in rows for p in pts)

    def test_cluster_policy_with_k_equal_n_returns_the_points(self):
        x = training_cloud(5, rows=12)
        pts = anchor_points("cluster", x, 12, RngStream(5))
        got = sorted(map(tuple, np.round(pts, 12)))
        want = sorted(map(tuple, np.round(x, 12)))
        assert got == want

    def test_cluster_policy_finds_separated_blobs(self):
        rng = np.random.default_rng(6)
        blob_a = rng.normal(loc=0.1, scale=0.01, size=(80, 2))
        blob_b = rng.normal(loc=0.9, scale=0.01, size=(80, 2))
        x = np.vstack([blob_a, blob_b])
        pts = anchor_points("cluster", x, 2, RngStream(6))
        centers = sorted(pts[:, 0].tolist())
        assert abs(centers[0] - 0.1) < 0.05 and abs(centers[1] - 0.9) < 0.05

    def test_cluster_policy_needs_enough_points(self):
        with pytest.raises(ConfigError):
            anchor_points("cluster", training_cloud(7, rows=5), 9, RngStream(7))

    def test_all_policies_stay_inside_hypercube(self):
        x = training_cloud(8)
        for kind in ("uniform", "train-point", "cluster"):
            pts = anchor_points(kind, x, 20, RngStream(8))
            assert inside_bounds(pts, x)

    def test_unknown_policy_rejected(self):
        # the last branch runs k-means for any kind that reaches it
        for kind in ("median", "Cluster", "", None):
            with pytest.raises(ConfigError, match="unknown anchor kind"):
                anchor_points(kind, training_cloud(9), 5, RngStream(9))


class TestAnchoredBiases:
    def test_hand_case(self):
        # a = 2, anchor 0.5 -> b = -1
        b = anchored_biases(np.array([[2.0]]), np.array([[0.5]]))
        assert b.tolist() == [-1.0]
        h = hidden_outputs(HiddenLayer(weights=[[2.0]], biases=b), [[0.5]])
        assert h[0, 0] == 0.5

    def test_bias_cancels_exactly(self):
        rng = np.random.default_rng(9)
        w = rng.normal(scale=30.0, size=(5, 64))
        anchors = rng.uniform(size=(64, 5))
        b = anchored_biases(w, anchors)
        for i in range(64):
            assert float(np.dot(w[:, i], anchors[i])) + b[i] == 0.0


class TestGenerateRam:
    def test_weights_within_interval(self):
        x = training_cloud(10)
        layer = generate_ram(RaMConfig(u=20.0), x, 800, RngStream(10))
        assert layer.weights.shape == (2, 800)
        assert np.all(np.abs(layer.weights) <= 20.0)

    def test_large_sample_mean_near_zero(self):
        x = training_cloud(11, n=4)
        layer = generate_ram(
            RaMConfig(u=1.0), x, 250_000, RngStream(11)
        )
        assert abs(layer.weights.mean()) <= 0.005

    def test_nodes_output_half_at_their_anchors(self):
        x = training_cloud(12)
        rng = RngStream(12)
        layer = generate_ram(RaMConfig(u=5.0), x, 100, rng)
        # anchors are drawn from child stream 1, per the generator contract
        anchors = anchor_points("train-point", x, 100, rng.child(1))
        h = hidden_outputs(layer, anchors)
        assert np.max(np.abs(np.diag(h) - 0.5)) <= 1e-12

    def test_determinism(self):
        x = training_cloud(13)
        a = generate_ram(RaMConfig(u=2.0), x, 30, RngStream(13))
        b = generate_ram(RaMConfig(u=2.0), x, 30, RngStream(13))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_invalid_interval(self):
        # the draw needs the width 2u finite: 2e308 overflows, 1.6e308 does not
        for u in (0.0, 1e308, math.inf, math.nan):
            with pytest.raises(ConfigError):
                RaMConfig(u=u)
        RaMConfig(u=8e307)


class TestGenerateRalpham:
    def test_narrow_band_at_45_degrees_gives_slope_4(self):
        x = training_cloud(14)
        cfg = RAlphaMConfig(alpha_min_deg=44.999, alpha_max_deg=45.001)
        layer = generate_ralpham(cfg, x, 500, RngStream(14))
        assert np.all(np.abs(np.abs(layer.weights) - 4.0) < 4e-4)

    def test_band_near_14_degrees_matches_unit_interval(self):
        # |a| ~ 1 at alpha ~ 14 deg, the angle band equivalent to u = 1
        x = training_cloud(15)
        cfg = RAlphaMConfig(alpha_min_deg=13.9, alpha_max_deg=14.1)
        layer = generate_ralpham(cfg, x, 500, RngStream(15))
        mags = np.abs(layer.weights)
        assert np.all((mags > 0.989) & (mags < 1.005))
        assert abs(math.degrees(math.atan(0.25)) - 14.0) < 0.05

    def test_angles_recovered_from_weights_are_in_band(self):
        x = training_cloud(16)
        cfg = RAlphaMConfig(alpha_max_deg=90.0)
        layer = generate_ralpham(cfg, x, 50_000, RngStream(16))
        deg = np.degrees(np.arctan(np.abs(layer.weights) / 4.0))
        assert np.all((deg >= 0.0) & (deg < 90.0))
        # angle distribution should be close to uniform: quartile occupancy
        counts = np.histogram(deg, bins=[0.0, 22.5, 45.0, 67.5, 90.0])[0]
        assert np.all(np.abs(counts / deg.size - 0.25) < 0.02)

    def test_median_absolute_weight_is_four(self):
        x = training_cloud(17, n=4)
        cfg = RAlphaMConfig(alpha_max_deg=90.0)
        layer = generate_ralpham(cfg, x, 50_000, RngStream(17))
        assert abs(np.median(np.abs(layer.weights)) - 4.0) < 0.1

    def test_sign_symmetry(self):
        x = training_cloud(18)
        cfg = RAlphaMConfig(alpha_max_deg=89.0)
        layer = generate_ralpham(cfg, x, 50_000, RngStream(18))
        w = layer.weights[layer.weights != 0.0]
        pos = int(np.sum(w > 0))
        # two-sided sign test via the normal approximation
        z = abs(pos - w.size / 2.0) / (math.sqrt(w.size) / 2.0)
        p = math.erfc(z / math.sqrt(2.0))
        assert p > 0.01

    def test_magnitudes_capped_below_90_degree_pole(self):
        x = training_cloud(19)
        cfg = RAlphaMConfig(alpha_max_deg=90.0)
        layer = generate_ralpham(cfg, x, 20_000, RngStream(19))
        assert np.all(np.isfinite(layer.weights))
        assert np.max(np.abs(layer.weights)) <= MAX_ABS_SLOPE_WEIGHT

    def test_nodes_output_half_at_their_anchors(self):
        x = training_cloud(20)
        rng = RngStream(20)
        layer = generate_ralpham(RAlphaMConfig(alpha_max_deg=89.0), x, 100, rng)
        anchors = anchor_points("train-point", x, 100, rng.child(1))
        h = hidden_outputs(layer, anchors)
        assert np.max(np.abs(np.diag(h) - 0.5)) <= 1e-12

    def test_determinism(self):
        x = training_cloud(21)
        cfg = RAlphaMConfig(alpha_max_deg=70.0)
        a = generate_ralpham(cfg, x, 40, RngStream(21))
        b = generate_ralpham(cfg, x, 40, RngStream(21))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_invalid_angle_bounds(self):
        with pytest.raises(ConfigError):
            RAlphaMConfig(alpha_max_deg=91.0)
        with pytest.raises(ConfigError):
            RAlphaMConfig(alpha_max_deg=10.0, alpha_min_deg=10.0)
        with pytest.raises(ConfigError):
            RAlphaMConfig(alpha_max_deg=50.0, alpha_min_deg=-1.0)
