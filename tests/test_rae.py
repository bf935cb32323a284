"""Autoencoder pretraining and the five bias-wiring variants."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randnet import linalg
from randnet.errors import ConfigError, DegenerateNodeError, InvalidInputError
from randnet.model import HiddenLayer, hidden_outputs, solve_readout
from randnet.paramgen import anchor_points, anchored_biases
from randnet.rae import (
    Raem1Config,
    Raem2Config,
    Raem3Config,
    Raem4Config,
    Raem5Config,
    inflection_hyperplane_offset,
    raem_hidden_layer,
)
from randnet.rng import RngStream

ALL_VARIANTS = (
    Raem1Config(u_ae=0.5),
    Raem2Config(),
    Raem3Config(),
    Raem4Config(),
    Raem5Config(),
)


class TestEncode:
    # the encoder is a HiddenLayer, and its code matrix G its hidden outputs
    def test_zero_parameters_give_half(self):
        encoder = HiddenLayer(weights=np.zeros((3, 4)), biases=np.zeros(4))
        g = hidden_outputs(encoder, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.all(g == 0.5)

    def test_anchored_encoder_outputs_half_at_anchor(self):
        rng = np.random.default_rng(1)
        w = rng.normal(scale=2.0, size=(3, 8))
        anchors = rng.uniform(size=(8, 3))
        c = np.array([-w[:, i] @ anchors[i] for i in range(8)])
        g = hidden_outputs(HiddenLayer(weights=w, biases=c), anchors)
        assert np.max(np.abs(np.diag(g) - 0.5)) <= 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        encoder = HiddenLayer(weights=rng.normal(size=(2, 3)), biases=rng.normal(size=3))
        x = rng.normal(size=(4, 2))
        g = hidden_outputs(encoder, x)
        for l in range(4):
            for i in range(3):
                z = encoder.biases[i] + sum(encoder.weights[j, i] * x[l, j] for j in range(2))
                assert abs(g[l, i] - 1.0 / (1.0 + math.exp(-z))) <= 1e-14

    def test_dimension_mismatch(self):
        encoder = HiddenLayer(weights=np.ones((2, 3)), biases=np.zeros(3))
        with pytest.raises(InvalidInputError):
            hidden_outputs(encoder, np.ones((4, 5)))


def random_encoder(rng, n, m):
    return HiddenLayer(weights=rng.normal(scale=2.0, size=(n, m)),
                       biases=rng.normal(size=m))


class TestDecode:
    # the decoder V is the encoder's least-squares readout: G V ~ target
    def test_square_invertible_reconstructs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        encoder = random_encoder(rng, 2, 6)
        v = solve_readout(encoder, x, x)
        assert np.max(np.abs(hidden_outputs(encoder, x) @ v - x)) <= 1e-9

    def test_planted_decoder_recovered(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        encoder = random_encoder(rng, 3, 5)
        planted = rng.normal(size=(5, 3))
        v = solve_readout(encoder, x, hidden_outputs(encoder, x) @ planted)
        assert np.max(np.abs(v - planted)) <= 1e-8

    def test_wide_consistent_system(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        encoder = random_encoder(rng, 2, 9)
        v = solve_readout(encoder, x, x)
        assert np.max(np.abs(hidden_outputs(encoder, x) @ v - x)) <= 1e-8

    def test_row_count_mismatch(self):
        encoder = HiddenLayer(weights=np.ones((2, 2)), biases=np.zeros(2))
        with pytest.raises(InvalidInputError):
            solve_readout(encoder, np.ones((3, 2)), np.ones((4, 1)))


class TestVariantLayers:
    def test_all_variants_produce_valid_layers(self, demo_small):
        x = demo_small.train.x
        for k, cfg in enumerate(ALL_VARIANTS):
            layer = raem_hidden_layer(cfg, x, 10, RngStream(100 + k))
            assert layer.weights.shape == (1, 10)
            assert layer.biases.shape == (10,)
            assert np.all(np.isfinite(layer.weights))

    def test_determinism(self, demo_small):
        x = demo_small.train.x
        for cfg in ALL_VARIANTS:
            a = raem_hidden_layer(cfg, x, 8, RngStream(7))
            b = raem_hidden_layer(cfg, x, 8, RngStream(7))
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_unit_interval_collapses_variant_1_onto_variant_2(self, demo_small):
        # with u_ae = 1 the tuned-interval variant draws the same encoder as
        # the fixed-interval one, so the layers must coincide exactly
        x = demo_small.train.x
        a = raem_hidden_layer(Raem1Config(u_ae=1.0), x, 12, RngStream(8))
        b = raem_hidden_layer(Raem2Config(), x, 12, RngStream(8))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_anchored_variants_output_half_at_network_anchors(self, demo_small):
        x = demo_small.train.x
        for cfg in (Raem1Config(u_ae=0.1), Raem2Config(), Raem3Config()):
            rng = RngStream(9)
            layer = raem_hidden_layer(cfg, x, 25, rng)
            # network anchors come from child stream 2, per the docstring
            anchors = anchor_points("train-point", x, 25, rng.child(2))
            h = hidden_outputs(layer, anchors)
            assert np.max(np.abs(np.diag(h) - 0.5)) <= 1e-12

    def test_decoder_fit_never_holds_the_whole_code_matrix(self, row_blocking):
        # 4000x100 in 8 blocks: the code matrix G alone is 3.2 MB, one
        # block's [G | X] 0.4 MB
        x = np.random.default_rng(12).uniform(size=(4000, 3))
        row_blocking(min_rows=256)
        assert len(linalg.row_blocks(4000, 100)) == 8
        tracemalloc.start()
        try:
            raem_hidden_layer(Raem5Config(), x, 100, RngStream(13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 100 * 8

    def test_invalid_interval_rejected(self):
        for u_ae in (0.0, -2.0, 1e308, math.inf):
            with pytest.raises(ConfigError):
                Raem1Config(u_ae=u_ae)
        Raem1Config(u_ae=8e307)


def isinstance_reference_layer(variant, x_train, m, rng):
    """``raem_hidden_layer`` as it was written before the variants declared
    their choices as data, one ``isinstance`` chain per choice."""
    x_train = np.asarray(x_train, dtype=float)
    n = x_train.shape[1]

    gen_w = rng.child(0).generator()
    if isinstance(variant, Raem1Config):
        w = gen_w.uniform(-variant.u_ae, variant.u_ae, size=(n, m))
    else:
        w = gen_w.uniform(-1.0, 1.0, size=(n, m))

    if isinstance(variant, (Raem1Config, Raem2Config)):
        enc_anchors = anchor_points(variant.anchor, x_train, m, rng.child(1))
        c = anchored_biases(w, enc_anchors)
    else:
        c = rng.child(1).generator().uniform(-1.0, 1.0, size=m)

    weights = solve_readout(HiddenLayer(weights=w, biases=c), x_train, x_train).T

    if isinstance(variant, (Raem1Config, Raem2Config, Raem3Config)):
        net_anchors = anchor_points(variant.anchor, x_train, m, rng.child(2))
        biases = anchored_biases(weights, net_anchors)
    elif isinstance(variant, Raem4Config):
        biases = rng.child(2).generator().uniform(-1.0, 1.0, size=m)
    else:
        biases = weights.mean(axis=0)
    return HiddenLayer(weights=weights, biases=biases)


def variant_config(tag, u_ae, anchor):
    return {"raem1": lambda: Raem1Config(u_ae=u_ae, anchor=anchor),
            "raem2": lambda: Raem2Config(anchor=anchor),
            "raem3": lambda: Raem3Config(anchor=anchor),
            "raem4": Raem4Config,
            "raem5": Raem5Config}[tag]()


# 9000 rows make two row blocks of the decoder fit; 6 rows with up to 12
# nodes take the wide lstsq path
@settings(max_examples=120, deadline=None)
@given(
    tag=st.sampled_from(["raem1", "raem2", "raem3", "raem4", "raem5"]),
    kind=st.sampled_from(["uniform", "train-point", "cluster"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m=st.integers(1, 12),
    rows=st.sampled_from([6, 40, 500, 9000]),
    u_ae=st.sampled_from([1e-4, 0.1, 1.0, 7.5]),
)
@example(tag="raem1", kind="cluster", seed=0, n=3, m=12, rows=9000, u_ae=0.1)
@example(tag="raem3", kind="train-point", seed=1, n=2, m=12, rows=9000, u_ae=1.0)
@example(tag="raem5", kind="uniform", seed=2, n=1, m=12, rows=9000, u_ae=1.0)
def test_variant_layers_are_the_isinstance_references_bit_for_bit(tag, kind, seed, n, m,
                                                                  rows, u_ae):
    if kind == "cluster":
        m = min(m, rows)  # k-means needs a training point per centroid
    x = np.random.default_rng(seed).uniform(size=(rows, n))
    variant = variant_config(tag, u_ae, kind)
    layer = raem_hidden_layer(variant, x, m, RngStream(seed))
    reference = isinstance_reference_layer(variant, x, m, RngStream(seed))
    assert layer.weights.tobytes() == reference.weights.tobytes()
    assert layer.biases.tobytes() == reference.biases.tobytes()


def test_variants_declare_their_choices_outside_the_config_keys():
    # the three choices are class attributes, so they are neither dataclass
    # fields nor keys of the method dicts
    for variant in ALL_VARIANTS:
        names = {f.name for f in dataclasses.fields(variant)}
        assert not names & {"encoder_biases", "network_biases"}
        assert variant.encoder_biases in ("anchored", "uniform")
        assert variant.network_biases in ("anchored", "uniform", "mean")
    assert [v.u_ae for v in ALL_VARIANTS] == [0.5, 1.0, 1.0, 1.0, 1.0]
    assert "u_ae" not in {f.name for f in dataclasses.fields(Raem2Config)}


class TestVariant5Geometry:
    def test_bias_is_mean_of_node_weights(self, demo_small):
        x = np.hstack([demo_small.train.x, demo_small.train.x ** 2])
        layer = raem_hidden_layer(
            Raem5Config(), x, 15, RngStream(10)
        )
        assert np.array_equal(layer.biases, layer.weights.mean(axis=0))

    def test_one_dimensional_inflections_all_at_minus_one(self, demo_small):
        x = demo_small.train.x
        layer = raem_hidden_layer(
            Raem5Config(), x, 40, RngStream(11)
        )
        a = layer.weights[0]
        assert np.all(-layer.biases / a == -1.0)
        for i in range(40):
            off = inflection_hyperplane_offset(layer.weights[:, i], layer.biases[i])
            assert abs(off) == 1.0

    def test_nodes_saturate_on_one_side_of_unit_interval(self, demo_small):
        # with every inflection at x = -1, a node never crosses 0.5 on [0, 1]
        x = demo_small.train.x
        layer = raem_hidden_layer(
            Raem5Config(), x, 40, RngStream(12)
        )
        h = hidden_outputs(layer, x)
        positive = layer.weights[0] > 0
        assert np.all(h[:, positive] > 0.5)
        assert np.all(h[:, ~positive] < 0.5)


class TestVariant1Steepness:
    def test_median_weight_magnitude_at_reference_interval(self, demo_full):
        # u_ae = 0.1 produces steep decoder weights on the 1-D demo
        x = demo_full.train.x
        for seed in range(5):
            layer = raem_hidden_layer(
                Raem1Config(u_ae=0.1), x, 25, RngStream(seed)
            )
            med = float(np.median(np.abs(layer.weights)))
            assert 5.0 <= med <= 14.0

    def test_unit_interval_gives_shallow_weights(self, demo_full):
        x = demo_full.train.x
        meds = [
            float(
                np.median(
                    np.abs(
                        raem_hidden_layer(
                            Raem1Config(u_ae=1.0), x, 25, RngStream(seed)
                        ).weights
                    )
                )
            )
            for seed in range(5)
        ]
        assert abs(float(np.mean(meds)) - 1.5) <= 1.0

    def test_median_weight_magnitude_decreases_with_interval(self, demo_full):
        # averaged over 20 seeds the sweep-grid medians are nonincreasing,
        # with one adjacent wobble tolerated as sampling noise
        x = demo_full.train.x
        grid = np.geomspace(1e-4, 10.0, 8)
        medians = []
        for u_ae in grid:
            per_seed = [
                float(
                    np.median(
                        np.abs(
                            raem_hidden_layer(
                                Raem1Config(u_ae=float(u_ae)), x, 25, RngStream(seed)
                            ).weights
                        )
                    )
                )
                for seed in range(20)
            ]
            medians.append(float(np.mean(per_seed)))
        violations = sum(
            1 for lo, hi in zip(medians[1:], medians[:-1]) if lo > hi
        )
        assert violations <= 1, medians


class TestInflectionOffset:
    def test_one_dimensional_hand_case(self):
        assert inflection_hyperplane_offset([1.0], 1.0) == -1.0

    def test_zero_bias_passes_through_origin(self):
        assert inflection_hyperplane_offset([2.0, -1.0], 0.0) == 0.0

    def test_three_four_five_triangle(self):
        assert inflection_hyperplane_offset([3.0, 4.0], 10.0) == -2.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateNodeError):
            inflection_hyperplane_offset([0.0, 0.0], 1.0)
