"""The method registry: tags, dict round trips, grid cells, default CV grids
and dispatch to each family's own generator."""

import csv
import inspect
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from randnet.errors import ConfigError, InvalidInputError
from randnet.experiment.cli import main
from randnet.methods import (
    METHOD_NAMES,
    METHODS,
    TUNABLE,
    check_method_dict,
    generate_hidden_layer,
    method_from_dict,
    method_name,
    method_to_dict,
    method_with_interval,
)
from randnet.paramgen import (
    RaMConfig,
    RAlphaMConfig,
    anchor_points,
    generate_ralpham,
    generate_ram,
)
from randnet.rae import (
    Raem1Config,
    Raem2Config,
    Raem3Config,
    Raem4Config,
    Raem5Config,
    raem_hidden_layer,
)
from randnet.rng import RngStream

DEFAULT_ANCHOR = "train-point"
CLUSTER = "cluster"

# tag -> (config, its exact method_to_dict, the family's own generator)
CASES = {
    "ram": (RaMConfig(u=2.5), {"method": "ram", "u": 2.5, "anchor": DEFAULT_ANCHOR},
            generate_ram),
    "ralpham": (
        RAlphaMConfig(alpha_max_deg=80.0, alpha_min_deg=5.0, anchor=CLUSTER),
        {"method": "ralpham", "alpha_max_deg": 80.0, "alpha_min_deg": 5.0,
         "anchor": CLUSTER},
        generate_ralpham,
    ),
    "raem1": (Raem1Config(u_ae=0.1), {"method": "raem1", "u_ae": 0.1, "anchor": DEFAULT_ANCHOR},
              raem_hidden_layer),
    "raem2": (Raem2Config(anchor=CLUSTER), {"method": "raem2", "anchor": CLUSTER},
              raem_hidden_layer),
    "raem3": (Raem3Config(), {"method": "raem3", "anchor": DEFAULT_ANCHOR}, raem_hidden_layer),
    "raem4": (Raem4Config(), {"method": "raem4"}, raem_hidden_layer),
    "raem5": (Raem5Config(), {"method": "raem5"}, raem_hidden_layer),
}

# tag -> (interval value, the grid cell it gives with the cluster anchor)
INTERVALS = {
    "ram": (3.0, RaMConfig(u=3.0, anchor=CLUSTER)),
    "ralpham": (45.0, RAlphaMConfig(alpha_max_deg=45.0, anchor=CLUSTER)),
    "raem1": (0.5, Raem1Config(u_ae=0.5, anchor=CLUSTER)),
}
UNTUNED = {
    "raem2": Raem2Config(anchor=CLUSTER),
    "raem3": Raem3Config(anchor=CLUSTER),
    "raem4": Raem4Config(),
    "raem5": Raem5Config(),
}

DEFAULT_GRIDS = {
    "ram": [float(v) for v in np.geomspace(1e-2, 1e2, 13)],
    "ralpham": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0],
    "raem1": [float(v) for v in np.geomspace(1e-5, 10.0, 25)],
    "raem2": [None],
    "raem3": [None],
    "raem4": [None],
    "raem5": [None],
}


def test_tags_and_tunable_families():
    assert METHOD_NAMES == ("ram", "ralpham", "raem1", "raem2", "raem3", "raem4", "raem5")
    assert TUNABLE == ("ram", "ralpham", "raem1")


@pytest.mark.parametrize("tag", METHOD_NAMES)
def test_method_to_dict_is_exact(tag):
    cfg, expected, _ = CASES[tag]
    assert method_name(cfg) == tag
    assert method_to_dict(cfg) == expected


@pytest.mark.parametrize("tag", METHOD_NAMES)
def test_dict_round_trip(tag):
    cfg = CASES[tag][0]
    back = method_from_dict(method_to_dict(cfg))
    assert back == cfg and type(back) is type(cfg)
    assert method_from_dict(json.loads(json.dumps(method_to_dict(cfg)))) == cfg


def field_names(cls):
    return {f.name for f in fields(cls)}


def cluster_dict(tag):
    """The bare method dict of ``tag``, with the cluster anchor where its
    config has an anchor."""
    anchor = {"anchor": CLUSTER} if "anchor" in field_names(METHODS[tag].config) else {}
    return {"method": tag, **anchor}


@pytest.mark.parametrize("tag", TUNABLE)
def test_grid_cell_with_interval(tag):
    interval, expected = INTERVALS[tag]
    field = METHODS[tag].interval
    assert method_with_interval(cluster_dict(tag), interval) == expected
    assert method_with_interval({"method": tag}, interval) == replace(
        expected, anchor=DEFAULT_ANCHOR)
    # the cell's value replaces an interval the dict sets
    assert method_with_interval({**cluster_dict(tag), field: 7.0}, interval) == expected
    with pytest.raises(ConfigError):
        method_with_interval({"method": tag}, None)


@pytest.mark.parametrize("tag", sorted(UNTUNED))
def test_grid_cell_without_interval(tag):
    assert method_with_interval(cluster_dict(tag), None) == UNTUNED[tag]
    assert method_with_interval({"method": tag}, None) == type(UNTUNED[tag])()


@pytest.mark.parametrize("tag", METHOD_NAMES)
def test_grid_cells_match_direct_configs(tag):
    # every default grid value, with and without an anchor, gives the config
    # built directly from the tag, the value and the anchor
    spec = METHODS[tag]
    for anchor in (None, CLUSTER):
        d = {"method": tag} if anchor is None else cluster_dict(tag)
        kwargs = ({} if anchor is None or "anchor" not in field_names(spec.config)
                  else {"anchor": anchor})
        for value in DEFAULT_GRIDS[tag]:
            if spec.interval is not None:
                kwargs[spec.interval] = value
            assert method_with_interval(d, value) == spec.config(**kwargs)


def test_grid_cell_keeps_other_keys():
    d = {"method": "ralpham", "alpha_min_deg": 30, "anchor": "uniform"}
    assert method_with_interval(d, 45.0) == RAlphaMConfig(
        alpha_max_deg=45.0, alpha_min_deg=30.0, anchor="uniform")
    # a cell whose interval falls below a kept key is a config error
    with pytest.raises(ConfigError):
        method_with_interval(d, 20.0)


@pytest.mark.parametrize("d", [
    {"method": "ram"}, {"method": "ralpham", "alpha_min_deg": 89}, {"method": "raem1"},
    {"method": "raem4"}, {"method": "ram", "u": 1e-9, "anchor": "cluster"},
], ids=["ram-bare", "ralpham-steep-bottom", "raem1-bare", "raem4", "ram-given"])
def test_check_reads_a_dict_that_may_lack_its_interval(d):
    check_method_dict(d)


@pytest.mark.parametrize("d", [
    {"method": "ram", "u": -1}, {"method": "raem1", "u_ae": 0}, {"method": "ralpham",
    "alpha_max_deg": 95}, {"method": "ralpham", "alpha_min_deg": 90},
    {"method": "ram", "u": "abc"}, {"method": "raem4", "anchor": "cluster"},
    {"method": "ram", "anchor": "clustr"}, {"method": "nosuch"},
], ids=["u-negative", "u_ae-zero", "alpha-max-above-90", "alpha-min-at-90", "u-string",
        "raem4-anchor", "anchor-unknown", "unknown-tag"])
def test_check_reads_every_given_value(d):
    # a given interval is read although grid search would replace it, and
    # a missing one is read as the largest default, the most permissive
    with pytest.raises(ConfigError):
        check_method_dict(d)


def test_unknown_tag_rejected():
    with pytest.raises(ConfigError):
        method_with_interval({"method": "nosuch"}, None)
    with pytest.raises(ConfigError):
        method_with_interval({"method": "nosuch"}, 1.0)
    with pytest.raises(ConfigError):
        method_from_dict({"method": "nosuch"})
    with pytest.raises(ConfigError):
        method_name(object())


@pytest.mark.parametrize("tag", METHOD_NAMES)
def test_generate_dispatches_bitwise_to_family_generator(tag):
    cfg, _, own = CASES[tag]
    x = np.random.default_rng(3).uniform(size=(40, 2))
    got = generate_hidden_layer(cfg, x, 9, RngStream(11, (4,)))
    want = own(cfg, x, 9, RngStream(11, (4,)))
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.biases, want.biases)


def test_every_generator_takes_the_training_inputs_alone():
    # the input dimension and the anchors' box come from x_train
    for spec in METHODS.values():
        assert list(inspect.signature(spec.generate).parameters) == ["cfg", "x_train", "m", "rng"]


def test_every_generator_rejects_a_malformed_training_set():
    # raem4 and raem5 draw no anchors, and still check their inputs
    for bad in (np.empty((0, 2)), np.ones(5), np.ones((4, 2, 1))):
        for cfg, _, own in CASES.values():
            for generate in (own, generate_hidden_layer):
                with pytest.raises(InvalidInputError, match="nonempty 2-D training matrix"):
                    generate(cfg, bad, 3, RngStream(1))
        with pytest.raises(InvalidInputError, match="nonempty 2-D training matrix"):
            anchor_points("uniform", bad, 3, RngStream(1))


@pytest.mark.parametrize("tag", METHOD_NAMES)
def test_default_cv_grid(tag, tmp_path):
    # a grid without interval values searches the family's default grid
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "problem": {"tf": "TF1", "n": 1, "train_size": 30, "test_size": 10},
        "grid": {"node_counts": [2], "folds": 2, "trials_per_cell": 1},
    }))
    out = tmp_path / "gs"
    assert main(["grid-search", "--config", str(config), "--method", tag,
                 "--out", str(out)]) == 0
    with open(out / "cv_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == [tag] * len(rows)
    got = [float(r["interval"]) if r["interval"] else None for r in rows]
    assert got == DEFAULT_GRIDS[tag]
