"""The config reader: every config dataclass comes back from its dict, and a
value of the wrong type is a ConfigError."""

import json
from dataclasses import asdict, fields
from typing import Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, strategies as st

from randnet.errors import ConfigError, config_from_dict
from randnet.experiment.config import ExperimentConfig, ProblemSpec, SweepSpec, build_config
from randnet.experiment.trials import GridSearchConfig
from randnet.methods import METHODS, method_from_dict, method_to_dict
from randnet.paramgen import AnchorKind, RaMConfig, RAlphaMConfig
from randnet.rae import Raem1Config, Raem2Config, Raem3Config, Raem4Config, Raem5Config

finite = st.floats(allow_nan=False, allow_infinity=False)
half_width = st.floats(min_value=1e-300, max_value=1e300)
sizes = st.integers(min_value=1, max_value=10**9)

anchors = st.sampled_from(get_args(AnchorKind))


@st.composite
def ralpham_configs(draw):
    lo, hi = sorted(draw(st.lists(st.floats(min_value=0, max_value=90), min_size=2,
                                  max_size=2, unique=True)))
    return RAlphaMConfig(alpha_max_deg=hi, alpha_min_deg=lo, anchor=draw(anchors))


method_configs = st.one_of(
    st.builds(RaMConfig, u=half_width, anchor=anchors),
    ralpham_configs(),
    st.builds(Raem1Config, u_ae=half_width, anchor=anchors),
    st.builds(Raem2Config, anchor=anchors),
    st.builds(Raem3Config, anchor=anchors),
    st.builds(Raem4Config),
    st.builds(Raem5Config),
)

optional_sizes = st.none() | sizes
problems = st.one_of(
    st.builds(ProblemSpec, tf=st.text(), n=sizes, train_size=optional_sizes,
              test_size=optional_sizes),
    st.builds(ProblemSpec, data=st.text(), target_column=st.none() | st.integers() | st.text(),
              header=st.booleans(), delimiter=st.text()),
)

grids = st.builds(
    GridSearchConfig,
    node_counts=st.lists(sizes, min_size=1, unique=True).map(tuple),
    interval_grid=st.lists(finite, unique=True).map(tuple),
    folds=st.integers(min_value=2, max_value=100),
    trials_per_cell=sizes,
)

sweeps = st.builds(SweepSpec, values=st.none() | st.lists(finite).map(tuple), lo=finite,
                   hi=finite, points=st.integers())


def round_trip(cfg):
    """``cfg`` read back from its dict, as given and as a JSON file holds it."""
    d = asdict(cfg)
    back = config_from_dict(type(cfg), d, "config")
    assert back == config_from_dict(type(cfg), json.loads(json.dumps(d)), "config")
    return back


@given(method_configs)
def test_method_configs_round_trip(cfg):
    assert round_trip(cfg) == cfg
    assert method_from_dict(json.loads(json.dumps(method_to_dict(cfg)))) == cfg


@given(problems)
def test_problem_spec_round_trips(problem):
    assert round_trip(problem) == problem


@given(grids)
def test_grid_config_round_trips(grid):
    assert round_trip(grid) == grid


@given(sweeps)
def test_sweep_spec_round_trips(sweep):
    assert round_trip(sweep) == sweep


def test_every_registered_config_is_covered():
    covered = {RaMConfig, RAlphaMConfig, Raem1Config, Raem2Config, Raem3Config, Raem4Config,
               Raem5Config}
    assert {spec.config for spec in METHODS.values()} == covered


def test_values_are_read_as_their_field_types():
    problem = config_from_dict(ProblemSpec, {"tf": "TF1", "n": 2.0, "train_size": "40"},
                               "problem")
    assert (problem.n, problem.train_size) == (2, 40)
    assert type(problem.n) is int and type(problem.train_size) is int
    by_name = config_from_dict(ProblemSpec, {"data": "d.csv", "target_column": "y"}, "p")
    by_index = config_from_dict(ProblemSpec, {"data": "d.csv", "target_column": -1.0}, "p")
    assert (by_name.target_column, by_index.target_column) == ("y", -1)
    grid = config_from_dict(GridSearchConfig, {"node_counts": [5, "10"]}, "grid")
    assert grid.node_counts == (5, 10) and grid.interval_grid == ()


def test_every_top_level_key_is_read_as_its_field_type():
    d = {"problem": {"tf": "TF1", "n": 2}, "methods": [{"method": "ram", "u": 1}],
         "nodes": 800.0, "trials": "3", "seed": 7, "grid": {"node_counts": [5]},
         "sweep": {"points": 4}, "output_dir": "o", "format": "json", "jobs": 2,
         "histogram_bins": 20}
    assert set(d) == {f.name for f in fields(ExperimentConfig)}
    cfg = config_from_dict(ExperimentConfig, d, "config")
    counts = (cfg.nodes, cfg.trials, cfg.seed, cfg.jobs, cfg.histogram_bins)
    assert counts == (800, 3, 7, 2, 20) and all(type(v) is int for v in counts)
    assert cfg.problem == ProblemSpec(tf="TF1", n=2)
    assert cfg.methods == ({"method": "ram", "u": 1},) and type(cfg.methods) is tuple
    assert cfg.grid == GridSearchConfig(node_counts=(5,))
    assert cfg.sweep == SweepSpec(points=4)
    assert (cfg.output_dir, cfg.format) == ("o", "json")


@pytest.mark.parametrize("cls, d", [
    (ProblemSpec, {"data": "d.csv", "header": 1}),
    (ProblemSpec, {"data": "d.csv", "target_column": True}),
    (ProblemSpec, {"data": 3}),
    (ProblemSpec, {"tf": "TF1", "n": 2, "size": 40}),
    (ProblemSpec, ["tf", "TF1"]),
    (GridSearchConfig, {}),
    (GridSearchConfig, {"node_counts": 5}),
    (GridSearchConfig, {"node_counts": [5], "interval_grid": [1, None]}),
    (SweepSpec, {"values": "0.1"}),
    (RaMConfig, {"u": 1.0, "anchor": 5}),
], ids=["header-int", "column-bool", "data-int", "unknown-key", "not-an-object",
        "missing-key", "nodes-not-a-list", "interval-null", "sweep-values-string",
        "anchor-kind-int"])
def test_malformed_values_are_config_errors(cls, d):
    with pytest.raises(ConfigError):
        config_from_dict(cls, d, "section")


# The config dataclasses with Literal fields, and the keys each needs.
REQUIRED = {RaMConfig: {"u": 1.0}, RAlphaMConfig: {"alpha_max_deg": 45.0},
            Raem1Config: {"u_ae": 1.0}, ExperimentConfig: {"problem": {"tf": "TF1", "n": 1}}}
LITERAL_FIELDS = [
    (cls, f.name, get_type_hints(cls)[f.name])
    for cls in [spec.config for spec in METHODS.values()] + [ExperimentConfig]
    for f in fields(cls) if get_origin(get_type_hints(cls)[f.name]) is Literal
]


def test_literal_fields_are_the_anchors_and_the_format():
    assert {(cls, name) for cls, name, _ in LITERAL_FIELDS} == {
        (RaMConfig, "anchor"), (RAlphaMConfig, "anchor"), (Raem1Config, "anchor"),
        (Raem2Config, "anchor"), (Raem3Config, "anchor"), (ExperimentConfig, "format")}


@pytest.mark.parametrize("cls, name, kind", LITERAL_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in LITERAL_FIELDS])
def test_literal_fields_read_their_members_alone(cls, name, kind):
    # a member is read back unchanged; anything else, a near miss included,
    # is a ConfigError from the reader, before any dataclass check
    base = REQUIRED.get(cls, {})
    for member in get_args(kind):
        assert getattr(config_from_dict(cls, {**base, name: member}, "c"), name) == member
        for bad in (member.upper(), f" {member}", [member], {"kind": member}):
            with pytest.raises(ConfigError, match=f"key '{name}' must be one of"):
                config_from_dict(cls, {**base, name: bad}, "c")
    for bad in ("", "median", 5, None, True):
        with pytest.raises(ConfigError, match=f"key '{name}' must be one of"):
            config_from_dict(cls, {**base, name: bad}, "c")


def test_a_bare_method_reads_its_anchor():
    # a method without its interval, as grid search takes it, still has its
    # anchor read when the config is built
    problem = {"problem": {"tf": "TF1", "n": 1}}
    for tag in ("ram", "raem2"):
        cfg = build_config({**problem, "methods": [{"method": tag, "anchor": "cluster"}]}, {})
        assert cfg.methods == ({"method": tag, "anchor": "cluster"},)
        for bad in ("clustr", {"kind": "cluster"}):
            with pytest.raises(ConfigError, match="key 'anchor' must be one of"):
                build_config({**problem, "methods": [{"method": tag, "anchor": bad}]}, {})
