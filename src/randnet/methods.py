"""The method registry: one entry declares each hidden-layer method.

Each method is identified by a short tag and a config dataclass:

* ``ram``     uniform weights on [-u, u], anchored biases
* ``ralpham`` uniform slope angles, anchored biases
* ``raem1`` .. ``raem5``  autoencoder-pretrained weights, five bias/encoder
  variants (1 tunes the encoder interval u_ae)

A ``MethodSpec`` in ``METHODS`` names the config class, the generator, the
config field that holds the tunable interval (``ram``, ``ralpham`` and
``raem1`` have one; ``raem2`` .. ``raem5`` are parameter-free apart from the
node count) and the interval grid that cross-validation searches by
default. Every function below reads the registry, so adding a method means
adding one entry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, config_from_dict
from .model import HiddenLayer
from .paramgen import RaMConfig, RAlphaMConfig, generate_ralpham, generate_ram
from .rae import (
    Raem1Config,
    Raem2Config,
    Raem3Config,
    Raem4Config,
    Raem5Config,
    RaemConfig,
    raem_hidden_layer,
)
from .rng import RngStream

GeneratorConfig = Union[RaMConfig, RAlphaMConfig, RaemConfig]


@dataclass(frozen=True)
class MethodSpec:
    """One method: its config class, generator, interval field and default
    cross-validation grid (empty for the parameter-free methods)."""

    config: type
    generate: Callable[..., HiddenLayer]
    interval: Optional[str] = None
    grid: tuple[float, ...] = ()


def _log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(lo, hi, points))


METHODS = {
    "ram": MethodSpec(RaMConfig, generate_ram, "u", _log_grid(1e-2, 1e2, 13)),
    "ralpham": MethodSpec(RAlphaMConfig, generate_ralpham, "alpha_max_deg",
                          tuple(float(a) for a in range(10, 91, 10))),
    "raem1": MethodSpec(Raem1Config, raem_hidden_layer, "u_ae", _log_grid(1e-5, 10.0, 25)),
    "raem2": MethodSpec(Raem2Config, raem_hidden_layer),
    "raem3": MethodSpec(Raem3Config, raem_hidden_layer),
    "raem4": MethodSpec(Raem4Config, raem_hidden_layer),
    "raem5": MethodSpec(Raem5Config, raem_hidden_layer),
}

METHOD_NAMES = tuple(METHODS)

# Methods whose single tunable interval is searched during model selection.
TUNABLE = tuple(tag for tag, spec in METHODS.items() if spec.interval)


def method_spec(tag: str) -> MethodSpec:
    try:
        return METHODS[tag]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown method tag {tag!r}; choose from {list(METHOD_NAMES)}"
        ) from None


def method_name(cfg: GeneratorConfig) -> str:
    for tag, spec in METHODS.items():
        if type(cfg) is spec.config:
            return tag
    raise ConfigError(f"unknown generator config type {type(cfg).__name__}")


def generate_hidden_layer(cfg: GeneratorConfig, x_train, m: int, rng: RngStream) -> HiddenLayer:
    """Draw one hidden layer of m nodes for the training inputs ``x_train``
    using the configured method. Every generator takes ``(cfg, x_train, m,
    rng)``: the input dimension and the anchors' bounding box come from
    ``x_train``."""
    return METHODS[method_name(cfg)].generate(cfg, x_train, m, rng)


def method_to_dict(cfg: GeneratorConfig) -> dict:
    """JSON-ready description of a method config."""
    return {"method": method_name(cfg), **asdict(cfg)}


_TAG_KEY = frozenset({"method"})


def method_from_dict(d: dict) -> GeneratorConfig:
    """Inverse of method_to_dict; unknown tags, unknown or missing keys and
    malformed values raise ConfigError."""
    tag = d.get("method")
    return config_from_dict(method_spec(tag).config, d, f"method {tag!r}", _TAG_KEY)


def check_method_dict(d: dict) -> None:
    """Raise ConfigError unless ``d`` reads whole as its method, as
    ``method_from_dict`` reads it. The interval may be missing, since grid
    search supplies it; the read then takes the largest value of the
    method's default grid, the one that admits every other key's value
    (``alpha_min_deg`` below ``alpha_max_deg``). A given interval is read
    too, even where a grid search or the sweep replaces it."""
    spec = method_spec(d.get("method"))
    method_from_dict({spec.interval: max(spec.grid), **d} if spec.interval else d)


def method_with_interval(d: dict, interval: Optional[float]) -> GeneratorConfig:
    """The method of dict ``d`` with its interval field set to ``interval``:
    one cell of a grid search. Every other key keeps its value from ``d``;
    a parameter-free method takes ``interval`` None."""
    name = method_spec(d.get("method")).interval
    return method_from_dict(d if name is None else {**d, name: interval})
