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

from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Callable, Optional, Union, get_type_hints

import numpy as np

from .errors import ConfigError, config_value
from .model import HiddenLayer
from .paramgen import (
    AnchorPolicy,
    Hypercube,
    RaMConfig,
    RAlphaMConfig,
    generate_ralpham,
    generate_ram,
)
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

    @property
    def keys(self) -> frozenset[str]:
        """Names of the config's fields, as in its method dict."""
        return frozenset(f.name for f in fields(self.config))


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


def generate_hidden_layer(
    cfg: GeneratorConfig,
    x_train,
    cube: Hypercube,
    m: int,
    rng: RngStream,
) -> HiddenLayer:
    """Draw one hidden layer of m nodes using the configured method."""
    return METHODS[method_name(cfg)].generate(cfg, x_train, cube, m, rng)


def method_to_dict(cfg: GeneratorConfig) -> dict:
    """JSON-ready description of a method config."""
    return {"method": method_name(cfg), **asdict(cfg)}


def _check_keys(cls: type, d, what: str, skip: frozenset = frozenset()) -> None:
    """Raise ConfigError unless ``d`` is an object whose keys, apart from
    ``skip``, all name fields of the dataclass ``cls``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {d!r}")
    names = {f.name for f in fields(cls)}
    extra = set(d) - names - skip
    if extra:
        raise ConfigError(f"{what} has unknown keys {sorted(extra)}; "
                          f"its keys are {sorted(names | skip)}")


def _from_dict(cls: type, d, what: str, skip: frozenset = frozenset()):
    """Build the dataclass ``cls`` from ``d``: numbers are cast to the
    field's type and nested dataclasses (the anchor policy) are built the
    same way. A key that names no field, other than those in ``skip``,
    raises ConfigError."""
    _check_keys(cls, d, what, skip)
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        kind = hints[f.name]
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{what} needs key {f.name!r}")
        elif is_dataclass(kind):
            kwargs[f.name] = _from_dict(kind, d[f.name], f"{what} key {f.name!r}")
        elif kind in (int, float):
            kwargs[f.name] = config_value(kind, d[f.name], f"{what} key {f.name!r}")
        else:
            kwargs[f.name] = d[f.name]
    return cls(**kwargs)


_TAG_KEY = frozenset({"method"})


def method_from_dict(d: dict) -> GeneratorConfig:
    """Inverse of method_to_dict; unknown tags, unknown or missing keys and
    malformed values raise ConfigError."""
    tag = d.get("method")
    return _from_dict(method_spec(tag).config, d, f"method {tag!r}", _TAG_KEY)


def check_method_dict(d: dict) -> None:
    """Raise ConfigError unless ``d`` names a known method, sets only fields
    of its config, and sets a well-formed anchor if it sets one. The
    interval may be missing, since grid search supplies it."""
    tag = d.get("method")
    _check_keys(method_spec(tag).config, d, f"method {tag!r}", _TAG_KEY)
    method_anchor(d)


def method_anchor(d: dict) -> Optional[AnchorPolicy]:
    """The anchor policy a method dict sets, or None if it sets none."""
    return _from_dict(AnchorPolicy, d["anchor"], "anchor") if "anchor" in d else None


def family_config(
    name: str, interval: float | None = None, anchor: AnchorPolicy | None = None
) -> GeneratorConfig:
    """Build a config from a method tag plus its interval parameter, if any.

    For ``ram`` the interval is u, for ``ralpham`` the top angle in degrees,
    for ``raem1`` the encoder half-width u_ae. The parameter-free methods
    reject a non-None interval. The anchor applies where the config has one.
    """
    spec = method_spec(name)
    kwargs: dict = {}
    if spec.interval is not None:
        if interval is None:
            raise ConfigError(f"method {name!r} needs an interval parameter")
        kwargs[spec.interval] = float(interval)
    elif interval is not None:
        raise ConfigError(f"method {name!r} takes no interval parameter")
    if anchor is not None and "anchor" in spec.keys:
        kwargs["anchor"] = anchor
    return spec.config(**kwargs)
