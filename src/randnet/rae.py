"""Randomized autoencoder pretraining of hidden weights.

A random sigmoid encoder maps inputs to an m-dimensional code; the linear
decoder V that reconstructs the inputs is fitted in one least-squares solve.
The encoder is a ``HiddenLayer`` and V its readout with the inputs as
targets, so ``model.solve_readout`` fits V as it fits the network's readout;
a tall fit streams the row blocks of ``[G | X]``, one block included, and
never holds the whole code matrix G. The decoder rows then become the
network's hidden weights (A = V'). Five variants differ in how the encoder
parameters and the network biases are chosen; variant 1 additionally tunes
the encoder weight interval, which controls how steep the produced sigmoids
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DegenerateNodeError, InvalidInputError
from .model import HiddenLayer, solve_readout
from .paramgen import AnchorPolicy, Hypercube, anchor_points, anchored_biases, check_half_width
from .rng import RngStream


@dataclass(frozen=True)
class Raem1Config:
    """Tuned encoder interval [-u_ae, u_ae]; anchored encoder and network biases."""

    u_ae: float
    anchor: AnchorPolicy = field(default_factory=AnchorPolicy)

    def __post_init__(self):
        check_half_width(self.u_ae, "u_ae")


@dataclass(frozen=True)
class Raem2Config:
    """Fixed encoder interval [-1, 1]; anchored encoder and network biases."""

    anchor: AnchorPolicy = field(default_factory=AnchorPolicy)


@dataclass(frozen=True)
class Raem3Config:
    """Encoder weights and biases uniform on [-1, 1]; anchored network biases."""

    anchor: AnchorPolicy = field(default_factory=AnchorPolicy)


@dataclass(frozen=True)
class Raem4Config:
    """Encoder weights/biases and network biases all uniform on [-1, 1]."""


@dataclass(frozen=True)
class Raem5Config:
    """Encoder parameters uniform on [-1, 1]; network bias b_i is the mean
    of node i's weights, which pins every 1-D inflection at x = -1."""


RaemConfig = Union[Raem1Config, Raem2Config, Raem3Config, Raem4Config, Raem5Config]


def raem_hidden_layer(
    variant: RaemConfig,
    x_train: np.ndarray,
    cube: Hypercube,
    m: int,
    rng: RngStream,
) -> HiddenLayer:
    """Build an autoencoder-pretrained hidden layer for one variant.

    Encoder weights come from child stream 0, encoder biases (anchors or
    uniform draws) from child 1, network biases from child 2. All variants
    share A = V' with V the fitted decoder.
    """
    x_train = np.asarray(x_train, dtype=float)
    if x_train.ndim != 2 or x_train.shape[0] < 1:
        raise InvalidInputError(f"need a nonempty training matrix, got {x_train.shape}")
    n = x_train.shape[1]

    gen_w = rng.child(0).generator()
    if isinstance(variant, Raem1Config):
        w = gen_w.uniform(-variant.u_ae, variant.u_ae, size=(n, m))
    else:
        w = gen_w.uniform(-1.0, 1.0, size=(n, m))

    if isinstance(variant, (Raem1Config, Raem2Config)):
        enc_anchors = anchor_points(variant.anchor, x_train, cube, m, rng.child(1))
        c = anchored_biases(w, enc_anchors)
    else:
        c = rng.child(1).generator().uniform(-1.0, 1.0, size=m)

    weights = solve_readout(HiddenLayer(weights=w, biases=c), x_train, x_train).T

    if isinstance(variant, (Raem1Config, Raem2Config, Raem3Config)):
        net_anchors = anchor_points(variant.anchor, x_train, cube, m, rng.child(2))
        biases = anchored_biases(weights, net_anchors)
    elif isinstance(variant, Raem4Config):
        biases = rng.child(2).generator().uniform(-1.0, 1.0, size=m)
    else:
        biases = weights.mean(axis=0)
    return HiddenLayer(weights=weights, biases=biases)


def inflection_hyperplane_offset(a, b: float) -> float:
    """Signed distance from the origin to the hyperplane a.x + b = 0."""
    a = np.asarray(a, dtype=float).ravel()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise DegenerateNodeError("zero weight vector has no inflection hyperplane")
    return -float(b) / norm
