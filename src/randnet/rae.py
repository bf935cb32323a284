"""Randomized autoencoder pretraining of hidden weights.

A random sigmoid encoder maps inputs to an m-dimensional code; the linear
decoder V that reconstructs the inputs is fitted in one least-squares solve.
The decoder rows then become the network's hidden weights (A = V'). Five
variants differ in how the encoder parameters and the network biases are
chosen; variant 1 additionally tunes the encoder weight interval, which
controls how steep the produced sigmoids are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DegenerateNodeError, InvalidInputError
from .linalg import SolverConfig, lstsq
from .model import HiddenLayer, affine_arguments, sigmoid
from .paramgen import AnchorPolicy, Hypercube, anchor_points, anchored_biases
from .rng import RngStream


@dataclass(frozen=True, eq=False)
class RaeHidden:
    """Random encoder parameters: weights (n x m) and biases (m,)."""

    w: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if w.ndim != 2 or c.shape != (w.shape[1],):
            raise InvalidInputError(
                f"encoder shapes inconsistent: weights {w.shape}, biases {c.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(c))):
            raise InvalidInputError("encoder parameters contain non-finite values")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class RaeDecoder:
    """Least-squares decoder weights V (m x n)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2:
            raise InvalidInputError(f"decoder weights must be 2-D, got {v.ndim}-D")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class Raem1Config:
    """Tuned encoder interval [-u_ae, u_ae]; anchored encoder and network biases."""

    u_ae: float
    anchor: AnchorPolicy = field(default_factory=AnchorPolicy)

    def __post_init__(self):
        if not self.u_ae > 0:
            raise InvalidInputError(f"u_ae must be positive, got {self.u_ae}")


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


def rae_encode(hidden: RaeHidden, x) -> np.ndarray:
    """Encoder output matrix G: entry (l, i) is sigmoid(w_i . x_l + c_i)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != hidden.w.shape[0]:
        raise InvalidInputError(
            f"input shape {x.shape} does not match encoder dimension {hidden.w.shape[0]}"
        )
    z = affine_arguments(x, hidden.w, hidden.c)
    return sigmoid(z, out=z)


def rae_decode_weights(g, x, cfg: SolverConfig = SolverConfig()) -> RaeDecoder:
    """Decoder V solving G V ~ X in the least-squares sense."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if g.ndim != 2 or x.ndim != 2 or g.shape[0] != x.shape[0]:
        raise InvalidInputError(
            f"row counts must match: code {g.shape}, inputs {x.shape}"
        )
    return RaeDecoder(lstsq(g, x, cfg))


def raem_hidden_layer(
    variant: RaemConfig,
    x_train: np.ndarray,
    cube: Hypercube,
    m: int,
    rng: RngStream,
    cfg: SolverConfig = SolverConfig(),
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

    code = rae_encode(RaeHidden(w=w, c=c), x_train)
    weights = rae_decode_weights(code, x_train, cfg).v.T

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
