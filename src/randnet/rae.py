"""Randomized autoencoder pretraining of hidden weights.

A random sigmoid encoder maps inputs to an m-dimensional code; the linear
decoder V that reconstructs the inputs is fitted in one least-squares solve.
The encoder is a ``HiddenLayer`` and V its readout with the inputs as
targets, so ``model.solve_readout`` fits V as it fits the network's readout,
through ``linalg.solve_rows``, and never holds the whole code matrix G. The
decoder rows become the network's hidden weights (A = V'). The five
variants differ in three choices, which each config class declares as class
attributes, not fields: the encoder interval ``u_ae`` (1, or a field that
variant 1 tunes to set the sigmoids' steepness) and the ``encoder_biases``
and ``network_biases`` rules, ``"anchored"``, ``"uniform"`` on [-1, 1] or
the weights' ``"mean"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateNodeError
from .model import HiddenLayer, solve_readout
from .paramgen import (
    AnchorKind,
    anchor_points,
    anchored_biases,
    check_half_width,
    training_inputs,
    weights_sized,
)
from .rng import RngStream


@dataclass(frozen=True)
class Raem1Config:
    """Tuned encoder interval [-u_ae, u_ae]; anchored encoder and network biases."""

    u_ae: float
    anchor: AnchorKind = "train-point"
    encoder_biases, network_biases = "anchored", "anchored"

    def __post_init__(self):
        check_half_width(self.u_ae, "u_ae")


@dataclass(frozen=True)
class Raem2Config:
    """Fixed encoder interval [-1, 1]; anchored encoder and network biases."""

    anchor: AnchorKind = "train-point"
    u_ae, encoder_biases, network_biases = 1.0, "anchored", "anchored"


@dataclass(frozen=True)
class Raem3Config:
    """Encoder weights and biases uniform on [-1, 1]; anchored network biases."""

    anchor: AnchorKind = "train-point"
    u_ae, encoder_biases, network_biases = 1.0, "uniform", "anchored"


@dataclass(frozen=True)
class Raem4Config:
    """Encoder weights/biases and network biases all uniform on [-1, 1]."""

    u_ae, encoder_biases, network_biases = 1.0, "uniform", "uniform"


@dataclass(frozen=True)
class Raem5Config:
    """Encoder parameters uniform on [-1, 1]; network bias b_i is the mean
    of node i's weights, which pins every 1-D inflection at x = -1."""

    u_ae, encoder_biases, network_biases = 1.0, "uniform", "mean"


RaemConfig = Union[Raem1Config, Raem2Config, Raem3Config, Raem4Config, Raem5Config]


def _biases(rule: str, cfg: RaemConfig, weights: np.ndarray, x_train: np.ndarray,
            rng: RngStream) -> np.ndarray:
    """Biases by ``rule`` for the columns of ``weights``, drawn from ``rng``."""
    m = weights.shape[1]
    if rule == "anchored":
        return anchored_biases(weights, anchor_points(cfg.anchor, x_train, m, rng))
    if rule == "uniform":
        return rng.generator().uniform(-1.0, 1.0, size=m)
    return weights.mean(axis=0)


def raem_hidden_layer(cfg: RaemConfig, x_train: np.ndarray, m: int, rng: RngStream) -> HiddenLayer:
    """Build an autoencoder-pretrained hidden layer for one variant.

    Encoder weights come from child stream 0, encoder biases from child 1,
    network biases from child 2. All variants share A = V' with V the
    fitted decoder.
    """
    x_train = training_inputs(x_train)
    with weights_sized(x_train, m):
        w = rng.child(0).generator().uniform(-cfg.u_ae, cfg.u_ae, size=(x_train.shape[1], m))
    c = _biases(cfg.encoder_biases, cfg, w, x_train, rng.child(1))
    weights = solve_readout(HiddenLayer(weights=w, biases=c), x_train, x_train).T
    biases = _biases(cfg.network_biases, cfg, weights, x_train, rng.child(2))
    return HiddenLayer(weights=weights, biases=biases)


def inflection_hyperplane_offset(a, b: float) -> float:
    """Signed distance from the origin to the hyperplane a.x + b = 0."""
    a = np.asarray(a, dtype=float).ravel()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise DegenerateNodeError("zero weight vector has no inflection hyperplane")
    return -float(b) / norm
