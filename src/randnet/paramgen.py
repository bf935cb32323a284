"""Direct random hidden-parameter generators.

Two families: uniform weights on [-u, u], and uniform slope angles mapped to
weights through a = 4 tan(alpha). Both place each node's inflection point at
an anchor x*_i inside the bounding box of the training inputs by setting
b_i = -a_i . x*_i, so the steep part of every sigmoid lands where the data
lives. A config's ``anchor`` is the kind of anchor point, one of three:
``"uniform"`` in that box, a random ``"train-point"``, or a k-means
``"cluster"`` prototype. Every generator takes ``(cfg, x_train, m, rng)``
and derives the input dimension and the box from ``x_train``, which
``training_inputs`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import ConfigError, InvalidInputError, numpy_sized
from .model import HiddenLayer
from .rng import RngStream

AnchorKind = Literal["uniform", "train-point", "cluster"]

# Slope weights from angles are capped just short of the 90 degree pole.
MAX_ABS_SLOPE_WEIGHT = 4.0 * math.tan(math.radians(89.99))

# Lloyd iterations of the cluster anchors stop after this many rounds, or
# once the centers move by at most this share of their norm.
_KMEANS_MAX_ITER = 100
_KMEANS_REL_TOL = 1e-6


def training_inputs(x_train) -> np.ndarray:
    """``x_train`` as a float matrix; raise InvalidInputError unless it is
    2-D with at least one row. Every generator checks its inputs here."""
    x = np.asarray(x_train, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError(f"need a nonempty 2-D training matrix, got shape {x.shape}")
    return x


def weights_sized(x_train: np.ndarray, m: int):
    """``numpy_sized`` for the draw of an n x m weight matrix, the first
    array a generator sizes by its node count."""
    return numpy_sized(f"cannot draw nodes={m} hidden weights for n={x_train.shape[1]}")


def check_half_width(value: float, name: str) -> None:
    """Raise ConfigError unless ``[-value, value]`` is an interval a uniform
    draw can take: ``value`` positive and the width ``2 * value`` finite."""
    if not (value > 0 and math.isfinite(2 * value)):
        raise ConfigError(
            f"interval half-width {name} must be positive with 2*{name} finite, got {value}"
        )


@dataclass(frozen=True)
class RaMConfig:
    """Uniform weights on [-u, u] with anchored biases."""

    u: float
    anchor: AnchorKind = "train-point"

    def __post_init__(self):
        check_half_width(self.u, "u")


@dataclass(frozen=True)
class RAlphaMConfig:
    """Uniform slope angles |alpha| on [alpha_min, alpha_max) degrees,
    independent random sign per weight, weights a = 4 tan(alpha)."""

    alpha_max_deg: float
    alpha_min_deg: float = 0.0
    anchor: AnchorKind = "train-point"

    def __post_init__(self):
        if not 0.0 <= self.alpha_min_deg < self.alpha_max_deg <= 90.0:
            raise ConfigError(
                f"need 0 <= alpha_min < alpha_max <= 90, got "
                f"[{self.alpha_min_deg}, {self.alpha_max_deg}]"
            )


def _kmeans(x: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """Lloyd iterations with k-means++ seeding; empty clusters keep their center."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[gen.integers(0, n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = gen.choice(n, p=d2 / total)
        else:
            idx = gen.integers(0, n)
        centers[j] = x[idx]
        np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1), out=d2)

    for _ in range(_KMEANS_MAX_ITER):
        # argmin over squared distances, chunked to bound memory at large N*k
        assign = np.empty(n, dtype=np.intp)
        c_sq = np.sum(centers * centers, axis=1)
        for start in range(0, n, 4096):
            block = x[start:start + 4096]
            dists = c_sq - 2.0 * (block @ centers.T)
            assign[start:start + 4096] = np.argmin(dists, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centers[j] = x[members].mean(axis=0)
        shift = np.linalg.norm(new_centers - centers)
        scale = max(np.linalg.norm(centers), np.finfo(float).tiny)
        centers = new_centers
        if shift / scale <= _KMEANS_REL_TOL:
            break
    return centers


def anchor_points(kind: AnchorKind, x_train: np.ndarray, m: int, rng: RngStream) -> np.ndarray:
    """Draw ``m`` anchor points of ``kind`` for the training inputs
    ``x_train``: ``"uniform"`` in their bounding box, per-column
    ``[min, max]``, ``"train-point"`` random rows of ``x_train``, or
    ``"cluster"`` k-means prototypes of them. Every kind keeps the anchors
    inside that box; any other kind is a ConfigError."""
    x_train = training_inputs(x_train)
    if m < 1:
        raise ConfigError(f"need at least one anchor, got m={m}")
    if kind not in get_args(AnchorKind):
        raise ConfigError(f"unknown anchor kind {kind!r}; choose from {get_args(AnchorKind)}")
    gen = rng.generator()
    if kind == "uniform":
        return gen.uniform(x_train.min(axis=0), x_train.max(axis=0), size=(m, x_train.shape[1]))
    if kind == "train-point":
        idx = gen.integers(0, x_train.shape[0], size=m)
        return x_train[idx]
    if x_train.shape[0] < m:
        raise ConfigError(
            f"cluster anchors need at least m={m} training points, got {x_train.shape[0]}"
        )
    return _kmeans(x_train, m, gen)


def anchored_biases(weights: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Biases b_i = -a_i . x*_i, one dot product per node so that the same
    product evaluated elsewhere cancels bitwise: one stacked 1 x n by n x 1
    matmul, whose products have the bits of ``np.dot(weights[:, i],
    anchors[i])``."""
    return -np.matmul(weights.T[:, None, :], anchors[:, :, None])[:, 0, 0]


def generate_ram(cfg: RaMConfig, x_train: np.ndarray, m: int, rng: RngStream) -> HiddenLayer:
    """Uniform weights on [-u, u]; weights use child stream 0, anchors child 1."""
    x_train = training_inputs(x_train)
    with weights_sized(x_train, m):
        weights = rng.child(0).generator().uniform(-cfg.u, cfg.u, size=(x_train.shape[1], m))
    anchors = anchor_points(cfg.anchor, x_train, m, rng.child(1))
    return HiddenLayer(weights=weights, biases=anchored_biases(weights, anchors))


def generate_ralpham(
    cfg: RAlphaMConfig, x_train: np.ndarray, m: int, rng: RngStream
) -> HiddenLayer:
    """Uniform slope angles mapped to weights via a = 4 tan(alpha).

    Angles are sampled on [alpha_min, alpha_max) so 90 degrees is never hit;
    |a| is additionally capped at 4 tan(89.99 deg) as a float-safety guard.
    Draw order: angles, then signs, then anchors (child streams 0 and 1).
    """
    x_train = training_inputs(x_train)
    n = x_train.shape[1]
    gen = rng.child(0).generator()
    with weights_sized(x_train, m):
        abs_deg = gen.uniform(cfg.alpha_min_deg, cfg.alpha_max_deg, size=(n, m))
    signs = gen.integers(0, 2, size=(n, m)) * 2 - 1
    magnitude = np.minimum(4.0 * np.tan(np.radians(abs_deg)), MAX_ABS_SLOPE_WEIGHT)
    weights = signs * magnitude
    anchors = anchor_points(cfg.anchor, x_train, m, rng.child(1))
    return HiddenLayer(weights=weights, biases=anchored_biases(weights, anchors))
