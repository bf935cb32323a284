"""Direct random hidden-parameter generators.

Two families: uniform weights on [-u, u], and uniform slope angles mapped to
weights through a = 4 tan(alpha). Both place each node's inflection point at
an anchor inside the input hypercube by setting b_i = -a_i . x*_i, so the
steep part of every sigmoid lands where the data lives. Anchor points come
from one of three policies: uniform in the hypercube, a random training
point, or a k-means cluster prototype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import ConfigError, InvalidInputError
from .model import HiddenLayer
from .rng import RngStream

AnchorKind = Literal["uniform", "train-point", "cluster"]

# Slope weights from angles are capped just short of the 90 degree pole.
MAX_ABS_SLOPE_WEIGHT = 4.0 * math.tan(math.radians(89.99))


@dataclass(frozen=True)
class Hypercube:
    """Axis-aligned box: per-dimension [low, high] bounds."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise InvalidInputError("hypercube bounds must be 1-D arrays of equal length")
        if np.any(lows > highs):
            raise InvalidInputError("hypercube lower bounds exceed upper bounds")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self) -> int:
        return self.lows.shape[0]

    def contains(self, points: np.ndarray) -> bool:
        p = np.atleast_2d(points)
        return bool(np.all(p >= self.lows) and np.all(p <= self.highs))


def input_hypercube(x) -> Hypercube:
    """Bounding box of the rows of ``x``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError(f"need a nonempty 2-D input matrix, got shape {x.shape}")
    return Hypercube(lows=x.min(axis=0), highs=x.max(axis=0))


@dataclass(frozen=True)
class AnchorPolicy:
    """Where inflection anchors come from; defaults to random training points."""

    kind: AnchorKind = "train-point"
    kmeans_max_iter: int = 100
    kmeans_rel_tol: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("uniform", "train-point", "cluster"):
            raise ConfigError(f"unknown anchor policy {self.kind!r}")


@dataclass(frozen=True)
class RaMConfig:
    """Uniform weights on [-u, u] with anchored biases."""

    u: float
    anchor: AnchorPolicy = field(default_factory=AnchorPolicy)

    def __post_init__(self):
        if not self.u > 0:
            raise ConfigError(f"interval half-width u must be positive, got {self.u}")


@dataclass(frozen=True)
class RAlphaMConfig:
    """Uniform slope angles |alpha| on [alpha_min, alpha_max) degrees,
    independent random sign per weight, weights a = 4 tan(alpha)."""

    alpha_max_deg: float
    alpha_min_deg: float = 0.0
    anchor: AnchorPolicy = field(default_factory=AnchorPolicy)

    def __post_init__(self):
        if not 0.0 <= self.alpha_min_deg < self.alpha_max_deg <= 90.0:
            raise ConfigError(
                f"need 0 <= alpha_min < alpha_max <= 90, got "
                f"[{self.alpha_min_deg}, {self.alpha_max_deg}]"
            )


def _kmeans(x: np.ndarray, k: int, gen: np.random.Generator, max_iter: int, rel_tol: float) -> np.ndarray:
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

    for _ in range(max_iter):
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
        if shift / scale <= rel_tol:
            break
    return centers


def anchor_points(
    policy: AnchorPolicy,
    x_train: np.ndarray | None,
    cube: Hypercube,
    m: int,
    rng: RngStream,
) -> np.ndarray:
    """Draw ``m`` anchor points in the hypercube according to ``policy``."""
    if m < 1:
        raise ConfigError(f"need at least one anchor, got m={m}")
    gen = rng.generator()
    if policy.kind == "uniform":
        return gen.uniform(cube.lows, cube.highs, size=(m, cube.dim))
    if x_train is None or len(x_train) == 0:
        raise ConfigError(f"{policy.kind!r} anchors need a nonempty training set")
    x_train = np.asarray(x_train, dtype=float)
    if policy.kind == "train-point":
        idx = gen.integers(0, x_train.shape[0], size=m)
        return x_train[idx]
    if x_train.shape[0] < m:
        raise ConfigError(
            f"cluster anchors need at least m={m} training points, got {x_train.shape[0]}"
        )
    return _kmeans(x_train, m, gen, policy.kmeans_max_iter, policy.kmeans_rel_tol)


def anchored_biases(weights: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Biases b_i = -a_i . x*_i, one dot product per node so that the same
    product evaluated elsewhere cancels bitwise."""
    m = weights.shape[1]
    return np.array([-float(np.dot(weights[:, i], anchors[i])) for i in range(m)])


def generate_ram(
    cfg: RaMConfig,
    x_train: np.ndarray | None,
    cube: Hypercube,
    m: int,
    rng: RngStream,
) -> HiddenLayer:
    """Uniform weights on [-u, u]; weights use child stream 0, anchors child 1."""
    gen = rng.child(0).generator()
    weights = gen.uniform(-cfg.u, cfg.u, size=(cube.dim, m))
    anchors = anchor_points(cfg.anchor, x_train, cube, m, rng.child(1))
    return HiddenLayer(weights=weights, biases=anchored_biases(weights, anchors))


def generate_ralpham(
    cfg: RAlphaMConfig,
    x_train: np.ndarray | None,
    cube: Hypercube,
    m: int,
    rng: RngStream,
) -> HiddenLayer:
    """Uniform slope angles mapped to weights via a = 4 tan(alpha).

    Angles are sampled on [alpha_min, alpha_max) so 90 degrees is never hit;
    |a| is additionally capped at 4 tan(89.99 deg) as a float-safety guard.
    Draw order: angles, then signs, then anchors (child streams 0 and 1).
    """
    gen = rng.child(0).generator()
    abs_deg = gen.uniform(cfg.alpha_min_deg, cfg.alpha_max_deg, size=(cube.dim, m))
    signs = gen.integers(0, 2, size=(cube.dim, m)) * 2 - 1
    magnitude = np.minimum(4.0 * np.tan(np.radians(abs_deg)), MAX_ABS_SLOPE_WEIGHT)
    weights = signs * magnitude
    anchors = anchor_points(cfg.anchor, x_train, cube, m, rng.child(1))
    return HiddenLayer(weights=weights, biases=anchored_biases(weights, anchors))
