"""Benchmark target functions and sampled regression problems.

Three multimodal test functions are supported, each defined on a hypercube:

* TF1 on [0, 1]^n: sum_j sin(20 * exp(x_j)) * x_j^2
* TF2 on [0, pi]^n: -sum_j sin(x_j) * sin(j * x_j^2 / pi)^20 (j starts at 1)
* TF3 on [-500, 500]^n: 418.9829 n - sum_j x_j sin(sqrt(|x_j|))

Problems are sampled uniformly on the domain, inputs scaled to [0, 1] and
targets to [-1, 1], with the scaling fitted on the training set only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, NormalizationSpec, normalize
from .errors import ConfigError, InvalidInputError, numpy_sized
from .rng import RngStream, as_stream

_DOMAINS = {
    "TF1": (0.0, 1.0),
    "TF2": (0.0, float(np.pi)),
    "TF3": (-500.0, 500.0),
}

_DEFAULT_SIZES = {1: 5000, 2: 5000, 5: 20000, 10: 50000}


@dataclass(frozen=True)
class TargetFunction:
    """One of the named benchmark functions in n input variables."""

    name: str
    n: int

    def __post_init__(self):
        if self.name not in _DOMAINS:
            raise ConfigError(
                f"unknown target function {self.name!r}; choose from {sorted(_DOMAINS)}"
            )
        if self.n < 1:
            raise ConfigError(f"input dimension must be >= 1, got {self.n}")

    @property
    def domain(self) -> tuple[float, float]:
        return _DOMAINS[self.name]

    @property
    def default_train_size(self) -> int:
        try:
            return _DEFAULT_SIZES[self.n]
        except KeyError:
            raise ConfigError(
                f"no default sample size for n={self.n}; "
                f"defaults exist for n in {sorted(_DEFAULT_SIZES)}"
            ) from None


def evaluate_tf(tf: TargetFunction, x) -> np.ndarray:
    """Evaluate the target function at each row of x (shape (N, n))."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != tf.n:
        raise InvalidInputError(f"expected points of dimension {tf.n}, got shape {x.shape}")
    lo, hi = tf.domain
    if np.any(x < lo) or np.any(x > hi):
        raise InvalidInputError(f"points outside the {tf.name} domain [{lo}, {hi}]")
    if tf.name == "TF1":
        return np.sum(np.sin(20.0 * np.exp(x)) * x**2, axis=1)
    if tf.name == "TF2":
        j = np.arange(1, tf.n + 1, dtype=float)
        return -np.sum(np.sin(x) * np.sin(j * x**2 / np.pi) ** 20, axis=1)
    return 418.9829 * tf.n - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=1)


@dataclass(frozen=True)
class SampledProblem:
    """Normalized train/test split drawn from one target function."""

    train: Dataset
    test: Dataset
    normalization: NormalizationSpec


def sample_problem(
    tf: TargetFunction,
    rng,
    *,
    train_size: int | None = None,
    test_size: int | None = None,
) -> SampledProblem:
    """Draw a problem instance: train points from child stream 0, test from 1.

    Train and test sets have the same default size and are sampled from
    disjoint substreams of the given stream. A size or dimension that numpy
    cannot draw is a ConfigError; one it cannot allocate, a MemoryError.
    """
    stream = as_stream(rng)
    if train_size is None:
        train_size = tf.default_train_size
    if test_size is None:
        test_size = train_size
    if train_size < 2 or test_size < 1:
        raise ConfigError(
            f"need train_size >= 2 and test_size >= 1, got {train_size}/{test_size}"
        )
    lo, hi = tf.domain

    def draw(child: RngStream, count: int) -> Dataset:
        with numpy_sized(f"cannot draw {count} points with n={tf.n}"):
            pts = child.generator().uniform(lo, hi, size=(count, tf.n))
        return Dataset(x=pts, y=evaluate_tf(tf, pts))

    train, spec = normalize(draw(stream.child(0), train_size),
                            input_range=(0.0, 1.0), output_range=(-1.0, 1.0))
    test, _ = normalize(draw(stream.child(1), test_size), spec)
    return SampledProblem(train=train, test=test, normalization=spec)


def demo_problem_1d(seed, *, train_size: int = 5000, test_size: int = 5000) -> SampledProblem:
    """Small single-variable problem used by examples and quick checks."""
    return sample_problem(
        TargetFunction("TF1", 1), as_stream(seed), train_size=train_size, test_size=test_size
    )
