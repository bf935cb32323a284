"""Single-hidden-layer sigmoid network with a least-squares linear readout.

The hidden layer is frozen after generation; training only fits the output
weights, by a minimum-norm least-squares solve on the hidden output matrix.
There are no direct input-output links and no output bias.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import NormalizationSpec
from .errors import InvalidInputError
from .linalg import SolverConfig, lstsq

# Open-interval bounds for sigmoid outputs: saturation may round to 0.0/1.0
# in float64, which would put entries on the boundary of (0, 1).
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True, eq=False)
class HiddenLayer:
    """Frozen random hidden parameters: weights (n x m) and biases (m,)."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise InvalidInputError(f"hidden weights must be 2-D and nonempty, got {w.shape}")
        if b.shape != (w.shape[1],):
            raise InvalidInputError(
                f"bias shape {b.shape} does not match {w.shape[1]} nodes"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise InvalidInputError("hidden parameters contain non-finite values")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        w.flags.writeable = False
        b.flags.writeable = False

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def node_count(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class ReadoutWeights:
    """Output weight vector fitted by least squares."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if b.ndim != 1 or b.shape[0] < 1:
            raise InvalidInputError(f"readout weights must be 1-D and nonempty, got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise InvalidInputError("readout weights contain non-finite values")
        object.__setattr__(self, "beta", b)
        b.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TrainedNetwork:
    """Hidden layer plus fitted readout, with the training normalization."""

    hidden: HiddenLayer
    readout: ReadoutWeights
    normalization: NormalizationSpec | None = None

    def __post_init__(self):
        if self.readout.beta.shape[0] != self.hidden.node_count:
            raise InvalidInputError(
                f"readout length {self.readout.beta.shape[0]} does not match "
                f"{self.hidden.node_count} hidden nodes"
            )


def sigmoid(z, *, out=None):
    """Logistic function, numerically stable and strictly inside (0, 1).

    Computes ``1 / (1 + e)`` for z >= 0 and ``e / (1 + e)`` for z < 0, with
    ``e = exp(-|z|)``, so exp never overflows. Outputs are clipped to the
    open unit interval so saturated nodes never return exactly 0 or 1.
    ``z`` is left alone unless it is passed as ``out``, a float array of its
    shape that receives the result; ``out=z`` needs one temporary array only.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return float(sigmoid(z.reshape(1))[0])
    if out is None:
        out = np.empty_like(z)
    upper = z >= 0
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=out)
    np.copyto(e, 1.0, where=upper)
    np.divide(e, out, out=out)
    np.clip(out, _SIG_LO, _SIG_HI, out=out)
    return out


def affine_arguments(x, weights, biases) -> np.ndarray:
    """Node arguments x @ weights + biases with a fixed summation order.

    Accumulates one input dimension at a time, so every entry is a
    left-to-right sum that does not depend on how many rows are evaluated
    together. BLAS matmul reorders the reduction per block shape, which
    breaks bit-identical row-partitioned evaluation.
    """
    z = np.empty((x.shape[0], weights.shape[1]), dtype=float)
    z[:] = biases
    for j in range(weights.shape[0]):
        z += x[:, j, np.newaxis] * weights[j]
    return z


def hidden_outputs(layer: HiddenLayer, x) -> np.ndarray:
    """Hidden output matrix: entry (l, i) is sigmoid(a_i . x_l + b_i)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"inputs must be 2-D, got {x.ndim}-D")
    if x.shape[1] != layer.input_dim:
        raise InvalidInputError(
            f"input dimension {x.shape[1]} does not match layer dimension {layer.input_dim}"
        )
    z = affine_arguments(x, layer.weights, layer.biases)
    return sigmoid(z, out=z)


def train_readout(
    layer: HiddenLayer, x, y, cfg: SolverConfig = SolverConfig(), *, return_fitted=False
) -> ReadoutWeights | tuple[ReadoutWeights, np.ndarray]:
    """Fit the output weights on (x, y) by least squares.

    With ``return_fitted`` it returns ``(weights, fitted)``, where ``fitted``
    is the network's output on ``x``, taken from the hidden output matrix of
    the fit rather than a second one built by ``predict``.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise InvalidInputError(
            f"target shape {y.shape} does not match {x.shape[0]} input rows"
        )
    h = hidden_outputs(layer, x)
    readout = ReadoutWeights(lstsq(h, y, cfg))
    return (readout, h @ readout.beta) if return_fitted else readout


def predict(net: TrainedNetwork, x) -> np.ndarray:
    """Network outputs for each row of ``x``."""
    return hidden_outputs(net.hidden, x) @ net.readout.beta


def rmse(predicted, actual) -> float:
    """Root-mean-square error between two equal-length vectors."""
    p = np.asarray(predicted, dtype=float).ravel()
    a = np.asarray(actual, dtype=float).ravel()
    if p.shape != a.shape or p.size < 1:
        raise InvalidInputError(
            f"prediction length {p.shape} does not match target length {a.shape}"
        )
    return float(np.sqrt(np.mean((p - a) ** 2)))


def network_to_dict(net: TrainedNetwork) -> dict:
    """Self-describing JSON form; floats round-trip losslessly via repr."""
    return {
        "input_dim": net.hidden.input_dim,
        "node_count": net.hidden.node_count,
        "hidden_weights": net.hidden.weights.tolist(),
        "hidden_biases": net.hidden.biases.tolist(),
        "readout_weights": net.readout.beta.tolist(),
        "normalization": net.normalization.to_dict() if net.normalization else None,
    }


def network_from_dict(d: dict) -> TrainedNetwork:
    hidden = HiddenLayer(
        weights=np.asarray(d["hidden_weights"], dtype=float),
        biases=np.asarray(d["hidden_biases"], dtype=float),
    )
    if hidden.input_dim != d["input_dim"] or hidden.node_count != d["node_count"]:
        raise InvalidInputError("serialized dimensions disagree with weight shapes")
    norm = d.get("normalization")
    return TrainedNetwork(
        hidden=hidden,
        readout=ReadoutWeights(np.asarray(d["readout_weights"], dtype=float)),
        normalization=NormalizationSpec.from_dict(norm) if norm else None,
    )


def save_network(net: TrainedNetwork, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_network(path) -> TrainedNetwork:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
