"""Single-hidden-layer sigmoid network with a least-squares linear readout.

The hidden layer is frozen after generation; training only fits the output
weights, by a minimum-norm least-squares solve on the hidden output matrix H.
There are no direct input-output links and no output bias.

H is built by ``build_hidden`` in pieces of about 64K entries, so every
elementwise pass over a piece stays in cache, and each piece's temporaries
live in one work array reused for all of them: tiles of ``tile_rows`` rows
for a row-major target, column panels for a column-major one, which is
built where it lies. Every entry is computed by the same operations
whatever the pieces, so H is bitwise the same. A tall fit (more rows than
nodes) streams H into the blocked QR of ``linalg.solve_rows``: each row
block of ``[H | t]``, one block included, is built into its own F-ordered
buffer and reduced there, and ``solve_rows`` keeps only its triangle. So
the fit never holds all of H. ``solve_readout`` is that fit for any target
t, the readout's y or the autoencoder decoder's inputs X, and returns the
solution alone. ``predict`` likewise multiplies one tile at a time by the
readout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import NormalizationSpec
from .errors import InvalidInputError
from .linalg import map_blocks, row_blocks, solve_rows

# Largest sigmoid output below 1: a saturated z >= 37 would round to 1.0.
_SIG_HI = np.nextafter(1.0, 0.0)

# The sigmoid takes exp(-min(|z|, _EXP_FLOOR)). Its smallest output,
# exp(-354) / (1 + exp(-354)) ~ 1.8e-154, squares to 3.3e-308, a normal
# number, so no entry of H nor product of two is subnormal, on which numpy's
# exp, dgeqrf and dgemv slow down (64K exps: 32 us in [-700, 0], 4.7 ms when
# all subnormal; numpy 2.4.6, 2-core x86-64). exp(-354) is below 2**-53, so
# for z >= 354 ``1 + e`` still rounds to 1, as it would with exp(-z).
_EXP_FLOOR = 354.0

# A tile holds about _TILE_ELEMS entries (512 KB) and a multiple of
# _TILE_ALIGN rows. With OpenBLAS, a matrix-vector product taken over such
# tiles, counted from row 0, gives the same bits as one over all rows; over
# tiles of a ragged height, such as 81 rows, it does not.
_TILE_ELEMS = 1 << 16
_TILE_ALIGN = 64


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

    Computes ``n / (1 + e)`` with ``e = exp(-min(|z|, 354))`` and numerator
    ``n = e`` for z < 0 and 1 for z >= 0, so exp never overflows and runs
    once per entry. That is bitwise ``1 / (1 + exp(-z))`` for z >= 0 and
    ``exp(z) / (1 + exp(z))`` for -354 <= z < 0; below -354 the output stays
    at its value at -354, about 1.8e-154, so it is never subnormal or 0, and
    it is capped below 1 so saturated nodes never return exactly 1. ``z`` is
    left alone unless it is passed as ``out``, a float64 array of its shape
    that receives the result; ``out=z`` needs one temporary array only. Any
    other ``out`` is an InvalidInputError, raised before anything is written.
    """
    z = np.asarray(z, dtype=float)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == z.shape):
        raise InvalidInputError(f"out must be a float64 array of shape {z.shape}")
    if z.ndim == 0 and out is None:
        return float(sigmoid(z.reshape(1))[0])
    if out is None:
        out = np.empty_like(z)
    _sigmoid_tile(z, out, np.empty_like(z))
    return out


def _sigmoid_tile(z, out, work) -> None:
    """``sigmoid(z, out=out)`` with ``work``, an array of z's shape that is
    neither z nor out, as its one temporary.

    exp runs once per entry, on an argument never below -354, where a
    saturated node would give a subnormal (see ``_EXP_FLOOR``). The numerator
    ``max(ceil(min(z, 1)), e)`` is ``e`` where z < 0, since there the
    ceiling is at most -0 and ``e >= 0``, and exactly 1 where z > 0, since
    there the ceiling is 1 and ``e <= 1``; at z = 0 and z = -0, ``e`` is 1.
    So no masked pass picks between the two branches. The ceiling comes
    first in ``max`` because ``max`` and the division return their first
    NaN operand: a NaN z then comes out as itself, as in the two-branch
    formula, and not with the sign bit ``e`` gets from the negation. z is
    last read by the ``min`` of the numerator, so ``out`` may be z.
    """
    np.abs(z, out=work)
    np.minimum(work, _EXP_FLOOR, out=work)
    np.negative(work, out=work)
    np.exp(work, out=work)
    np.minimum(z, 1.0, out=out)
    np.ceil(out, out=out)
    np.maximum(out, work, out=out)
    work += 1.0
    np.divide(out, work, out=out)
    np.minimum(out, _SIG_HI, out=out)


def _affine_tile(x, weights, biases, out, work) -> None:
    """Node arguments ``x @ weights + biases`` into ``out``, with ``work``,
    an array of out's shape, for the products of the second input dimension
    on.

    The sum runs in a fixed order, ``b + x0 w0``, then ``+ xj wj`` one
    input dimension at a time, so every entry is a left-to-right sum that
    does not depend on how many rows are evaluated together; BLAS matmul
    reorders the reduction per block shape, which would break bit-identical
    evaluation in tiles. Each product is a copy of ``w_j`` scaled by ``x_j``
    in place, which broadcasts one operand where ``np.multiply(x_j, w_j)``
    broadcasts two, and the biases are added to the first: IEEE
    multiplication and addition commute, so ``w0 x0 + b`` has the bits of
    ``b + x0 w0``."""
    np.copyto(out, weights[0])
    out *= x[:, 0, np.newaxis]
    out += biases
    for j in range(1, weights.shape[0]):
        np.copyto(work, weights[j])
        work *= x[:, j, np.newaxis]
        out += work


def _hidden_tile(x, weights, biases, out, work) -> None:
    """``sigmoid(x @ weights + biases)`` into ``out``, with ``work`` as the
    one temporary of both steps."""
    _affine_tile(x, weights, biases, out, work)
    _sigmoid_tile(out, out, work)


def tile_rows(nodes: int) -> int:
    """Rows per tile of a hidden-layer build with ``nodes`` columns."""
    return max(_TILE_ALIGN, _TILE_ELEMS // nodes // _TILE_ALIGN * _TILE_ALIGN)


def _tiles(rows: int, nodes: int) -> list[slice]:
    step = tile_rows(nodes)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def build_hidden(x, weights, biases, out) -> None:
    """Write ``sigmoid(x @ weights + biases)`` into ``out``, in pieces of
    about ``_TILE_ELEMS`` entries.

    A column-major target, such as the H columns of an F-ordered ``[H | y]``
    buffer, is built where it lies one column panel at a time, about
    ``_TILE_ELEMS // rows`` columns wide, with one F-ordered work panel and
    x's columns made contiguous once, so every pass runs down contiguous
    columns. Any other target is built in tiles of ``tile_rows`` rows, with
    one work tile reused for every tile. Either way one work array holds the
    temporaries of both steps, and every entry gets the same operations.
    """
    rows, nodes = x.shape[0], weights.shape[1]
    if out.flags.f_contiguous and not out.flags.c_contiguous:
        width = max(1, _TILE_ELEMS // max(1, rows))
        columns = np.asfortranarray(x)
        work = np.empty((rows, min(width, nodes)), order="F")
        for lo in range(0, nodes, width):
            cols = slice(lo, min(lo + width, nodes))
            _hidden_tile(columns, weights[:, cols], biases[cols], out[:, cols],
                         work[:, :cols.stop - lo])
        return
    work = np.empty((min(tile_rows(nodes), rows), nodes))
    for tile in _tiles(rows, nodes):
        _hidden_tile(x[tile], weights, biases, out[tile], work[:tile.stop - tile.start])


def _inputs(layer: HiddenLayer, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"inputs must be 2-D, got {x.ndim}-D")
    if x.shape[1] != layer.input_dim:
        raise InvalidInputError(
            f"input dimension {x.shape[1]} does not match layer dimension {layer.input_dim}"
        )
    return x


def hidden_outputs(layer: HiddenLayer, x) -> np.ndarray:
    """Hidden output matrix: entry (l, i) is sigmoid(a_i . x_l + b_i)."""
    x = _inputs(layer, x)
    h = np.empty((x.shape[0], layer.node_count), dtype=float)
    build_hidden(x, layer.weights, layer.biases, h)
    return h


def solve_readout(layer: HiddenLayer, x, t) -> np.ndarray:
    """Least-squares solution ``B`` of ``H B ~ t``, with ``H`` the hidden
    outputs of ``layer`` on ``x`` and ``t`` 1-D or 2-D, bitwise equal to
    ``lstsq(hidden_outputs(layer, x), t)``.

    ``linalg.solve_rows`` has ``build_hidden`` write H's rows, panel by
    panel, into the F-ordered buffers it solves on: one per row block of a
    tall fit (more rows than nodes), and one for all of H otherwise. Those
    buffers hold the values, in the layout, of the ones ``lstsq`` fills, so
    the solution is the same.
    """
    x = _inputs(layer, x)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("training inputs contain non-finite values")
    return solve_rows(lambda rows, out: build_hidden(x[rows], layer.weights, layer.biases, out),
                      (x.shape[0], layer.node_count), t)


def train_readout(layer: HiddenLayer, x, y) -> ReadoutWeights:
    """Fit the output weights on (x, y) by least squares, by ``solve_readout``."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InvalidInputError(f"target must be 1-D, got shape {y.shape}")
    return ReadoutWeights(solve_readout(layer, x, y))


def predict(net: TrainedNetwork, x) -> np.ndarray:
    """Network outputs for each row of ``x``.

    The hidden outputs are built one tile at a time into one reused buffer
    per block, with one reused work tile, and each tile is multiplied by the
    readout, so the hidden output matrix of ``x`` is never held. The blocks
    are as many as ``row_blocks`` gives, but made of whole tiles, so every
    tile starts at a multiple of its height and the result is bitwise
    ``H @ beta``.
    """
    layer, beta = net.hidden, net.readout.beta
    x = _inputs(layer, x)
    out = np.empty(x.shape[0])
    m = layer.node_count
    tiles = _tiles(x.shape[0], m)
    count = len(row_blocks(x.shape[0], m))

    def block(i: int) -> None:
        height = min(tile_rows(m), x.shape[0])
        h, work = np.empty((height, m)), np.empty((height, m))
        for rows in tiles[len(tiles) * i // count: len(tiles) * (i + 1) // count]:
            k = rows.stop - rows.start
            _hidden_tile(x[rows], layer.weights, layer.biases, h[:k], work[:k])
            np.matmul(h[:k], beta, out=out[rows])

    for _ in map_blocks(block, list(range(count))):
        pass
    return out


def rmse(predicted, actual) -> float:
    """Root-mean-square error between two equal-length vectors."""
    p = np.asarray(predicted, dtype=float).ravel()
    a = np.asarray(actual, dtype=float).ravel()
    if p.shape != a.shape:
        raise InvalidInputError(
            f"prediction length {p.shape} does not match target length {a.shape}"
        )
    if p.size < 1:
        raise InvalidInputError("cannot take the RMSE of empty vectors")
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
