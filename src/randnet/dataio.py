"""Tabular dataset ingestion, min-max normalization and random splits.

Reads plain CSV as well as KEEL-style ``.dat`` files (lines starting with
``@`` are skipped, so ``@relation``/``@attribute``/``@data`` headers pass
through unmodified). Normalization is a per-column affine map fitted on one
dataset and reapplied to another, which is how train/test pairs share a map.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, InvalidInputError
from .rng import RngStream, as_stream


@dataclass(frozen=True)
class Dataset:
    """Input matrix ``x`` (N x n), target vector ``y`` (N,), optional feature
    names and the target's name; the column names, ``x1..xn`` for features
    left unnamed, must differ, or the dataset is an InvalidInputError."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None
    target_name: str = "y"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidInputError(f"dataset inputs must be 2-D and nonempty, got {x.shape}")
        if y.shape != (x.shape[0],):
            raise InvalidInputError(f"target length {y.shape} does not match {x.shape[0]} rows")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidInputError("dataset contains non-finite values")
        if self.feature_names is not None and len(self.feature_names) != x.shape[1]:
            raise InvalidInputError("feature name count does not match column count")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        names = self.column_names
        for j, name in enumerate(names):
            if name in names[:j]:  # a written header would be ambiguous
                raise InvalidInputError(f"dataset repeats the column name {name!r}")
        x.flags.writeable = False
        y.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def column_names(self) -> tuple[str, ...]:
        """The feature names, or ``x1..xn``, then the target's name."""
        features = self.feature_names or tuple(f"x{j + 1}" for j in range(self.n_features))
        return (*features, self.target_name)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices], self.feature_names, self.target_name)


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-column affine maps ``normalized = scale * raw + offset``.

    Constant columns get scale 0 and map everything to the midpoint of the
    target range, so they are the one non-invertible case.
    """

    input_scale: np.ndarray
    input_offset: np.ndarray
    output_scale: float
    output_offset: float
    input_range: tuple[float, float] = (0.0, 1.0)
    output_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "input_scale", np.asarray(self.input_scale, dtype=float))
        object.__setattr__(self, "input_offset", np.asarray(self.input_offset, dtype=float))

    @property
    def n_features(self) -> int:
        return self.input_scale.shape[0]

    def apply_inputs(self, x: np.ndarray) -> np.ndarray:
        return x * self.input_scale + self.input_offset

    def apply_output(self, y: np.ndarray) -> np.ndarray:
        return y * self.output_scale + self.output_offset

    def invert_inputs(self, x: np.ndarray) -> np.ndarray:
        if np.any(self.input_scale == 0.0):
            raise InvalidInputError("constant input column cannot be denormalized")
        return (x - self.input_offset) / self.input_scale

    def to_dict(self) -> dict:
        return {
            "input_scale": self.input_scale.tolist(),
            "input_offset": self.input_offset.tolist(),
            "output_scale": self.output_scale,
            "output_offset": self.output_offset,
            "input_range": list(self.input_range),
            "output_range": list(self.output_range),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        return cls(
            input_scale=np.asarray(d["input_scale"], dtype=float),
            input_offset=np.asarray(d["input_offset"], dtype=float),
            output_scale=float(d["output_scale"]),
            output_offset=float(d["output_offset"]),
            input_range=tuple(d["input_range"]),
            output_range=tuple(d["output_range"]),
        )


def _affine_to_range(lo, hi, target: tuple[float, float]):
    """Scales and offsets of the affine maps that take each ``[lo, hi]``
    onto ``target``; a constant entry (``hi == lo``) gets scale 0 and the
    target's midpoint as its offset. A range too wide or too narrow for a
    float gives inf or nan without a warning, as Python's floats do."""
    t_lo, t_hi = target
    varies = hi > lo
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.divide(t_hi - t_lo, hi - lo, out=np.zeros(np.shape(lo)), where=varies)
        return scale, np.where(varies, t_lo - scale * lo, 0.5 * (t_lo + t_hi))


def fit_normalization(
    ds: Dataset,
    input_range: tuple[float, float] = (0.0, 1.0),
    output_range: tuple[float, float] = (0.0, 1.0),
) -> NormalizationSpec:
    """Fit per-column min-max maps on ``ds``."""
    scales, offsets = _affine_to_range(ds.x.min(axis=0), ds.x.max(axis=0), input_range)
    out_scale, out_offset = _affine_to_range(ds.y.min(), ds.y.max(), output_range)
    return NormalizationSpec(
        input_scale=scales,
        input_offset=offsets,
        output_scale=float(out_scale),
        output_offset=float(out_offset),
        input_range=input_range,
        output_range=output_range,
    )


def normalize(
    ds: Dataset,
    spec: NormalizationSpec | None = None,
    *,
    input_range: tuple[float, float] = (0.0, 1.0),
    output_range: tuple[float, float] = (0.0, 1.0),
) -> tuple[Dataset, NormalizationSpec]:
    """Normalize ``ds``, fitting a fresh spec unless one is given.

    Pass the spec fitted on a training set to transform its test set with
    the same affine maps.
    """
    if spec is None:
        spec = fit_normalization(ds, input_range, output_range)
    elif spec.n_features != ds.n_features:
        raise InvalidInputError(
            f"normalization spec has {spec.n_features} columns, dataset has {ds.n_features}"
        )
    return (
        Dataset(spec.apply_inputs(ds.x), spec.apply_output(ds.y), ds.feature_names,
                ds.target_name),
        spec,
    )


def load_csv(
    path,
    *,
    delimiter: str = ",",
    header: bool = False,
    target_column: int | str | None = None,
) -> Dataset:
    """Load a numeric CSV or KEEL ``.dat`` file into a Dataset.

    Blank lines and ``@`` lines are skipped; every other line is one row, and
    the first, the header when ``header`` is true, sets the width: a later
    row of another width, a header that repeats a name, or a cell that is
    not a finite number is a DataFormatError that says where it lies. The
    last column is the target unless ``target_column`` selects another (by
    index, or by name when ``header`` is true); the header names the
    features and the target, which is otherwise ``y``. A delimiter that is
    not one character is a ConfigError, raised before the file is read; a
    file that is not UTF-8 text is a DataFormatError. A leading byte-order
    mark, as spreadsheet exports write, is skipped.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            # blank and @ lines are read as empty records, so record i is line i
            lines = ("" if line.startswith("@") else line for line in map(str.strip, fh))
            reader = csv.reader(lines, delimiter=delimiter)
            records = [(reader.line_num, cells) for cells in reader]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a cell longer than csv's field size limit
        raise DataFormatError(f"{path}: {exc} at line {reader.line_num}") from None
    for lineno, (last_line, _) in enumerate(records, start=1):
        if last_line != lineno:  # a quoted cell ran on into the next line
            raise DataFormatError(f"{path}: unterminated quote at line {lineno}")
    rows = [record for record in records if record[1]]

    if len(rows) <= header:
        raise DataFormatError(f"{path}: no data rows")
    width = len(rows[0][1])
    if width < 2:
        raise DataFormatError(f"{path}: need at least one feature column plus a target")
    names = [c.strip() for c in rows.pop(0)[1]] if header else None
    for j, name in enumerate(names or ()):
        if name in names[:j]:  # a named target or a written header would be ambiguous
            raise DataFormatError(f"{path}: header repeats the column name {name!r}")

    values = np.empty((len(rows), width))
    for r, (lineno, cells) in enumerate(rows):
        if len(cells) != width:
            raise DataFormatError(
                f"{path}: ragged row at line {lineno}: expected {width} cells, got {len(cells)}"
            )
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise DataFormatError(
                    f"{path}: {kind} value {cell.strip()!r} at line {lineno}, column {c + 1}"
                )
            values[r, c] = value

    if target_column is None:
        target = width - 1
    elif isinstance(target_column, str):
        if names is None:
            raise ConfigError("target_column by name requires header=True")
        try:
            target = names.index(target_column)
        except ValueError:
            raise ConfigError(f"no column named {target_column!r} in {names}") from None
    else:
        target = int(target_column)
        if not -width <= target < width:
            raise ConfigError(f"target column {target} out of range for {width} columns")
        target %= width

    feature_idx = [j for j in range(width) if j != target]
    if names is None:
        return Dataset(values[:, feature_idx], values[:, target])
    return Dataset(values[:, feature_idx], values[:, target],
                   tuple(names[j] for j in feature_idx), names[target])


def write_dataset_csv(path, ds: Dataset) -> None:
    """Write ``ds`` as CSV, the features then the target, with full-precision
    floats under a header of its ``column_names``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names)
        for row, target in zip(ds.x, ds.y):
            writer.writerow([f"{v:.17g}" for v in row] + [f"{target:.17g}"])


def split_75_25(ds: Dataset, rng: int | RngStream) -> tuple[Dataset, Dataset]:
    """Random disjoint 75/25 split; the 75% size rounds half up."""
    n = ds.n_samples
    if n < 4:
        raise InvalidInputError(f"need at least 4 samples to split, got {n}")
    n_train = math.floor(0.75 * n + 0.5)
    perm = as_stream(rng).generator().permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return ds.subset(train_idx), ds.subset(test_idx)


def dataset_summary(ds: Dataset, name: str | None = None) -> dict:
    """JSON-ready summary: name, sizes and per-column ranges."""
    columns = [
        {"name": name, "min": float(ds.x[:, j].min()), "max": float(ds.x[:, j].max())}
        for j, name in enumerate(ds.column_names[:-1])
    ]
    return {
        "name": name,
        "n_samples": ds.n_samples,
        "n_features": ds.n_features,
        "columns": columns,
        "target": {"min": float(ds.y.min()), "max": float(ds.y.max())},
    }
