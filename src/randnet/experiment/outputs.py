"""Deterministic report files: summary JSON plus tabular CSV/JSON outputs.

Floats are written with repr (shortest round-trip form) and JSON objects
with sorted keys, so a rerun of the same configuration produces
byte-identical files. Wall-clock measurements never appear in any output.
"""

from __future__ import annotations

import csv
import json
from typing import Sequence

from .stats import Histogram, summarize
from .trials import CvCell, SweepPoint, TrialReport


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path_base: str, columns: Sequence[str], rows, fmt: str = "csv") -> str:
    """Write rows under the given columns as CSV or JSON; returns the path."""
    rows = [list(r) for r in rows]
    if fmt == "json":
        path = path_base + ".json"
        payload = [dict(zip(columns, r)) for r in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
    path = path_base + ".csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_cell(v) for v in r])
    return path


def trial_rows(method: str, reports: Sequence[TrialReport]):
    for r in reports:
        yield [method, r.trial, r.rmse_train, r.rmse_test]


TRIAL_COLUMNS = ("method", "trial", "rmse_train", "rmse_test")


def histogram_rows(method: str, hist: Histogram):
    for i, count in enumerate(hist.counts):
        yield [method, float(hist.edges[i]), float(hist.edges[i + 1]), int(count)]


HISTOGRAM_COLUMNS = ("method", "bin_left", "bin_right", "count")


def sweep_rows(points: Sequence[SweepPoint]):
    for p in points:
        yield [p.u_ae, p.median_abs_weight, p.mean_rmse]


SWEEP_COLUMNS = ("u_ae", "median_abs_weight", "mean_rmse")


def cv_rows(method: str, table: Sequence[CvCell]):
    for cell in table:
        yield [method, cell.m, cell.interval, cell.mean_rmse]


CV_COLUMNS = ("method", "m", "interval", "mean_rmse")


def method_summary(reports: Sequence[TrialReport]) -> dict:
    """Aggregate train/test RMSE statistics over a method's trial reports."""
    return {
        "rmse_test": summarize([r.rmse_test for r in reports]),
        "rmse_train": summarize([r.rmse_train for r in reports]),
    }
