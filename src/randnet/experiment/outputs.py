"""Deterministic report files: summary JSON plus tabular CSV/JSON outputs.

Floats are written with repr (shortest round-trip form) and JSON objects
with sorted keys, so a rerun of the same configuration produces
byte-identical files. Wall-clock measurements never appear in any output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import Sequence

from .stats import Histogram, summarize
from .trials import CvCell, TrialReport


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path_base: str, rows, fmt: str = "csv") -> str:
    """Write rows, dicts with the same keys, as CSV under the first row's
    keys or as a JSON list of objects; returns the path."""
    rows = list(rows)
    if fmt == "json":
        path = path_base + ".json"
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
    path = path_base + ".csv"
    with open(path, "w", newline="") as fh:
        # csv writes a float as its repr and None as an empty cell
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
    return path


def trial_rows(method: str, reports: Sequence[TrialReport]):
    for r in reports:
        yield {"method": method, "trial": r.trial, "rmse_train": r.rmse_train,
               "rmse_test": r.rmse_test}


def histogram_rows(method: str, hist: Histogram):
    for i, count in enumerate(hist.counts):
        yield {"method": method, "bin_left": float(hist.edges[i]),
               "bin_right": float(hist.edges[i + 1]), "count": int(count)}


def cv_rows(method: str, table: Sequence[CvCell]):
    for cell in table:
        yield {"method": method, **asdict(cell)}


def method_summary(reports: Sequence[TrialReport]) -> dict:
    """Aggregate train/test RMSE statistics over a method's trial reports."""
    return {
        "rmse_test": summarize([r.rmse_test for r in reports]),
        "rmse_train": summarize([r.rmse_train for r in reports]),
    }
