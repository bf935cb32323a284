"""The benchmark's workloads and the checks applied to their outputs.

Each workload is one ``randnet`` CLI command. Its inputs come from the
benchmark seed: the seed is passed to the command as ``--seed``, and the
file-backed workload also writes its CSV from that seed. Everything here
uses the standard library only, so the driver process stays small.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

_TF1_ROW = (
    "--method", '{"method": "ralpham", "alpha_max_deg": 90.0}',
    "--method", '{"method": "ram", "u": 20.0}',
    "--method", '{"method": "raem1", "u_ae": 0.001}',
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]
    jobs: int
    min_runs: int = 2   # full commands per untraced run, at least 2 to compare reruns
    data_rows: int = 0  # > 0: write a CSV of this many rows and pass it as --data

    def argv(self, seed: int, out_dir: str, data_path: str | None) -> list[str]:
        """CLI arguments for one run; outputs (model file included) go to out_dir."""
        argv = [a.replace("{out}", out_dir) for a in self.args]
        if self.data_rows:
            argv += ["--data", data_path, "--header"]
        return argv + ["--jobs", str(self.jobs), "--seed", str(seed), "--out", out_dir]


WORKLOADS = {w.name: w for w in (
    Workload(
        "tf1-m800",
        "paper's headline row: dense 5000x800 solves on a 2-worker pool, "
        "which exposes BLAS oversubscription",
        ("benchmark", "--tf", "TF1", "--n", "2", "--train-size", "5000",
         "--test-size", "5000", "--nodes", "800", "--trials", "2", *_TF1_ROW),
        jobs=2,
    ),
    Workload(
        "uae-sweep-m25",
        "130 small raem1 fits with no thread pool: tall-skinny solves, "
        "elementwise H work and per-call overhead",
        ("uae-sweep", "--tf", "TF1", "--n", "1", "--train-size", "5000",
         "--test-size", "5000", "--nodes", "25", "--trials", "10",
         "--sweep-lo", "1e-5", "--sweep-hi", "10", "--sweep-points", "13"),
        jobs=1,
    ),
    Workload(
        "compare-cv-file",
        "CSV load, k-fold grid search (about 1,095 small fits), signed-rank "
        "tests, histograms and four output tables",
        ("compare", "--cv", "--method", "ralpham", "--method", "ram",
         "--method", "raem5", "--grid-nodes", "25,50,100", "--trials", "20"),
        jobs=1,
        data_rows=1600,
    ),
    Workload(
        "fit-n5-save",
        "memory workload: N=20000, m=800 makes H 128 MB; the only path "
        "through save_network",
        ("fit", "--tf", "TF1", "--n", "5", "--train-size", "20000",
         "--test-size", "20000", "--nodes", "800", "--method", "ralpham",
         "--alpha-max", "90", "--save-model", "{out}/model.json"),
        jobs=1,
        min_runs=3,
    ),
)}


def write_dataset(path: str, rows: int, seed: int) -> None:
    """Five uniform inputs and a smooth noisy target, drawn from ``seed``."""
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "x4", "x5", "y"])
        for _ in range(rows):
            x = [rng.random() for _ in range(5)]
            y = (math.sin(2.0 * math.pi * x[0]) * x[1] + 0.5 * x[2] ** 2
                 - 0.3 * x[3] * x[4] + rng.gauss(0.0, 0.05))
            writer.writerow([repr(v) for v in x] + [repr(y)])


def _csv_rows(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_outcome(out_dir: str) -> dict:
    """Fits the command reports and their mean test RMSE, from its outputs.

    A fit is one trained network: every reported trial, plus every
    grid cell x fold x trial of cross-validation, plus every sweep trial.
    """
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    trials = _csv_rows(os.path.join(out_dir, "trials.csv"))
    cv_cells = _csv_rows(os.path.join(out_dir, "cv_table.csv"))
    sweep = _csv_rows(os.path.join(out_dir, "sweep.csv"))
    fits = len(trials)
    if cv_cells:
        grid = summary["config"]["grid"]
        fits += len(cv_cells) * grid["folds"] * grid["trials_per_cell"]
    if sweep:
        fits += len(sweep) * summary["sweep"]["trials"]
    # sweep rows hold per-point means over equally many trials
    errors = [float(r["rmse_test"]) for r in trials] or [float(r["mean_rmse"]) for r in sweep]
    values = reference_values(summary)
    model_path = os.path.join(out_dir, "model.json")
    if os.path.exists(model_path):
        values.update(model_values(model_path))
    return {
        "fits": fits,
        "rmse_test_mean": math.fsum(errors) / len(errors),
        "values": values,
    }


# Reference entries compared to a relative tolerance; all others compare exactly.
_TOLERANT = ("rmse_test_mean", "min_mean_rmse", "abs_sum")
# Relative tolerance on those entries for a stored seed. It admits a change of
# LAPACK path, which moves them in the fifth digit or later.
REL_TOL = 1e-4
# For any other seed each such entry must lie within the range the stored
# seeds span, widened on each side by BAND times its width on a log scale.
BAND = 0.5


def reference_values(summary: dict) -> dict:
    """The summary entries checked against references: per-method mean test
    RMSE, the CV-chosen m and interval, and the sweep minimum."""
    values: dict = {}
    for entry in summary.get("methods", []):
        tag = entry["method"]["method"]
        values[f"{tag}.rmse_test_mean"] = entry["rmse_test"]["mean"]
        if "chosen" in entry:
            values[f"{tag}.chosen_m"] = entry["chosen"]["m"]
            values[f"{tag}.chosen_interval"] = entry["chosen"]["interval"]
    if "sweep" in summary:
        values["sweep.u_ae_at_min"] = summary["sweep"]["u_ae_at_min"]
        values["sweep.min_mean_rmse"] = summary["sweep"]["min_mean_rmse"]
    return values


def model_values(path: str) -> dict:
    """The saved model's entries checked against references: its node count
    and the absolute sums of its hidden weights, biases and readout weights.
    Sums, not bytes, because another BLAS may move the last digits."""
    with open(path) as fh:
        model = json.load(fh)

    def abs_sum(rows) -> float:
        return math.fsum(abs(v) for row in rows for v in (row if isinstance(row, list) else [row]))

    return {
        "model.node_count": model["node_count"],
        "model.hidden_weights.abs_sum": abs_sum(model["hidden_weights"]),
        "model.hidden_biases.abs_sum": abs_sum(model["hidden_biases"]),
        "model.readout_weights.abs_sum": abs_sum(model["readout_weights"]),
    }


def check_reference(values: dict, refs: dict, workload: str, seed: int) -> list[str]:
    """Problems found comparing one run's values with the stored references.

    A seed with stored values must match them: RMSE values and model sums to
    the relative tolerance ``REL_TOL``, counts and chosen grid values exactly.
    For any other seed each RMSE value and model sum must fall inside the
    plausibility band set by ``BAND``, and each chosen grid value must be
    present or absent as it is for the stored seeds.
    """
    stored = refs.get(workload)
    if not stored:
        return [f"no stored references for {workload}"]
    expected = stored.get(str(seed))
    keys = set(expected) if expected else set().union(*stored.values())
    if set(values) != keys:
        return [f"keys {sorted(values)} differ from reference keys {sorted(keys)}"]
    problems = []
    for key, got in values.items():
        if expected is not None:
            want = expected[key]
            if key.endswith(_TOLERANT):
                ok = abs(got - want) <= REL_TOL * abs(want)
            else:
                ok = got == want
            if not ok:
                problems.append(f"{key} = {got!r}, reference {want!r}")
            continue
        seen = [v[key] for v in stored.values()]
        if not key.endswith(_TOLERANT):
            # another seed may choose another grid value; only its kind must match
            if (got is None) != (seen[0] is None):
                problems.append(f"{key} = {got!r}, stored seeds give {seen[0]!r}")
            continue
        widen = (max(seen) / min(seen)) ** BAND
        lo, hi = min(seen) / widen, max(seen) * widen
        if not lo <= got <= hi:
            problems.append(f"{key} = {got!r} outside plausibility band [{lo:.6g}, {hi:.6g}]")
    return problems


def output_digest(out_dir: str) -> dict:
    """sha256 of every output file, by name; reruns must match byte for byte."""
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def load_references(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
