"""randnet benchmark: end-to-end runs of the CLI, or one traced run per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Every command runs in a fresh process started by this single-process
driver, one at a time, from the checkout's ``src/``. Each run starts with an
untimed set-up-only command that warms the caches. ``--trace 0`` then
repeats the full command until ``--seconds`` have passed (and at least the
workload's ``min_runs`` times) and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of the traced ones plus the tracing overhead.

Every command's outputs are checked: exit code 0, ``summary.json`` and any
saved model against ``references.json``, and the output files of repeated
commands byte for byte. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, also
when commands crash; a run with metrics missing then exits 1. The lines
before it give each metric's run count, median and quartiles and a
``record`` line with the samples and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracer import layer_metrics
from workloads import (WORKLOADS, check_reference, load_references, output_digest,
                       read_outcome, write_dataset)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCES = os.path.join(BENCH, "references.json")

RUN_DEADLINE_S = 170.0  # a run stops starting commands and kills them past this

# End-to-end metrics: name, unit. failed_frac is the JSON line's failed/attempted;
# rmse_test_mean is printed and checked against references but not bounded,
# because it moves with the seed's inputs (see README.md).
END_TO_END = (("fits_per_s", "1/s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# Per-layer units that count work; they must repeat exactly between traced runs.
COUNT_UNITS = ("count", "flop", "B", "calls/fit")
# Printed with the metrics but left out of the JSON line.
INFO_ONLY = ("rmse_test_mean", "wall_s", "traced_wall_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Run:
    """One benchmark run of one workload: launches commands and checks them."""

    def __init__(self, workload, seed: int, refs: dict | None):
        self.workload, self.seed, self.refs = workload, seed, refs
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digest: dict | None = None
        self.blas_threads: dict = {}
        self.not_traced: list[str] = []
        self.dir = os.path.join(ROOT, ".bench_work", f"{workload.name}-s{seed}-p{os.getpid()}")
        os.makedirs(self.dir)
        self.data = None
        if workload.data_rows:
            self.data = "data.csv"
            write_dataset(os.path.join(self.dir, self.data), workload.data_rows, seed)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def launch(self, tag: str, flags: tuple[str, ...] = ()) -> dict | None:
        """Run one command to completion; its wall, set-up, CPU and peak RSS."""
        out = f"out-{tag}"
        marks_path = os.path.join(self.dir, f"marks-{tag}.json")
        cmd = [sys.executable, os.path.join(BENCH, "child.py"), marks_path, *flags, "--",
               *self.workload.argv(self.seed, out, self.data)]
        self.attempted += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.fail(f"{tag}: no time left before the run deadline")
            return None
        with open(os.path.join(self.dir, f"log-{tag}.txt"), "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.dir, stdout=log, stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:  # interrupted: leave no command running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        if proc.returncode != 0:
            self.fail(f"{tag}: exit code {proc.returncode}, log in {self.dir}")
            return None
        with open(marks_path) as fh:
            marks = json.load(fh)
        self.blas_threads = marks["blas_threads"]
        if "not_traced" in marks:
            self.not_traced = marks["not_traced"]
        if "setup_end" not in marks:
            self.fail(f"{tag}: randnet.generate_hidden_layer was never called")
            return None
        return {
            "wall_s": wall,
            "setup_s": marks["setup_end"] - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "spans": marks.get("spans"),
            "out": os.path.join(self.dir, out),
        }

    def command(self, tag: str, traced: bool = False) -> dict | None:
        """One full command, checked; None if it did not complete with outputs.

        A command whose outputs fail a check still returns its figures, so a
        run of a wrong program reports them, with the failure counted.
        """
        res = self.launch(tag, ("--trace",) if traced else ())
        if res is None:
            return None
        out = res.pop("out")
        try:
            outcome = read_outcome(out)
            digest = output_digest(out)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            self.fail(f"{tag}: unreadable outputs ({exc!r})")
            return None
        problems = []
        if self.refs is not None:
            problems = check_reference(outcome["values"], self.refs, self.workload.name, self.seed)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            changed = sorted(k for k in set(digest) | set(self.digest)
                             if digest.get(k) != self.digest.get(k))
            problems.append(f"outputs differ from the first command's: {changed}")
        if problems:
            self.fail(f"{tag}: " + "; ".join(problems))
        else:
            shutil.rmtree(out)
        res["fits_per_s"] = outcome["fits"] / res["wall_s"]
        res["rmse_test_mean"] = outcome["rmse_test_mean"]
        res["values"] = outcome["values"]
        return res

    def close(self) -> None:
        if not self.problems:
            shutil.rmtree(self.dir)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(run: Run, seconds: float) -> dict:
    """Samples of every end-to-end metric: name -> (unit, values)."""
    runs = []
    start = time.monotonic()
    i = 0
    while i < run.workload.min_runs or time.monotonic() - start < seconds:
        res = run.command(f"run{i}")
        i += 1
        if res is not None:
            runs.append(res)
    samples = {name: (unit, [r[name] for r in runs]) for name, unit in END_TO_END}
    samples["rmse_test_mean"] = ("1", [r["rmse_test_mean"] for r in runs])
    samples["wall_s"] = ("s", [r["wall_s"] for r in runs])
    return samples


def per_layer(run: Run, seconds: float) -> dict:
    """Samples of every per-layer metric from traced commands, plus overhead."""
    plain, traced, layers = [], [], []
    first_counts = None
    start = time.monotonic()
    i = 0
    while i < 1 or time.monotonic() - start < seconds:
        res = run.command(f"plain{i}")
        if res is not None:
            plain.append(res["wall_s"])
        res = run.command(f"traced{i}", traced=True)
        i += 1
        if res is None:
            continue
        metrics = layer_metrics(res["spans"], run.workload.jobs)
        counts = {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            run.fail(f"traced{i - 1}: work counts differ from the first traced command's")
            continue
        traced.append(res["wall_s"])
        layers.append(metrics)
    samples = {name: (unit, [m[name][0] for m in layers])
               for name, (_, unit) in layer_metrics([], 1).items()}
    if plain and traced:
        samples["trace.wall_ratio"] = ("ratio", [statistics.median(traced)
                                                 / statistics.median(plain)])
    samples["wall_s"] = ("s", plain)
    samples["traced_wall_s"] = ("s", traced)
    return samples


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine(blas_threads: dict) -> dict:
    """Where the numbers came from: cores, threads, BLAS, versions, commit."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas = {"name": None, "version": None}
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas": blas,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    """One run; prints its table and record, returns the result object.

    A run in which no command completed has metrics missing; its result
    still reports the counts, with ``correct`` and ``complete`` false.
    """
    run = Run(WORKLOADS[name], seed, refs)
    try:
        run.launch("warmup", ("--setup-only",))  # fills caches before anything is timed
        samples = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        run.close()
    metrics, rows = {}, []
    for metric, (unit, values) in samples.items():
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        rows.append(f"  {metric:<46} {unit:<9} n={len(values):<3} median={median:<12.6g} "
                    f"q1={q1:<12.6g} q3={q3:.6g}")
        if metric not in INFO_ONLY:
            metrics[metric] = {"value": median, "unit": unit}
    print(f"{name} seed={seed} trace={int(trace)}: {run.attempted} commands, "
          f"{run.failed} failed (failed_frac {run.failed / max(run.attempted, 1):.3g})")
    print("\n".join(rows))
    if run.not_traced:
        print(f"  not traced, no such function (metrics read 0): {', '.join(run.not_traced)}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    record = {"workload": name, "seed": seed, "trace": int(trace), "problems": run.problems,
              "not_traced": run.not_traced,
              "samples": {k: v for k, (_, v) in samples.items()},
              "machine": machine(run.blas_threads)}
    print("record " + json.dumps(record, sort_keys=True))
    expected = ([m for m, _ in END_TO_END] if not trace
                else [*layer_metrics([], 1), "trace.wall_ratio"])
    complete = all(m in metrics for m in expected)
    if not complete:
        print(f"{name}: no command completed", file=sys.stderr)
    return {"correct": complete and run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics, "complete": complete}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "randnet", "experiment", "cli.py")):
        print(f"no randnet sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    refs = load_references(REFERENCES)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), refs)
               for name in names}
    complete = all([r.pop("complete") for r in results.values()])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
