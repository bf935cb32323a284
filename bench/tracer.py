"""Spans around randnet's layer functions, and the per-layer metrics they give.

The tracer replaces each traced function with a wrapper in every ``randnet``
module that holds it, because modules bind names with ``from .x import y``.
Each thread keeps its own stack of open spans. A span opened on a worker
thread with an empty stack takes as parent the innermost span open on the
main thread, which is the pool's owner (``run_trials``, ``cross_validate``
or ``uae_sweep``) while it waits for its workers.

``layer_metrics`` runs in the benchmark driver on the recorded spans.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
import warnings

# Span record: [name, parent index (-1 for none), start, end, work counters]
NAME, PARENT, START, END, WORK = range(5)


def _lstsq_work(args, kwargs, result) -> dict:
    """Computed flops and bytes of one SVD least-squares solve (not measured).

    For an M x N matrix with P = max(M, N), Q = min(M, N) and K right-hand
    sides: economy SVD by R-SVD, 6 P Q^2 + 20 Q^3 (Golub and Van Loan,
    Matrix Computations, 4th ed., fig. 8.6.1); then U'b, scaling and V(.),
    2 M Q K + Q K + 2 N Q K. Bytes: read A, write and read back U and V',
    read b, write x, all float64.
    """
    a, t = args[0], args[1]
    m, n = a.shape
    k = 1 if t.ndim == 1 else t.shape[1]
    p, q = max(m, n), min(m, n)
    flops = 6 * p * q * q + 20 * q ** 3 + 2 * m * q * k + q * k + 2 * n * q * k
    elems = m * n + 2 * m * q + 2 * q * n + m * k + n * k
    return {"flops_computed": flops, "bytes_computed": 8 * elems}


def _elems(args, kwargs, result) -> dict:
    return {"elems": result.size}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(result)}


# (module, attribute, metric name, work counter): the public function of each
# layer that the CLI reaches. A dotted attribute is a method of a class.
LAYERS = (
    ("randnet.linalg", "lstsq", "linalg.lstsq", _lstsq_work),
    ("randnet.model", "sigmoid", "model.sigmoid", _elems),
    ("randnet.model", "affine_arguments", "model.affine_arguments", None),
    ("randnet.model", "hidden_outputs", "model.hidden_outputs", None),
    ("randnet.model", "train_readout", "model.train_readout", None),
    ("randnet.model", "predict", "model.predict", None),
    ("randnet.model", "save_network", "model.save_network", None),
    ("randnet.rae", "rae_encode", "rae.rae_encode", None),
    ("randnet.rae", "rae_decode_weights", "rae.rae_decode_weights", None),
    ("randnet.paramgen", "anchor_points", "paramgen.anchor_points", None),
    ("randnet.paramgen", "anchored_biases", "paramgen.anchored_biases", None),
    ("randnet.methods", "generate_hidden_layer", "methods.generate_hidden_layer", None),
    ("randnet.rng", "RngStream.generator", "rng.generator", None),
    ("randnet.benchfn", "sample_problem", "benchfn.sample_problem", None),
    ("randnet.dataio", "load_csv", "dataio.load_csv", None),
    ("randnet.dataio", "normalize", "dataio.normalize", None),
    ("randnet.dataio", "split_75_25", "dataio.split_75_25", None),
    ("randnet.experiment.trials", "run_trials", "experiment.trials.run_trials", None),
    ("randnet.experiment.trials", "cross_validate", "experiment.trials.cross_validate", None),
    ("randnet.experiment.trials", "uae_sweep", "experiment.trials.uae_sweep", None),
    ("randnet.experiment.stats", "wilcoxon_signed_rank",
     "experiment.stats.wilcoxon_signed_rank", None),
    ("randnet.experiment.stats", "weight_histogram", "experiment.stats.weight_histogram", None),
    ("randnet.experiment.outputs", "write_table", "experiment.outputs.write_table", _file_bytes),
    ("randnet.experiment.config", "build_config", "experiment.config.build_config", None),
)

# Spans whose direct children run on the worker pool.
POOL_OWNERS = ("experiment.trials.run_trials", "experiment.trials.cross_validate",
               "experiment.trials.uae_sweep")


class Tracer:
    """Records spans in memory; create on the main thread, then ``install``."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = -1
            span = [name, parent, 0.0, 0.0, {}]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[WORK].update(work(args, kwargs, result))
            return result

        return traced

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        stack = self._stack()
        if stack:
            work = self.spans[stack[-1]][WORK]
            work["warnings"] = work.get("warnings", 0) + 1

    def install(self) -> list[str]:
        """Wrap every layer function and count warnings per innermost span.

        The "always" filter keeps repeated warnings from being deduplicated.
        Call after the randnet modules are imported. Returns the metric names
        of layer functions not found, whose metrics then read 0.
        """
        warnings.simplefilter("always")
        warnings.showwarning = self._count_warning
        missing = []
        for module_name, attr, name, work in LAYERS:
            owner = sys.modules.get(module_name)
            *classes, fn_name = attr.split(".")
            for part in classes:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                missing.append(name)
            elif classes:
                setattr(owner, fn_name, self.wrap(name, original, work))
            else:
                rebind(original, self.wrap(name, original, work))
        return missing


def rebind(original, replacement) -> None:
    """Point every name bound to ``original`` in a randnet module at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is not None and (module_name == "randnet" or module_name.startswith("randnet.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[list], jobs: int) -> dict:
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(i)
    durations: dict[str, list[float]] = {name: [] for _, _, name, _ in LAYERS}
    self_s = dict.fromkeys(durations, 0.0)
    work: dict[str, dict] = {name: {} for name in durations}
    busy = capacity = 0.0
    for i, (name, _, start, end, counters) in enumerate(spans):
        kids = [spans[k] for k in children.get(i, ())]
        durations[name].append(end - start)
        self_s[name] += (end - start) - _covered([(k[START], k[END]) for k in kids], start, end)
        for key, value in counters.items():
            work[name][key] = work[name].get(key, 0) + value
        if name in POOL_OWNERS:
            busy += sum(k[END] - k[START] for k in kids)
            capacity += jobs * (end - start)

    out: dict[str, tuple[float, str]] = {}
    for name in durations:
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.calls"] = (len(durations[name]), "count")
    lstsq = work["linalg.lstsq"]
    out["linalg.lstsq.flops_computed"] = (lstsq.get("flops_computed", 0), "flop")
    out["linalg.lstsq.bytes_computed"] = (lstsq.get("bytes_computed", 0), "B")
    out["linalg.lstsq.warnings"] = (lstsq.get("warnings", 0), "count")
    out["model.sigmoid.elems"] = (work["model.sigmoid"].get("elems", 0), "count")
    fits = len(durations["model.train_readout"])
    out["model.hidden_outputs.calls_per_fit"] = (
        len(durations["model.hidden_outputs"]) / fits if fits else 0.0, "calls/fit")
    readout_ms = sorted(1e3 * d for d in durations["model.train_readout"])
    if len(readout_ms) >= 2:
        cuts = statistics.quantiles(readout_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(readout_ms), cuts[8]
    else:
        p50 = p90 = readout_ms[0] if readout_ms else 0.0
    out["model.train_readout.p50_ms"] = (p50, "ms")
    out["model.train_readout.p90_ms"] = (p90, "ms")
    out["experiment.outputs.write_table.bytes"] = (
        work["experiment.outputs.write_table"].get("bytes", 0), "B")
    out["experiment.trials.busy_frac"] = (busy / capacity if capacity else 0.0, "ratio")
    return out
