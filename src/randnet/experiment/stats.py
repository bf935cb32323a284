"""Summary statistics, the Wilcoxon signed-rank test and weight histograms."""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from ..errors import InvalidInputError, numpy_sized

# Largest sample size for which the exact null distribution is used; beyond
# this the normal approximation with tie correction takes over.
EXACT_MAX_N = 25

# Fewest pairs the signed-rank test accepts.
MIN_PAIRS = 6


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float


def average_ranks(x) -> np.ndarray:
    """1-based ranks of a 1-D sample; tied values share the mean of the
    ranks they span (scipy's ``rankdata(method="average")``)."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _exact_p(doubled_ranks: np.ndarray, doubled_stat: int) -> float:
    """Two-sided exact p-value by convolving the signed-rank lattice.

    Ranks are doubled so tied (half-integer) average ranks become integers;
    the array of subset-sum counts then enumerates all 2^n sign assignments.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    n_le = int(counts[: doubled_stat + 1].sum())
    n_ge = int(counts[total - doubled_stat :].sum())
    return min(1.0, (n_le + n_ge) / 2 ** len(doubled_ranks))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are dropped; tied magnitudes share average ranks. The
    statistic is min(W+, W-). Small samples (post-drop n <= 25) use the
    exact permutation distribution; larger ones use the normal approximation
    with tie correction and a 0.5 continuity correction. If every difference
    is zero the test is degenerate and (0.0, 1.0) is returned.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise InvalidInputError(f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size < MIN_PAIRS:
        raise InvalidInputError(f"need at least {MIN_PAIRS} pairs, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("paired samples contain non-finite values")

    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0)

    ranks = average_ranks(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    stat = min(w_pos, w_neg)

    if n <= EXACT_MAX_N:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        p = _exact_p(doubled, int(round(2.0 * stat)))
        return WilcoxonResult(stat, p)

    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    if sigma == 0.0:
        return WilcoxonResult(stat, 1.0)
    z = (stat - mu + 0.5) / sigma
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(stat, p)


def _sample(values) -> np.ndarray:
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise InvalidInputError("cannot summarize an empty sample")
    return v


# ``median`` and ``percentile`` make numpy's own operations: the partition
# it makes, with the same points, so that of two tied values (0 and -0) the
# one numpy would pick is picked, and the NaN check on the value it puts
# last. ``np.median`` and ``np.percentile`` import ``numpy.ma`` for those
# steps on first use, which costs a process about 15 ms and 1.2 MB.

def median(values) -> float:
    """``np.median`` of a nonempty sample, bitwise: the mean of its one or
    two middle values."""
    v = _sample(values)
    half, odd = divmod(v.size, 2)
    part = np.partition(v, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd:half + 1]))


def percentile(values, q: int) -> float:
    """``np.percentile(values, q)`` of a nonempty sample, bitwise: the
    linear interpolation at index ``(n - 1) q / 100`` of the sorted sample,
    taken from the nearer of the two values it lies between."""
    v = _sample(values)
    index = (v.size - 1) * (q / 100)
    lo, hi = (-1, -1) if index >= v.size - 1 else (math.floor(index), math.floor(index) + 1)
    part = np.partition(v, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return float(part[-1])
    low, high, gamma = float(part[lo]), float(part[hi]), index - lo
    diff = high - low
    return high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma


def summarize(values) -> dict:
    """Mean, sample std, median, 10th/90th percentiles and range of a sample."""
    v = _sample(values)
    return {
        "count": int(v.size),
        "mean": float(np.mean(v)),
        "std": float(np.std(v, ddof=1)) if v.size > 1 else 0.0,
        "median": median(v),
        "p10": percentile(v, 10),
        "p90": percentile(v, 90),
        "min": float(np.min(v)),
        "max": float(np.max(v)),
    }


class Histogram(NamedTuple):
    edges: np.ndarray
    counts: np.ndarray


def weight_histogram(layers, bins: int = 50) -> Histogram:
    """Pooled histogram of the weights of hidden layers, in ``bins`` equal
    bins; a count whose bins + 1 edges numpy cannot size is a ConfigError,
    as in ``ExperimentConfig``."""
    if not layers:
        raise InvalidInputError("need at least one hidden layer")
    if isinstance(bins, bool) or not isinstance(bins, numbers.Integral) or bins < 1:
        raise InvalidInputError(f"bins must be an integer >= 1, got {bins!r}")
    pooled = np.concatenate([layer.weights.ravel() for layer in layers])
    with numpy_sized(f"cannot make histogram_bins={bins} bins"):
        np.broadcast_to(0.0, int(bins) + 1)  # sizes the edges, allocates nothing
        counts, edges = np.histogram(pooled, bins=bins)
    return Histogram(edges=edges, counts=counts)
