"""Signed-rank test against a brute-force oracle, plus summaries/histograms.

The exact-path p-value must equal the value obtained by enumerating every
sign assignment of the nonzero differences. Both routes share the average
ranking of tied magnitudes, but compute the null distribution independently
(subset-sum convolution vs. explicit 2^n enumeration).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata, wilcoxon as scipy_wilcoxon

from randnet.errors import ConfigError, InvalidInputError
from randnet.experiment.stats import (
    EXACT_MAX_N,
    Histogram,
    average_ranks,
    median,
    percentile,
    summarize,
    weight_histogram,
    wilcoxon_signed_rank,
)
from randnet.model import HiddenLayer


def enumerated_wilcoxon(a, b):
    """Exhaustive reference: every sign assignment of the dropped-zero diffs."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 0.0, 1.0
    doubled = np.rint(2.0 * rankdata(np.abs(d))).astype(np.int64)
    w_plus = int(doubled[d > 0].sum())
    total = int(doubled.sum())
    stat = min(w_plus, total - w_plus)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    sums = bits @ doubled
    n_le = int(np.sum(sums <= stat))
    n_ge = int(np.sum(sums >= total - stat))
    return stat / 2.0, min(1.0, (n_le + n_ge) / 2.0**n)


def layer_of(weights):
    weights = np.asarray(weights, dtype=float)
    return HiddenLayer(weights=weights, biases=np.zeros(weights.shape[1]))


class TestAverageRanks:
    def test_hand_case(self):
        np.testing.assert_array_equal(
            average_ranks([3.0, 1.0, 3.0, 2.0, 3.0]), [4.0, 1.0, 4.0, 2.0, 4.0]
        )

    @given(st.lists(st.integers(0, 6).map(float), min_size=1, max_size=40))
    def test_identical_to_scipy_on_ties(self, values):
        np.testing.assert_array_equal(average_ranks(values), rankdata(values))


class TestWilcoxon:
    def test_equal_samples_degenerate(self):
        r = wilcoxon_signed_rank([1.0] * 8, [1.0] * 8)
        assert r.statistic == 0.0 and r.p_value == 1.0

    def test_six_pair_hand_case(self):
        # differences 1..5 positive, 6 negative; no ties, p = 28/64
        b = np.array([10.0, 12.0, 13.0, 14.0, 15.0, 10.0])
        a = b + np.array([1.0, 2.0, 3.0, 4.0, 5.0, -6.0])
        r = wilcoxon_signed_rank(a, b)
        assert r.statistic == 6.0
        assert r.p_value == 0.4375

    def test_six_pair_one_sided_shift(self):
        b = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        r = wilcoxon_signed_rank(b + np.arange(1.0, 7.0), b)
        assert r.statistic == 0.0
        assert r.p_value == 0.03125  # 2 of 64 assignments are as extreme

    def test_ten_pair_example_matches_enumeration(self):
        a = np.array([12.1, 11.4, 9.8, 10.0, 13.2, 9.9, 11.1, 12.0, 10.5, 9.7])
        b = np.array([11.0, 11.9, 9.8, 9.1, 12.0, 10.6, 10.1, 11.0, 10.9, 9.2])
        got = wilcoxon_signed_rank(a, b)
        stat, p = enumerated_wilcoxon(a, b)
        assert got.statistic == stat
        assert got.p_value == p

    def test_no_tie_case_matches_scipy_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=9)
            b = rng.normal(size=9)
            if np.unique(np.abs(a - b)).size < 9:
                continue
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy_wilcoxon(a, b, mode="exact")
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_random_pairs_match_enumeration_exactly(self):
        # integer-valued samples force plenty of ties and zero differences
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(6, 13))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            got = wilcoxon_signed_rank(a, b)
            stat, p = enumerated_wilcoxon(a, b)
            assert got.statistic == stat
            assert got.p_value == p
            assert 0.0 <= got.p_value <= 1.0

    def test_large_sample_shift_detected(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=30)
        r = wilcoxon_signed_rank(b + 1.0, b)
        assert r.p_value < 0.001

    def test_normal_approximation_formula(self):
        # all differences equal: one tie block of 30, W = 0
        # z = (0 - 232.5 + 0.5) / sqrt(2363.75 - 561.875)
        b = np.zeros(30)
        r = wilcoxon_signed_rank(b + 1.0, b)
        assert r.statistic == 0.0
        assert r.p_value == pytest.approx(4.6174279569064474e-08, rel=1e-12)

    def test_exact_cutoff_boundary(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=EXACT_MAX_N)
        exact = wilcoxon_signed_rank(b + np.abs(rng.normal(size=EXACT_MAX_N)), b)
        ref = scipy_wilcoxon(
            b + np.abs(rng.normal(size=EXACT_MAX_N)), b, mode="exact"
        )
        assert 0.0 <= exact.p_value <= 1.0
        assert ref.pvalue >= 0.0  # scipy agrees this size is still exact

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            wilcoxon_signed_rank([1.0] * 5, [2.0] * 5)
        with pytest.raises(InvalidInputError):
            wilcoxon_signed_rank([1.0] * 6, [2.0] * 7)
        with pytest.raises(InvalidInputError):
            wilcoxon_signed_rank([np.nan] + [1.0] * 5, [2.0] * 6)


class TestSummarize:
    def test_hand_case(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 10.0])
        assert s["count"] == 5
        assert s["mean"] == 4.0
        assert abs(s["std"] - 3.5355339059327378) <= 1e-15  # sqrt(50/4)
        assert s["median"] == 3.0
        assert s["p10"] == pytest.approx(1.4)  # linear interpolation
        assert s["p90"] == pytest.approx(7.6)
        assert s["min"] == 1.0 and s["max"] == 10.0

    def test_percentile_ordering_and_mean_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            s = summarize(rng.normal(size=int(rng.integers(1, 40))))
            assert s["p10"] <= s["median"] <= s["p90"]
            assert s["min"] <= s["mean"] <= s["max"]

    def test_single_value(self):
        s = summarize([2.5])
        assert s["std"] == 0.0 and s["mean"] == 2.5

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize([])



# odd and even sizes, ties, zeros of both signs, and rarely inf or NaN
SAMPLES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
              st.floats(-1e6, 1e6, allow_nan=False),
              st.sampled_from([np.inf, -np.inf, np.nan])),
    min_size=1, max_size=40,
)


class TestOrderStatistics:
    @settings(max_examples=400, deadline=None)
    @given(values=SAMPLES)
    def test_median_is_numpys_bit_for_bit(self, values):
        v = np.array(values)
        with np.errstate(invalid="ignore"):  # the mean of -inf and inf
            assert np.float64(median(v)).tobytes() == np.float64(np.median(v)).tobytes()
        assert v.tobytes() == np.array(values).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(values=SAMPLES, q=st.sampled_from([0, 10, 25, 50, 90, 100]))
    def test_percentile_is_numpys_bit_for_bit(self, values, q):
        v = np.array(values)
        with np.errstate(invalid="ignore"):  # numpy interpolates between infs
            want = np.float64(np.percentile(v, q))
        assert np.float64(percentile(v, q)).tobytes() == want.tobytes()

    def test_empty_rejected(self):
        for stat in (median, lambda v: percentile(v, 10)):
            with pytest.raises(InvalidInputError):
                stat([])

class TestWeightHistogram:
    def test_single_value_occupies_one_bin(self):
        h = weight_histogram([layer_of(np.full((1, 4), 2.5))], bins=10)
        assert isinstance(h, Histogram)
        assert int(np.sum(h.counts > 0)) == 1
        assert int(h.counts.sum()) == 4

    def test_pooled_over_reports(self):
        h = weight_histogram([layer_of(np.ones((2, 3))), layer_of(np.zeros((2, 5)))], bins=4)
        assert int(h.counts.sum()) == 16
        assert h.edges.size == 5

    def test_symmetric_generator_has_tiny_skewness(self):
        rng = np.random.default_rng(5)
        reports = [layer_of(rng.uniform(-1.0, 1.0, size=(4, 62_500))) for _ in range(4)]
        pooled = np.concatenate([r.weights.ravel() for r in reports])
        centered = pooled - pooled.mean()
        skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert abs(skew) <= 0.05
        h = weight_histogram(reports, bins=50)
        assert int(h.counts.sum()) == pooled.size

    def test_at_least_one_layer_required(self):
        with pytest.raises(InvalidInputError):
            weight_histogram([], bins=10)

    def test_bin_count_validated(self):
        # a count must be an integer, not a bool; one whose bins + 1 edges
        # numpy refuses to size, before it allocates, is a ConfigError
        layers = [layer_of(np.ones((1, 2)))]
        for bins in (0, True, False, 2.5, 3.0, "3", np.True_):
            with pytest.raises(InvalidInputError, match="bins must be an integer"):
                weight_histogram(layers, bins=bins)
        for bins in (2**62, 2**63 - 1, np.int64(2**63 - 1)):
            with pytest.raises(ConfigError, match="cannot make histogram_bins"):
                weight_histogram(layers, bins=bins)
        assert weight_histogram(layers, bins=np.int64(3)).counts.tolist() == [0, 2, 0]
