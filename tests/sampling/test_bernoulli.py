"""Tests for Bernoulli sampling (Sampling Method 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.bernoulli import (
    bernoulli_sample,
    bernoulli_sample_in_intervals,
    expected_total_sample,
)
from repro.theory.bounds import binomial_upper_quantile


class TestBernoulliSample:
    def test_prob_zero_empty(self, rng):
        keys = np.arange(100)
        assert len(bernoulli_sample(keys, 0.0, rng)) == 0

    def test_prob_one_everything(self, rng):
        keys = np.arange(100)
        out = bernoulli_sample(keys, 1.0, rng)
        assert np.array_equal(out, keys)

    def test_prob_clipped(self, rng):
        keys = np.arange(10)
        assert len(bernoulli_sample(keys, 5.0, rng)) == 10
        assert len(bernoulli_sample(keys, -1.0, rng)) == 0

    def test_empty_input(self, rng):
        keys = np.empty(0, dtype=np.int64)
        assert len(bernoulli_sample(keys, 0.5, rng)) == 0

    def test_subset_without_duplicates(self, rng):
        keys = np.arange(1000)
        out = bernoulli_sample(keys, 0.3, rng)
        assert len(np.unique(out)) == len(out)
        assert np.all(np.isin(out, keys))

    def test_preserves_relative_order(self, rng):
        keys = np.arange(1000)  # sorted input -> sample must be sorted
        out = bernoulli_sample(keys, 0.2, rng)
        assert np.all(np.diff(out) > 0)

    def test_sample_size_concentrates(self):
        # Statistically sound bound: P[fail] < 1e-9 per the Chernoff quantile.
        rng = np.random.default_rng(0)
        n, prob = 100_000, 0.01
        hi = binomial_upper_quantile(n, prob, 1e-9)
        out = bernoulli_sample(np.arange(n), prob, rng)
        assert len(out) <= hi
        assert len(out) >= 2 * n * prob - hi  # symmetric-ish lower guard

    def test_deterministic_under_seed(self):
        keys = np.arange(500)
        a = bernoulli_sample(keys, 0.1, np.random.default_rng(3))
        b = bernoulli_sample(keys, 0.1, np.random.default_rng(3))
        assert np.array_equal(a, b)


def ends(*values, dtype=np.int64):
    """One side of the intervals: an endpoint array in the key dtype."""
    return np.array(values, dtype=dtype)


class TestIntervalSampling:
    def test_no_intervals(self, rng):
        empty = np.empty(0, dtype=np.int64)
        out = bernoulli_sample_in_intervals(np.arange(100), empty, empty, 1.0, rng)
        assert len(out) == 0

    def test_closed_interval_includes_endpoints(self, rng):
        keys = np.arange(100)
        out = bernoulli_sample_in_intervals(keys, ends(10), ends(20), 1.0, rng)
        assert np.array_equal(out, np.arange(10, 21))

    def test_outside_interval_never_sampled(self, rng):
        keys = np.arange(1000)
        out = bernoulli_sample_in_intervals(keys, ends(100), ends(200), 0.5, rng)
        assert np.all((out >= 100) & (out <= 200))

    def test_multiple_disjoint_intervals(self, rng):
        keys = np.arange(1000)
        out = bernoulli_sample_in_intervals(
            keys, ends(0, 500), ends(49, 549), 1.0, rng
        )
        assert len(out) == 100
        assert np.all((out <= 49) | ((out >= 500) & (out <= 549)))

    def test_interval_outside_data(self, rng):
        keys = np.arange(100)
        out = bernoulli_sample_in_intervals(keys, ends(500), ends(600), 1.0, rng)
        assert len(out) == 0

    def test_sentinel_extremes_cover_everything(self, rng):
        keys = np.arange(100, dtype=np.int64)
        info = np.iinfo(np.int64)
        out = bernoulli_sample_in_intervals(
            keys, ends(info.min), ends(info.max), 1.0, rng
        )
        assert len(out) == 100

    def test_unsigned_zero_lo_sentinel(self, rng):
        # Closed semantics: a uint key equal to 0 must still be sampleable.
        keys = np.arange(10, dtype=np.uint64)
        out = bernoulli_sample_in_intervals(
            keys, ends(0, dtype=np.uint64), ends(2**63, dtype=np.uint64), 1.0, rng
        )
        assert len(out) == 10

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=20)
    def test_output_always_subset(self, prob):
        rng = np.random.default_rng(1)
        keys = np.arange(200)
        out = bernoulli_sample_in_intervals(keys, ends(50), ends(150), prob, rng)
        assert np.all(np.isin(out, np.arange(50, 151)))


def test_expected_total_sample():
    assert expected_total_sample(1000, 0.1) == pytest.approx(100.0)
    assert expected_total_sample(1000, 2.0) == pytest.approx(1000.0)
    assert expected_total_sample(0, 0.5) == 0.0
