"""Tests for output verification predicates."""

import numpy as np
import pytest

from repro.errors import LoadBalanceError, VerificationError
from repro.metrics.verify import (
    check_globally_sorted,
    check_load_balance,
    check_permutation,
    load_imbalance,
    verify_sorted_output,
)


class TestGloballySorted:
    def test_accepts_sorted(self):
        check_globally_sorted([np.array([1, 2]), np.array([3, 4])])

    def test_accepts_empty_shards(self):
        check_globally_sorted(
            [np.array([1, 2]), np.array([], dtype=np.int64), np.array([3])]
        )

    def test_rejects_local_disorder(self):
        with pytest.raises(VerificationError, match="locally"):
            check_globally_sorted([np.array([2, 1])])

    def test_rejects_cross_shard_disorder(self):
        with pytest.raises(VerificationError, match="below"):
            check_globally_sorted([np.array([5, 6]), np.array([4, 7])])

    def test_boundary_equality_allowed(self):
        check_globally_sorted([np.array([1, 3]), np.array([3, 4])])


class TestPermutation:
    def test_accepts_rearrangement(self):
        check_permutation(
            [np.array([3, 1]), np.array([2])],
            [np.array([1, 2]), np.array([3])],
        )

    def test_rejects_lost_key(self):
        with pytest.raises(VerificationError, match="count"):
            check_permutation([np.array([1, 2])], [np.array([1])])

    def test_rejects_changed_key(self):
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation([np.array([1, 2])], [np.array([1, 3])])

    def test_duplicates_counted(self):
        with pytest.raises(VerificationError):
            check_permutation([np.array([1, 1, 2])], [np.array([1, 2, 2])])

    def test_empty(self):
        check_permutation(
            [np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)]
        )

    def test_unsorted_output_still_checked_as_multiset(self):
        # Outputs that are not ascending are sorted before comparing.
        check_permutation([np.array([1, 2, 3])], [np.array([3]), np.array([2, 1])])
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation([np.array([1, 2, 3])], [np.array([3, 1, 1])])

    def test_nan_never_passes(self):
        # NaN fails the ascending check and array_equal, as before.
        nan = np.array([np.nan])
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation([nan], [nan.copy()])

    def test_structured_keys(self):
        dtype = np.dtype([("key", "<i8"), ("pe", "<i8")])
        keys = np.array([(2, 0), (1, 1)], dtype=dtype)
        check_permutation([keys], [np.sort(keys)])
        check_permutation([keys], [keys.copy()])


class TestLoadBalance:
    def test_within_cap(self):
        check_load_balance([np.zeros(10), np.zeros(11)], eps=0.1)

    def test_violation(self):
        with pytest.raises(LoadBalanceError):
            check_load_balance([np.zeros(15), np.zeros(5)], eps=0.1)

    def test_explicit_total(self):
        check_load_balance([np.zeros(5), np.zeros(5)], eps=0.1, total_keys=100)

    def test_imbalance_metric(self):
        assert load_imbalance([np.zeros(10), np.zeros(10)]) == 1.0
        assert load_imbalance([np.zeros(30), np.zeros(10)]) == pytest.approx(1.5)
        assert load_imbalance([np.zeros(0)]) == 1.0


class TestVerifyAll:
    def test_full_pass(self):
        inputs = [np.array([3, 1]), np.array([4, 2])]
        outputs = [np.array([1, 2]), np.array([3, 4])]
        verify_sorted_output(inputs, outputs, eps=0.1)

    def test_eps_none_skips_balance(self):
        inputs = [np.array([1, 2, 3]), np.array([4])]
        outputs = [np.array([1, 2, 3]), np.array([4])]
        verify_sorted_output(inputs, outputs)  # imbalance 1.5, no check
