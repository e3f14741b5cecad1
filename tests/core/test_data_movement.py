"""Tests for the bucketize / all-to-all / merge phase."""

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.core.data_movement import (
    Shard,
    exchange_and_merge,
    partition_by_splitters,
)


class TestShard:
    def test_len_and_slice(self):
        s = Shard(np.arange(10), np.arange(10) * 2)
        piece = s.slice(2, 5)
        assert len(piece) == 3
        assert np.array_equal(piece.payload, [4, 6, 8])

    def test_payload_length_checked(self):
        with pytest.raises(ValueError):
            Shard(np.arange(5), np.arange(4))

    def test_no_payload(self):
        s = Shard(np.arange(3))
        assert s.slice(0, 2).payload is None


class TestPartition:
    def test_positions_cut(self):
        counts = partition_by_splitters(10, np.array([3, 7]))
        assert counts.tolist() == [3, 4, 3]

    def test_empty_buckets(self):
        counts = partition_by_splitters(4, np.array([0, 0, 4]))
        assert counts.tolist() == [0, 0, 4, 0]

    def test_decreasing_positions_rejected(self):
        with pytest.raises(ValueError):
            partition_by_splitters(5, np.array([3, 1]))

    def test_positions_outside_shard_rejected(self):
        with pytest.raises(ValueError):
            partition_by_splitters(5, np.array([2, 6]))
        with pytest.raises(ValueError):
            partition_by_splitters(5, np.array([-1, 2]))


class TestExchangeAndMerge:
    def run_exchange(self, inputs, payloads=None, p=None):
        p = p or len(inputs)
        engine = BSPEngine(p)

        def program(ctx, keys, payload):
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if payload is not None:
                payload = payload[order]
            shard = Shard(keys, payload)
            # Equal-width key-range splitters for the test.
            splitters = np.linspace(0, 1000, p + 1)[1:-1].astype(keys.dtype)
            positions = np.searchsorted(keys, splitters, side="left")
            merged = yield from exchange_and_merge(ctx, shard, positions)
            return merged

        args = [
            (inputs[r], payloads[r] if payloads else None) for r in range(p)
        ]
        return engine.run(program, rank_args=args)

    def test_globally_sorted_output(self, rng):
        inputs = [rng.integers(0, 1000, 200) for _ in range(4)]
        res = self.run_exchange(inputs)
        outs = [r.keys for r in res.returns]
        everything = np.concatenate(outs)
        assert np.array_equal(
            everything, np.sort(np.concatenate(inputs))
        )

    def test_keys_conserved(self, rng):
        inputs = [rng.integers(0, 1000, 100) for _ in range(8)]
        res = self.run_exchange(inputs)
        total = sum(len(r.keys) for r in res.returns)
        assert total == 800

    def test_payload_travels_with_keys(self, rng):
        p = 4
        inputs = [rng.permutation(np.arange(r * 250, (r + 1) * 250)) for r in range(p)]
        payloads = [keys * 10 for keys in inputs]
        res = self.run_exchange(inputs, payloads)
        for ret in res.returns:
            assert np.array_equal(ret.payload, ret.keys * 10)

    def test_empty_rank(self):
        inputs = [np.arange(100), np.empty(0, dtype=np.int64)]
        res = self.run_exchange(inputs)
        outs = [r.keys for r in res.returns]
        assert sum(len(o) for o in outs) == 100

    def test_wrong_positions_length(self):
        engine = BSPEngine(2)

        def program(ctx, keys):
            shard = Shard(np.sort(keys))
            merged = yield from exchange_and_merge(
                ctx, shard, np.array([1, 2, 3])
            )
            return merged

        with pytest.raises(ValueError, match="boundary positions"):
            engine.run(program, rank_args=[(np.arange(5),), (np.arange(5),)])

    def test_alltoall_bytes_accounted(self, rng):
        inputs = [rng.integers(0, 1000, 100) for _ in range(4)]
        res = self.run_exchange(inputs)
        assert res.stats.by_op.get("alltoallv", 0) == 1
        assert res.stats.bytes >= 400 * 8  # all keys traverse the wire
