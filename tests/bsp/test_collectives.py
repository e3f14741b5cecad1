"""Tests for collective data semantics (resolve) and payload sizing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bsp.collectives import resolve, sizeof
from repro.errors import BSPError, CollectiveMismatchError


class TestSizeof:
    def test_none(self):
        assert sizeof(None) == 0

    def test_numpy_exact(self):
        assert sizeof(np.zeros(10, dtype=np.int64)) == 80
        assert sizeof(np.zeros((3, 4), dtype=np.float32)) == 48

    def test_scalars(self):
        assert sizeof(3) == 8
        assert sizeof(3.5) == 8
        assert sizeof(np.int64(1)) == 8

    def test_containers(self):
        assert sizeof([np.zeros(2, np.int64), 1]) == 24
        assert sizeof({"a": 1}) == 9
        assert sizeof((None, None)) == 0

    def test_strings_bytes(self):
        assert sizeof("abc") == 3
        assert sizeof(b"abcd") == 4


class TestBarrierBcast:
    def test_barrier(self):
        r = resolve("barrier", [None] * 4, 0)
        assert r.results == [None] * 4

    def test_bcast_from_root(self):
        r = resolve("bcast", [42, None, None], 0)
        assert r.results == [42, 42, 42]

    def test_bcast_nonzero_root(self):
        r = resolve("bcast", [None, None, "hi"], 2)
        assert r.results == ["hi", "hi", "hi"]
        assert r.max_bytes == 2


class TestGatherScatter:
    def test_gather(self):
        r = resolve("gather", [10, 11, 12], 1)
        assert r.results[1] == [10, 11, 12]
        assert r.results[0] is None and r.results[2] is None

    def test_allgather(self):
        r = resolve("allgather", ["a", "b"], 0)
        assert r.results[0] == ["a", "b"] and r.results[1] == ["a", "b"]

    def test_scatter(self):
        r = resolve("scatter", [[5, 6, 7], None, None], 0)
        assert r.results == [5, 6, 7]

    def test_scatter_wrong_length(self):
        with pytest.raises(BSPError, match="length-3"):
            resolve("scatter", [[5, 6], None, None], 0)


class TestReductions:
    def test_reduce_sum_scalars(self):
        r = resolve("reduce", [1, 2, 3], 0)
        assert r.results[0] == 6 and r.results[1] is None

    def test_reduce_arrays(self):
        arrays = [np.arange(4), np.arange(4), np.arange(4)]
        r = resolve("reduce", arrays, 0)
        assert np.array_equal(r.results[0], 3 * np.arange(4))

    def test_reduce_does_not_mutate_inputs(self):
        a = np.ones(3)
        resolve("reduce", [a, np.ones(3)], 0)
        assert np.array_equal(a, np.ones(3))

    def test_reduce_min_max(self):
        assert resolve("reduce", [5, 1, 3], 0, reduce_op="min").results[0] == 1
        assert resolve("reduce", [5, 1, 3], 0, reduce_op="max").results[0] == 5

    def test_allreduce(self):
        r = resolve("allreduce", [1, 2], 0)
        assert r.results == [3, 3]

    def test_unknown_op(self):
        with pytest.raises(BSPError, match="reduction"):
            resolve("reduce", [1, 2], 0, reduce_op="prod")

    def test_scan_inclusive(self):
        r = resolve("scan", [1, 2, 3, 4], 0)
        assert r.results == [1, 3, 6, 10]

    def test_scan_arrays_independent(self):
        arrays = [np.ones(2) for _ in range(3)]
        r = resolve("scan", arrays, 0)
        r.results[2][0] = 99  # mutating one result must not alias others
        assert r.results[1][0] == 2


def _split(buf, counts):
    """The runs ``counts`` cuts a send buffer into, in destination order."""
    ends = np.cumsum(counts)
    return [buf[e - c: e] for c, e in zip(counts, ends)]


class TestAllToAll:
    def test_transpose_semantics(self):
        bufs = [np.arange(src * 100, src * 100 + 6) for src in range(3)]
        counts = [[1, 2, 3], [0, 6, 0], [2, 2, 2]]
        r = resolve("alltoallv", list(zip(bufs, counts)), 0)
        for dst in range(3):
            assert len(r.results[dst]) == 3
            for src, got in enumerate(r.results[dst]):
                assert np.array_equal(got, _split(bufs[src], counts[src])[dst])
                # Views of the sender's buffer, never copies.
                assert got.base is bufs[src]

    def test_bad_row_length(self):
        # Counts of the wrong length: a structured error naming the rank.
        payloads = [(np.arange(1), [1, 0]), (np.arange(3), [1, 2, 0])]
        with pytest.raises(BSPError, match="2 integers") as info:
            resolve("alltoallv", payloads, 0)
        assert info.value.ranks == (1,)

    @pytest.mark.parametrize(
        "payloads, match, rank",
        [
            (
                [(np.arange(3), [1, 1]), (np.arange(3), [1, 2])],
                "sum to the buffer's 3 rows",
                0,
            ),
            ([(np.arange(2), [3, -1]), (np.arange(2), [1, 1])], "non-negative", 0),
            ([(np.arange(2), [1.0, 1.0]), (np.arange(2), [1, 1])], "integers", 0),
            (
                [(np.arange(2), [1, 1]), ((np.arange(3), np.arange(2)), [1, 2])],
                "differ in length",
                1,
            ),
            ([[np.arange(1)], [np.arange(1)]], "sendbuf, counts", 0),
        ],
        ids=["bad-sum", "negative", "non-integer", "misaligned-pair", "not-a-pair"],
    )
    def test_malformed_request_names_its_rank(self, payloads, match, rank):
        with pytest.raises(BSPError, match=match) as info:
            resolve("alltoallv", payloads, 0)
        assert info.value.ranks == (rank,)

    def test_byte_accounting(self):
        payloads = [
            (np.zeros(3, np.int64), [1, 2]),
            (np.zeros(7, np.int64), [3, 4]),
        ]
        r = resolve("alltoallv", payloads, 0)
        assert r.total_bytes == 8 * 10
        # rank 1 sends 7*8 and receives 6*8 -> max is rank1's 13*8 = 104.
        assert r.max_bytes == 104

    def test_pair_buffer_routes_both_columns(self):
        keys = [np.arange(4), np.arange(10, 13)]
        recs = np.dtype([("mass", "<f8"), ("id", "<u4")])
        payload = [np.zeros(4, recs), np.ones(3, recs)]
        counts = [[3, 1], [0, 3]]
        r = resolve(
            "alltoallv",
            [((k, v), c) for k, v, c in zip(keys, payload, counts)],
            0,
        )
        (k0, v0), (k1, v1) = r.results[1]
        assert k0.tolist() == [3] and len(v0) == 1
        assert k1.tolist() == [10, 11, 12] and len(v1) == 3
        # 8-byte keys + 12-byte records per row.
        assert r.total_bytes == 7 * 20

    @given(st.integers(1, 6), st.integers(0, 2**31))
    def test_byte_matrix_equals_per_run_nbytes(self, p, seed):
        rng = np.random.default_rng(seed)
        recs = np.dtype([("mass", "<f8"), ("id", "<u4")])
        payloads = []
        for src in range(p):
            counts = rng.integers(0, 5, p)
            n = int(counts.sum())
            if src % 2:
                buf = (rng.integers(0, 100, n), np.zeros(n, recs))
            else:
                buf = rng.integers(0, 100, (n, 3)).astype(np.int32)
            payloads.append((buf, counts))
        r = resolve("alltoallv", payloads, 0)
        # What sizeof gave each (src, dst) run before the byte matrix.
        elem = np.array(
            [[sizeof(r.results[dst][src]) for dst in range(p)] for src in range(p)]
        )
        send, recv = elem.sum(axis=1), elem.sum(axis=0)
        assert r.total_bytes == int(send.sum())
        assert r.max_bytes == int((send + recv).max())

    @given(st.integers(2, 6))
    def test_conservation(self, p):
        rng = np.random.default_rng(p)
        payloads = []
        for _ in range(p):
            counts = rng.integers(0, 5, p)
            payloads.append((rng.integers(0, 100, int(counts.sum())), counts))
        r = resolve("alltoallv", payloads, 0)
        sent = sorted(x for buf, _ in payloads for x in buf.tolist())
        got = sorted(
            x for row in r.results for arr in row for x in arr.tolist()
        )
        assert sent == got


class TestExchange:
    def test_symmetric_swap(self):
        r = resolve("exchange", ["a", "b", "c", "d"], 0, partners=[1, 0, 3, 2])
        assert r.results == ["b", "a", "d", "c"]

    def test_self_partner(self):
        r = resolve("exchange", ["x", "y"], 0, partners=[0, 1])
        assert r.results == ["x", "y"]

    def test_asymmetric_raises(self):
        with pytest.raises(CollectiveMismatchError, match="asymmetric"):
            resolve("exchange", ["a", "b", "c"], 0, partners=[1, 2, 0])

    def test_out_of_range_partner(self):
        with pytest.raises(CollectiveMismatchError, match="invalid"):
            resolve("exchange", ["a", "b"], 0, partners=[5, 0])

    def test_missing_partners(self):
        with pytest.raises(BSPError, match="partners"):
            resolve("exchange", ["a", "b"], 0)


def test_unknown_collective():
    with pytest.raises(BSPError, match="unknown collective"):
        resolve("gossip", [1, 2], 0)
