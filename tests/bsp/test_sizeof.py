"""Fast-path ``sizeof`` must agree with the recursive reference walk.

``sizeof`` dispatches through a per-type cache with batched fast paths for
the payload shapes the engine actually ships (ndarrays, scalars, flat
homogeneous sequences); :func:`sizeof_reference` below is the plain
recursive definition, kept here as the test oracle.  Any divergence
silently skews every byte count in the cost model, so equivalence is
pinned here across the whole payload zoo.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.bsp.collectives import sizeof


def sizeof_reference(obj):
    """Approximate wire size of a payload in bytes (recursive reference).

    NumPy arrays report their exact buffer size; Python scalars count as 8
    bytes (their natural wire encoding); containers sum their elements.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.void):
        # Structured scalar (one record row): exact record bytes, not the
        # generic 8-byte scalar word.
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, dict):
        return sum(sizeof_reference(k) + sizeof_reference(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(sizeof_reference(x) for x in obj)
    # Dataclass-ish objects: count their public attributes.
    if hasattr(obj, "__dict__"):
        return sum(sizeof_reference(v) for v in vars(obj).values())
    return 8


@dataclass
class Fragment:
    keys: np.ndarray
    origin: int
    label: str


class SlotsOnly:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 1
        self.b = np.zeros(3)


class IntSubclass(int):
    pass


class ListSubclass(list):
    pass


RECORD_DTYPE = np.dtype([("mass", "<f8"), ("id", "<u4")])

PAYLOADS = [
    None,
    0,
    3,
    -17,
    3.5,
    True,
    False,
    2 + 3j,
    np.int64(7),
    np.float32(1.5),
    np.bool_(True),
    "",
    "ascii",
    "ünïcödé",
    b"bytes",
    bytearray(b"1234"),
    memoryview(b"123456"),
    np.zeros(0),
    np.zeros(10, dtype=np.int64),
    np.zeros((3, 4), dtype=np.float32),
    np.arange(6, dtype=np.uint8).reshape(2, 3),
    np.zeros(5, dtype=RECORD_DTYPE),
    np.zeros(0, dtype=RECORD_DTYPE),
    np.zeros(3, dtype=RECORD_DTYPE)[0],  # np.void structured scalar
    [np.zeros(3, dtype=RECORD_DTYPE)[i] for i in range(3)],  # flat void seq
    [np.zeros(2, dtype=RECORD_DTYPE), np.zeros(4, dtype=RECORD_DTYPE)],
    np.void(b"\x00\x01\x02"),  # raw void, no fields
    [],
    [1, 2, 3],
    [1.0, 2.0],
    [True, False, True],
    [np.int64(1), np.int64(2)],
    [np.zeros(2, np.int64), np.ones(5, np.float64)],
    [np.zeros(2, np.int64), 1],  # mixed: ndarray + scalar
    [1, 2.5],  # mixed scalar types
    [[1, 2], [3, [4, 5]]],  # nested lists
    [[np.zeros(4)], [np.zeros(2), np.zeros(1)]],
    (1, 2, 3),
    (None, None),
    ("a", "bb", "ccc"),
    {1, 2, 3},
    frozenset({1.0, 2.0}),
    {"a": 1},
    {"key": np.zeros(8), "nested": {"x": [1, 2]}},
    {1: "one", 2.0: b"two"},
    Fragment(keys=np.zeros(16, np.int64), origin=3, label="shard"),
    [Fragment(np.zeros(2, np.int64), 0, "x"), Fragment(np.zeros(3, np.int64), 1, "y")],
    SlotsOnly(),
    IntSubclass(5),
    ListSubclass([1, 2, 3]),
    object(),
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_fast_path_matches_reference(payload):
    assert sizeof(payload) == sizeof_reference(payload)


class TestKnownSizes:
    """Absolute anchors so both implementations can't drift together."""

    def test_ndarray_buffer_bytes(self):
        assert sizeof(np.zeros(10, dtype=np.int64)) == 80
        assert sizeof(np.zeros((3, 4), dtype=np.float32)) == 48

    def test_scalars_are_one_word(self):
        assert sizeof(3) == sizeof(3.5) == sizeof(np.int64(1)) == 8

    def test_flat_scalar_sequence_batches(self):
        assert sizeof([1] * 1000) == 8000
        assert sizeof((2.5,) * 7) == 56

    def test_flat_ndarray_sequence_batches(self):
        rows = [np.zeros(k, dtype=np.int64) for k in (1, 2, 3)]
        assert sizeof(rows) == 8 * 6

    def test_dataclass_counts_attributes(self):
        frag = Fragment(keys=np.zeros(4, np.int64), origin=1, label="ab")
        assert sizeof(frag) == 32 + 8 + 2

    def test_dict_counts_keys_and_values(self):
        assert sizeof({"a": 1}) == 9

    def test_structured_array_counts_record_bytes(self):
        # 12-byte records (f8 + u4): the cost model must price real record
        # bytes, not 8 bytes per element.
        recs = np.zeros(10, dtype=RECORD_DTYPE)
        assert sizeof(recs) == 120
        assert sizeof(recs[0]) == 12  # np.void scalar row
        assert sizeof([recs[0], recs[1]]) == 24

    def test_dispatch_cache_handles_new_types(self):
        class Fresh:
            def __init__(self):
                self.x = np.zeros(2, np.int64)

        # First call resolves and memoizes, second call hits the cache;
        # both must agree with the reference.
        assert sizeof(Fresh()) == sizeof_reference(Fresh()) == 16
        assert sizeof(Fresh()) == 16
