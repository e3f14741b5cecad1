"""Data semantics of BSP collectives.

The engine (:mod:`repro.bsp.engine`) rendezvouses all ranks at a collective
and hands their payloads to :func:`resolve`, which computes what every rank
receives, plus the byte counts the cost model needs.  Semantics mirror MPI:

=============  ======================================================
op             result at rank ``i``
=============  ======================================================
barrier        ``None``
bcast          root's payload
gather         list of all payloads at root, ``None`` elsewhere
allgather      list of all payloads everywhere
scatter        ``payloads[root][i]``
reduce         combined value at root, ``None`` elsewhere
allreduce      combined value everywhere
scan           inclusive prefix combination of payloads ``0..i``
alltoallv      ``[run(j, i) for j in range(p)]``: the ``counts_j[i]`` rows
               of rank ``j``'s send buffer that follow its runs for
               ranks ``0..i-1`` (views, in source order)
exchange       partner's payload (pairwise, partners must be symmetric)
=============  ======================================================

``alltoallv`` has MPI's ``Alltoallv`` shape (MPI-3.1 §5.8): each rank sends
one contiguous buffer — a key array, or a ``(keys, payload)`` pair of
row-aligned columns — plus ``p`` send counts, and its runs go out in
destination order.  The ``p×p`` byte matrix is ``counts × row_bytes``, one
NumPy operation, with no per-run sizing.

Reductions support ``'sum'``, ``'min'``, ``'max'`` and operate elementwise on
NumPy arrays or directly on scalars.  Payload sizes of the other ops are
measured with :func:`sizeof`, which understands NumPy arrays, scalars,
strings, bytes and (recursively) containers.  ``sizeof`` sizes every rank's
payload at every such collective, so it dispatches through a per-type cache
with vectorized fast paths for the payload shapes the sort programs send —
ndarrays, scalars, and flat homogeneous sequences of either.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import BSPError, CollectiveMismatchError

__all__ = [
    "sizeof",
    "resolve",
    "ResolvedCollective",
    "REDUCERS",
]


# ------------------------------------------------------------------ #
# Fast-path sizeof: per-type dispatch cache + flat-sequence batching.
# ------------------------------------------------------------------ #
_SCALAR_TYPES = frozenset((bool, int, float, complex))


def _sizeof_none(obj: Any) -> int:
    return 0


def _sizeof_ndarray(obj: np.ndarray) -> int:
    return int(obj.nbytes)


def _sizeof_scalar(obj: Any) -> int:
    return 8


def _sizeof_void(obj: np.void) -> int:
    return int(obj.nbytes)


def _sizeof_buffer(obj: Any) -> int:
    return len(obj)


def _sizeof_str(obj: str) -> int:
    return len(obj.encode())


def _sizeof_dict(obj: dict) -> int:
    return sum(sizeof(k) + sizeof(v) for k, v in obj.items())


def _sizeof_flat_sequence(obj: Any) -> int:
    """Size a list/tuple/set, batching the homogeneous flat shapes.

    The sort programs overwhelmingly send flat sequences — gathered sample
    arrays, splitter/count vectors as Python lists.
    When every element is the same scalar type the answer is ``8 * len``;
    when every element is an ndarray the buffer sizes sum without any
    per-element dispatch.  Mixed/nested sequences fall back to the generic
    per-element walk.
    """
    if not obj:
        return 0
    kinds = {type(x) for x in obj}
    if len(kinds) == 1:
        kind = next(iter(kinds))
        if kind in _SCALAR_TYPES:
            return 8 * len(obj)
        if kind is np.ndarray:
            return int(sum(x.nbytes for x in obj))
        if issubclass(kind, np.void):
            return int(sum(x.nbytes for x in obj))
        if issubclass(kind, np.generic):
            return 8 * len(obj)
    return sum(sizeof(x) for x in obj)


#: Exact-type dispatch table.  Seeded with the builtin payload types; other
#: types are resolved once through :func:`_resolve_handler`'s isinstance
#: ladder and then memoized, so repeated payloads of the
#: same type (the common case inside a superstep sweep) never re-walk it.
_SIZEOF_DISPATCH: dict[type, Callable[[Any], int]] = {
    type(None): _sizeof_none,
    np.ndarray: _sizeof_ndarray,
    np.void: _sizeof_void,
    bool: _sizeof_scalar,
    int: _sizeof_scalar,
    float: _sizeof_scalar,
    complex: _sizeof_scalar,
    bytes: _sizeof_buffer,
    bytearray: _sizeof_buffer,
    memoryview: _sizeof_buffer,
    str: _sizeof_str,
    dict: _sizeof_dict,
    list: _sizeof_flat_sequence,
    tuple: _sizeof_flat_sequence,
    set: _sizeof_flat_sequence,
    frozenset: _sizeof_flat_sequence,
}


def _resolve_handler(kind: type) -> Callable[[Any], int]:
    """Pick a type's handler by isinstance, once per type."""
    if issubclass(kind, np.ndarray):
        return _sizeof_ndarray
    if issubclass(kind, np.void):
        return _sizeof_void
    if issubclass(kind, (bool, int, float, complex, np.generic)):
        return _sizeof_scalar
    if issubclass(kind, (bytes, bytearray, memoryview)):
        return _sizeof_buffer
    if issubclass(kind, str):
        return _sizeof_str
    if issubclass(kind, dict):
        return _sizeof_dict
    if issubclass(kind, (list, tuple, set, frozenset)):
        return _sizeof_flat_sequence
    return _sizeof_attrs_or_opaque


def _sizeof_attrs_or_opaque(obj: Any) -> int:
    # Dataclass-ish objects count their attributes; instances without a
    # __dict__ (pure-__slots__ classes, opaque extension types) count as one
    # 8-byte word.
    try:
        attrs = vars(obj)
    except TypeError:
        return 8
    return sum(sizeof(v) for v in attrs.values())


def sizeof(obj: Any) -> int:
    """Approximate wire size of a payload in bytes.

    NumPy arrays report their exact buffer size (structured scalars their
    record bytes); Python and NumPy scalars count as 8 bytes (their natural
    wire encoding); strings and buffers their byte length; containers sum
    their elements, dicts their keys and values, and other objects their
    public attributes.  The goal is faithful *relative* accounting for the
    cost model, not Python object-graph memory measurement.
    """
    handler = _SIZEOF_DISPATCH.get(type(obj))
    if handler is None:
        handler = _resolve_handler(type(obj))
        _SIZEOF_DISPATCH[type(obj)] = handler
    return handler(obj)


def _reduce_pair(a: Any, b: Any, op: str) -> Any:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if op == "sum":
            return np.add(a, b)
        if op == "min":
            return np.minimum(a, b)
        if op == "max":
            return np.maximum(a, b)
    else:
        if op == "sum":
            return a + b
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
    raise BSPError(f"unsupported reduction op: {op!r}")


REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: _reduce_pair(a, b, "sum"),
    "min": lambda a, b: _reduce_pair(a, b, "min"),
    "max": lambda a, b: _reduce_pair(a, b, "max"),
}


def _combine(payloads: Sequence[Any], op: str) -> Any:
    if op not in REDUCERS:
        raise BSPError(f"unsupported reduction op: {op!r}")
    reducer = REDUCERS[op]
    acc = payloads[0]
    if isinstance(acc, np.ndarray):
        acc = acc.copy()
    for value in payloads[1:]:
        acc = reducer(acc, value)
    return acc


class ResolvedCollective:
    """Per-rank results plus byte accounting for one collective."""

    __slots__ = ("results", "max_bytes", "total_bytes")

    def __init__(self, results: list[Any], max_bytes: int, total_bytes: int):
        self.results = results
        self.max_bytes = max_bytes
        self.total_bytes = total_bytes


def _alltoallv_error(rank: int, message: str) -> BSPError:
    err = BSPError(f"alltoallv at rank {rank}: {message}")
    err.ranks = (rank,)
    return err


def _resolve_alltoallv(payloads: list[Any]) -> ResolvedCollective:
    """Route every rank's ``(sendbuf, counts)`` runs, in source order.

    ``sendbuf`` is one array or a ``(keys, payload)`` pair of row-aligned
    arrays; ``counts[j]`` consecutive rows go to rank ``j``.  The receiver
    of a pair gets ``(keys, payload)`` views per source.
    """
    p = len(payloads)
    columns: list[tuple[np.ndarray, ...]] = []
    counts = np.empty((p, p), dtype=np.int64)
    row_bytes = np.empty(p, dtype=np.int64)
    for r, request in enumerate(payloads):
        if not (isinstance(request, tuple) and len(request) == 2):
            raise _alltoallv_error(r, "expected a (sendbuf, counts) pair")
        sendbuf, rank_counts = request
        cols = sendbuf if isinstance(sendbuf, tuple) else (sendbuf,)
        if not cols or not all(isinstance(c, np.ndarray) for c in cols):
            raise _alltoallv_error(
                r, "send buffer must be an array or a tuple of arrays"
            )
        rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise _alltoallv_error(r, "send buffer columns differ in length")
        rank_counts = np.asarray(rank_counts)
        if rank_counts.shape != (p,) or rank_counts.dtype.kind not in "iu":
            raise _alltoallv_error(
                r,
                f"send counts must be {p} integers, got shape "
                f"{rank_counts.shape} of {rank_counts.dtype}",
            )
        if (rank_counts < 0).any() or int(rank_counts.sum()) != rows:
            raise _alltoallv_error(
                r,
                f"send counts {rank_counts.tolist()[:8]} must be "
                f"non-negative and sum to the buffer's {rows} rows",
            )
        columns.append(cols)
        counts[r] = rank_counts
        row_bytes[r] = sum(c.itemsize * math.prod(c.shape[1:]) for c in cols)

    # Cut every sender's buffer into its p runs, then transpose: the
    # receiver of column dst gets run dst of every sender, in source order.
    ends = np.cumsum(counts, axis=1)
    starts = (ends - counts).tolist()
    sent: list[list[Any]] = []
    for cols, lo, hi in zip(columns, starts, ends.tolist()):
        if len(cols) == 1:
            buf = cols[0]
            sent.append([buf[a:b] for a, b in zip(lo, hi)])
        else:
            sent.append([tuple(c[a:b] for c in cols) for a, b in zip(lo, hi)])
    results = [list(runs) for runs in zip(*sent)]

    # Row sums are the send volumes, column sums the receive volumes.
    elem_bytes = counts * row_bytes[:, None]
    send_bytes = elem_bytes.sum(axis=1)
    recv_bytes = elem_bytes.sum(axis=0)
    vmax = int((send_bytes + recv_bytes).max()) if p else 0
    return ResolvedCollective(results, vmax, int(send_bytes.sum()))


def resolve(
    op: str,
    payloads: list[Any],
    root: int,
    reduce_op: str = "sum",
    partners: list[int] | None = None,
) -> ResolvedCollective:
    """Compute every rank's result for one collective rendezvous."""
    p = len(payloads)

    if op == "barrier":
        return ResolvedCollective([None] * p, 0, 0)

    if op == "bcast":
        value = payloads[root]
        size = sizeof(value)
        return ResolvedCollective([value] * p, size, size * max(0, p - 1))

    if op == "scatter":
        chunks = payloads[root]
        if chunks is None or len(chunks) != p:
            raise BSPError(
                f"scatter root payload must be a length-{p} sequence, "
                f"got {type(chunks).__name__}"
                + (f" of length {len(chunks)}" if hasattr(chunks, "__len__") else "")
            )
        chunk_total = sum(sizeof(c) for c in chunks)
        return ResolvedCollective(list(chunks), chunk_total, chunk_total)

    if op == "alltoallv":
        return _resolve_alltoallv(payloads)

    # The remaining ops all charge by per-rank payload sizes.
    sizes = [sizeof(x) for x in payloads]
    total = sum(sizes)
    largest = max(sizes) if sizes else 0

    if op == "gather":
        results: list[Any] = [None] * p
        results[root] = list(payloads)
        return ResolvedCollective(results, total, total)

    if op == "allgather":
        everywhere = list(payloads)
        return ResolvedCollective([everywhere] * p, total, total)

    if op == "reduce":
        combined = _combine(payloads, reduce_op)
        results = [None] * p
        results[root] = combined
        return ResolvedCollective(results, largest, total)

    if op == "allreduce":
        combined = _combine(payloads, reduce_op)
        return ResolvedCollective([combined] * p, largest, total)

    if op == "scan":
        results = []
        acc: Any = None
        for i, value in enumerate(payloads):
            if i == 0:
                acc = value.copy() if isinstance(value, np.ndarray) else value
            else:
                acc = REDUCERS[reduce_op](acc, value)
            results.append(acc.copy() if isinstance(acc, np.ndarray) else acc)
        return ResolvedCollective(results, largest, total)

    if op == "exchange":
        if partners is None:
            raise BSPError("exchange requires a partners list")
        for rank, partner in enumerate(partners):
            if not 0 <= partner < p:
                raise CollectiveMismatchError(
                    f"rank {rank} named invalid exchange partner {partner}"
                )
            if partners[partner] != rank:
                raise CollectiveMismatchError(
                    f"asymmetric exchange: rank {rank} -> {partner} but "
                    f"rank {partner} -> {partners[partner]}"
                )
        results = [payloads[partners[rank]] for rank in range(p)]
        return ResolvedCollective(results, largest, total)

    raise BSPError(f"unknown collective op: {op!r}")
