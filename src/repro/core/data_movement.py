"""Phase 3: bucketize, all-to-all exchange, and merge (identical for HSS,
sample sort and histogram sort — §2.2 step 3).

Once splitters are known, every rank cuts its sorted local array into ``p``
contiguous runs (binary search per splitter), sends run ``i`` to rank ``i``
in one personalized all-to-all — the sorted array itself is the send
buffer, the run lengths are its send counts, as in MPI ``Alltoallv`` — and
merges the ``p`` sorted runs it receives.  Keys may carry a fixed-size
payload (the Mira experiments use 8-byte keys + 4-byte payloads); payloads
are permuted along with their keys.

Cost charging follows §5.1: partitioning is ``(p−1)`` binary searches plus a
linear pass of memory traffic; the merge is ``(N_recv)·log p`` comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.bsp.engine import Context

__all__ = [
    "Shard",
    "locally_sorted_shard",
    "partition_by_splitters",
    "exchange_and_merge",
]


@dataclass
class Shard:
    """A rank's keys (sorted) plus an optional aligned payload array."""

    keys: np.ndarray
    payload: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.payload is not None and len(self.payload) != len(self.keys):
            raise ValueError(
                f"payload length {len(self.payload)} != keys length {len(self.keys)}"
            )

    def __len__(self) -> int:
        return len(self.keys)

    def slice(self, start: int, stop: int) -> "Shard":
        return Shard(
            self.keys[start:stop],
            None if self.payload is None else self.payload[start:stop],
        )


def locally_sorted_shard(
    ctx: Context,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
) -> Shard:
    """Stable local sort with cost charging, for every program's phase 1.

    When a payload rides along it is permuted with its keys (argsort);
    otherwise the cheaper in-place path is taken.  Charged as a plain key
    sort either way, matching §5.1's accounting.
    """
    if payload is not None:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        payload = payload[order]
    else:
        keys = np.sort(keys, kind="stable")
    ctx.charge_sort(len(keys), key_bytes=keys.dtype.itemsize)
    return Shard(keys, payload)


def partition_by_splitters(n: int, positions: np.ndarray) -> np.ndarray:
    """Send counts that cut ``n`` sorted keys into ``len(positions)+1`` runs.

    ``positions`` are the pre-computed boundary indices (from the key-space
    adapter's ``bucket_positions``); they must be non-decreasing and lie in
    ``[0, n]``.  Run ``i`` is ``keys[positions[i-1]:positions[i]]``, so the
    counts are exactly what :meth:`Context.alltoall` takes for the sorted
    array itself as the send buffer.
    """
    bounds = np.empty(len(positions) + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = positions
    bounds[-1] = n
    counts = np.diff(bounds)
    if np.any(counts < 0):
        raise ValueError("bucket boundary positions must be non-decreasing")
    return counts


def _merge_runs(runs: list, has_payload: bool) -> Shard:
    """Merge the ``p`` sorted runs one rank received.

    Implemented as one concatenate + mergesort: NumPy's mergesort (timsort)
    on the concatenation of sorted runs detects and galloping-merges the
    runs, which is the vectorized equivalent of a ``p``-way merge; the
    simulated cost is charged separately as ``total·log₂(ways)`` by the
    caller.
    """
    if has_payload:
        keys = np.concatenate([k for k, _ in runs])
        if not len(keys):
            return Shard(keys)
        payload = np.concatenate([v for _, v in runs])
        order = np.argsort(keys, kind="stable")
        return Shard(keys[order], payload[order])
    keys = np.concatenate(runs)
    keys.sort(kind="stable")
    return Shard(keys)


def exchange_and_merge(
    ctx: Context,
    shard: Shard,
    positions: np.ndarray,
    *,
    node_combining: bool = False,
    key_bytes: int | None = None,
) -> Generator:
    """Run the full data-movement phase for one rank (``yield from`` this).

    Parameters
    ----------
    ctx:
        BSP context.
    shard:
        The rank's *sorted* local data.
    positions:
        Bucket boundary indices for the ``p−1`` splitters.
    node_combining:
        Price the all-to-all with §6.1.1 per-node message combining.
    key_bytes:
        Override the per-key byte size for cost charging (defaults to the
        key dtype's item size plus payload item size).

    Returns
    -------
    The rank's merged output :class:`Shard`.
    """
    p = ctx.nprocs
    if len(positions) != p - 1:
        raise ValueError(
            f"expected {p - 1} boundary positions, got {len(positions)}"
        )
    has_payload = shard.payload is not None
    if key_bytes is None:
        key_bytes = shard.keys.dtype.itemsize + (
            shard.payload.dtype.itemsize if has_payload else 0
        )

    # Bucketize: p−1 binary searches (already done by the caller to get
    # `positions`) plus one linear pass of copies.  The sorted shard is
    # already the destination-ordered send buffer.
    counts = partition_by_splitters(len(shard), positions)
    ctx.charge_binary_searches(p - 1, max(1, len(shard)))
    ctx.charge_bytes(len(shard) * key_bytes)

    sendbuf = (shard.keys, shard.payload) if has_payload else shard.keys
    received = yield from ctx.alltoall(
        sendbuf, counts, node_combining=node_combining
    )
    merged = _merge_runs(received, has_payload)
    ctx.charge_merge(len(merged), p, key_bytes=key_bytes)
    return merged
