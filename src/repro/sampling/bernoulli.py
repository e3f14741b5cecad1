"""Bernoulli (binomial-trial) sampling — the paper's Sampling Method 1.

    *"Every key in G is independently chosen to be a part of the sample with
    probability ps/N, where we refer to s as the sampling ratio."*

Two entry points: :func:`bernoulli_sample` draws from an entire local array,
:func:`bernoulli_sample_in_intervals` restricts the candidate set ``G`` to the
union of the current splitter intervals (HSS rounds ≥ 2), which is where the
sample-size savings of multi-round HSS come from.

Both are O(n) vectorized; the interval-restricted variant is
O(log n · #intervals + |G ∩ local|): one batched binary search per
endpoint side, then one fancy index over the picked positions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "bernoulli_sample",
    "bernoulli_sample_in_intervals",
    "expected_total_sample",
]


def bernoulli_sample(
    keys: np.ndarray, prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Select each key independently with probability ``prob``.

    Parameters
    ----------
    keys:
        Local keys (any order, any dtype).
    prob:
        Inclusion probability ``p·s/N``; clipped to [0, 1].
    rng:
        Source of randomness (rank-local, seeded).

    Returns
    -------
    The selected keys, in their original relative order.
    """
    prob = min(1.0, max(0.0, float(prob)))
    n = len(keys)
    if n == 0 or prob == 0.0:
        return keys[:0]
    if prob >= 1.0:
        return keys.copy()
    # Drawing the count first (binomial) then positions is equivalent to n
    # independent coin flips but touches O(count) memory instead of O(n).
    count = rng.binomial(n, prob)
    if count == 0:
        return keys[:0]
    idx = rng.choice(n, size=count, replace=False)
    idx.sort()
    return keys[idx]


def bernoulli_sample_in_intervals(
    sorted_keys: np.ndarray,
    intervals: Sequence[tuple],
    prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bernoulli-sample only keys falling in the union of key intervals.

    ``intervals`` is a sequence of ``(lo, hi)`` *closed* key intervals.
    Interval endpoints are usually keys whose global rank is already known
    from a previous histogramming round; including them is harmless (their
    rank is simply re-derived) and closed semantics keep the first round
    correct when the endpoints are dtype-extreme sentinels (e.g. 0 for
    unsigned keys).  Endpoints must be representable in the key dtype: they
    are compared *as keys* (a uint64 endpoint above 2^53 is not rounded
    through float64).

    ``sorted_keys`` must be ascending (the HSS local input is sorted before
    splitter determination starts, as in the paper's implementation).

    Every interval's ``[start, stop)`` comes from two batched binary
    searches; the draws per non-empty interval are exactly those of
    :func:`bernoulli_sample` on its slice, in interval order, so the
    generator stream does not depend on how the search is batched.
    """
    prob = min(1.0, max(0.0, float(prob)))
    if len(sorted_keys) == 0 or prob == 0.0 or not intervals:
        return sorted_keys[:0]
    dtype = sorted_keys.dtype
    starts = np.searchsorted(
        sorted_keys, np.array([lo for lo, _ in intervals], dtype=dtype), "left"
    )
    stops = np.searchsorted(
        sorted_keys, np.array([hi for _, hi in intervals], dtype=dtype), "right"
    )
    widths = stops - starts
    live = widths > 0
    starts, widths = starts[live], widths[live]
    if prob >= 1.0:
        # Every key of every interval, in interval order: no draws.
        offsets = np.cumsum(widths) - widths
        idx = np.arange(int(widths.sum())) + np.repeat(starts - offsets, widths)
        return sorted_keys[idx]
    picks: list[np.ndarray] = []
    for start, width in zip(starts.tolist(), widths.tolist()):
        count = rng.binomial(width, prob)
        if count:
            idx = rng.choice(width, size=count, replace=False)
            idx.sort()
            idx += start
            picks.append(idx)
    if not picks:
        return sorted_keys[:0]
    return sorted_keys[np.concatenate(picks)]


def expected_total_sample(total_keys: int, prob: float) -> float:
    """Expected overall sample size across all processors: ``|G| · prob``."""
    return float(total_keys) * min(1.0, max(0.0, float(prob)))
