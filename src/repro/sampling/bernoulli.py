"""Bernoulli (binomial-trial) sampling — the paper's Sampling Method 1.

    *"Every key in G is independently chosen to be a part of the sample with
    probability ps/N, where we refer to s as the sampling ratio."*

Two entry points: :func:`bernoulli_sample` draws from an entire local array,
:func:`bernoulli_sample_in_intervals` restricts the candidate set ``G`` to the
union of the current splitter intervals (HSS rounds ≥ 2), which is where the
sample-size savings of multi-round HSS come from.

Both draw through :func:`bernoulli_positions`, which makes *one* draw per
call over the union of its index ranges: a binomial count over the total
width ``W``, then that many distinct virtual positions in ``[0, W)``, mapped
back to real positions through the cumulative widths.  The draws are
therefore those of :func:`bernoulli_sample` on the concatenated candidate
keys, however many intervals ``G`` has.  The interval-restricted variant
costs O(log n · k + |sample| · log k) for ``k`` intervals: one batched
binary search per endpoint side, one over the cumulative widths, and one
fancy index over the picked positions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bernoulli_positions",
    "bernoulli_sample",
    "bernoulli_sample_in_intervals",
    "expected_total_sample",
]


def bernoulli_positions(
    starts: np.ndarray, stops: np.ndarray, prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Pick each position of the ranges ``[starts[t], stops[t])`` independently
    with probability ``prob`` (clipped to [0, 1]).

    Empty and inverted ranges hold no position; overlapping ranges hold
    theirs once per range.  Drawing the count first (binomial) then the
    positions is equivalent to one coin flip per position but touches
    O(count) memory instead of O(W).  No draw is made when the total width
    ``W`` is 0 or ``prob`` is 0 or 1.

    Returns the picked positions in range order, ascending within a range.
    """
    prob = min(1.0, max(0.0, float(prob)))
    widths = np.maximum(stops - starts, 0)
    ends = np.cumsum(widths)
    total = int(ends[-1]) if len(ends) else 0
    picks = np.empty(0, dtype=np.int64)
    if total and prob >= 1.0:
        picks = np.arange(total, dtype=np.int64)
    elif total and prob > 0.0:
        count = rng.binomial(total, prob)
        if count:
            picks = rng.choice(total, size=count, replace=False)
            picks.sort()
    # Virtual position v lies in the first range whose end exceeds it.
    which = np.searchsorted(ends, picks, side="right")
    return picks + (starts - (ends - widths))[which]


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
    starts, stops = np.zeros(1, dtype=np.int64), np.array([len(keys)])
    return keys[bernoulli_positions(starts, stops, prob, rng)]


def bernoulli_sample_in_intervals(
    sorted_keys: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bernoulli-sample only keys falling in the union of key intervals.

    ``lo[t] .. hi[t]`` are *closed* key intervals, the endpoints given as two
    equal-length arrays (the splitter state's own ``lo_keys``/``hi_keys``).
    Interval endpoints are usually keys whose global rank is already known
    from a previous histogramming round; including them is harmless (their
    rank is simply re-derived) and closed semantics keep the first round
    correct when the endpoints are dtype-extreme sentinels (e.g. 0 for
    unsigned keys).  Endpoints must be representable in the key dtype: they
    are compared *as keys* (a uint64 endpoint above 2^53 is not rounded
    through float64).

    ``sorted_keys`` must be ascending (the HSS local input is sorted before
    splitter determination starts, as in the paper's implementation).

    Equal, output and generator state alike, to :func:`bernoulli_sample`
    on the concatenation of the intervals' key slices.
    """
    dtype = sorted_keys.dtype
    starts = np.searchsorted(sorted_keys, np.asarray(lo, dtype=dtype), "left")
    stops = np.searchsorted(sorted_keys, np.asarray(hi, dtype=dtype), "right")
    return sorted_keys[bernoulli_positions(starts, stops, prob, rng)]


def expected_total_sample(total_keys: int, prob: float) -> float:
    """Expected overall sample size across all processors: ``|G| · prob``."""
    return float(total_keys) * min(1.0, max(0.0, float(prob)))
