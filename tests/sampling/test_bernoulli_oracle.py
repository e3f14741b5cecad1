"""The batched interval sampler against a per-interval oracle.

``bernoulli_sample_in_intervals`` finds every interval's ``[start, stop)``
with two batched binary searches and takes all picks with one fancy index.
:func:`per_interval_reference` is the plain form it replaced: two searches
per interval and one :func:`bernoulli_sample` call per non-empty slice.
Both must return the same keys *and* leave the generator in the same state,
since every later draw of an HSS rank (and so every committed baseline)
depends on it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.bernoulli import bernoulli_sample, bernoulli_sample_in_intervals

#: Above 2^53, where a float64 comparison can no longer tell keys apart.
BIG_U64 = 2**62 + 12345


def per_interval_reference(sorted_keys, intervals, prob, rng):
    """Two searches and one ``bernoulli_sample`` per interval, in order."""
    prob = min(1.0, max(0.0, float(prob)))
    if len(sorted_keys) == 0 or prob == 0.0 or not intervals:
        return sorted_keys[:0]
    as_key = sorted_keys.dtype.type
    pieces = []
    for lo, hi in intervals:
        start = int(np.searchsorted(sorted_keys, as_key(lo), side="left"))
        stop = int(np.searchsorted(sorted_keys, as_key(hi), side="right"))
        if stop > start:
            pieces.append(bernoulli_sample(sorted_keys[start:stop], prob, rng))
    if not pieces:
        return sorted_keys[:0]
    return np.concatenate(pieces)


def _sentinels(dtype):
    if dtype.kind == "f":
        return [-np.inf, np.inf]
    info = np.iinfo(dtype)
    return [int(info.min), int(info.max)]


@st.composite
def cases(draw):
    dtype = np.dtype(draw(st.sampled_from(["int64", "uint64", "float64"])))
    n = draw(st.integers(0, 60))
    offsets = draw(st.lists(st.integers(0, 80), min_size=n, max_size=n))
    if dtype.kind == "u":
        keys = np.array([BIG_U64 + o for o in offsets], dtype=dtype)
    elif dtype.kind == "i":
        keys = np.array([o - 40 for o in offsets], dtype=dtype)
    else:
        keys = np.array([o / 4.0 - 10.0 for o in offsets], dtype=dtype)
    keys.sort()

    # Endpoints are key values, as the splitter state hands them out:
    # present keys, absent in-range values and dtype-extreme sentinels.
    candidates = keys.tolist() + _sentinels(dtype)
    if dtype.kind == "u":
        candidates += [BIG_U64 + o for o in range(0, 81, 7)]
    elif dtype.kind == "i":
        candidates += list(range(-45, 46, 7))
    else:
        candidates += [v / 8.0 for v in range(-90, 90, 13)]
    endpoint = st.sampled_from(candidates)
    pair = st.one_of(
        st.tuples(endpoint, endpoint).map(sorted).map(tuple),  # ordinary
        endpoint.map(lambda k: (k, k)),  # degenerate
        st.tuples(endpoint, endpoint),  # possibly inverted (empty)
    )
    intervals = draw(st.lists(pair, max_size=8))
    if intervals and draw(st.booleans()):
        intervals.append(intervals[0])  # overlapping: same keys twice
    if draw(st.booleans()):
        # Round 1 passes NumPy scalars, later rounds Python scalars.
        intervals = [(dtype.type(lo), dtype.type(hi)) for lo, hi in intervals]
    prob = draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    return keys, intervals, prob, seed


@given(cases())
@settings(max_examples=300, deadline=None)
def test_batched_sampler_matches_per_interval_oracle(case):
    keys, intervals, prob, seed = case
    rng_batched = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    got = bernoulli_sample_in_intervals(keys, intervals, prob, rng_batched)
    want = per_interval_reference(keys, intervals, prob, rng_oracle)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert rng_batched.bit_generator.state == rng_oracle.bit_generator.state


def test_uint64_endpoints_compare_as_keys(rng):
    # A float64 search would put 2**62+12355 at index 0, not 10.
    keys = np.uint64(BIG_U64) + np.arange(40, dtype=np.uint64)
    out = bernoulli_sample_in_intervals(
        keys, [(BIG_U64 + 10, BIG_U64 + 12)], 1.0, rng
    )
    assert out.tolist() == [BIG_U64 + 10, BIG_U64 + 11, BIG_U64 + 12]
