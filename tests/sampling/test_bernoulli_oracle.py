"""The interval samplers against the paper's definition of Sampling Method 1.

Every key of the candidate set ``G`` (the union of the open splitter
intervals) is picked independently with the same probability.
``bernoulli_sample_in_intervals`` and ``TaggedKeySpace.sample`` make one
draw over ``G``; by definition that is :func:`bernoulli_sample` applied to
the concatenation of the intervals' key slices.  :func:`concatenated_oracle`
is that definition, written with two searches per interval.  The samplers
must return the same keys *and* leave the generator in the same state,
since every later draw of an HSS rank (and so every committed baseline)
depends on it.  :func:`bernoulli_sample` itself is pinned against the plain
binomial-then-choice draws, and a seeded frequency test checks the
per-key inclusion probability.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keyspace import TaggedKeySpace
from repro.sampling.bernoulli import bernoulli_sample, bernoulli_sample_in_intervals

#: Above 2^53, where a float64 comparison can no longer tell keys apart.
BIG_U64 = 2**62 + 12345


def plain_draws(n, prob, rng):
    """Sampling Method 1 over ``n`` keys, written out: positions picked."""
    prob = min(1.0, max(0.0, float(prob)))
    if n == 0 or prob == 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(n)
    count = rng.binomial(n, prob)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    idx = rng.choice(n, size=count, replace=False)
    idx.sort()
    return idx


def concatenated_oracle(sorted_keys, lo, hi, prob, rng):
    """``bernoulli_sample`` over the concatenated closed-interval slices."""
    pieces = [sorted_keys[:0]]
    for a, b in zip(lo, hi):
        start = int(np.searchsorted(sorted_keys, a, side="left"))
        stop = int(np.searchsorted(sorted_keys, b, side="right"))
        pieces.append(sorted_keys[start:stop])
    return bernoulli_sample(np.concatenate(pieces), prob, rng)


def endpoint_arrays(intervals, dtype):
    """The ``(lo, hi)`` key arrays the splitter state broadcasts."""
    lo = np.array([a for a, _ in intervals], dtype=dtype)
    hi = np.array([b for _, b in intervals], dtype=dtype)
    return lo, hi


def _sentinels(dtype):
    if dtype.kind == "f":
        return [-np.inf, np.inf]
    info = np.iinfo(dtype)
    return [int(info.min), int(info.max)]


PROBS = st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.7])


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
    lo, hi = endpoint_arrays(intervals, dtype)
    return keys, lo, hi, draw(PROBS), draw(st.integers(0, 2**32 - 1))


@given(cases())
@settings(max_examples=300, deadline=None)
def test_interval_sampler_is_one_draw_over_concatenated_g(case):
    keys, lo, hi, prob, seed = case
    rng_sampler = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    got = bernoulli_sample_in_intervals(keys, lo, hi, prob, rng_sampler)
    want = concatenated_oracle(keys, lo, hi, prob, rng_oracle)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert rng_sampler.bit_generator.state == rng_oracle.bit_generator.state


@given(st.integers(0, 300), PROBS, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bernoulli_sample_makes_the_plain_draws(n, prob, seed):
    keys = np.arange(n, dtype=np.int64) * 3
    rng_sampler = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    got = bernoulli_sample(keys, prob, rng_sampler)
    assert np.array_equal(got, keys[plain_draws(n, prob, rng_oracle)])
    assert rng_sampler.bit_generator.state == rng_oracle.bit_generator.state


@st.composite
def tagged_cases(draw):
    """A rank's sorted keys with duplicates and tagged interval endpoints
    owned by lower, equal and higher ranks (or the dtype sentinels)."""
    ks = TaggedKeySpace(np.int64)
    n = draw(st.integers(0, 40))
    values = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    keys = np.sort(np.array(values, dtype=np.int64))
    rank = draw(st.integers(0, 3))
    state = ks.make_state(max(n, 4), 4, 0.1)
    lo_s, hi_s = state.lo_key[0], state.hi_key[0]
    tag = st.tuples(st.integers(-1, 13), st.integers(0, 3), st.integers(0, 45))
    endpoint = st.one_of(tag, st.sampled_from([lo_s.item(), hi_s.item()]))
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=6))
    if draw(st.booleans()):
        intervals = None  # round 1: the whole input
    else:
        intervals = (
            np.array([a for a, _ in pairs], dtype=ks.key_dtype),
            np.array([b for _, b in pairs], dtype=ks.key_dtype),
        )
    return ks, keys, rank, intervals, draw(PROBS), draw(st.integers(0, 2**32 - 1))


@given(tagged_cases())
@settings(max_examples=200, deadline=None)
def test_tagged_sampler_is_one_draw_over_concatenated_g(case):
    ks, keys, rank, intervals, prob, seed = case
    n = len(keys)
    # G in index space, one interval at a time through the §4.3 rule.
    if intervals is None:
        ranges = [(0, n)]
    else:
        lo, hi = intervals
        ranges = [
            (
                int(ks._positions(keys, rank, lo[t : t + 1])[0]),
                min(n, int(ks._positions(keys, rank, hi[t : t + 1])[0]) + 1),
            )
            for t in range(len(lo))
        ]
    g = np.concatenate(
        [np.arange(n)[:0]] + [np.arange(a, b) for a, b in ranges if b > a]
    )
    rng_sampler = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    got = ks.sample(keys, rank, intervals, prob, rng_sampler)
    want_idx = bernoulli_sample(g, prob, rng_oracle)
    assert got.dtype == ks.key_dtype
    assert np.array_equal(got["key"], keys[want_idx])
    assert np.array_equal(got["pe"], np.full(len(want_idx), rank))
    assert np.array_equal(got["idx"], want_idx)
    assert rng_sampler.bit_generator.state == rng_oracle.bit_generator.state


def test_every_key_of_g_is_picked_with_the_same_probability():
    """Seeded: over many draws each candidate key's inclusion frequency is
    within 5 sigma of ``prob``; keys outside ``G`` are never picked."""
    rng = np.random.default_rng(2024)
    keys = np.arange(300, dtype=np.int64)
    lo = np.array([10, 40, 41, 200, 250], dtype=np.int64)
    hi = np.array([19, 40, 60, 209, 240], dtype=np.int64)  # last one empty
    in_g = np.zeros(len(keys), dtype=bool)
    for a, b in zip(lo, hi):
        in_g[a : b + 1] = True
    prob, draws = 0.3, 4000
    hits = np.zeros(len(keys), dtype=np.int64)
    for _ in range(draws):
        out = bernoulli_sample_in_intervals(keys, lo, hi, prob, rng)
        assert len(np.unique(out)) == len(out)
        hits[out] += 1
    assert not hits[~in_g].any()
    sigma = np.sqrt(prob * (1 - prob) / draws)
    assert np.all(np.abs(hits[in_g] / draws - prob) < 5 * sigma)


def test_uint64_endpoints_compare_as_keys(rng):
    # A float64 search would put 2**62+12355 at index 0, not 10.
    keys = np.uint64(BIG_U64) + np.arange(40, dtype=np.uint64)
    lo, hi = endpoint_arrays([(BIG_U64 + 10, BIG_U64 + 12)], keys.dtype)
    out = bernoulli_sample_in_intervals(keys, lo, hi, 1.0, rng)
    assert out.tolist() == [BIG_U64 + 10, BIG_U64 + 11, BIG_U64 + 12]
