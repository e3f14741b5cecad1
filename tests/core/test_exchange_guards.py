"""Host-work guards on one p=96 HSS run of the simulator.

The splitter rounds and the exchange must do per-rank work, not per-pair
work: the sampler makes three binary searches (both endpoint sides, then
the picks over the cumulative interval widths) and at most one binomial
and one choice draw per rank and round, whatever the number of open
splitter intervals; the exchange cuts no per-peer ``Shard``, and no
collective sizes its payload once per (src, dst) pair.  These are call
counts, so the guard is deterministic.
"""

from collections import Counter

import numpy as np

from repro.algorithms import Dataset, Sorter
from repro.bsp import collectives
from repro.core import keyspace
from repro.core.data_movement import Shard

P = 96


def test_hss_host_work_is_per_rank_not_per_pair(monkeypatch):
    calls = Counter()
    in_sampler = []

    real_searchsorted = np.searchsorted

    def searchsorted(*args, **kwargs):
        if in_sampler:
            calls["sampler searchsorted"] += 1
        return real_searchsorted(*args, **kwargs)

    class CountingRng:
        """Only the two draws the sampler may make, each counted."""

        def __init__(self, rng):
            self.rng = rng
            self.draws = Counter()

        def binomial(self, *args, **kwargs):
            self.draws["binomial"] += 1
            return self.rng.binomial(*args, **kwargs)

        def choice(self, *args, **kwargs):
            self.draws["choice"] += 1
            return self.rng.choice(*args, **kwargs)

    real_sampler = keyspace.bernoulli_sample_in_intervals

    def sampler(sorted_keys, lo, hi, prob, rng):
        calls["sampler"] += 1
        calls["intervals"] += len(lo)
        counting = CountingRng(rng)
        in_sampler.append(True)
        try:
            return real_sampler(sorted_keys, lo, hi, prob, counting)
        finally:
            in_sampler.pop()
            for draw, count in counting.draws.items():
                key = f"max {draw} per call"
                calls[key] = max(calls[key], count)

    real_slice = Shard.slice

    def shard_slice(self, start, stop):
        calls["Shard.slice"] += 1
        return real_slice(self, start, stop)

    real_sizeof = collectives.sizeof

    def sizeof(obj):
        calls["sizeof"] += 1
        return real_sizeof(obj)

    monkeypatch.setattr(np, "searchsorted", searchsorted)
    monkeypatch.setattr(keyspace, "bernoulli_sample_in_intervals", sampler)
    monkeypatch.setattr(Shard, "slice", shard_slice)
    monkeypatch.setattr(collectives, "sizeof", sizeof)

    dataset = Dataset.from_workload("uniform", p=P, n_per=1000, seed=1)
    run = Sorter("hss", seed=1).run(dataset)

    rounds = run.splitter_stats.num_rounds
    assert rounds >= 2
    # Later rounds sample inside many intervals per rank ...
    assert calls["intervals"] > 10 * calls["sampler"]
    # ... but every sampler call makes exactly three searches ...
    assert calls["sampler"] <= rounds * P
    assert calls["sampler searchsorted"] == 3 * calls["sampler"]
    # ... and one draw over the union of its intervals.
    assert calls["max binomial per call"] == 1
    assert calls["max choice per call"] == 1
    assert calls["Shard.slice"] == 0
    # Sizing each (src, dst) run alone would take P*P calls.
    assert calls["sizeof"] < P * P // 4
