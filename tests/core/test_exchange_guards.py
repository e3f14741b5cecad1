"""Host-work guards on one p=96 HSS run of the simulator.

The splitter rounds and the exchange must do per-rank work, not per-pair
work: the sampler makes two binary searches per rank and round whatever the
number of open splitter intervals, the exchange cuts no per-peer
``Shard``, and no collective sizes its payload once per (src, dst) pair.
These are call counts, so the guard is deterministic.
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

    real_sampler = keyspace.bernoulli_sample_in_intervals

    def sampler(sorted_keys, intervals, *args):
        calls["sampler"] += 1
        calls["intervals"] += len(intervals)
        in_sampler.append(True)
        try:
            return real_sampler(sorted_keys, intervals, *args)
        finally:
            in_sampler.pop()

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
    # ... but every sampler call makes exactly two searches.
    assert calls["sampler"] <= rounds * P
    assert calls["sampler searchsorted"] == 2 * calls["sampler"]
    assert calls["Shard.slice"] == 0
    # Sizing each (src, dst) run alone would take P*P calls.
    assert calls["sizeof"] < P * P // 4
