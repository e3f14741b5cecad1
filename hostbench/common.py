"""Pieces every workload shares: seeds and the host drift marker."""

from __future__ import annotations

import functools
import gc
import random
import resource
import time

import numpy as np

#: Every FAULT_EVERY-th library job is a ``kill-rank`` fault job.
FAULT_EVERY = 8
#: The reference kernel: REF_TRIPS integer loop trips, then REF_PROBES
#: random reads of a REF_TABLE-entry list of floats (about 4 ms together).
#: The loop tracks the host's core speed; the reads, spread over ~13 MB,
#: track its cache hierarchy, which the simulator's object-heavy jobs
#: depend on more than a tight loop does.
REF_TRIPS = 30_000
REF_TABLE = 400_000
REF_PROBES = 6_000


def cycle_seeds(seed: int, n: int) -> list[int]:
    """``n`` data seeds derived from the benchmark seed."""
    rng = np.random.default_rng([int(seed) % 2**32, 0x5EED])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


@functools.lru_cache(maxsize=1)
def _ref_table() -> tuple[list[float], list[int], int, float]:
    """The kernel's fixed inputs and expected results, built on first use."""
    rng = random.Random(0x5EED)
    values = [rng.random() for _ in range(REF_TABLE)]
    probes = [rng.randrange(REF_TABLE) for _ in range(REF_PROBES)]
    total = 0.0
    for k in probes:
        total += values[k]
    return values, probes, sum(i * i % 7 for i in range(REF_TRIPS)), total


def paired_reference() -> float:
    """Collect garbage, then run the kernel: what precedes every job.

    The collection is untimed.  It gives every job the same empty heap to
    start from, so a full collection left pending by earlier jobs cannot
    fall into a random few of them and decide the tail.
    """
    gc.collect()
    return reference_kernel()


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python kernel: the host drift marker.

    The program never runs this code, so a change to the program cannot
    move it; when it moves together with the job times, the host did.
    The whole table is read once, untimed, just before the timed reads:
    they then find it in the last-level cache whatever the work before
    the kernel left there, so the program's memory footprint cannot move
    the kernel either.
    """
    values, probes, acc_expected, total_expected = _ref_table()
    sum(values)
    start = time.perf_counter()
    acc = 0
    for i in range(REF_TRIPS):
        acc += i * i % 7
    total = 0.0
    for k in probes:
        total += values[k]
    elapsed = time.perf_counter() - start
    if acc != acc_expected or total != total_expected:
        raise RuntimeError("reference kernel computed a wrong sum")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
