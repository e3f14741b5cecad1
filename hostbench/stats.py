"""Order statistics and metric extraction for the host-wall benchmark.

Every timing metric is a median (or a tail percentile) over many
operations of one run; a tail percentile is only reported when at least
:data:`MIN_TAIL` samples lie beyond it, so ``p90`` needs 100 samples.

Timings of host CPU work are reported *host-normalized*: each sample's
raw seconds times :data:`REF_NOMINAL_S` over the reference-kernel time
(``common.reference_kernel``) paired with it.  On a
host where the kernel takes 4 ms they equal raw seconds; when the whole
host runs slower or faster, kernel and job move together and the ratio
holds.  Timings that a fixed timer dominates stay raw (``run["raw"]``),
and so does ``setup_s``: process start-up and imports did not follow
the kernel.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10
#: Reference-kernel time of the nominal host that normalized timings
#: are expressed on, seconds.
REF_NOMINAL_S = 0.004


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q`` quantile."""
    return n - math.ceil(q * n)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q * 100))


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Like :func:`percentile`, but refuses a tail with too few samples."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{round(q * 100)} needs {MIN_TAIL} samples beyond it; "
            f"{len(values)} samples leave {beyond}"
        )
    return percentile(values, q)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(p25, p50, p75)`` of the samples."""
    return (
        percentile(values, 0.25),
        percentile(values, 0.50),
        percentile(values, 0.75),
    )


def normalized(run: Mapping, series: str) -> list[float]:
    """``run[series + "_s"]`` samples on the nominal host.

    Each sample is scaled by its own kernel time from
    ``run[series + "_ref_s"]``.
    """
    values = run[f"{series}_s"]
    refs = run[f"{series}_ref_s"]
    if len(refs) != len(values):
        raise ValueError(f"{series}: {len(values)} samples, {len(refs)} refs")
    return [v * REF_NOMINAL_S / r for v, r in zip(values, refs)]


def end_to_end_metrics(run: Mapping) -> dict[str, float]:
    """The end-to-end metrics of one untraced run record.

    ``run`` holds the raw observations of the run: ``job_s`` and
    ``job_keys`` (one entry per job whose outcome should be ok — the same
    jobs give the percentiles and the throughput), ``setup_s`` (one per
    cold start), ``fault_s``, ``scrape_s``, the kernel times ``ref_s``
    and, for series that have them, ``<series>_ref_s`` taken just before
    each sample,
    ``modeled_s`` (one entry per distinct input), ``peak_rss_mb``, ``ok``,
    ``attempted`` and ``raw`` (timing metrics to leave unnormalized).
    """
    raw = run["raw"]
    jobs = normalized(run, "job")
    busy = math.fsum(jobs)
    faults = (run["fault_s"] if "fault_reply_p50_s" in raw
              else normalized(run, "fault"))
    scrapes = normalized(run, "scrape")
    return {
        "job_p50_s": percentile(jobs, 0.5),
        "job_p90_s": tail_percentile(jobs, 0.9),
        "jobs_per_s": len(jobs) / busy,
        "keys_per_s": math.fsum(run["job_keys"]) / busy,
        "setup_s": percentile(run["setup_s"], 0.5),
        "fault_reply_p50_s": percentile(faults, 0.5),
        "scrape_p50_s": percentile(scrapes, 0.5),
        "scrape_p90_s": tail_percentile(
            run["scrape_s"] if "scrape_p90_s" in raw else scrapes, 0.9
        ),
        "modeled_s": percentile(run["modeled_s"], 0.5),
        "peak_rss_mb": float(run["peak_rss_mb"]),
        "ok_fraction": run["ok"] / run["attempted"],
    }


def spread_lines(run: Mapping, names: Iterable[str]) -> list[str]:
    """Human-readable ``name: n, p25 / p50 / p75`` lines for raw samples."""
    lines = []
    for name in names:
        values = run.get(name) or []
        if len(values) == 0:
            continue
        p25, p50, p75 = quartiles(values)
        lines.append(
            f"  {name:<12} n={len(values):<5d} p25={p25:.6g} "
            f"p50={p50:.6g} p75={p75:.6g}"
        )
    return lines
