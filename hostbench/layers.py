"""Per-layer metrics from a traced run's ``(job, layer)`` aggregates."""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import spec
from stats import percentile
from tracing import CALLS, ERRORS, HITS, INCL, SELF

#: The exact counts of an ok job, in the order a workload records them.
COUNTS = (
    "core.hss.rounds", "core.hss.total_sample", "bsp.net_bytes",
    "bsp.net_messages",
)

# Metric -> (layer, field): self seconds, or calls, per job.
PER_JOB = {
    "sampling.bernoulli.sample_s": ("sampling.bernoulli.sample", SELF),
    "sampling.bernoulli.calls": ("sampling.bernoulli.sample", CALLS),
    "core.data_movement.partition_s": ("core.data_movement.partition", SELF),
    "core.data_movement.shard_slices": (
        "core.data_movement.shard_slice", CALLS),
    "bsp.collectives.sizeof_s": ("bsp.collectives.sizeof", SELF),
    "bsp.collectives.sizeof_calls": ("bsp.collectives.sizeof", CALLS),
    "bsp.engine.resolve_s": ("bsp.engine.resolve", SELF),
    "bsp.engine.sweeps": ("bsp.engine.resolve", CALLS),
    "core.keyspace.histogram_s": ("core.keyspace.histogram", SELF),
    "core.keyspace.probe_sort_s": ("core.keyspace.probe_sort", SELF),
    "core.splitters.update_s": ("core.splitters.update", SELF),
    "core.data_movement.local_sort_s": ("core.data_movement.local_sort", SELF),
    "core.data_movement.exchange_merge_s": (
        "core.data_movement.exchange_merge", SELF),
    "metrics.verify.sorted_s": ("metrics.verify.sorted", SELF),
    "metrics.verify.permutation_s": ("metrics.verify.permutation", SELF),
    "metrics.verify.balance_s": ("metrics.verify.balance", SELF),
    "service.jobs.parse_s": ("service.jobs.parse", SELF),
    "experiments.scenario.build_dataset_s": (
        "experiments.scenario.build_dataset", SELF),
    "service.fingerprint.fingerprint_s": (
        "service.fingerprint.fingerprint", SELF),
    "experiments.scenario.execute_s": ("experiments.scenario.execute", SELF),
    # Containers report inclusive time: what the layer and all below cost.
    "runtime.simulated.run_s": ("runtime.simulated.run", INCL),
    "runtime.process.run_s": ("runtime.process.run", INCL),
    "algorithms.sorter.run_s": ("algorithms.sorter.run", INCL),
    "service.daemon.handle_s": ("service.daemon.handle", INCL),
}

#: Layers whose own code is glue between the named layers; their self
#: time is the unexplained remainder of a job.
CONTAINERS = frozenset({
    "algorithms.sorter.run",
    "runtime.simulated.run",
    "runtime.process.run",
    "service.daemon.handle",
})


def median_over(values: Iterable[float]) -> float:
    """Median of the values, 0 when there are none (layer never reached)."""
    values = list(values)
    return percentile(values, 0.5) if values else 0.0


def per_layer_metrics(measured: Mapping[str, float]) -> dict[str, float]:
    """Every ``spec.PER_LAYER`` metric: the workload's measured value, or 0
    for a layer it never reaches.  A name the spec lacks is an error."""
    out = {name: 0.0 for name, *_ in spec.PER_LAYER}
    unknown = sorted(set(measured) - set(out))
    if unknown:
        raise KeyError(f"not in spec.PER_LAYER: {unknown}")
    out.update(measured)
    return out


def count_metrics(counts: Iterable[tuple]) -> dict[str, float]:
    """Median of each :data:`COUNTS` entry over the jobs' count tuples."""
    counts = list(counts)
    return {
        name: median_over(c[i] for c in counts)
        for i, name in enumerate(COUNTS)
    }


def unexplained(layers: Mapping[str, list], root: str) -> float:
    """The root span minus the self time of every non-container layer."""
    if root not in layers:
        return 0.0
    named = sum(
        slot[SELF] for layer, slot in layers.items() if layer not in CONTAINERS
    )
    return layers[root][INCL] - named


def job_layer_metrics(
    per_job: Mapping[Any, Mapping[str, list]],
    ok_jobs: Iterable[Any],
    fault_jobs: Iterable[Any],
    *,
    root: str,
) -> dict[str, float]:
    """Per-job layer medians over ``ok_jobs``; fault cost over ``fault_jobs``.

    Each per-job metric is the median over the jobs that reached the layer
    (a layer a job never entered is absent, not zero, for that job).
    """
    jobs = [per_job[j] for j in ok_jobs if j in per_job]
    out = {}
    for metric, (layer, index) in PER_JOB.items():
        out[metric] = median_over(
            layers[layer][index] for layers in jobs
            if layers.get(layer, (0, 0, 0))[CALLS]
        )
    out["unexplained_s"] = median_over(unexplained(j, root) for j in jobs)
    probes = [j["service.cache.probe"] for j in jobs
              if "service.cache.probe" in j]
    calls = sum(slot[CALLS] for slot in probes)
    out["service.cache.probes"] = float(calls)
    out["service.cache.hit_ratio"] = (
        sum(slot[HITS] for slot in probes) / calls if calls else 0.0
    )
    out["runtime.process.fault_s"] = median_over(
        per_job[j]["experiments.scenario.execute"][INCL]
        for j in fault_jobs
        if j in per_job
        and per_job[j].get("experiments.scenario.execute", [0] * 5)[ERRORS]
    )
    return out


def call_mean(per_job: Mapping[Any, Mapping[str, list]], layer: str) -> float:
    """Mean inclusive seconds per call of a layer over every job key."""
    slots = [j[layer] for j in per_job.values() if layer in j]
    calls = sum(s[CALLS] for s in slots)
    return sum(s[INCL] for s in slots) / calls if calls else 0.0
