"""The benchmark's one metric table; ``BENCHMARK.json`` is generated from it.

Regenerate with ``python3 hostbench/run.py --write-spec``.
"""

from __future__ import annotations

COMMAND = ["python3", "hostbench/run.py"]
PATHS = ["hostbench"]
RUN_SECONDS = 30

WORKLOADS = (
    ("sim-wide",
     "hss on the simulator, p=96 x 1k keys: per-rank overhead (sampling, "
     "exchange slicing, sizeof) dominates, where the O(p^2) fixes land"),
    ("sim-deep-records",
     "hss on the simulator, p=8 x 50k changa-dwarf keys with records: "
     "NumPy sort, merge and verification dominate; the control"),
    ("serve-mixed",
     "repro serve over HTTP: cache hits and misses, process-backend and "
     "malformed jobs, a kill-rank fault, and an open-loop /metrics scraper"),
)

# (name, unit, better, bound).  Exact metrics repeat to the last digit for
# one seed; their bound covers the spread between seeds.
END_TO_END = (
    ("job_p50_s", "s", "lower", 0.2),
    ("job_p90_s", "s", "lower", 0.2),
    ("jobs_per_s", "jobs/s", "higher", 0.2),
    ("keys_per_s", "keys/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("fault_reply_p50_s", "s", "lower", 0.2),
    ("scrape_p50_s", "s", "lower", 0.2),
    ("scrape_p90_s", "s", "lower", 0.2),
    ("modeled_s", "modeled-s", "lower", 0.2),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("ok_fraction", "ratio", "higher", 0.02),
)

# (name, unit, better).  Times are per job, the median over the jobs that
# reached the layer; see hostbench/README.md for each one's source.
PER_LAYER = (
    ("sampling.bernoulli.sample_s", "s", "lower"),
    ("sampling.bernoulli.calls", "count", "lower"),
    ("core.data_movement.partition_s", "s", "lower"),
    ("core.data_movement.shard_slices", "count", "lower"),
    ("bsp.collectives.sizeof_s", "s", "lower"),
    ("bsp.collectives.sizeof_calls", "count", "lower"),
    ("bsp.engine.resolve_s", "s", "lower"),
    ("bsp.engine.sweeps", "count", "lower"),
    ("core.keyspace.histogram_s", "s", "lower"),
    ("core.keyspace.probe_sort_s", "s", "lower"),
    ("core.splitters.update_s", "s", "lower"),
    ("core.data_movement.local_sort_s", "s", "lower"),
    ("core.data_movement.exchange_merge_s", "s", "lower"),
    ("metrics.verify.sorted_s", "s", "lower"),
    ("metrics.verify.permutation_s", "s", "lower"),
    ("metrics.verify.balance_s", "s", "lower"),
    ("runtime.simulated.run_s", "s", "lower"),
    ("algorithms.sorter.run_s", "s", "lower"),
    ("unexplained_s", "s", "lower"),
    ("core.hss.rounds", "count", "lower"),
    ("core.hss.total_sample", "count", "lower"),
    ("bsp.net_bytes", "bytes", "lower"),
    ("bsp.net_messages", "count", "lower"),
    ("records.payload_bytes", "bytes", "lower"),
    ("service.jobs.parse_s", "s", "lower"),
    ("experiments.scenario.build_dataset_s", "s", "lower"),
    ("service.fingerprint.fingerprint_s", "s", "lower"),
    ("service.daemon.handle_s", "s", "lower"),
    ("service.cache.probes", "count", "lower"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("core.hss.rounds_warm", "count", "lower"),
    ("core.hss.rounds_cold", "count", "lower"),
    ("experiments.scenario.execute_s", "s", "lower"),
    ("runtime.process.run_s", "s", "lower"),
    ("runtime.measured.compute_s", "s", "lower"),
    ("runtime.measured.comm_wait_s", "s", "lower"),
    ("runtime.process.fault_s", "s", "lower"),
    ("service.http.lock_wait_s", "s", "lower"),
    ("telemetry.metrics.render_s", "s", "lower"),
    ("telemetry.metrics.scrape_bytes", "bytes", "lower"),
    ("host.ref_s", "s", "lower"),
    ("baseline.np_sort_s", "s", "lower"),
    ("baseline.overhead_x", "x", "lower"),
    ("trace.overhead_x", "x", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
