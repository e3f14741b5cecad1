"""The library workloads: ``Sorter("hss").run(dataset)`` in-process.

``sim-wide`` and ``sim-deep-records`` share one closed loop: one thread
runs jobs back to back on the default simulated backend, cycling through
a seeded set of inputs.  Every job's output is checked against a
reference sorted once at set-up, and the modeled result of every repeat
of an input must match its first run exactly.  Interleaved with the jobs
run a ``kill-rank`` fault job (the library's failure path); every job
is preceded by one run of the host reference kernel; and after every job
the loop renders the metrics registry it keeps, the library's
counterpart of ``GET /metrics``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from common import FAULT_EVERY, cycle_seeds, paired_reference, peak_rss_mb
from layers import (
    count_metrics, job_layer_metrics, median_over, per_layer_metrics,
)


@dataclass(frozen=True)
class Shape:
    """One library workload: machine size and the input cycle."""

    procs: int
    keys_per_rank: int
    workloads: tuple[str, ...]
    inputs_per_workload: int
    payloads: bool


SHAPES = {
    # Many ranks, few keys each: per-rank Python overhead dominates.
    "sim-wide": Shape(96, 1_000, ("uniform", "lognormal", "changa-dwarf"),
                      8, False),
    # Few ranks, many keys with record payloads: NumPy work dominates.
    "sim-deep-records": Shape(8, 50_000, ("changa-dwarf",), 4, True),
}


@dataclass
class Input:
    """One generated input and its reference output."""

    label: str
    dataset: Any
    ref_keys: np.ndarray
    ref_rows: np.ndarray | None  # payload rows in stable key order
    dups: np.ndarray | None  # rows under duplicate keys, in any order
    nkeys: int
    first: tuple | None = None  # exact modeled result of the first run


def canonical_rows(keys: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """(key, payload row) records in one canonical byte order.

    Equal keys may carry their rows in any order, so rows under duplicate
    keys are compared as multisets: both sides sorted by record bytes.
    """
    fields = [("key", keys.dtype)] + [
        (name, payload.dtype[name]) for name in payload.dtype.names
    ]
    records = np.empty(len(keys), dtype=fields)
    records["key"] = keys
    for name in payload.dtype.names:
        records[name] = payload[name]
    return np.sort(records.view(np.dtype((np.void, records.itemsize))))


def duplicate_mask(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a sorted key equals a neighbour."""
    same = sorted_keys[1:] == sorted_keys[:-1]
    mask = np.zeros(len(sorted_keys), dtype=bool)
    mask[1:] |= same
    mask[:-1] |= same
    return mask


def make_inputs(shape: Shape, seed: int) -> list[Input]:
    """The seeded input cycle, each with its reference output."""
    from repro.algorithms import Dataset

    inputs = []
    seeds = cycle_seeds(seed, len(shape.workloads) * shape.inputs_per_workload)
    for i, data_seed in enumerate(seeds):
        workload = shape.workloads[i % len(shape.workloads)]
        dataset = Dataset.from_workload(
            workload, p=shape.procs, n_per=shape.keys_per_rank,
            seed=data_seed, payloads=True if shape.payloads else None,
        )
        keys = np.concatenate(dataset.shards)
        order = np.argsort(keys, kind="stable")
        ref_rows = dups = None
        if shape.payloads:
            ref_rows = np.concatenate(dataset.payloads)[order]
            dups = duplicate_mask(keys[order])
        inputs.append(Input(
            f"{workload}#{data_seed}", dataset, keys[order], ref_rows, dups,
            len(keys),
        ))
    return inputs


def check_output(inp: Input, run: Any) -> str | None:
    """None when the run's output equals the reference, else the reason."""
    keys = np.concatenate(run.shards)
    if not np.array_equal(keys, inp.ref_keys):
        return f"{inp.label}: output keys differ from the reference sort"
    if inp.ref_rows is not None:
        rows = np.concatenate(run.payloads)
        moved = rows != inp.ref_rows
        if (moved & ~inp.dups).any() or not np.array_equal(
            canonical_rows(keys[inp.dups], rows[inp.dups]),
            canonical_rows(keys[inp.dups], inp.ref_rows[inp.dups]),
        ):
            return f"{inp.label}: payload rows differ from the reference"
    exact = modeled_signature(run)
    if inp.first is None:
        inp.first = exact
    elif exact != inp.first:
        return (
            f"{inp.label}: modeled result {exact} differs from the first "
            f"run's {inp.first}"
        )
    return None


def modeled_signature(run: Any) -> tuple:
    """The fields that must repeat exactly: makespan, rounds, net bytes."""
    return (
        run.makespan,
        run.splitter_stats.num_rounds,
        run.engine_result.stats.bytes,
    )


def run_fault(inp: Input) -> tuple[float, str | None]:
    """One ``kill-rank`` job; returns ``(reply seconds, problem)``."""
    from repro.algorithms import Sorter
    from repro.runtime import ChaosBackend

    sorter = Sorter("hss", backend=ChaosBackend(inner="simulated",
                                                plan="kill-rank"))
    start = time.perf_counter()
    try:
        sorter.run(inp.dataset)
    except Exception as exc:  # the expected outcome is a structured error
        elapsed = time.perf_counter() - start
        if type(exc).__name__ != "DeadlockError":
            return elapsed, f"kill-rank on {inp.label}: {exc!r}"
        return elapsed, None
    return time.perf_counter() - start, f"kill-rank on {inp.label}: no error"


def setup(workload: str, seed: int) -> list[Input]:
    """Imports, input generation and one warm-up job (the set-up unit)."""
    from repro.algorithms import Sorter

    inputs = make_inputs(SHAPES[workload], seed)
    run = Sorter("hss").run(inputs[0].dataset)
    problem = check_output(inputs[0], run)
    if problem is not None:
        raise RuntimeError(f"warm-up job failed its check: {problem}")
    return inputs


@dataclass
class LoopResult:
    """Raw observations of one job loop."""

    job_s: list[float] = field(default_factory=list)
    job_keys: list[int] = field(default_factory=list)
    fault_s: list[float] = field(default_factory=list)
    scrape_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    job_ref_s: list[float] = field(default_factory=list)
    fault_ref_s: list[float] = field(default_factory=list)
    scrape_ref_s: list[float] = field(default_factory=list)
    job_ids: list[int] = field(default_factory=list)
    #: ``layers.COUNTS`` of each ok job.
    counts: list[tuple] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0


def job_loop(
    inputs: list[Input],
    seconds: float,
    *,
    min_jobs: int,
    tracer: Any = None,
) -> LoopResult:
    """Run jobs for ``seconds`` (and at least ``min_jobs`` of them)."""
    from repro.algorithms import Sorter

    sorter = Sorter("hss")
    registry = JobRegistry()
    out = LoopResult()
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + 2 * seconds
    i = 0
    while (
        time.perf_counter() < deadline or len(out.job_s) < min_jobs
    ) and time.perf_counter() < hard_stop:
        inp = inputs[i % len(inputs)]
        i += 1
        # Every job is paired with a kernel run just before it.
        ref = paired_reference()
        out.ref_s.append(ref)
        out.attempted += 1
        if i % FAULT_EVERY == 0:
            if tracer is not None:
                tracer.set_job(("fault", i))
            elapsed, problem = run_fault(inp)
            if problem:
                out.problems.append(problem)
                continue
            out.ok += 1
            out.fault_s.append(elapsed)
            out.fault_ref_s.append(ref)
            renders = registry.observe("error", elapsed)
            out.scrape_s += renders
            out.scrape_ref_s += [ref] * len(renders)
            continue
        if tracer is not None:
            tracer.set_job(i)
        start = time.perf_counter()
        try:
            run = sorter.run(inp.dataset)
        except Exception as exc:  # counted against ok_fraction, printed
            out.problems.append(f"{inp.label}: {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        problem = check_output(inp, run)
        if problem is not None:
            out.problems.append(problem)
            continue
        out.ok += 1
        out.job_s.append(elapsed)
        out.job_ref_s.append(ref)
        out.job_keys.append(inp.nkeys)
        out.job_ids.append(i)
        stats = run.engine_result.stats
        out.counts.append((
            run.splitter_stats.num_rounds, run.splitter_stats.total_sample,
            stats.bytes, stats.messages,
        ))
        renders = registry.observe("ok", elapsed)
        out.scrape_s += renders
        out.scrape_ref_s += [ref] * len(renders)
    if tracer is not None:
        tracer.set_job(None)
    return out


#: Registry renders timed after each job: a render takes about 0.1 ms, and
#: its p90 needs more samples than a run has jobs to be steady.
RENDERS = 5


class JobRegistry:
    """The job loop's metrics registry; rendering it is the library scrape.

    The library has no server, so its scrape is the render of the
    registry the loop keeps (jobs by outcome, a latency histogram), timed
    in the job thread between jobs: the cost a ``/metrics`` read adds.
    """

    def __init__(self) -> None:
        from repro.telemetry import MetricsRegistry

        self.registry = MetricsRegistry()
        self._jobs = self.registry.counter(
            "hostbench_jobs_total", "Jobs run, by outcome.", ("status",)
        )
        self._latency = self.registry.histogram(
            "hostbench_job_wall_seconds", "Wall-clock per job."
        )

    def observe(self, status: str, seconds: float) -> list[float]:
        """Count one job, then time :data:`RENDERS` renders; returns their
        seconds.

        The collector is paused while the renders are timed, as ``timeit``
        does: a collection the job's garbage happens to trigger inside a
        render would otherwise decide the tail.
        """
        self._jobs.labels(status=status).inc()
        self._latency.observe(seconds)
        times = []
        gc.disable()
        try:
            for _ in range(RENDERS):
                start = time.perf_counter()
                self.registry.render()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return times


def measure(workload: str, seed: int, seconds: float, min_jobs: int) -> dict:
    """The raw record of one untraced run (see ``stats.end_to_end_metrics``)."""
    inputs = setup(workload, seed)
    loop = job_loop(inputs, seconds, min_jobs=min_jobs)
    return {
        "job_s": loop.job_s,
        "job_keys": loop.job_keys,
        "fault_s": loop.fault_s,
        "scrape_s": loop.scrape_s,
        "ref_s": loop.ref_s,
        "job_ref_s": loop.job_ref_s,
        "fault_ref_s": loop.fault_ref_s,
        "scrape_ref_s": loop.scrape_ref_s,
        "modeled_s": [inp.first[0] for inp in inputs if inp.first],
        "peak_rss_mb": peak_rss_mb(),
        "ok": loop.ok,
        "attempted": loop.attempted,
        "raw": (),
        "problems": loop.problems,
    }


def np_sort_seconds(inp: Input, repeats: int = 3) -> float:
    """Single-threaded NumPy sort of the same input (keys and rows)."""
    keys = np.concatenate(inp.dataset.shards)
    payload = (
        np.concatenate(inp.dataset.payloads) if inp.ref_rows is not None
        else None
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        if payload is None:
            np.sort(keys)
        else:
            order = np.argsort(keys, kind="stable")
            keys[order], payload[order]
        times.append(time.perf_counter() - start)
    return median_over(times)


def measure_traced(
    workload: str, seed: int, seconds: float, trace_path: str
) -> tuple[dict[str, float], list[str], int]:
    """Per-layer metrics: a third of the run untraced, then traced."""
    from tracing import LIBRARY_TARGETS, Tracer

    inputs = setup(workload, seed)
    plain = job_loop(inputs, seconds / 3, min_jobs=1)
    tracer = Tracer()
    tracer.install(LIBRARY_TARGETS)
    try:
        traced = job_loop(inputs, 2 * seconds / 3, min_jobs=1, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_chrome_trace(trace_path)
    metrics = job_layer_metrics(
        tracer.per_job(), traced.job_ids, (), root="algorithms.sorter.run"
    )
    metrics.update(count_metrics(traced.counts))
    metrics["records.payload_bytes"] = median_over(
        sum(p.nbytes for p in inp.dataset.payloads or ()) for inp in inputs
    )
    untraced_p50 = median_over(plain.job_s)
    baseline = median_over(np_sort_seconds(inp) for inp in inputs)
    metrics["host.ref_s"] = median_over(plain.ref_s + traced.ref_s)
    metrics["baseline.np_sort_s"] = baseline
    metrics["baseline.overhead_x"] = untraced_p50 / baseline
    metrics["trace.overhead_x"] = median_over(traced.job_s) / untraced_p50
    problems = plain.problems + traced.problems
    return (per_layer_metrics(metrics), problems,
            plain.attempted + traced.attempted)
