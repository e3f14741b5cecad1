"""Layer tracing from outside the program: timing wrappers around public
callables, installed and removed at run time.

A :class:`Tracer` replaces each target callable with a wrapper that
opens a span on entry and closes it on exit.  Spans nest through a
per-thread stack, so every span knows its parent and a layer's *self*
time is its span minus the spans of its children.  Generator functions
(the BSP programs' ``yield from`` helpers) are timed per resumption, so a
rank program's time is charged to the layer only while that layer runs.

Module-level functions are patched by identity in every loaded ``repro``
module: ``from x import f`` binds ``f`` into the importer's namespace,
and those bindings are the ones the program calls.  Uninstalling puts
back exactly what was there, so a traced run leaves the program as it
found it.

Per job and layer the tracer keeps self seconds, inclusive seconds,
calls and raised exceptions.  Raw spans (name, start, end, parent, job)
are kept in memory up to :data:`MAX_SPANS` and written at exit as a
Chrome trace that ``repro trace`` opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Raw spans kept for the Chrome trace; aggregates cover every call.
MAX_SPANS = 50_000

#: Trace-file process id of the layer timeline (repro uses 1..3).
LAYER_PID = 10

#: Indices into one ``(job, layer)`` aggregate.
SELF, INCL, CALLS, ERRORS, HITS = range(5)


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``path`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``kind`` is
    ``"time"`` (a span per call), ``"count"`` (calls only, no clock read:
    for the per-element hot calls), or ``"probe"`` (a span per call, and
    a hit whenever the call returns something other than None).
    """

    path: str
    layer: str
    kind: str = "time"


# Library path: one Sorter.run and everything it crosses.
LIBRARY_TARGETS = (
    Target("repro.algorithms.sorter:Sorter.run", "algorithms.sorter.run"),
    Target("repro.runtime.simulated:SimulatedBackend.run",
           "runtime.simulated.run"),
    Target("repro.bsp.engine:SuperstepResolver.resolve_sweep",
           "bsp.engine.resolve"),
    Target("repro.bsp.collectives:sizeof", "bsp.collectives.sizeof"),
    Target("repro.sampling.bernoulli:bernoulli_sample_in_intervals",
           "sampling.bernoulli.sample"),
    Target("repro.core.keyspace:PlainKeySpace.local_counts",
           "core.keyspace.histogram"),
    Target("repro.core.keyspace:PlainKeySpace.sort_unique_probes",
           "core.keyspace.probe_sort"),
    Target("repro.core.splitters:SplitterState.update",
           "core.splitters.update"),
    Target("repro.core.data_movement:locally_sorted_shard",
           "core.data_movement.local_sort"),
    Target("repro.core.data_movement:exchange_and_merge",
           "core.data_movement.exchange_merge"),
    Target("repro.core.data_movement:partition_by_splitters",
           "core.data_movement.partition"),
    Target("repro.core.data_movement:Shard.slice",
           "core.data_movement.shard_slice", "count"),
    Target("repro.metrics.verify:check_globally_sorted",
           "metrics.verify.sorted"),
    Target("repro.metrics.verify:check_permutation",
           "metrics.verify.permutation"),
    Target("repro.metrics.verify:check_load_balance",
           "metrics.verify.balance"),
)

# Service path, on top of the library path (inside the daemon).
SERVICE_TARGETS = LIBRARY_TARGETS + (
    Target("repro.service.daemon:SortService.handle_line",
           "service.daemon.handle"),
    Target("repro.service.daemon:SortService.parse_line", "service.jobs.parse"),
    Target("repro.experiments.scenario:Scenario.build_dataset",
           "experiments.scenario.build_dataset"),
    Target("repro.service.fingerprint:workload_fingerprint",
           "service.fingerprint.fingerprint"),
    Target("repro.service.cache:SplitterCache.get", "service.cache.probe",
           "probe"),
    Target("repro.experiments.scenario:Scenario.execute",
           "experiments.scenario.execute"),
    Target("repro.runtime.process:ProcessBackend.run", "runtime.process.run"),
    Target("repro.telemetry.metrics:MetricsRegistry.render",
           "telemetry.metrics.render"),
)


class _ThreadState:
    """One thread's span stack, current job and aggregates."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list[list] = []
        self.job: Any = None
        self.agg: dict[tuple, list] = {}

    def slot(self, layer: str) -> list:
        key = (self.job, layer)
        slot = self.agg.get(key)
        if slot is None:
            slot = self.agg[key] = [0.0, 0.0, 0, 0, 0]
        return slot


class Tracer:
    """Installs layer wrappers, records spans, reports per-layer times."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.epoch = time.perf_counter()
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ state #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def set_job(self, job: Any) -> None:
        """Attribute the calling thread's next spans to ``job``."""
        self._state().job = job

    def _enter(self, layer: str) -> list:
        state = self._state()
        parent = state.stack[-1][3] if state.stack else -1
        frame = [layer, time.perf_counter(), 0.0, next(self._ids), parent]
        state.stack.append(frame)
        return frame

    def _exit(self, frame: list, *, failed: bool = False,
              hit: bool = False) -> None:
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        layer, start, children, span_id, parent = frame
        duration = end - start
        if state.stack:
            state.stack[-1][2] += duration
        slot = state.slot(layer)
        slot[SELF] += duration - children
        slot[INCL] += duration
        slot[CALLS] += 1
        slot[ERRORS] += failed
        slot[HITS] += hit
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (layer, start, end, span_id, parent, state.job, state.tid)
            )
        else:
            self.dropped += 1

    # ---------------------------------------------------------- wrappers #
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        layer = target.layer
        if target.kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._state().slot(layer)[CALLS] += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)
        probe = target.kind == "probe"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, failed=True)
                raise
            self._exit(frame, hit=probe and result is not None)
            return result
        return timed

    def _wrap_generator(self, fn: Callable, layer: str) -> Callable:
        @functools.wraps(fn)
        def timed_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value: Any = None
            error: BaseException | None = None
            while True:
                frame = self._enter(layer)
                try:
                    if error is not None:
                        item = inner.throw(error)
                    else:
                        item = inner.send(value)
                except StopIteration as stop:
                    self._exit(frame)
                    return stop.value
                except BaseException:
                    self._exit(frame, failed=True)
                    raise
                self._exit(frame)
                value, error = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the program
                    error = exc
        return timed_generator

    # ------------------------------------------------- install/uninstall #
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; raises if one does not resolve."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = list(targets)
        # Load every call site first: a module imported after a patch
        # would bind a wrapper that uninstall never sees.
        importlib.import_module("repro.algorithms")
        importlib.import_module("repro.service")
        for target in targets:
            importlib.import_module(target.path.partition(":")[0])
        try:
            for target in targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        module_name, _, attr_path = target.path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, attr)
            self._patch(owner, attr, self._wrap(original, target))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, target)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(loaded, attr, None) is original
            ):
                self._patch(loaded, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ----------------------------------------------------------- results #
    def per_job(self) -> dict[Any, dict[str, list]]:
        """``{job: {layer: [self_s, incl_s, calls, errors, hits]}}``."""
        out: dict[Any, dict[str, list]] = {}
        for state in self._threads:
            for (job, layer), slot in state.agg.items():
                merged = out.setdefault(job, {}).setdefault(
                    layer, [0.0, 0.0, 0, 0, 0]
                )
                for i, value in enumerate(slot):
                    merged[i] += value
        return out

    def write_chrome_trace(self, path: str) -> int:
        """Write the kept spans as a Chrome trace; returns the event count."""
        from repro.telemetry import TraceSink
        from repro.telemetry.export import write_chrome_trace

        sink = TraceSink()
        sink.process(LAYER_PID, "hostbench layers (self-timed wrappers)")
        for state in self._threads:
            sink.thread(LAYER_PID, state.tid, f"thread {state.tid}")
        for layer, start, end, span_id, parent, job, tid in self.spans:
            sink.complete(
                LAYER_PID, tid, layer, "layer", start - self.epoch,
                end - start,
                args={"span": span_id, "parent": parent, "job": str(job)},
            )
        if self.dropped:
            sink.instant(
                LAYER_PID, 0, f"{self.dropped} spans not kept", "layer",
                max((s[2] for s in self.spans), default=self.epoch)
                - self.epoch,
            )
        return write_chrome_trace(sink, path)

    def dump(self, path: str) -> None:
        """Write the per-job aggregates as JSON (for a parent process).

        Spans outside any job (a scrape's render) are listed under
        ``"(none)"``.
        """
        jobs = {
            "(none)" if job is None else str(job): layers
            for job, layers in self.per_job().items()
        }
        with open(path, "w") as handle:
            json.dump({"jobs": jobs, "dropped": self.dropped}, handle)
