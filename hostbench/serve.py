"""The ``serve-mixed`` workload: a ``repro serve --http 0`` daemon.

One benchmark process drives the daemon over two connections.  A
closed-loop client posts a seeded job stream — repeat fingerprints
(cache hits and warm starts), fresh fingerprints (misses), a minority of
process-backend jobs, malformed lines and one ``kill-rank`` fault — and
checks every reply; a fresh job whose fingerprint an earlier job had
fails its check.  An open-loop scraper reads ``GET /metrics`` beside
it, so reads queue behind running jobs on the daemon's one HTTP lock.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from common import cycle_seeds, paired_reference

#: Daemon cold starts per run; ``setup_s`` is their median.  One takes
#: about a third of a library cold start, so a run affords more of them.
COLD_STARTS = 9
#: The fault job is posted once this share of the window has passed.
FAULT_AT = 0.3
#: Open-loop scrape period, seconds.
SCRAPE_PERIOD = 0.05

# Repeat scenarios: the same fingerprint again and again.  Their procs
# differ from every other job's, so fingerprints never collide across
# kinds and each repeat's warm reply is the same every time.
REPEATS = (
    {"workload": "uniform", "procs": 64, "keys_per_rank": 1000},
    {"workload": "lognormal", "procs": 32, "keys_per_rank": 2000},
    {"workload": "changa-dwarf", "procs": 32, "keys_per_rank": 2000},
    {"workload": "uniform", "procs": 16, "keys_per_rank": 4000},
)
# Process-backend repeats (workers = min(procs, cores) <= nproc).
PROCESS = (
    {"workload": "lognormal", "procs": 8, "keys_per_rank": 4000,
     "backend": "process"},
)
#: Variants per repeat shape, at procs, procs - 1, ...  The fingerprint
#: ignores the data seed, so variants must differ in procs to keep apart.
REPEAT_VARIANTS = 3
# Fresh jobs: procs no other job uses, and workloads whose key sketch
# changes from seed to seed and whose keys do not repeat (the default
# config fails on some inputs with repeated keys, as changa-lambb has).
FRESH_PROCS = (46, 47, 48, 49, 50)
FRESH_KEYS_PER_RANK = 1000
FRESH_WORKLOADS = ("normal", "drifting-mixture")
#: Draws a fresh job may take to find a fingerprint no job had before.
FRESH_DRAWS = 100
FAULT = {"algorithm": "hss", "workload": "uniform", "procs": 4,
         "keys_per_rank": 500, "backend": "process", "chaos": "kill-rank"}
WARMUP = {"algorithm": "hss", "workload": "uniform", "procs": 2,
          "keys_per_rank": 1000}
MALFORMED = (
    '{"id": "bad-json", "scenario": ',
    '{"id": "bad-key", "scenario": {"algorithm": "hss", '
    '"workload": "uniform"}, "priority": 1}',
    '{"id": "bad-workload", "scenario": {"algorithm": "hss", '
    '"workload": "no-such-workload"}}',
)
# Stream mix: kind -> jobs in each block of 20.  Each block is shuffled,
# so every seed's stream holds the kinds in the same proportions.
MIX = (("repeat", 11), ("process", 3), ("fresh", 4), ("malformed", 2))
EPS = 0.05  # the scenario default; ok replies must balance within it


@dataclass
class Job:
    kind: str
    key: Any  # repeat identity, None for one-off jobs
    line: str
    nkeys: int
    expect: str  # "ok" or the expected error type


class JobStream:
    """The seeded job stream (an endless iterator)."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([int(seed) % 2**32, 0x5E7E])
        shapes = REPEATS + PROCESS
        data_seeds = iter(cycle_seeds(seed, len(shapes) * REPEAT_VARIANTS))
        self.repeats = [
            {"algorithm": "hss", **shape, "procs": shape["procs"] - variant,
             "seed": next(data_seeds)}
            for variant in range(REPEAT_VARIANTS) for shape in shapes
        ]
        self.keys = {
            kind: [k for k, sc in enumerate(self.repeats)
                   if ("backend" in sc) == (kind == "process")]
            for kind in ("repeat", "process")
        }
        self.fresh_fingerprints: set[str] = set()
        self.block: list[str] = []
        self.n = 0

    def _job(self, kind: str, key: Any, scenario: dict) -> Job:
        self.n += 1
        line = json.dumps({"id": f"{kind}-{self.n}", "scenario": scenario})
        nkeys = scenario["procs"] * scenario["keys_per_rank"]
        return Job(kind, key, line, nkeys, "ok")

    def fault(self) -> Job:
        self.n += 1
        line = json.dumps({"id": f"fault-{self.n}", "scenario": FAULT})
        return Job("fault", None, line, 0, "DeadlockError")

    def __iter__(self):
        return self

    def __next__(self) -> Job:
        if not self.block:
            self.block = [kind for kind, count in MIX for _ in range(count)]
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        if kind in self.keys:
            keys = self.keys[kind]
            k = keys[int(self.rng.integers(len(keys)))]
            return self._job(kind, k, self.repeats[k])
        if kind == "fresh":
            return self._job(kind, None, self._fresh_scenario())
        self.n += 1
        line = MALFORMED[int(self.rng.integers(len(MALFORMED)))]
        return Job("malformed", None, line, 0, "JobError")


    def _fresh_scenario(self) -> dict:
        """A seeded scenario whose fingerprint no earlier job had.

        Its procs keep it apart from every other kind of job; its
        fingerprint, computed as the daemon does, from earlier fresh ones.
        """
        from repro.experiments import Scenario
        from repro.service.fingerprint import workload_fingerprint

        for _ in range(FRESH_DRAWS):
            scenario = {
                "algorithm": "hss",
                "workload": FRESH_WORKLOADS[
                    int(self.rng.integers(len(FRESH_WORKLOADS)))
                ],
                "procs": FRESH_PROCS[
                    int(self.rng.integers(len(FRESH_PROCS)))
                ],
                "keys_per_rank": FRESH_KEYS_PER_RANK,
                "seed": int(self.rng.integers(2**31 - 1)),
            }
            fingerprint = workload_fingerprint(
                "hss", Scenario(**scenario).build_dataset()
            )
            if fingerprint not in self.fresh_fingerprints:
                self.fresh_fingerprints.add(fingerprint)
                return scenario
        raise RuntimeError(f"no unseen fingerprint in {FRESH_DRAWS} draws")


class Daemon:
    """A ``repro serve --http 0`` subprocess and requests to it."""

    def __init__(self, root: str, trace: list[str] = ()) -> None:
        launcher = os.path.join(root, "hostbench", "launch_serve.py")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, launcher, *trace, "serve", "--http", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: list[str] = []
        self.port = self._read_port()
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _read_port(self) -> int:
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.proc.wait(30)
        raise RuntimeError("daemon exited before listening: "
                           + "".join(self.stderr)[-2000:])

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def request(self, method: str, path: str, body: str | None = None):
        """``(http status, body bytes, seconds)`` of one request."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        start = time.perf_counter()
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        return response.status, data, time.perf_counter() - start

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def post(self, line: str) -> tuple[int, dict, float]:
        status, data, seconds = self.request("POST", "/sort", line)
        return status, json.loads(data), seconds

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for row in handle:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Interrupt the daemon (it exits cleanly) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(10)
        return self.proc.returncode


def start_daemon(root: str, trace: list[str] = ()) -> Daemon:
    """A healthy daemon that has served one warm-up job."""
    daemon = Daemon(root, trace)
    try:
        daemon.wait_healthy()
        status, reply, _ = daemon.post(
            json.dumps({"id": "warmup", "scenario": WARMUP})
        )
        if status != 200:
            raise RuntimeError(f"warm-up job failed: {reply}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


class Scraper:
    """The open-loop ``GET /metrics`` reader, on its own thread.

    A read is due every :data:`SCRAPE_PERIOD`.  Each due read is timed
    from when it was due, not from when it was sent: reads that fall due
    while an earlier one is still out are served by the next read, sent as
    soon as the earlier one returns.  A stall is thus charged to every
    read it delayed, and the reader never builds a queue.
    """

    def __init__(self, daemon: Daemon) -> None:
        self.daemon = daemon
        self.started = 0.0
        self.due: list[float] = []
        self.latencies: list[float] = []
        self.nbytes: list[int] = []
        self.sent = 0
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def fetch(self) -> int:
        """One read; returns the body's length."""
        status, data, _ = self.daemon.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return len(data)

    def start(self) -> None:
        self.started = time.perf_counter()
        self._thread.start()

    def stop(self, timeout: float = 60.0) -> None:
        self._stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("scraper thread did not stop")

    def window(self, seconds: float) -> list[tuple[float, float]]:
        """``(due, latency)`` of the reads due in the first ``seconds``.

        A fixed window keeps a stall's share of the reads fixed, so a run
        that lasts longer than ``seconds`` does not dilute its tail.
        """
        end = self.started + seconds
        return [(due, lat) for due, lat in zip(self.due, self.latencies)
                if due <= end]

    def _run(self) -> None:
        due = self.started + SCRAPE_PERIOD
        while not self._stop.wait(max(0.0, due - time.perf_counter())):
            sent = time.perf_counter()
            try:
                nbytes = self.fetch()
            except Exception as exc:  # reported as a correctness failure
                self.errors.append(repr(exc))
                return
            done = time.perf_counter()
            self.sent += 1
            self.nbytes.append(nbytes)
            while due <= sent:
                self.due.append(due)
                self.latencies.append(done - due)
                due += SCRAPE_PERIOD


@dataclass
class ServeLoop:
    """Raw observations of one client loop."""

    job_s: list[float] = field(default_factory=list)
    job_keys: list[int] = field(default_factory=list)
    job_ids: list[str] = field(default_factory=list)
    fault_s: list[float] = field(default_factory=list)
    fault_ids: list[str] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    job_ref_s: list[float] = field(default_factory=list)
    #: (time sent, kernel seconds) of every post.
    posted: list[tuple[float, float]] = field(default_factory=list)
    cold_makespan: dict = field(default_factory=dict)
    rounds_warm: list[int] = field(default_factory=list)
    rounds_cold: list[int] = field(default_factory=list)
    counts: list[tuple] = field(default_factory=list)
    compute_s: list[float] = field(default_factory=list)
    comm_wait_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    warm_projection: dict = field(default_factory=dict)


def check_reply(job: Job, status: int, reply: dict, loop: ServeLoop) -> str | None:
    """None when the reply is the one the job's class should get."""
    from repro.service.jobs import strip_volatile_reply, validate_reply

    errors = validate_reply(reply)
    if errors:
        return f"{job.line[:60]}: invalid reply: {errors}"
    if job.expect != "ok":
        kind = (reply.get("error") or {}).get("type")
        if status != 400 or reply["status"] != "error" or kind != job.expect:
            return f"{job.line[:60]}: expected {job.expect}, got {status} {kind}"
        return None
    if status != 200 or reply["status"] != "ok":
        return f"{job.line[:60]}: expected ok, got {status} {reply.get('error')}"
    if reply["metrics"]["imbalance"] > 1 + EPS:
        return f"{job.line[:60]}: imbalance {reply['metrics']['imbalance']}"
    if job.kind == "fresh" and reply["cache"]["hit"]:
        return f"{job.line[:60]}: fresh fingerprint hit the cache"
    if job.key is None:
        return None
    projection = strip_volatile_reply(reply)
    projection.pop("id")
    if not reply["cache"]["hit"]:
        if job.key in loop.cold_makespan:
            return f"{job.line[:60]}: repeat missed the cache"
        loop.cold_makespan[job.key] = reply["metrics"]["makespan_s"]
    elif loop.warm_projection.setdefault(job.key, projection) != projection:
        return f"{job.line[:60]}: warm reply differs from an earlier repeat"
    return None


def post_job(daemon: Daemon, job: Job, out: ServeLoop) -> None:
    """Post one job, paired with a kernel run just before it, and check
    its reply into ``out``."""
    ref = paired_reference()
    out.ref_s.append(ref)
    out.attempted += 1
    out.posted.append((time.perf_counter(), ref))
    status, reply, elapsed = daemon.post(job.line)
    problem = check_reply(job, status, reply, out)
    if problem is not None:
        out.problems.append(problem)
        return
    out.ok += 1
    if job.kind == "fault":
        out.fault_s.append(elapsed)
        out.fault_ids.append(reply["id"])
    if job.expect != "ok":
        return
    metrics = reply["metrics"]
    out.job_ref_s.append(ref)
    out.job_s.append(elapsed)
    out.job_keys.append(job.nkeys)
    out.job_ids.append(reply["id"])
    (out.rounds_warm if reply["cache"]["hit"] else out.rounds_cold).append(
        metrics["rounds"]
    )
    out.counts.append((
        metrics["rounds"], metrics["total_sample"], metrics["net_bytes"],
        metrics["net_messages"],
    ))
    measured = reply.get("measured") or {}
    if measured.get("rank_compute_s"):
        out.compute_s.append(max(measured["rank_compute_s"]))
        out.comm_wait_s.append(max(measured["rank_comm_wait_s"]))


def client_loop(
    daemon: Daemon, stream: JobStream, seconds: float, *, min_jobs: int,
    fault: bool,
) -> tuple[ServeLoop, Scraper]:
    """Post jobs back to back for ``seconds`` (and ``min_jobs`` ok ones),
    with the open-loop scraper reading beside them."""
    out = ServeLoop()
    scraper = Scraper(daemon)
    scraper.start()
    try:
        start = time.perf_counter()
        fault_due = start + FAULT_AT * seconds if fault else None
        while True:
            now = time.perf_counter()
            if (now - start >= seconds and len(out.job_s) >= min_jobs) or (
                now - start >= 2 * seconds
            ):
                break
            if fault_due is not None and now >= fault_due:
                job, fault_due = stream.fault(), None
            else:
                job = next(stream)
            post_job(daemon, job, out)
    finally:
        scraper.stop()
    out.problems += scraper.errors
    return out, scraper


def in_flight_refs(
    due: list[float], posted: list[tuple[float, float]]
) -> list[float]:
    """For each read, the kernel time paired with the post it fell due
    behind (the last one sent before it was due)."""
    sent = [t for t, _ in posted]
    return [posted[max(bisect.bisect_right(sent, d) - 1, 0)][1] for d in due]


def measure(root: str, seed: int, seconds: float, min_jobs: int) -> dict:
    """The raw record of one untraced run (see ``stats.end_to_end_metrics``)."""
    setup_s = []
    daemon = None
    for i in range(COLD_STARTS):
        start = time.perf_counter()
        daemon = start_daemon(root)
        setup_s.append(time.perf_counter() - start)
        if i < COLD_STARTS - 1:
            daemon.stop()
    try:
        loop, scraper = client_loop(daemon, JobStream(seed), seconds,
                                    min_jobs=min_jobs, fault=True)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    if code != 0:
        loop.problems.append(f"daemon exited {code}")
    reads = scraper.window(seconds)
    return {
        "job_s": loop.job_s,
        "job_keys": loop.job_keys,
        "setup_s": setup_s,
        "fault_s": loop.fault_s,
        "scrape_s": [lat for _, lat in reads],
        "scrape_ref_s": in_flight_refs([due for due, _ in reads],
                                       loop.posted),
        "ref_s": loop.ref_s,
        "job_ref_s": loop.job_ref_s,
        "modeled_s": list(loop.cold_makespan.values()),
        "peak_rss_mb": rss,
        "ok": loop.ok,
        "attempted": loop.attempted,
        "cache_hits": len(loop.rounds_warm),
        "cache_misses": len(loop.rounds_cold),
        # Two fixed 5 s worker joins dominate a kill-rank reply, and the
        # p90 scrape waits inside that stall: timers, not host speed.
        "raw": ("fault_reply_p50_s", "scrape_p90_s"),
        "problems": loop.problems,
    }


def measure_traced(
    root: str, seed: int, seconds: float, trace_path: str
) -> tuple[dict[str, float], list[str], int]:
    """Per-layer metrics: an untraced daemon for a third of the run, then a
    daemon entered through ``launch_serve.py --layers`` for the rest.

    Both loops run beside the scraper and without the fault, so their job
    times compare like with like; the traced daemon gets one fault job
    after its loop.
    """
    from layers import (
        call_mean, count_metrics, job_layer_metrics, median_over,
        per_layer_metrics,
    )
    from repro.experiments import Scenario
    from tracing import INCL

    daemon = start_daemon(root)
    try:
        plain, _ = client_loop(daemon, JobStream(seed), seconds / 3,
                               min_jobs=1, fault=False)
    finally:
        daemon.stop()
    layers_path = trace_path + ".layers.json"
    daemon = start_daemon(
        root, ["--layers", layers_path, "--trace", trace_path]
    )
    try:
        stream = JobStream(seed)
        traced, scraper = client_loop(daemon, stream, 2 * seconds / 3,
                                      min_jobs=1, fault=False)
        post_job(daemon, stream.fault(), traced)
    finally:
        code = daemon.stop()
    problems = plain.problems + traced.problems
    if code != 0:
        problems.append(f"traced daemon exited {code}")
    with open(layers_path) as handle:
        per_job = json.load(handle)["jobs"]

    metrics = job_layer_metrics(per_job, traced.job_ids, traced.fault_ids,
                                root="service.daemon.handle")
    metrics["service.http.lock_wait_s"] = median_over(
        rtt - per_job[j]["service.daemon.handle"][INCL]
        for j, rtt in zip(traced.job_ids, traced.job_s) if j in per_job
    )
    metrics["telemetry.metrics.render_s"] = call_mean(
        per_job, "telemetry.metrics.render"
    )
    metrics["telemetry.metrics.scrape_bytes"] = median_over(scraper.nbytes)
    metrics["core.hss.rounds_warm"] = median_over(traced.rounds_warm)
    metrics["core.hss.rounds_cold"] = median_over(traced.rounds_cold)
    metrics["runtime.measured.compute_s"] = median_over(traced.compute_s)
    metrics["runtime.measured.comm_wait_s"] = median_over(traced.comm_wait_s)
    metrics.update(count_metrics(traced.counts))

    baseline = []
    for scenario in JobStream(seed).repeats:
        keys = np.concatenate(Scenario(**scenario).build_dataset().shards)
        start = time.perf_counter()
        np.sort(keys)
        baseline.append(time.perf_counter() - start)
    untraced_p50 = median_over(plain.job_s)
    metrics["host.ref_s"] = median_over(plain.ref_s + traced.ref_s)
    metrics["baseline.np_sort_s"] = median_over(baseline)
    metrics["baseline.overhead_x"] = untraced_p50 / median_over(baseline)
    metrics["trace.overhead_x"] = median_over(traced.job_s) / untraced_p50
    return (per_layer_metrics(metrics), problems,
            plain.attempted + traced.attempted)
