"""The open-loop scraper and the serve job stream."""

import json
import time

import serve


class StallingDaemon:
    """Answers every read at once, except the third, which stalls."""

    def __init__(self):
        self.reads = 0

    def request(self, method, path, body=None):
        assert (method, path) == ("GET", "/metrics")
        self.reads += 1
        if self.reads == 3:
            time.sleep(0.2)  # about 20 scrape periods
        return 200, b"x" * 7, 0.0


def test_scraper_times_every_read_from_when_it_was_due(monkeypatch):
    monkeypatch.setattr(serve, "SCRAPE_PERIOD", 0.01)
    scraper = serve.Scraper(StallingDaemon())
    scraper.start()
    time.sleep(0.4)
    scraper.stop()
    assert not scraper.errors
    # Reads that fell due during the stall were served by one read, yet
    # each was timed from its own due time.
    assert len(scraper.latencies) > scraper.sent + 10
    assert max(scraper.latencies) >= 0.18
    assert sum(1 for x in scraper.latencies if x > 0.05) >= 10
    assert set(scraper.nbytes) == {7}


def test_job_stream_is_a_function_of_the_seed():
    a = [job.line for job, _ in zip(serve.JobStream(5), range(200))]
    b = [job.line for job, _ in zip(serve.JobStream(5), range(200))]
    c = [job.line for job, _ in zip(serve.JobStream(6), range(200))]
    assert a == b and a != c
    kinds = {json.loads(line)["id"].split("-")[0]
             for line in a if line.endswith("}")}
    assert {"repeat", "process", "fresh"} <= kinds
    # Every block of 20 holds the kinds in the same proportions.
    block = [job.kind for job, _ in zip(serve.JobStream(5), range(20))]
    assert sorted(block) == sorted(k for k, n in serve.MIX for _ in range(n))


def test_job_stream_fingerprints_cannot_collide():
    # A fingerprint covers algorithm, procs, dtypes and the key sketch, not
    # the data seed: repeats must differ in (workload, procs) to keep their
    # cache entries, and so warm replies, apart.  Every fresh job must
    # miss, so its fingerprint is one no other job has.
    from repro.experiments import Scenario
    from repro.service.fingerprint import workload_fingerprint

    stream = serve.JobStream(1)
    repeats = stream.repeats
    shapes = {(s["workload"], s["procs"]) for s in repeats}
    assert len(shapes) == len(repeats)
    procs = {s["procs"] for s in repeats}
    for other in (serve.WARMUP, serve.FAULT):
        assert other["procs"] not in procs
    assert not procs & set(serve.FRESH_PROCS)
    fresh = [json.loads(job.line)["scenario"]
             for job, _ in zip(stream, range(300)) if job.kind == "fresh"]
    assert len(fresh) > 40
    others = repeats + [serve.WARMUP]
    fingerprints = [
        workload_fingerprint("hss", Scenario(**sc).build_dataset())
        for sc in fresh + others
    ]
    assert len(set(fingerprints)) == len(fingerprints)


def test_scrape_window_keeps_the_reads_due_in_it():
    scraper = serve.Scraper(None)
    scraper.started = 100.0
    scraper.due = [100.05, 100.1, 100.9, 101.0, 101.05]
    scraper.latencies = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert [lat for _, lat in scraper.window(1.0)] == [0.1, 0.2, 0.3, 0.4]


def test_reads_are_paired_with_the_post_they_fell_due_behind():
    posted = [(10.0, 0.004), (10.5, 0.005), (11.0, 0.006)]
    due = [9.9, 10.0, 10.7, 11.2]
    assert serve.in_flight_refs(due, posted) == [0.004, 0.004, 0.005, 0.006]
