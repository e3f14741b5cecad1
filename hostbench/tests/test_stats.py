"""Percentiles, the sample-count rule and metric extraction."""

import json
import os

import pytest

import spec
from layers import PER_JOB, job_layer_metrics, per_layer_metrics
from stats import (
    MIN_TAIL,
    REF_NOMINAL_S as REF,
    end_to_end_metrics,
    percentile,
    samples_beyond,
    tail_percentile,
)


def test_samples_beyond_p90():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(1000, 0.9) == 100


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(100))
    assert tail_percentile(values, 0.9) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        tail_percentile(values[:99], 0.9)
    assert samples_beyond(len(values), 0.9) >= MIN_TAIL


def test_percentile_interpolates_and_refuses_empty():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def canned_run():
    return {
        "job_s": [0.1] * 50 + [0.2] * 40 + [1.0] * 10,
        "job_keys": [1000] * 100,
        "setup_s": [2.0, 1.0, 3.0, 1.5, 2.5],
        "job_ref_s": [2 * REF] * 100,
        "ref_s": [1.8 * REF, 2 * REF, 2.2 * REF],
        "raw": ("fault_reply_p50_s", "scrape_p90_s"),
        "fault_s": [10.0, 10.2, 10.1],
        "scrape_s": [0.001 * i for i in range(200)],
        "scrape_ref_s": [2 * REF] * 200,
        "modeled_s": [3e-4, 1e-4, 2e-4],
        "peak_rss_mb": 123.5,
        "ok": 99,
        "attempted": 104,
    }


def test_end_to_end_metrics_from_a_canned_run():
    # The kernel took twice its nominal time: the host ran at half speed,
    # so normalized times are halved and rates doubled.  Jobs use their
    # own kernel runs; cold starts stay raw.
    m = end_to_end_metrics(canned_run())
    assert set(m) == {name for name, *_ in spec.END_TO_END}
    assert m["job_p50_s"] == pytest.approx(0.15 / 2)
    assert m["job_p90_s"] == pytest.approx(0.28 / 2)
    busy = 50 * 0.1 + 40 * 0.2 + 10 * 1.0
    assert m["jobs_per_s"] == pytest.approx(2 * 100 / busy)
    assert m["keys_per_s"] == pytest.approx(2 * 100_000 / busy)
    assert m["setup_s"] == 2.0
    assert m["fault_reply_p50_s"] == pytest.approx(10.1)  # raw
    assert m["scrape_p50_s"] == pytest.approx(0.0995 / 2)
    assert m["scrape_p90_s"] == pytest.approx(0.1791)  # raw
    assert m["modeled_s"] == 2e-4
    assert m["peak_rss_mb"] == 123.5
    assert m["ok_fraction"] == pytest.approx(99 / 104)


def test_end_to_end_metrics_refuse_a_short_run():
    run = canned_run()
    run["job_s"] = run["job_s"][:99]
    run["job_ref_s"] = run["job_ref_s"][:99]
    with pytest.raises(ValueError, match="p90"):
        end_to_end_metrics(run)


def test_layer_metrics_from_canned_aggregates():
    # [self, incl, calls, errors, hits] per (job, layer).
    per_job = {
        1: {"algorithms.sorter.run": [0.01, 1.0, 1, 0, 0],
            "runtime.simulated.run": [0.04, 0.9, 1, 0, 0],
            "sampling.bernoulli.sample": [0.5, 0.5, 30, 0, 0],
            "bsp.collectives.sizeof": [0.3, 0.3, 900, 0, 0],
            "core.data_movement.shard_slice": [0.0, 0.0, 400, 0, 0]},
        2: {"algorithms.sorter.run": [0.03, 2.0, 1, 0, 0],
            "runtime.simulated.run": [0.07, 1.9, 1, 0, 0],
            "sampling.bernoulli.sample": [1.5, 1.5, 30, 0, 0],
            "bsp.collectives.sizeof": [0.3, 0.3, 900, 0, 0],
            "core.data_movement.shard_slice": [0.0, 0.0, 400, 0, 0]},
        "f": {"experiments.scenario.execute": [0.1, 10.0, 1, 1, 0]},
    }
    m = job_layer_metrics(per_job, [1, 2], ["f"],
                          root="algorithms.sorter.run")
    assert m["sampling.bernoulli.sample_s"] == pytest.approx(1.0)
    assert m["sampling.bernoulli.calls"] == 30
    assert m["core.data_movement.shard_slices"] == 400
    assert m["algorithms.sorter.run_s"] == pytest.approx(1.5)
    # Root minus the non-container self times: 0.2 and 0.2.
    assert m["unexplained_s"] == pytest.approx(0.2)
    assert m["core.data_movement.local_sort_s"] == 0.0  # never reached
    assert m["runtime.process.fault_s"] == 10.0


def test_per_layer_metrics_cover_the_spec():
    names = [n for n, *_ in spec.PER_LAYER]
    assert set(PER_JOB) <= set(names)
    m = per_layer_metrics({"unexplained_s": 0.5})
    assert list(m) == names
    assert m["unexplained_s"] == 0.5 and m["bsp.net_bytes"] == 0.0
    with pytest.raises(KeyError, match="no.such_s"):
        per_layer_metrics({"no.such_s": 1.0})


def test_committed_benchmark_json_matches_spec():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_spec_names_every_metric_once():
    names = [n for n, *_ in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(spec.END_TO_END) == 11
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
