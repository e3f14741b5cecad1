"""Wrappers install and uninstall cleanly, and leave results unchanged."""

import sys

import numpy as np
import pytest

from tracing import INCL, LIBRARY_TARGETS, SELF, SERVICE_TARGETS, Tracer


def repro_bindings():
    """Every (module, attribute) -> object binding in loaded repro modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in list(vars(value).items()):
                        out[(name, attr, cattr)] = cvalue
    return out


@pytest.fixture
def dataset():
    from repro.algorithms import Dataset

    return Dataset.from_workload("changa-dwarf", p=16, n_per=500, seed=3,
                                 payloads=True)


def test_install_and_uninstall_restore_every_binding():
    import repro.algorithms  # noqa: F401
    import repro.service  # noqa: F401
    from repro.core import keyspace
    from repro.sampling import bernoulli

    before = repro_bindings()
    original = bernoulli.bernoulli_sample_in_intervals
    tracer = Tracer()
    tracer.install(SERVICE_TARGETS)
    try:
        assert tracer.installed
        assert keyspace.bernoulli_sample_in_intervals is not original
        assert keyspace.bernoulli_sample_in_intervals.__wrapped__ is original
        changed = {k for k, v in repro_bindings().items()
                   if before.get(k, object()) is not v}
        assert changed  # every target resolved somewhere
    finally:
        tracer.uninstall()
    assert not tracer.installed
    after = repro_bindings()
    assert all(after[k] is before[k] for k in before)


def test_install_refuses_an_unknown_target_and_leaves_nothing():
    from tracing import Target

    before = repro_bindings()
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install(LIBRARY_TARGETS + (Target("repro.core.hss:nope", "x"),))
    after = repro_bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_job_is_bit_identical_to_untraced(dataset):
    from repro.algorithms import Sorter

    plain = Sorter("hss").run(dataset)
    tracer = Tracer()
    tracer.install(LIBRARY_TARGETS)
    try:
        tracer.set_job("j")
        traced = Sorter("hss").run(dataset)
    finally:
        tracer.uninstall()
    for a, b in zip(plain.shards, traced.shards):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(plain.payloads, traced.payloads):
        np.testing.assert_array_equal(a, b)
    assert plain.makespan == traced.makespan
    assert plain.engine_result.stats.bytes == traced.engine_result.stats.bytes
    assert (plain.engine_result.stats.messages
            == traced.engine_result.stats.messages)
    assert plain.splitter_stats.num_rounds == traced.splitter_stats.num_rounds
    assert plain.breakdown() == traced.breakdown()

    layers = tracer.per_job()["j"]
    for layer in ("sampling.bernoulli.sample", "core.data_movement.partition",
                  "core.data_movement.exchange_merge",
                  "core.data_movement.local_sort", "metrics.verify.sorted"):
        assert layers[layer][INCL] > 0, layer
    # Self times partition the root span.
    root = layers["algorithms.sorter.run"][INCL]
    assert sum(s[SELF] for s in layers.values()) == pytest.approx(root)


def test_chrome_trace_loads_in_repro_trace(tmp_path, dataset):
    from repro.algorithms import Sorter
    from repro.telemetry.export import load_chrome_trace

    tracer = Tracer(max_spans=50)
    tracer.install(LIBRARY_TARGETS)
    try:
        Sorter("hss").run(dataset)
    finally:
        tracer.uninstall()
    path = str(tmp_path / "t.json")
    tracer.write_chrome_trace(path)
    events = load_chrome_trace(path)
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 50 and tracer.dropped > 0
    assert {"span", "parent", "job"} <= set(spans[0]["args"])


