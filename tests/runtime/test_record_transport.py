"""Record transport through the process backend: no pickling, no leaks.

Two contracts from the record data plane land here:

* **zero-pickle hot path** — payload columns and key arrays travel between
  the broker and its workers through named shared-memory segments only;
  the pipes carry envelopes with :class:`~repro.runtime.shm.ArrayRef`
  placeholders.  A pickler that refuses plain ndarrays proves it.
* **crash hygiene** — a worker dying mid-superstep (``os._exit``, no
  cleanup handlers run) must not leak ``/dev/shm`` segments: the broker's
  teardown reclaims result segments it sent and probes for in-flight
  batches the dead worker created.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.algorithms import Dataset, Sorter
from repro.errors import BSPError
from repro.runtime import ProcessBackend, SimulatedBackend

P = 4
DEV_SHM = "/dev/shm"

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method (patch/namespace shared with workers)",
)


def _payload_dataset(n_per: int = 200) -> Dataset:
    return Dataset.from_workload(
        "uniform", p=P, n_per=n_per, seed=5,
        payloads={"mass": "f8", "vx": "f4", "id": "u4"},
    )


# --------------------------------------------------------------------- #
# Zero-pickle hot path.                                                 #
# --------------------------------------------------------------------- #
def _assert_no_plain_arrays(obj, path="message", depth=0):
    """Fail if any non-object ndarray hides in a to-be-pickled message."""
    if depth > 12:
        return
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject:
            raise AssertionError(
                f"fixed-width ndarray (dtype {obj.dtype}, {obj.nbytes} "
                f"bytes) reached the pickler at {path}; arrays must ride "
                f"shared memory"
            )
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_plain_arrays(v, f"{path}[{k!r}]", depth + 1)
    elif isinstance(obj, (tuple, list)):
        for i, v in enumerate(obj):
            _assert_no_plain_arrays(v, f"{path}[{i}]", depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _assert_no_plain_arrays(
                getattr(obj, f.name), f"{path}.{f.name}", depth + 1
            )


@pytest.fixture
def no_array_pickling(monkeypatch):
    """Make every pipe send (broker and forked workers) reject ndarrays."""
    import multiprocessing.connection as mpc
    from multiprocessing.reduction import ForkingPickler

    class NoArrayPickler(ForkingPickler):
        @classmethod
        def dumps(cls, obj, protocol=None):
            _assert_no_plain_arrays(obj)
            return ForkingPickler.dumps(obj, protocol)

    monkeypatch.setattr(mpc, "_ForkingPickler", NoArrayPickler)


def test_payload_columns_never_pickled(no_array_pickling):
    """A record-carrying sort completes with the array-banning pickler.

    Broker-side violations raise directly; a worker-side violation kills
    the worker, which the broker reports as an unexpected exit — either
    way the test fails unless the column hot path is pickle-free.
    """
    dataset = _payload_dataset()
    run = Sorter(
        "hss", eps=0.2, seed=3, backend=ProcessBackend(workers=2),
        verify=False,
    ).run(dataset)
    baseline = Sorter(
        "hss", eps=0.2, seed=3, backend=SimulatedBackend(), verify=False
    ).run(dataset)
    for a, b in zip(run.shards, baseline.shards):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(run.payloads, baseline.payloads):
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# Crash hygiene.                                                        #
# --------------------------------------------------------------------- #
def _crashing_program(ctx, keys, payload):
    # Superstep 1 ships real arrays both ways, so named segments exist.
    counts = [len(piece) for piece in np.array_split(keys, ctx.nprocs)]
    yield from ctx.alltoall(keys, counts)
    if ctx.rank == 1:
        os._exit(1)  # no atexit, no finally: the hard-crash case
    yield from ctx.barrier()
    return keys


@pytest.mark.skipif(
    not os.path.isdir(DEV_SHM), reason="needs a /dev/shm tmpfs"
)
def test_worker_crash_leaks_no_segments():
    before = set(os.listdir(DEV_SHM))
    dataset = _payload_dataset(n_per=50)
    with pytest.raises(BSPError, match="exited unexpectedly"):
        ProcessBackend(workers=2).run(
            _crashing_program, dataset.rank_args()
        )
    leaked = set(os.listdir(DEV_SHM)) - before
    assert not leaked, f"crash leaked shared-memory segments: {sorted(leaked)}"


@pytest.mark.skipif(
    not os.path.isdir(DEV_SHM), reason="needs a /dev/shm tmpfs"
)
def test_clean_run_leaks_no_segments():
    before = set(os.listdir(DEV_SHM))
    Sorter(
        "hss", eps=0.2, seed=3, backend=ProcessBackend(workers=2),
        verify=False,
    ).run(_payload_dataset(n_per=50))
    leaked = set(os.listdir(DEV_SHM)) - before
    assert not leaked, f"sort leaked shared-memory segments: {sorted(leaked)}"
