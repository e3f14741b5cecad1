"""Host-wall benchmark of the repro package: one command, three workloads.

Run from the repository root::

    python3 hostbench/run.py --workload sim-wide --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs; ``--trace
1`` makes a separate traced run and reports the per-layer metrics (and
writes a Chrome trace under ``.hostbench/``).  Every output is checked;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is 1
when any check failed.  ``--write-spec`` regenerates ``BENCHMARK.json``
from ``hostbench/spec.py``.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from stats import end_to_end_metrics, spread_lines  # noqa: E402

#: Library cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 5
#: Fewest ok jobs whose times a run reports (p90 needs 10 beyond it).
MIN_JOBS = 100
LIBRARY = ("sim-wide", "sim-deep-records")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    parser.add_argument("--cold-start", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def library_cold_starts(workload: str, seed: int) -> list[float]:
    """Seconds for fresh processes to import, generate inputs and warm up."""
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        # Timed to the child's "ready" line: a blocking read returns at
        # once, where waiting on the exit with a timeout polls.
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cold-start",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if ready != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"cold start exited {child.returncode}")
    return times


def run_untraced(args: argparse.Namespace) -> dict:
    if args.workload in LIBRARY:
        import library

        setup = library_cold_starts(args.workload, args.seed)
        record = library.measure(args.workload, args.seed, args.seconds,
                                 MIN_JOBS)
        record["setup_s"] = setup
        return record
    import serve

    return serve.measure(ROOT, args.seed, args.seconds, MIN_JOBS)


def output_path(kind: str, args: argparse.Namespace) -> str:
    """``.hostbench/<kind>-<workload>-seed<n>.json`` in the checkout."""
    out_dir = os.path.join(ROOT, ".hostbench")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{kind}-{args.workload}-seed{args.seed}.json")


def run_traced(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    trace_path = output_path("trace", args)
    if args.workload in LIBRARY:
        import library as module

        result = module.measure_traced(
            args.workload, args.seed, args.seconds, trace_path
        )
    else:
        import serve as module

        result = module.measure_traced(
            ROOT, args.seed, args.seconds, trace_path
        )
    print(f"trace: {trace_path}")
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its daemon: SystemExit runs the
    # finally blocks that do.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.cold_start:
        import library

        library.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    # Cold starts load byte-compiled modules, as from an installed
    # package, whether or not the environment lets imports write them.
    for tree in (os.path.join(ROOT, "src", "repro"), HERE):
        if not compileall.compile_dir(tree, quiet=1):
            print(f"could not byte-compile {tree}", file=sys.stderr)
            return 2
    if args.trace:
        metrics, problems, attempted = run_traced(args)
        names = [name for name, *_ in spec.PER_LAYER]
    else:
        record = run_untraced(args)
        with open(output_path("record", args), "w") as handle:
            json.dump(record, handle)
        metrics = end_to_end_metrics(record)
        problems = record["problems"]
        names = [name for name, *_ in spec.END_TO_END]
        attempted = record["attempted"]
        print(f"{args.workload} seed={args.seed}: {len(record['job_s'])} "
              f"jobs, {len(record['fault_s'])} fault jobs, "
              f"{len(record['scrape_s'])} scrapes; raw seconds (metrics "
              f"below are host-normalized except {sorted(record['raw'])}):")
        for line in spread_lines(record, (
            "job_s", "setup_s", "fault_s", "scrape_s", "ref_s",
        )):
            print(line)
        if "cache_hits" in record:
            hits, misses = record["cache_hits"], record["cache_misses"]
            print(f"  cache: {hits} hits, {misses} misses "
                  f"({misses / max(hits + misses, 1):.1%} of ok jobs missed)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name in names:
        print(f"  {name:<40} {metrics[name]:.6g} {spec.UNITS[name]}")
    failed = len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, failed, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": spec.UNITS[name]}
            for name in names
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
