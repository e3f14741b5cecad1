"""Enter ``repro serve``, optionally with the layer wrappers installed.

Usage::

    python launch_serve.py serve --http 0
    python launch_serve.py --layers LAYERS.json --trace TRACE.json serve --http 0

SIGINT stops the daemon cleanly even when the benchmark itself was
started with SIGINT ignored (as background jobs are), because this
launcher installs Python's default handler before entering the CLI.

With ``--layers``, each ``POST /sort`` is attributed to its job id; when
the daemon is interrupted it writes the per-job layer aggregates to
``LAYERS.json`` and the kept spans to ``TRACE.json`` (a Chrome trace
``repro trace`` opens).
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def job_id(line: str) -> str:
    """The job's id, or "(no id)" for a line that has none."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return "(no id)"
    job = data.get("id") if isinstance(data, dict) else None
    return job if isinstance(job, str) else "(no id)"


def traced(layers_path: str, trace_path: str, serve_argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.service.daemon import SortService
    from tracing import SERVICE_TARGETS, Tracer

    tracer = Tracer()
    tracer.install(SERVICE_TARGETS)
    traced_handle_line = SortService.handle_line

    def handle_line(self, line):
        tracer.set_job(job_id(line))
        try:
            return traced_handle_line(self, line)
        finally:
            tracer.set_job(None)

    SortService.handle_line = handle_line
    try:
        return repro_main(serve_argv)
    finally:
        SortService.handle_line = traced_handle_line
        tracer.uninstall()
        tracer.dump(layers_path)
        tracer.write_chrome_trace(trace_path)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if argv[:1] == ["--layers"]:
        if argv[2:3] != ["--trace"]:
            raise SystemExit("usage: --layers PATH --trace PATH serve ...")
        return traced(argv[1], argv[3], argv[4:])
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
