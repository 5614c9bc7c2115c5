"""Program-side entry point of the benchmark: one repro CLI process.

``run.py`` spawns every program process through this file::

    python3 [-X importtime] perfbench/child.py REPORT.json -- <CLI argv...>

It imports the CLI runner, loads the kernel backend, notes the moment the
program is ready, calls ``runner.main(argv)`` and writes a JSON report
with the ready/end timestamps (``CLOCK_MONOTONIC``, comparable with the
parent's spawn time), the exit code and the resolved backend. With
``PERFBENCH_TRACE=1`` it installs the layer spans of ``layers.py`` before
``main`` runs and adds their report. With ``PERFBENCH_SYNC=W,R`` (two
inherited pipe descriptors) it meets the parent's strobe (``harness.py``)
once ready and once done: it writes a byte to ``W`` and waits for one on
``R`` while the parent probes the core's speed.
"""

from __future__ import annotations

import json
import os
import sys
import time


def rendezvous() -> None:
    sync = os.environ.get("PERFBENCH_SYNC")
    if sync:
        write_fd, read_fd = (int(fd) for fd in sync.split(","))
        os.write(write_fd, b".")
        os.read(read_fd, 1)


def main() -> int:
    report_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: child.py REPORT.json -- <CLI argv...>")
    argv = sys.argv[3:]
    traced = os.environ.get("PERFBENCH_TRACE") == "1"

    from repro.backend import get_backend
    from repro.experiments import runner

    began = time.perf_counter()
    backend = get_backend()
    load_s = time.perf_counter() - began

    tracer = None
    span_cost = 0.0
    if traced:
        from layers import Tracer, wrapper_cost

        serve = bool(argv) and argv[0] == "serve"
        if serve:
            import repro.server.http  # noqa: F401  (patched below)
        span_cost = wrapper_cost()
        tracer = Tracer()
        tracer.install(serve=serve)

    rendezvous()
    ready, ready_pc = time.monotonic(), time.perf_counter()
    code = runner.main(argv)
    end, end_pc = time.monotonic(), time.perf_counter()
    rendezvous()

    report = {
        "ready": ready,
        "end": end,
        "code": code,
        "backend": {
            "name": backend.name,
            "requested": backend.requested,
            "fallback_reason": backend.fallback_reason,
        },
        "load_s": load_s,
    }
    if tracer is not None:
        report["trace"] = tracer.report(ready_pc, end_pc)
        report["trace"]["span_cost_s"] = span_cost
    tmp = report_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(report, handle)
    os.replace(tmp, report_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
