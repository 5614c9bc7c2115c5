"""The ``repro serve`` daemon: a long-lived HTTP/JSON solve service.

The one-shot CLI solves a scenario, prints, and exits; this package keeps
the engine resident so "heavy traffic" — many clients replaying
overlapping scenario sets — amortizes one warm
:class:`~repro.engine.service.SolveService` (persistent executor pool,
memory LRU, shared content-addressed store) across every request:

* :mod:`repro.server.jobs` — the job queue: submit-scenario → job id →
  poll, deduplicated by scenario digest so concurrent identical submits
  coalesce onto one solve.
* :mod:`repro.server.http` — a stdlib-``asyncio`` HTTP/1.1 front end (no
  external framework) exposing submit/poll/cancel/result plus ``/stats``
  and ``/health``.
* :mod:`repro.server.client` — a stdlib-``http.client`` client used by
  the ``repro client`` verb, the serve replay test and the CI smoke job.
"""

from repro.server.client import ServeClient, replay
from repro.server.http import ServeApp, run_server
from repro.server.jobs import TERMINAL_STATES, Job, JobManager

__all__ = [
    "TERMINAL_STATES",
    "Job",
    "JobManager",
    "ServeApp",
    "ServeClient",
    "replay",
    "run_server",
]
