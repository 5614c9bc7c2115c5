"""The serve daemon's job queue: scenarios in, coalesced solves out.

A *job* is one scenario submitted for solving. The :class:`JobManager`
owns the queue and the worker threads that drain it into the shared
:class:`~repro.engine.service.SolveService`; the HTTP layer is a thin
JSON skin over this module, and the property/unit tests drive it directly
in-process.

Lifecycle
---------
::

    submit ──> queued ──> running ──> done
                  │           └─────> failed
                  └─> cancelled

``done``/``failed``/``cancelled`` are *terminal and sticky*: no
transition ever leaves them, cancel on a terminal job is a no-op, and a
resubmit of the same scenario after failure/cancellation starts a fresh
job rather than resurrecting the old record.

Coalescing
----------
Jobs are content-addressed by :func:`repro.io.scenario_digest` — the
digest of the scenario's canonical serialization, axes included. While a
digest has a live-or-done job (queued, running or done), submitting the
same scenario returns *that* job instead of creating one, so N clients
replaying one scenario set cost one solve pass no matter how they
interleave. This is the queue-level mirror of the solve service's
content-keyed store: the store deduplicates row solves across time, the
manager deduplicates whole experiment runs across concurrent clients.

Observability
-------------
:meth:`JobManager.stats` exposes monotone event counters (``submitted``,
``coalesced``, ``started``, ``completed``, ``failed``, ``cancelled``)
plus instantaneous gauges (``queued``, ``running``) — the counters only
ever grow, which the property suite asserts across random
submit/poll/cancel interleavings.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.service import SolveService, default_service
from repro.experiments.base import ExperimentResult
from repro.io import scenario_digest
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "TERMINAL_STATES",
    "Job",
    "JobManager",
    "experiment_payload",
]

#: States no transition ever leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: States under which a duplicate submit coalesces onto the existing job.
_COALESCE_STATES = frozenset({"queued", "running", "done"})


def experiment_payload(result: ExperimentResult) -> dict:
    """An :class:`ExperimentResult` as a JSON-ready dict (the job result)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "figures": [
            {
                "figure_id": figure.figure_id,
                "title": figure.title,
                "x_label": figure.x_label,
                "y_label": figure.y_label,
                "x": [float(v) for v in figure.x],
                "series": [
                    {"name": s.name, "y": [float(v) for v in s.y]}
                    for s in figure.series
                ],
                "notes": figure.notes,
            }
            for figure in result.figures
        ],
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in result.checks
        ],
    }


def default_runner(scn: ScenarioSpec, service: SolveService) -> dict:
    """Solve one scenario's generic grid experiment on ``service``.

    The experiment runs explicitly on the daemon's service (rather than
    the process-wide default) so a server embedded in a larger process —
    the tests — never entangles its cache state with
    whatever the host process is doing.
    """
    # Runtime import: the pipeline sits above the engine layer and pulls
    # in the scenario registry; importing it at module load would make
    # the server package order-sensitive the way repro.io is.
    from repro.experiments.pipeline import run_spec, scenario_experiment

    spec = scenario_experiment(scn)
    return experiment_payload(run_spec(spec, scenario=scn, service=service))


@dataclass
class Job:
    """One submitted scenario and everything known about its run."""

    job_id: str
    digest: str
    scenario_id: str
    state: str = "queued"
    error: str | None = None
    result: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    done_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def describe(self, *, with_result: bool = False) -> dict:
        """The job as a JSON-ready dict (``result`` only on request)."""
        payload = {
            "job_id": self.job_id,
            "digest": self.digest,
            "scenario_id": self.scenario_id,
            "state": self.state,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if with_result:
            payload["result"] = self.result
        return payload


class JobManager:
    """Owns the job table, the queue, and the solver worker threads.

    Parameters
    ----------
    service:
        The solve service jobs run against; ``None`` uses the process-wide
        :func:`~repro.engine.service.default_service`.
    runner:
        ``(scenario, service) -> result dict``; defaults to solving the
        scenario's generic grid experiment (:func:`default_runner`). The
        tests substitute cheap or failing runners.
    workers:
        Solver threads draining the queue. ``0`` starts none — *pump
        mode*: callers (the property suite) advance the world one job at
        a time with :meth:`pump`, making interleavings deterministic.
        Note these are queue-consumer threads, not solve parallelism —
        each job's row-level parallelism still comes from the service's
        executor pool.
    """

    def __init__(
        self,
        *,
        service: SolveService | None = None,
        runner: Callable[[ScenarioSpec, SolveService], dict] | None = None,
        workers: int = 1,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self._service = service
        self._runner = runner if runner is not None else default_runner
        self._jobs: dict[str, Job] = {}
        self._by_digest: dict[str, str] = {}
        # Submitted scenarios retained by digest so workers can solve
        # them; one entry per distinct scenario, not per job.
        self._scenarios: dict[str, ScenarioSpec] = {}
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._counters = {
            "submitted": 0,
            "coalesced": 0,
            "started": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-solve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def service(self) -> SolveService:
        """The solve service jobs run against."""
        return self._service if self._service is not None else default_service()

    # ------------------------------------------------------------------
    # the public lifecycle API
    # ------------------------------------------------------------------
    def submit(
        self, scn: ScenarioSpec, *, digest: str | None = None
    ) -> tuple[Job, bool]:
        """Enqueue ``scn``; returns ``(job, coalesced)``.

        A scenario whose digest already has a queued, running or done job
        coalesces onto it (``coalesced=True``) — the caller polls the
        same job id every other submitter of that scenario got. Failed
        and cancelled digests do *not* coalesce: resubmitting after
        either starts a fresh attempt. ``digest`` is ``scn``'s
        :func:`~repro.io.scenario_digest` when the caller already has it.
        """
        if digest is None:
            digest = scenario_digest(scn)
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            self._counters["submitted"] += 1
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state in _COALESCE_STATES:
                    self._counters["coalesced"] += 1
                    return existing, True
            job = Job(
                job_id=f"job-{next(self._ids)}",
                digest=digest,
                scenario_id=scn.scenario_id,
            )
            self._jobs[job.job_id] = job
            self._by_digest[digest] = job.job_id
            self._scenarios[digest] = scn
        self._queue.put(job.job_id)
        return job, False

    def get(self, job_id: str) -> Job | None:
        """The job record for ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.job_id)

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a *queued* job; running/terminal jobs are untouched.

        Returns the job (whatever its state) or ``None`` if unknown. The
        job's queue token stays behind; workers discard tokens whose job
        is no longer queued.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                self._counters["cancelled"] += 1
                job.done_event.set()
            return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until ``job_id`` reaches a terminal state (or timeout)."""
        job = self.get(job_id)
        if job is None:
            return None
        job.done_event.wait(timeout)
        return job

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _claim(self, job_id: str) -> Job | None:
        """queued -> running under the lock; None if the token is stale."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                return None
            job.state = "running"
            self._counters["started"] += 1
            return job

    def _finish(self, job: Job, *, result: dict | None, error: str | None):
        with self._lock:
            if job.state in TERMINAL_STATES:  # sticky, no matter what
                return
            job.result = result
            job.error = error
            job.state = "done" if error is None else "failed"
            job.finished_at = time.time()
            self._counters["completed" if error is None else "failed"] += 1
        job.done_event.set()

    def _execute(self, job_id: str) -> bool:
        job = self._claim(job_id)
        if job is None:
            return False
        try:
            result = self._runner(self._scenario_for(job), self.service)
        except Exception as exc:  # a failed job is a record, not a crash
            self._finish(job, result=None, error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(job, result=result, error=None)
        return True

    def _scenario_for(self, job: Job) -> ScenarioSpec:
        with self._lock:
            scn = self._scenarios.get(job.digest)
        if scn is None:
            raise RuntimeError(f"no scenario retained for {job.job_id}")
        return scn

    def _worker(self) -> None:
        while True:
            token = self._queue.get()
            if token is None:  # close() poison pill
                self._queue.task_done()
                return
            try:
                self._execute(token)
            finally:
                self._queue.task_done()

    def pump(self, timeout: float = 0.0) -> bool:
        """Run one queued job synchronously (pump mode, ``workers=0``).

        Returns whether a job actually ran; stale tokens (cancelled while
        queued) are consumed and skipped.
        """
        while True:
            try:
                if timeout > 0:
                    token = self._queue.get(timeout=timeout)
                else:
                    token = self._queue.get_nowait()
            except queue.Empty:
                return False
            if token is None:
                continue
            ran = self._execute(token)
            self._queue.task_done()
            if ran:
                return True

    # ------------------------------------------------------------------
    # observability and shutdown
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Monotone event counters plus queued/running gauges."""
        with self._lock:
            states = [job.state for job in self._jobs.values()]
            return {
                **self._counters,
                "jobs": len(states),
                "queued": states.count("queued"),
                "running": states.count("running"),
            }

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop accepting submits and stop the worker threads (idempotent).

        Queued jobs that no worker claims before the poison pill are left
        ``queued``; the daemon's shutdown path cancels them explicitly so
        clients polling a killed server see a terminal state.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        with self._lock:
            pending = [
                job for job in self._jobs.values() if job.state == "queued"
            ]
            for job in pending:
                job.state = "cancelled"
                job.finished_at = time.time()
                self._counters["cancelled"] += 1
                job.done_event.set()
