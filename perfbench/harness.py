"""Process control, timing and bookkeeping shared by the workloads.

A :class:`Bench` owns one run: its scratch directory inside the checkout,
the environment every program process gets, the program processes it
spawns (each through ``child.py``), the samples they produce and the
output checks. Nothing it starts outlives it: :meth:`Bench.close` stops
any process still running and removes the scratch directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: Scratch space under the checkout root; listed in the root .gitignore.
SCRATCH = ".perfbench"

#: Longest any single program process may run.
PROCESS_TIMEOUT_S = 120.0

#: What :func:`probe_s` takes on the reference host (one core of an idle
#: 2-vCPU x86-64 VM, Python 3.11, NumPy 2.4). Measured times are reported
#: as reference-host seconds: scaled by this over the mean probe time
#: taken on the same core before, during and after the measured step.
REFERENCE_PROBE_S = 0.020

#: Seconds between two probes while a program process runs (see Strobe).
STROBE_INTERVAL_S = 0.25

_PROBE_PY_LOOPS = 45_000
_PROBE_NP_LOOPS = 1_000
_PROBE_SORT_N = 200_000
_PROBE_FILES = 48
_PROBE_FILE_READS = 8
_PROBE_DATA: dict = {}


def init_probe(directory: Path) -> None:
    """Make the arrays and the small files :func:`probe_s` works on."""
    import numpy as np

    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for index in range(_PROBE_FILES):
        path = directory / f"probe-{index:02d}.bin"
        path.write_bytes(bytes(range(256)) * 16)
        files.append(str(path))
    _PROBE_DATA.update(
        small=np.linspace(0.0, 1.0, 2000),
        big=np.random.default_rng(0).random(_PROBE_SORT_N),
        files=files,
    )


def probe_s() -> float:
    """Seconds a fixed CPU probe takes now, on the calling core.

    The host's speed drifts by up to 1.7x, per core, in phases of a
    second to tens of seconds (other tenants), and the drift slows pure
    Python, small-array NumPy, memory-bound work and system calls alike,
    though not by the same amount. The probe mixes the four; it uses
    nothing of the program, so a faster program never makes the probe
    faster.
    """
    import numpy as np

    small, files = _PROBE_DATA["small"], _PROBE_DATA["files"]
    start = time.perf_counter()
    acc: dict = {}
    for i in range(_PROBE_PY_LOOPS):
        acc[i & 1023] = acc.get(i & 1023, 0) + i * i % 7
    x = small
    for _ in range(_PROBE_NP_LOOPS):
        x = np.exp(-x) * 0.5 + small
    np.sort(_PROBE_DATA["big"])
    for _ in range(_PROBE_FILE_READS):
        for path in files:
            os.stat(path)
            with open(path, "rb") as handle:
                handle.read()
    return time.perf_counter() - start


def _stopped(pid: int) -> bool:
    """Wait until ``pid`` is stopped; False if it is a zombie instead."""
    while True:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
        if state in (b"T", b"t"):
            return True
        if state in (b"Z", b"X"):
            return False
        time.sleep(0.0002)


class Strobe(threading.Thread):
    """Probes the core while a program process runs, pausing it to do so.

    ``child.py`` stops at two rendezvous, once ready (imports and backend
    loaded) and once its work is done, writing a byte to the strobe's
    pipe and waiting for one back; the strobe probes the core meanwhile.
    Between rendezvous, every :data:`STROBE_INTERVAL_S`, the process gets
    SIGSTOP, the probe runs alone on the core, and SIGCONT resumes it.
    The probes follow the host's speed through each phase of the step;
    every pause is subtracted from the step's times. The process is
    reaped only after :meth:`stop`, so its pid is not reused while the
    strobe may still signal it.
    """

    def __init__(self, pid: int, inbox=None, outbox=None) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.inbox, self.outbox = inbox, outbox
        self.probes: list[float] = []
        #: Indices into ``probes`` of the first and last pass of each
        #: rendezvous probe.
        self.marks: list[int] = []
        self.pauses: list[tuple[float, float]] = []
        self._done = threading.Event()

    def _probe(self, passes: int = 1) -> None:
        start = time.monotonic()
        self.probes.extend(probe_s() for _ in range(passes))
        self.pauses.append((start, time.monotonic()))

    def run(self) -> None:
        try:
            while not self._done.is_set():
                if self.inbox is None:
                    readable = self._done.wait(STROBE_INTERVAL_S)
                    if readable:
                        return
                else:
                    readable, _, _ = select.select(
                        [self.inbox], [], [], STROBE_INTERVAL_S
                    )
                if readable:
                    if not os.read(self.inbox, 1):
                        return  # the process has exited
                    # Two passes: these probes alone bracket a short work
                    # phase, so they carry its scale.
                    self.marks.append(len(self.probes))
                    self._probe(passes=2)
                    self.marks.append(len(self.probes) - 1)
                    os.write(self.outbox, b".")
                    continue
                os.kill(self.pid, signal.SIGSTOP)
                try:
                    if not _stopped(self.pid):
                        return
                    self._probe()
                finally:
                    os.kill(self.pid, signal.SIGCONT)
        finally:
            for fd in (self.inbox, self.outbox):
                if fd is not None:
                    os.close(fd)

    def stop(self) -> None:
        self._done.set()
        if self.ident is not None:
            self.join()


def unpaused(lo: float, hi: float, pauses) -> float:
    """``hi - lo`` less the strobe pauses inside that interval."""
    paused = sum(
        max(0.0, min(end, hi) - max(start, lo)) for start, end in pauses
    )
    return hi - lo - paused


def speed_factor(probes) -> float:
    """Reference-host seconds per second measured while ``probes`` ran."""
    return REFERENCE_PROBE_S / statistics.fmean(probes)


class Fatal(RuntimeError):
    """A condition that voids the run (no result is printed)."""


@dataclass
class Step:
    """One finished program process."""

    argv: list
    code: int
    spawn: float
    exited: float
    rss_mb: float
    stdout: str
    stderr_path: Path
    report: dict
    #: Probe times (s) before, during and after the step, in order.
    probes: list
    #: Indices into ``probes`` of the first and last pass of the ready
    #: and of the done rendezvous.
    marks: list = field(default_factory=list)
    #: (start, end) of every strobe pause, on the monotonic clock.
    pauses: list = field(default_factory=list)

    def norm(self, seconds: float) -> float:
        """``seconds`` measured around this step, in reference-host seconds."""
        return seconds * speed_factor(self.probes)

    @property
    def ref_setup_s(self) -> float:
        return self.norm(self.setup_s)

    @property
    def ref_work_s(self) -> float:
        """:attr:`work_s` scaled by the probes from one rendezvous to the
        other only: the work phase can be far shorter than the set-up."""
        if len(self.marks) < 4:
            return self.norm(self.work_s)
        probes = self.probes[self.marks[0]:self.marks[3] + 1]
        return self.work_s * speed_factor(probes)

    @property
    def ref_latency_s(self) -> float:
        return self.norm(self.latency_s)

    @property
    def setup_s(self) -> float:
        return unpaused(self.spawn, self.report["ready"], self.pauses)

    @property
    def work_s(self) -> float:
        return unpaused(self.report["ready"], self.report["end"], self.pauses)

    @property
    def latency_s(self) -> float:
        return unpaused(self.spawn, self.exited, self.pauses)

    def json(self) -> dict:
        return json.loads(self.stdout)


@dataclass
class Daemon:
    """A running ``repro serve`` process."""

    proc: subprocess.Popen
    argv: list
    tag: str
    spawn: float
    ready: float
    host: str
    port: int
    report_path: Path
    stdout_path: Path
    stderr_path: Path
    probe_before: float
    step: Step | None = None


@dataclass
class Samples:
    """Everything the workloads measured in one run.

    ``setup_s`` and ``rss_mb`` hold one entry per program process,
    ``latencies_s`` one per operation, ``wall_s`` one per cycle and
    ``warm_s`` one per warm rerun.
    """

    setup_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    warm_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    #: Seconds the measured operations kept the program busy.
    busy_s: float = 0.0
    cycles: int = 0

    def end_cycle(self, busy_s: float) -> None:
        self.busy_s += busy_s
        self.cycles += 1


class Bench:
    """One benchmark run: scratch directory, environment, processes, checks."""

    def __init__(self, root: Path, *, seed: int, seconds: int, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = root / SCRATCH
        self.dir = self.scratch / f"run-{os.getpid()}-{seed}"
        self.samples = Samples()
        self.attempted = 0
        self.failures: list[str] = []
        self.traces: list[dict] = []
        self.extra: dict[str, float] = defaultdict(float)
        self._live: list[subprocess.Popen] = []
        self._counter = 0
        self._last_probe: float | None = None
        self.cpu: int | None = None
        self.env = self._environment()

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def _environment(self) -> dict:
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PYTHON"))
        }
        env.update(
            PYTHONPATH=str(self.root / "src"),
            PYTHONHASHSEED="0",
            REPRO_BACKEND="compiled",
            REPRO_EXECUTOR="serial",
            REPRO_WORKERS="1",
            REPRO_CEXT_CACHE=str(self.scratch / "cext"),
            TMPDIR=str(self.dir / "tmp"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return env

    def open(self) -> None:
        if not (self.root / "src" / "repro" / "experiments").is_dir():
            raise Fatal(
                f"no program sources under {self.root / 'src'}; run from "
                "the root of a repro checkout"
            )
        (self.dir / "tmp").mkdir(parents=True, exist_ok=True)
        sys.path.insert(0, str(self.root / "src"))
        # The host's speed drifts per core, so the probe only describes a
        # step that ran on its core: this process and every program
        # process it spawns (they inherit the mask) share one core.
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        init_probe(self.dir / "probe")
        os.environ["REPRO_CEXT_CACHE"] = self.env["REPRO_CEXT_CACHE"]
        os.environ["TMPDIR"] = self.env["TMPDIR"]

    def close(self) -> None:
        for proc in self._live:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        self._live.clear()
        shutil.rmtree(self.dir, ignore_errors=True)

    def fresh_dir(self, name: str) -> Path:
        self._counter += 1
        path = self.dir / f"{self._counter:03d}-{name}"
        path.mkdir(parents=True)
        return path

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def provenance(self) -> dict:
        """Build the kernels (outside any timing) and describe the backend.

        A ``compiled`` request that falls back to NumPy voids the run:
        its numbers would describe a different program.
        """
        import numpy

        from repro.backend import set_backend

        backend = set_backend("compiled")
        if backend.fallback_reason or backend.kernels is None:
            raise Fatal(
                f"compiled backend fell back to {backend.name}: "
                f"{backend.fallback_reason}"
            )
        kernels = sorted(Path(self.env["REPRO_CEXT_CACHE"]).glob("*.so"))
        digest = None
        if backend.name == "cext" and kernels:
            newest = max(kernels, key=lambda p: p.stat().st_mtime)
            digest = hashlib.sha256(newest.read_bytes()).hexdigest()[:16]
        return {
            "backend": backend.name,
            "requested": backend.requested,
            "fallback_reason": backend.fallback_reason,
            "kernel_so_sha256": digest,
            "nproc": os.cpu_count(),
            "pinned_cpu": self.cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def probe(self) -> float:
        """Run :func:`probe_s` and keep it for the next step to start from."""
        self._last_probe = probe_s()
        return self._last_probe

    def _probe_before(self) -> float:
        """The probe just before a step: the last one, unless used already."""
        before, self._last_probe = self._last_probe, None
        return before if before is not None else probe_s()

    def time_left(self, started: float, estimate: float) -> bool:
        return time.monotonic() - started + estimate <= self.seconds

    # ------------------------------------------------------------------
    # program processes
    # ------------------------------------------------------------------
    def _command(self, report: Path, argv: list) -> list:
        flags = ["-X", "importtime"] if self.trace else []
        return [sys.executable, *flags, str(CHILD), str(report), "--", *argv]

    def _child_env(self, sync: str | None) -> dict:
        env = dict(self.env)
        if self.trace:
            env["PERFBENCH_TRACE"] = "1"
        if sync is not None:
            env["PERFBENCH_SYNC"] = sync
        return env

    def _paths(self, tag: str) -> tuple[Path, Path, Path]:
        self._counter += 1
        base = self.dir / f"{self._counter:03d}-{tag}"
        return (
            base.with_suffix(".report.json"),
            base.with_suffix(".out"),
            base.with_suffix(".err"),
        )

    def _reap(self, proc, strobe=None) -> tuple[int, float, float]:
        """Wait for ``proc``; returns (exit code, exit time, peak RSS MB)."""
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = time.monotonic()
            if strobe is not None:
                strobe.stop()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if strobe is not None:
                strobe.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._live.remove(proc)
        return proc.returncode, exited, usage.ru_maxrss / 1024.0

    def _spawn(self, argv, report, out, err, *, strobed: bool = False):
        """Start a program process; returns (process, spawn time, strobe)."""
        # The strobe reads the child's rendezvous from one pipe and
        # answers on the other; the child gets the two far ends.
        pipes = (os.pipe(), os.pipe()) if strobed else None
        sync = f"{pipes[0][1]},{pipes[1][0]}" if pipes else None
        try:
            with open(out, "wb") as stdout, open(err, "wb") as stderr:
                spawn = time.monotonic()
                proc = subprocess.Popen(
                    self._command(report, argv),
                    env=self._child_env(sync),
                    stdout=stdout,
                    stderr=stderr,
                    cwd=self.dir,
                    pass_fds=(pipes[0][1], pipes[1][0]) if pipes else (),
                )
        except BaseException:
            for fd in (fd for pair in pipes or () for fd in pair):
                os.close(fd)
            raise
        self._live.append(proc)
        if pipes is None:
            return proc, spawn, None
        os.close(pipes[0][1])
        os.close(pipes[1][0])
        strobe = Strobe(proc.pid, pipes[0][0], pipes[1][1])
        strobe.start()
        return proc, spawn, strobe

    def _step(
        self, argv, proc, spawn, report, out, err, tag, before, strobe=None
    ) -> Step:
        code, exited, rss = self._reap(proc, strobe)
        after = self.probe()
        try:
            payload = json.loads(report.read_text())
        except (OSError, ValueError):
            payload = None
        if payload is None:
            tail = err.read_text(errors="replace")[-2000:]
            raise Fatal(
                f"{argv[0]} process left no report (exit {code}):\n{tail}"
            )
        backend = payload["backend"]
        if backend["fallback_reason"] or backend["name"] == "numpy":
            raise Fatal(
                f"compiled backend fell back to {backend['name']} in a "
                f"program process: {backend['fallback_reason']}"
            )
        step = Step(
            argv=list(argv),
            code=code,
            spawn=spawn,
            exited=exited,
            rss_mb=rss,
            stdout=out.read_text(),
            stderr_path=err,
            report=payload,
            probes=[before, *(strobe.probes if strobe else ()), after],
            marks=[1 + mark for mark in strobe.marks] if strobe else [],
            pauses=strobe.pauses if strobe else [],
        )
        self.samples.setup_s.append(step.ref_setup_s)
        self.samples.rss_mb.append(rss)
        if self.trace:
            self.traces.append(self._trace_of(step, tag))
        return step

    def cli(self, argv: list, tag: str) -> Step:
        """Run one CLI process to completion; counts as one operation."""
        before = self._probe_before()
        report, out, err = self._paths(tag)
        # Traced runs keep their spans' clocks free of pauses.
        proc, spawn, strobe = self._spawn(
            argv, report, out, err, strobed=not self.trace
        )
        step = self._step(
            argv, proc, spawn, report, out, err, tag, before, strobe
        )
        self.samples.latencies_s.append(step.ref_latency_s)
        self.check(step.code == 0, f"{tag}: exit code {step.code}")
        return step

    def start_daemon(self, store: Path, tag: str) -> Daemon:
        before = self._probe_before()
        report, out, err = self._paths(tag)
        port_file = report.with_suffix(".port")
        argv = [
            "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--queue-workers", "1",
            "--cache-dir", str(store),
        ]
        proc, spawn, _ = self._spawn(argv, report, out, err)
        deadline = spawn + 60.0
        while True:
            try:
                text = port_file.read_text()
            except OSError:
                text = ""
            if text.endswith("\n"):
                ready = time.monotonic()
                break
            if proc.poll() is not None or time.monotonic() > deadline:
                raise Fatal(
                    f"serve daemon did not start:\n"
                    f"{err.read_text(errors='replace')[-2000:]}"
                )
            time.sleep(0.002)
        host, port = text.split()
        return Daemon(
            proc, argv, tag, spawn, ready, host, int(port), report, out, err,
            before,
        )

    def stop_daemon(self, daemon: Daemon) -> Step:
        daemon.proc.send_signal(signal.SIGTERM)
        step = self._step(
            daemon.argv, daemon.proc, daemon.spawn,
            daemon.report_path, daemon.stdout_path, daemon.stderr_path,
            daemon.tag, daemon.probe_before,
        )
        # For the daemon, set-up ends when the port file is written, not
        # at the child's own ready time that _step recorded.
        self.samples.setup_s[-1] = step.norm(daemon.ready - daemon.spawn)
        self.check(
            step.code == 0 and "shut down cleanly" in step.stdout,
            f"serve daemon exit {step.code}",
        )
        daemon.step = step
        return step

    # ------------------------------------------------------------------
    # trace reports
    # ------------------------------------------------------------------
    def _trace_of(self, step: Step, tag: str) -> dict:
        trace = dict(step.report.get("trace") or {})
        trace["tag"] = tag
        trace["work_s"] = step.work_s
        trace["load_s"] = step.report["load_s"]
        trace["imports"] = import_times(step.stderr_path)
        return trace


def import_times(stderr_path: Path) -> dict:
    """Self-time sums from ``-X importtime`` output, in seconds."""
    totals = {"total": 0.0, "scipy": 0.0, "repro": 0.0}
    try:
        lines = stderr_path.read_text(errors="replace").splitlines()
    except OSError:
        return totals
    for line in lines:
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us = int(fields[0])
        except ValueError:
            continue
        name = fields[2].strip()
        totals["total"] += self_us / 1e6
        top = name.split(".", 1)[0]
        if top in ("scipy", "repro"):
            totals[top] += self_us / 1e6
    return totals


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (inclusive method, ``0 < q < 100``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return float(cuts[int(q) - 1])


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def json_digest(value) -> str:
    """Digest of a JSON value's canonical (key-sorted) serialization."""
    return sha256_text(json.dumps(value, sort_keys=True))
