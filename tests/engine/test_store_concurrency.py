"""Concurrency stress + fault injection for the shared solve store.

The serve daemon's load story rests on two claims about
:class:`~repro.engine.store.SolveStore`:

* **Many concurrent writers are safe.** N processes hammering one store
  with overlapping key sets leave no torn entries (every key reads back),
  no duplicates (one entry file per distinct key) and no stray temp
  files — after which a warm replay of the whole key set performs zero
  solves.
* **Any corruption is a miss, never a crash.** The parametrized matrix
  covers a truncated file, a garbage or missing JSON header, version
  skew, an unknown codec, a missing array and a writer genuinely killed
  before its commit rename; every case must miss-and-recompute,
  under the numpy and compiled backends alike.

Heavy variants (more processes, more keys) are marked ``slow`` and run
only when ``$REPRO_SLOW_TESTS`` is set (see ``tests/conftest.py``).
"""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.engine import SolveCache, SolveService, SolveStore, key_digest
from repro.engine.service import SolveTask, _effective_key
from tests.engine.test_store import (
    backdate,
    drop_member,
    edit_manifest,
    rewrite_entry,
    set_manifest_bytes,
)


def _backends() -> list[str]:
    names = ["numpy"]
    if available_backends()["compiled"] == "resolves to cext":
        names.append("compiled")
    return names


BACKENDS = _backends()

#: Spawned children import this module fresh — no inherited state, the
#: same isolation the serve daemon's workers have.
_CTX = multiprocessing.get_context("spawn")


def _value_for(i: int) -> dict:
    """The deterministic 'solve' result for key i — every writer that
    lands key i writes bit-identical content, like real content-keyed
    tasks do."""
    return {"v": np.linspace(0.0, float(i), 5), "i": np.asarray(i)}


def _key_for(i: int) -> tuple:
    return ("conc/1", int(i))


def _task_for(i: int) -> SolveTask:
    return SolveTask(
        fn=_value_for, args=(int(i),), key=_key_for(i), codec="ndarrays"
    )


def _writer(root: str, indices: list[int]) -> None:
    """One writer process: read-through then write its slice of keys."""
    store = SolveStore(root)
    for i in indices:
        if store.get(_key_for(i)) is None:
            store.put(_key_for(i), _value_for(i), codec="ndarrays")


def _crashing_writer(root: str, i: int) -> None:
    """A writer killed before its commit rename.

    Patches ``os.replace`` in this child so the rename — the commit
    point — never happens: the process dies with the fully written temp
    file on disk and no entry, the exact footprint of a mid-write crash.
    """
    os.replace = lambda src, dst: os._exit(1)
    SolveStore(root).put(_key_for(i), _value_for(i), codec="ndarrays")
    os._exit(0)  # unreachable


def _run_writers(root, slices):
    procs = [
        _CTX.Process(target=_writer, args=(str(root), list(chunk)))
        for chunk in slices
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(120)
        assert proc.exitcode == 0
    return procs


def _overlapping_slices(keys: int, writers: int) -> list[list[int]]:
    """Each writer gets ~2/3 of the key space, rotated so every pair of
    neighbours overlaps and every key has at least two writers."""
    span = max(1, (2 * keys) // 3)
    return [
        [(start + j) % keys for j in range(span)]
        for start in range(0, keys, max(1, keys // writers))
    ][:writers]


def _assert_settled(root, keys: int) -> None:
    """No torn entries, no duplicates, no stray temp files."""
    store = SolveStore(root)
    # Every key decodes to exactly the content any single writer produced.
    for i in range(keys):
        value = store.get(_key_for(i))
        assert value is not None, f"key {i} missing after settling"
        expected = _value_for(i)
        assert value["v"].tobytes() == expected["v"].tobytes()
        assert int(value["i"]) == i
    # One committed entry per key — concurrent writers never duplicated.
    assert len(store) == keys
    assert store.stats()["entries"] == keys
    # The files on disk are exactly the keys' entries: every writer
    # renamed its temp file into place or removed it.
    assert {p.name for p in root.rglob("*.bin")} == {
        f"{key_digest(_key_for(i))}.bin" for i in range(keys)
    }
    assert not list(root.rglob("*.tmp"))


class TestConcurrentWriters:
    def test_overlapping_writers_settle_clean(self, tmp_path):
        keys, writers = 12, 4
        _run_writers(tmp_path, _overlapping_slices(keys, writers))
        # Stragglers: make sure every key was covered by someone.
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_replay_computes_nothing(self, tmp_path, backend):
        keys = 10
        with use_backend(backend):
            # Writers under this backend's key namespace: go through a
            # real service so keys carry the backend cache tag.
            warm = SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
            warm.map([_task_for(i) for i in range(keys)])
            assert warm.counters.computed == keys
            # A fresh process-like replay of the same overlapping set:
            # zero duplicate solves after settling.
            replay = SolveService(
                cache=SolveCache(), store=SolveStore(tmp_path)
            )
            values = replay.map([_task_for(i) for i in range(keys)])
            assert replay.counters.computed == 0
            assert replay.counters.store_hits == keys
            for i, value in enumerate(values):
                assert value["v"].tobytes() == _value_for(i)["v"].tobytes()

    @pytest.mark.slow
    def test_many_writers_many_keys(self, tmp_path):
        keys, writers = 200, 8
        _run_writers(tmp_path, _overlapping_slices(keys, writers))
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)


def _entry(root, digest):
    return root / digest[:2] / f"{digest}.bin"


def _corrupt_truncate(root, digest):
    path = _entry(root, digest)
    path.write_bytes(path.read_bytes()[:24])


CORRUPTIONS = {
    "truncated-file": _corrupt_truncate,
    "garbage-header": lambda root, digest: rewrite_entry(
        _entry(root, digest), set_manifest_bytes(b"{torn mid-write")
    ),
    "missing-header": lambda root, digest: rewrite_entry(
        _entry(root, digest), set_manifest_bytes(b"")
    ),
    "version-skew": lambda root, digest: rewrite_entry(
        _entry(root, digest), edit_manifest(version=999)
    ),
    "unknown-codec": lambda root, digest: rewrite_entry(
        _entry(root, digest), edit_manifest(codec="not-a-codec")
    ),
    "missing-array": lambda root, digest: rewrite_entry(
        _entry(root, digest), drop_member("v.i")
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
class TestFaultInjection:
    """Every corruption is a miss and a recompute repairs it — no crash."""

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_matrix(self, tmp_path, backend, case):
        with use_backend(backend):
            # The key as the service stores it — compiled backends
            # namespace entries under their kernel tag.
            key = _effective_key(_task_for(3))
            store = SolveStore(tmp_path)
            assert store.put(key, _value_for(3), codec="ndarrays")
            digest = key_digest(key)
            CORRUPTIONS[case](tmp_path, digest)
            assert store.get(key) is None, case
            # miss-and-recompute through the service: the entry heals.
            service = SolveService(cache=SolveCache(), store=store)
            value = service.run(_task_for(3))
            assert value["v"].tobytes() == _value_for(3)["v"].tobytes()
            assert service.counters.computed == 1
            healed = SolveStore(tmp_path).get(key)
            assert healed is not None
            assert healed["v"].tobytes() == _value_for(3)["v"].tobytes()

    def test_midwrite_crash_is_miss_then_pruned(self, tmp_path, backend):
        with use_backend(backend):
            proc = _CTX.Process(
                target=_crashing_writer, args=(str(tmp_path), 7)
            )
            proc.start()
            proc.join(120)
            assert proc.exitcode == 1  # died before the commit rename
            shard = tmp_path / key_digest(_key_for(7))[:2]
            (leftover,) = shard.iterdir()
            assert leftover.name.startswith("tmp")
            assert leftover.suffix == ".tmp"
            store = SolveStore(tmp_path)
            assert store.get(_key_for(7)) is None  # uncommitted = miss
            assert len(store) == 0
            # prune sweeps the temp file once it is past the grace period
            # of live writers; a recompute then lands cleanly.
            backdate(leftover)
            summary = store.prune()
            assert summary == {"entries": 0, "orphans": 0, "temp_files": 1}
            assert not leftover.exists()
            assert store.put(_key_for(7), _value_for(7), codec="ndarrays")
            assert store.get(_key_for(7)) is not None


def _write_while(store: SolveStore, maintain, value=_value_for) -> None:
    """One thread puts 100 keys while another loops ``maintain()``.

    A tiny switch interval interleaves the two threads finely, so the
    loop lands between a put's ``mkdir``, ``mkstemp`` and rename; a
    larger ``value`` widens the window between ``mkstemp`` and rename.
    """
    done = threading.Event()

    def write():
        try:
            for i in range(100):
                store.put(_key_for(i), value(i), codec="ndarrays")
        finally:
            done.set()

    def loop():
        while not done.is_set():
            maintain()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=f) for f in (write, loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


class TestMaintenanceUnderLock:
    def test_prune_never_eats_a_live_writers_temp_file(self, tmp_path):
        """A writer thread's puts all commit while prune loops beside it:
        prune leaves a temp file alone until it is past the grace period."""
        store = SolveStore(tmp_path)
        _write_while(store, store.prune)
        assert store.write_errors == 0
        assert store.writes == 100
        _assert_settled(tmp_path, 100)

    def test_clear_never_loses_a_racing_write(self, tmp_path):
        """A writer thread's puts all commit while clear loops beside it:
        clear spares young temp files and keeps shard directories, so a
        write that races a clear commits (its entry may outlive it)."""
        store = SolveStore(tmp_path)
        _write_while(
            store, store.clear, lambda i: {"v": np.full(200_000, float(i))}
        )
        assert store.write_errors == 0
        assert store.writes == 100
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_prunes_and_writes(self, tmp_path):
        """Locked sweeps and footprint walks racing writers never crash,
        and the store settles to every key once."""
        keys = 16
        writers = _overlapping_slices(keys, 3)
        procs = [
            _CTX.Process(target=_writer, args=(str(tmp_path), list(chunk)))
            for chunk in writers
        ]
        for proc in procs:
            proc.start()
        store = SolveStore(tmp_path)
        for _ in range(10):  # sweep while writers are live
            store.prune()
            store.stats()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)

    def test_concurrent_clears_and_writes(self, tmp_path):
        """Locked clears racing writers never crash a writer, and a
        straggler pass settles the store to every key once."""
        keys = 16
        writers = _overlapping_slices(keys, 3)
        procs = [
            _CTX.Process(target=_writer, args=(str(tmp_path), list(chunk)))
            for chunk in writers
        ]
        for proc in procs:
            proc.start()
        store = SolveStore(tmp_path)
        for _ in range(10):  # clear while writers are live
            store.clear()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)
        assert store.clear() == keys
        assert len(store) == 0
