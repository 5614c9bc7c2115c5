"""Concurrency stress + fault injection for the shared solve store.

The serve daemon's load story rests on two claims about
:class:`~repro.engine.store.SolveStore`:

* **Many concurrent writers are safe.** N processes hammering one store
  with overlapping key sets leave no torn entries (every committed
  manifest decodes), no duplicates (one entry per distinct key), and a
  directory tree the index rebuild reproduces exactly — after which a
  warm replay of the whole key set performs zero solves.
* **Any corruption is a miss, never a crash.** The parametrized matrix
  covers truncated artifacts, mismatched sidecars, version skew, unknown
  codecs and a writer genuinely killed between the artifact and its
  sidecar; every case must miss-and-recompute on the sharded layout,
  under the numpy and compiled backends alike.

Heavy variants (more processes, more keys) are marked ``slow`` and run
only when ``$REPRO_SLOW_TESTS`` is set (see ``tests/conftest.py``).
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.engine import SolveCache, SolveService, SolveStore, key_digest
from repro.engine.service import SolveTask, _effective_key
from repro.engine.store import CODECS


def _backends() -> list[str]:
    names = ["numpy"]
    if available_backends()["cext"] == "resolves to cext":
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
    """A writer killed between the artifact and its sidecar.

    Patches the store's atomic-write helper so the manifest rename —
    the commit point — never happens: the process dies with the ``.npz``
    on disk and no ``.json``, the exact footprint of a mid-write crash.
    """
    store = SolveStore(root)
    original = store._write_atomic

    def dying(directory, path, write):
        if str(path).endswith(".json"):
            os._exit(1)
        return original(directory, path, write)

    store._write_atomic = dying
    store.put(_key_for(i), _value_for(i), codec="ndarrays")
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
    """No torn entries, no duplicates, index == scan, replay == 0 solves."""
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
    # The rebuilt index is exactly the directory scan.
    index = store.rebuild_index()
    scan = store.scan_entries()
    assert index["entries"] == scan
    assert set(scan) == {key_digest(_key_for(i)) for i in range(keys)}
    assert store.load_index() == index


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


def _corrupt_truncate_npz(root, digest):
    path = root / digest[:2] / f"{digest}.npz"
    path.write_bytes(path.read_bytes()[:24])


def _corrupt_mismatched_sidecar(root, digest):
    # The manifest promises arrays the artifact does not hold.
    path = root / digest[:2] / f"{digest}.json"
    manifest = json.loads(path.read_text())
    manifest["arrays"] = ["v.v", "v.i", "v.ghost"]
    manifest["meta"]["names"] = ["v", "i", "ghost"]
    path.write_text(json.dumps(manifest))


def _corrupt_version_skew(root, digest):
    path = root / digest[:2] / f"{digest}.json"
    manifest = json.loads(path.read_text())
    manifest["version"] = 999
    path.write_text(json.dumps(manifest))


def _corrupt_unknown_codec(root, digest):
    path = root / digest[:2] / f"{digest}.json"
    manifest = json.loads(path.read_text())
    manifest["codec"] = "not-a-codec"
    path.write_text(json.dumps(manifest))


def _corrupt_garbage_manifest(root, digest):
    (root / digest[:2] / f"{digest}.json").write_text("{torn mid-write")


def _corrupt_missing_artifact(root, digest):
    (root / digest[:2] / f"{digest}.npz").unlink()


CORRUPTIONS = {
    "truncated-npz": _corrupt_truncate_npz,
    "mismatched-sidecar": _corrupt_mismatched_sidecar,
    "version-skew": _corrupt_version_skew,
    "unknown-codec": _corrupt_unknown_codec,
    "garbage-manifest": _corrupt_garbage_manifest,
    "missing-artifact": _corrupt_missing_artifact,
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
            assert proc.exitcode == 1  # died between artifact and sidecar
            digest = key_digest(_key_for(7))
            assert (tmp_path / digest[:2] / f"{digest}.npz").is_file()
            assert not (tmp_path / digest[:2] / f"{digest}.json").exists()
            store = SolveStore(tmp_path)
            assert store.get(_key_for(7)) is None  # uncommitted = miss
            assert len(store) == 0
            # prune sweeps the orphan; a recompute then lands cleanly.
            assert store.prune()["orphans"] == 1
            assert not (tmp_path / digest[:2] / f"{digest}.npz").exists()
            assert store.put(_key_for(7), _value_for(7), codec="ndarrays")
            assert store.get(_key_for(7)) is not None


class TestMaintenanceUnderLock:
    def test_concurrent_rebuilds_and_writes(self, tmp_path):
        """Index rebuilds racing writers must never crash and the final
        rebuild must match the final tree."""
        keys = 16
        writers = _overlapping_slices(keys, 3)
        procs = [
            _CTX.Process(target=_writer, args=(str(tmp_path), list(chunk)))
            for chunk in writers
        ]
        for proc in procs:
            proc.start()
        store = SolveStore(tmp_path)
        for _ in range(10):  # rebuild while writers are live
            store.rebuild_index()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)
