"""Persistent content-addressed storage of solve artifacts.

The second tier of the solve service's cache: where the in-memory
:class:`~repro.engine.cache.SolveCache` dies with the process, the
:class:`SolveStore` keeps solved artifacts on disk under a digest of their
*content key* — the same key the memory tier uses — so a re-run of any
figure, oligopoly competition or continuation trace against a warm store
performs zero equilibrium solves.

Layout
------
One entry is one file, ``<root>/<digest[:2]>/<digest>.npz``: named by the
SHA-256 digest of the canonically encoded key and *sharded* into a
subdirectory named by the digest's first byte, so many concurrent writers
— the ``repro serve`` daemon's whole point — fan out across 256
directories instead of contending on one. The file is a ``numpy`` npz
archive holding every float array of the artifact bit-exact, plus one
``uint8`` member carrying the JSON manifest (codec name, format version,
scalar metadata, array names). It is written to a temp file in its shard
and committed by one atomic rename, so a reader sees either the whole
entry or none of it, and it is loaded with ``allow_pickle`` off, so
loading a store entry can never execute code.

Corruption tolerance
--------------------
A store can be shared between processes, interrupted mid-write, or
hand-edited; *any* failure to decode an entry — missing file, truncated
archive, garbage or missing manifest, unknown codec, wrong version (an
entry of an older format), a missing array — is a cache **miss**, never
an exception. :meth:`SolveStore.get` repairs nothing and crashes never;
the caller simply recomputes and :meth:`SolveStore.put` overwrites the
entry.

Maintenance and observability
-----------------------------
``clear``/``prune`` serialize against each other across processes
through an advisory file lock (``<root>/.lock``, ``flock``), so two
daemons pruning one store cannot race each other's directory walks. Both
sweep stray temp files (a writer killed before its rename) and the
digest-named ``.json``/``.npz`` leftovers of the older two-file format.
Counters (``hits``, ``misses``, ``writes``, ``write_errors``) plus
cumulative ``read_seconds``/``write_seconds`` make the disk tier
observable in ``service.stats()``, the runner's ``--json`` summary and
the server's ``/stats`` endpoint; :meth:`SolveStore.counters` reads them
without walking the directory tree, :meth:`SolveStore.stats` adds the
on-disk footprint.

Codecs
------
Artifacts are domain objects; the store serializes them through a small
explicit codec registry (:data:`CODECS`):

``"grid-row"``
    ``tuple[EquilibriumResult, ...]`` — one solved cap row, the unit of
    work of the grid engine, oligopoly states and continuation traces.
``"ndarrays"``
    ``dict[str, np.ndarray]`` — generic named-array bundles (oligopoly
    best-response sweeps, dynamics trajectory segments).
``"json"``
    Any JSON-serializable value (continuation breakpoint refinements).
    Bit-exact for floats: ``json`` round-trips ``repr(float)`` exactly.

Example — persist a named-array bundle and read it back bit-exactly:

>>> import numpy as np, tempfile
>>> from repro.engine.store import SolveStore
>>> store = SolveStore(tempfile.mkdtemp())
>>> store.put(("docs", 1), {"x": np.arange(3.0)}, codec="ndarrays")
True
>>> store.get(("docs", 1))["x"]
array([0., 1., 2.])
>>> store.get(("docs", 2)) is None   # unknown key: a miss, never an error
True
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

try:  # POSIX advisory locking; maintenance degrades gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core.equilibrium import EquilibriumResult
from repro.providers.market import MarketState

__all__ = ["CODECS", "SolveStore", "key_digest"]

#: Environment variable naming the default on-disk store directory.
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Store format version; bumping it invalidates every existing entry.
_STORE_VERSION = 2

#: Name of the npz member holding an entry's JSON manifest (codec array
#: names are ``"subsidies"``, ``"state.*"``, ``"v.*"``..., never this).
_MANIFEST = "__manifest__"

#: Name of the advisory maintenance lock file at the root.
_LOCK_NAME = ".lock"

#: Files named by a SHA-256 hex digest. Maintenance operations (``clear``,
#: ``prune``, ``stats``, ``__len__``) only ever touch files of this shape
#: and this store's temp files, so ``cache clear --cache-dir <wrong path>``
#: cannot eat foreign JSON/npz files.
_DIGEST_NAME = re.compile(r"^[0-9a-f]{64}\.(npz|json)$")

#: Shard directories are the first byte of the digest, in hex.
_SHARD_DIR = re.compile(r"^[0-9a-f]{2}$")


def _classify(name: str, *, in_shard: bool) -> str | None:
    """What a store file is: ``"entry"``, ``"orphan"``, ``"temp"`` or None.

    An entry is ``<shard>/<digest>.npz``. Orphans are the digest-named
    leftovers of the older two-file format: any ``<digest>.json``
    manifest, and a ``<digest>.npz`` directly under the root. Temp files
    are ``tempfile.mkstemp(suffix=".tmp")`` names (``tmp<random>.tmp``).
    """
    if name.startswith("tmp") and name.endswith(".tmp"):
        return "temp"
    if not _DIGEST_NAME.match(name):
        return None
    return "entry" if in_shard and name.endswith(".npz") else "orphan"


def _encode_key_part(part: Any) -> bytes:
    """Canonical, *injective* byte encoding of one content-key component.

    Netstring-style: a one-byte type tag, the payload length, then the
    payload. Length prefixes (rather than separators) keep the encoding
    collision-free even though keys embed raw float buffers
    (``prices.tobytes()``) that may contain any byte sequence.
    """
    if part is None:
        tag, payload = b"n", b""
    elif isinstance(part, bytes):
        tag, payload = b"b", part
    elif isinstance(part, bool):  # before int: bool is an int subclass
        tag, payload = b"o", (b"1" if part else b"0")
    elif isinstance(part, int):
        tag, payload = b"i", str(part).encode()
    elif isinstance(part, float):
        tag, payload = b"f", part.hex().encode()
    elif isinstance(part, str):
        tag, payload = b"s", part.encode()
    elif isinstance(part, np.ndarray):
        tag, payload = b"a", np.ascontiguousarray(part).tobytes()
    elif isinstance(part, tuple):
        tag = b"t"
        payload = b"".join(_encode_key_part(p) for p in part)
    else:
        raise TypeError(
            f"content keys may contain None/bool/int/float/str/bytes/"
            f"ndarray/tuple, got {type(part).__name__}"
        )
    return tag + str(len(payload)).encode() + b":" + payload


def key_digest(key: tuple) -> str:
    """SHA-256 hex digest of a content key (the store's entry name)."""
    return hashlib.sha256(_encode_key_part(tuple(key))).hexdigest()


# ----------------------------------------------------------------------
# codecs: domain object <-> (meta dict, named float arrays)
# ----------------------------------------------------------------------

#: MarketState fields that are per-CP float vectors.
_STATE_VECTORS = (
    "subsidies",
    "effective_prices",
    "populations",
    "rates",
    "throughputs",
    "utilities",
)

#: MarketState fields that are scalars (stacked into per-row vectors).
_STATE_SCALARS = (
    "utilization",
    "revenue",
    "welfare",
    "gap_slope",
    "price",
    "capacity",
)


def _encode_grid_row(row: Any) -> tuple[dict, dict[str, np.ndarray]]:
    results = tuple(row)
    if not all(isinstance(r, EquilibriumResult) for r in results):
        raise TypeError("grid-row codec expects a tuple of EquilibriumResult")
    arrays: dict[str, np.ndarray] = {
        "subsidies": np.stack([r.subsidies for r in results]),
        "kkt_residual": np.array([r.kkt_residual for r in results]),
        "iterations": np.array([r.iterations for r in results], dtype=np.int64),
    }
    for field in _STATE_VECTORS:
        arrays[f"state.{field}"] = np.stack(
            [getattr(r.state, field) for r in results]
        )
    for field in _STATE_SCALARS:
        arrays[f"state.{field}"] = np.array(
            [getattr(r.state, field) for r in results]
        )
    meta = {"methods": [r.method for r in results], "count": len(results)}
    return meta, arrays


def _decode_grid_row(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    methods = meta["methods"]
    count = int(meta["count"])
    if len(methods) != count:
        raise ValueError("grid-row manifest/count mismatch")
    results = []
    for j in range(count):
        state = MarketState(
            **{field: arrays[f"state.{field}"][j] for field in _STATE_VECTORS},
            **{
                field: float(arrays[f"state.{field}"][j])
                for field in _STATE_SCALARS
            },
        )
        results.append(
            EquilibriumResult(
                subsidies=arrays["subsidies"][j],
                state=state,
                kkt_residual=float(arrays["kkt_residual"][j]),
                iterations=int(arrays["iterations"][j]),
                method=str(methods[j]),
            )
        )
    return tuple(results)


def _encode_ndarrays(value: Any) -> tuple[dict, dict[str, np.ndarray]]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, np.ndarray)
        for k, v in value.items()
    ):
        raise TypeError("ndarrays codec expects a dict[str, np.ndarray]")
    return {"names": sorted(value)}, {f"v.{k}": v for k, v in value.items()}


def _decode_ndarrays(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    return {name: arrays[f"v.{name}"] for name in meta["names"]}


def _encode_json(value: Any) -> tuple[dict, dict[str, np.ndarray]]:
    # Serialize now so an unserializable value fails at put(), not decode.
    return {"payload": json.loads(json.dumps(value))}, {}


def _decode_json(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    return meta["payload"]


#: Codec registry: name -> (encode, decode). Explicit and closed, like the
#: serialization registry in :mod:`repro.io` — a store entry can only ever
#: rebuild these known artifact shapes.
CODECS: dict[
    str,
    tuple[
        Callable[[Any], tuple[dict, dict[str, np.ndarray]]],
        Callable[[dict, dict[str, np.ndarray]], Any],
    ],
] = {
    "grid-row": (_encode_grid_row, _decode_grid_row),
    "ndarrays": (_encode_ndarrays, _decode_ndarrays),
    "json": (_encode_json, _decode_json),
}


class SolveStore:
    """A persistent, content-addressed, corruption-tolerant artifact store.

    Parameters
    ----------
    root:
        Directory holding the entries (created on first write). See
        :meth:`from_env` for the ``$REPRO_CACHE_DIR`` resolution used by
        the CLI and the shared default service.

    Counters (``hits``, ``misses``, ``writes``, ``write_errors``) and the
    cumulative ``read_seconds``/``write_seconds`` latencies make the disk
    tier observable in the runner's ``--json`` summary and the serve
    daemon's ``/stats``. Counter updates take a small
    lock so concurrent server threads never lose increments.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._metrics_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_errors = 0
        self.read_seconds = 0.0
        self.write_seconds = 0.0

    @classmethod
    def from_env(cls) -> "SolveStore | None":
        """The store named by ``$REPRO_CACHE_DIR``, or ``None`` if unset."""
        root = os.environ.get(_CACHE_DIR_ENV, "").strip()
        return cls(root) if root else None

    @property
    def path(self) -> Path:
        """The store's root directory."""
        return self._root

    def _entry_path(self, digest: str) -> Path:
        return self._root / digest[:2] / f"{digest}.npz"

    def _scan(self) -> tuple[list[tuple[str, os.DirEntry]], list[str]]:
        """Every store file, classified (see :func:`_classify`), and the shards.

        The one directory walk behind ``__len__``, ``stats``, ``clear`` and
        ``prune``: one ``scandir`` of the root and one per shard.
        """
        files: list[tuple[str, os.DirEntry]] = []
        shards: list[str] = []
        try:
            with os.scandir(self._root) as items:
                for item in items:
                    if _SHARD_DIR.match(item.name) and item.is_dir():
                        shards.append(item.path)
                    elif kind := _classify(item.name, in_shard=False):
                        files.append((kind, item))
        except OSError:
            return files, shards
        for shard in shards:
            try:
                with os.scandir(shard) as items:
                    for item in items:
                        if kind := _classify(item.name, in_shard=True):
                            files.append((kind, item))
            except OSError:
                continue
        return files, shards

    def __len__(self) -> int:
        """Number of committed entries on disk."""
        return sum(kind == "entry" for kind, _ in self._scan()[0])

    # ------------------------------------------------------------------
    # maintenance locking: clear/prune serialize across processes
    # through an advisory flock on <root>/.lock
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        if fcntl is None:
            yield
            return
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            handle = open(self._root / _LOCK_NAME, "a+b")
        except OSError:
            yield
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()

    # ------------------------------------------------------------------
    # read path: any failure is a miss
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Any | None:
        """Decode the entry stored under ``key``, or ``None`` on any failure.

        Missing, truncated, corrupted, version-skewed, unknown-codec and
        half-written entries all miss identically; the store never raises
        from a read.
        """
        start = time.perf_counter()
        try:
            value, hit = self._read_entry(key_digest(key)), True
        except Exception:
            value, hit = None, False
        with self._metrics_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            self.read_seconds += time.perf_counter() - start
        return value

    def _read_entry(self, digest: str) -> Any:
        """Decode one committed entry (raises on any failure)."""
        with np.load(self._entry_path(digest), allow_pickle=False) as payload:
            manifest = json.loads(payload[_MANIFEST].tobytes())
            if manifest["version"] != _STORE_VERSION:
                raise ValueError(f"store version {manifest['version']}")
            decode = CODECS[manifest["codec"]][1]
            arrays = {name: payload[name] for name in manifest["arrays"]}
        return decode(manifest["meta"], arrays)

    # ------------------------------------------------------------------
    # write path: best-effort, atomic commit
    # ------------------------------------------------------------------
    def put(self, key: tuple, value: Any, *, codec: str) -> bool:
        """Persist ``value`` under ``key``; returns whether it committed.

        Encoding errors (unknown codec, value/codec mismatch) raise — they
        are caller bugs. I/O errors are swallowed and counted: a full disk
        degrades the store to a smaller cache, it never fails a solve.
        """
        if codec not in CODECS:
            raise KeyError(
                f"unknown store codec {codec!r}; registered: {sorted(CODECS)}"
            )
        meta, arrays = CODECS[codec][0](value)
        manifest = {
            "version": _STORE_VERSION,
            "codec": codec,
            "meta": meta,
            "arrays": sorted(arrays),
        }
        arrays[_MANIFEST] = np.frombuffer(
            json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8
        )
        path = self._entry_path(key_digest(key))
        start = time.perf_counter()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # The temp file lives in the shard so the final os.replace is
            # a same-filesystem atomic rename: the commit point.
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez(handle, **arrays)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            with self._metrics_lock:
                self.write_errors += 1
                self.write_seconds += time.perf_counter() - start
            return False
        with self._metrics_lock:
            self.writes += 1
            self.write_seconds += time.perf_counter() - start
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry and leftover file; returns entries removed.

        Holds the maintenance lock. Only digest-named files, shard
        directories emptied by the sweep and this store's temp files are
        touched — pointing ``clear`` at a directory that is not a store
        removes nothing of consequence.
        """
        if not self._root.is_dir():
            return 0
        removed = 0
        with self._locked():
            files, shards = self._scan()
            for kind, item in files:
                try:
                    os.unlink(item.path)
                except OSError:
                    continue
                removed += int(kind == "entry")
            for shard in shards:
                try:
                    os.rmdir(shard)  # only succeeds once empty
                except OSError:
                    pass
        return removed

    def prune(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> dict:
        """Sweep garbage and evict oldest entries beyond the given bounds.

        Holds the maintenance lock. Always removes stray temp files (the
        footprint of a writer killed before its rename) and *orphans* (the
        digest-named leftovers of the older two-file format). With
        ``max_entries``/``max_bytes`` set, entries are then evicted
        oldest-first until the store fits both bounds. Returns
        ``{"entries", "orphans", "temp_files"}`` removal counts.
        """
        if (max_entries is not None and max_entries < 0) or (
            max_bytes is not None and max_bytes < 0
        ):
            raise ValueError("prune bounds must be non-negative")
        summary = {"entries": 0, "orphans": 0, "temp_files": 0}
        if not self._root.is_dir():
            return summary
        with self._locked():
            entries: list[tuple[float, int, str]] = []
            for kind, item in self._scan()[0]:
                if kind == "entry":
                    try:
                        stat = item.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size, item.path))
                    continue
                try:
                    os.unlink(item.path)
                except OSError:
                    continue
                summary["orphans" if kind == "orphan" else "temp_files"] += 1
            if max_entries is None and max_bytes is None:
                return summary
            entries.sort()  # oldest first
            total_bytes = sum(size for _, size, _ in entries)
            remaining = len(entries)
            for _, size, path in entries:
                over_entries = (
                    max_entries is not None and remaining > max_entries
                )
                over_bytes = max_bytes is not None and total_bytes > max_bytes
                if not (over_entries or over_bytes):
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                summary["entries"] += 1
                remaining -= 1
                total_bytes -= size
        return summary

    def counters(self) -> dict:
        """The read/write counters and latencies, without touching the disk."""
        with self._metrics_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "write_errors": self.write_errors,
                "read_seconds": self.read_seconds,
                "write_seconds": self.write_seconds,
            }

    def stats(self) -> dict:
        """Counters plus on-disk footprint, JSON-ready.

        The footprint walks every shard; :meth:`counters` alone does not.
        """
        files, shards = self._scan()
        entries = 0
        size = 0
        for kind, item in files:
            if kind != "entry":
                continue
            entries += 1
            try:
                size += item.stat().st_size
            except OSError:
                pass
        return {
            "path": str(self._root),
            "entries": entries,
            "shards": len(shards),
            "bytes": size,
            **self.counters(),
        }
