"""Persistent content-addressed storage of solve artifacts.

The second tier of the solve service's cache: where the in-memory
:class:`~repro.engine.cache.SolveCache` dies with the process, the
:class:`SolveStore` keeps solved artifacts on disk under a digest of their
*content key* — the same key the memory tier uses — so a re-run of any
figure, oligopoly competition or continuation trace against a warm store
performs zero equilibrium solves.

Layout
------
One entry is two files, named by the SHA-256 digest of the canonically
encoded key and *sharded* into a subdirectory named by the digest's first
byte (``<root>/<digest[:2]>/``), so many concurrent writers — the
``repro serve`` daemon's whole point — fan out across 256 directories
instead of contending on one:

* ``<digest[:2]>/<digest>.npz`` — every float array of the artifact,
  bit-exact (``numpy`` binary format; ``allow_pickle`` stays off, so
  loading a store entry can never execute code), written first;
* ``<digest[:2]>/<digest>.json`` — the manifest (codec name, version,
  scalar metadata), written last via an atomic rename, so its presence
  marks a committed entry.

Stores written before sharding kept both files directly under the root.
Reads fall back to that flat layout transparently, and a flat entry that
hits is *migrated* into its shard on the way out (two atomic renames,
npz first), so old stores upgrade themselves in place without a rebuild.

Corruption tolerance
--------------------
A store can be shared between processes, interrupted mid-write, or
hand-edited; *any* failure to decode an entry — missing file, truncated
npz, garbage JSON, unknown codec, wrong version, a writer killed between
the artifact and its sidecar — is a cache **miss**, never an exception.
:meth:`SolveStore.get` repairs nothing and crashes never; the caller
simply recomputes and :meth:`SolveStore.put` overwrites the entry.

Maintenance and observability
-----------------------------
``clear``/``prune``/``rebuild_index`` serialize against each other across
processes through an advisory file lock (``<root>/.lock``, ``flock``), so
two daemons pruning one store cannot race each other's directory walks.
:meth:`rebuild_index` scans the entry files and writes ``index.json`` — a
derived, always-rebuildable catalog (digest → codec/version/bytes) that
lets ``/stats`` and tooling enumerate a large store without a full
directory walk; it is advisory only, never consulted on the read path.
Counters (``hits``, ``misses``, ``writes``, ``write_errors``) plus
cumulative ``read_seconds``/``write_seconds`` make the disk tier
observable in ``service.stats()``, the runner's ``--json`` summary and
the server's ``/stats`` endpoint.

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
_STORE_VERSION = 1

#: Name of the derived (always-rebuildable) entry catalog at the root.
_INDEX_NAME = "index.json"

#: Name of the advisory maintenance lock file at the root.
_LOCK_NAME = ".lock"

#: Entry files are named by a SHA-256 hex digest; maintenance operations
#: (``clear``, ``prune``, ``stats``, ``__len__``) only ever touch files
#: matching this shape, so ``cache clear --cache-dir <wrong path>`` cannot
#: eat foreign JSON/npz files.
_ENTRY_STEM = re.compile(r"^[0-9a-f]{64}$")

#: Shard directories are the first byte of the digest, in hex.
_SHARD_DIR = re.compile(r"^[0-9a-f]{2}$")


def _is_entry_file(path: Path) -> bool:
    return path.suffix in {".json", ".npz"} and bool(
        _ENTRY_STEM.match(path.stem)
    )


def _is_stray_temp(path: Path) -> bool:
    # tempfile.mkstemp(dir=..., suffix=".tmp") names: tmp<random>.tmp
    return path.suffix == ".tmp" and path.stem.startswith("tmp")


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

    @property
    def index_path(self) -> Path:
        """Where :meth:`rebuild_index` writes the derived entry catalog."""
        return self._root / _INDEX_NAME

    def _shard_dir(self, digest: str) -> Path:
        return self._root / digest[:2]

    def _manifest_path(self, digest: str) -> Path:
        return self._shard_dir(digest) / f"{digest}.json"

    def _arrays_path(self, digest: str) -> Path:
        return self._shard_dir(digest) / f"{digest}.npz"

    def _entry_dirs(self) -> list[Path]:
        """Every directory that may hold entry files: shards + flat root."""
        dirs = [self._root]
        try:
            for child in self._root.iterdir():
                if child.is_dir() and _SHARD_DIR.match(child.name):
                    dirs.append(child)
        except OSError:
            pass
        return dirs

    def _manifests(self) -> list[Path]:
        """Every committed manifest, sharded and legacy-flat."""
        found = []
        for directory in self._entry_dirs():
            try:
                for path in directory.iterdir():
                    if path.suffix == ".json" and _is_entry_file(path):
                        found.append(path)
            except OSError:
                continue
        return found

    def __len__(self) -> int:
        """Number of committed entries (manifests) on disk."""
        return len(self._manifests())

    # ------------------------------------------------------------------
    # maintenance locking: clear/prune/rebuild_index serialize across
    # processes through an advisory flock on <root>/.lock
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
        from a read. Entries found in the pre-sharding flat layout are
        decoded normally and migrated into their shard on the way out.
        """
        start = time.perf_counter()
        value = None
        hit = False
        try:
            digest = key_digest(key)
        except Exception:
            digest = None
        if digest is not None:
            try:
                value = self._read_entry(self._shard_dir(digest), digest)
                hit = True
            except Exception:
                try:
                    value = self._read_entry(self._root, digest)
                    hit = True
                except Exception:
                    pass
                else:
                    self._migrate_entry(digest)
        with self._metrics_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            self.read_seconds += time.perf_counter() - start
        return value if hit else None

    def _read_entry(self, directory: Path, digest: str) -> Any:
        """Decode one committed entry from ``directory`` (raises on failure)."""
        with open(directory / f"{digest}.json", "rb") as handle:
            manifest = json.loads(handle.read())
        if manifest["version"] != _STORE_VERSION:
            raise ValueError(f"store version {manifest['version']}")
        decode = CODECS[manifest["codec"]][1]
        names = manifest["arrays"]
        arrays: dict[str, np.ndarray] = {}
        if names:
            with np.load(directory / f"{digest}.npz") as payload:
                arrays = {name: payload[name] for name in names}
        return decode(manifest["meta"], arrays)

    def _migrate_entry(self, digest: str) -> None:
        """Relocate a flat-layout entry into its shard (best effort).

        npz first, manifest last — the same commit order as writes, so a
        crash mid-migration leaves at worst a manifest-less artifact (a
        miss) plus the still-readable flat manifest-less remainder, never
        a torn committed entry.
        """
        try:
            shard = self._shard_dir(digest)
            shard.mkdir(parents=True, exist_ok=True)
            flat_npz = self._root / f"{digest}.npz"
            if flat_npz.is_file():
                os.replace(flat_npz, shard / f"{digest}.npz")
            os.replace(
                self._root / f"{digest}.json", shard / f"{digest}.json"
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    # write path: best-effort, atomic commit
    # ------------------------------------------------------------------
    def put(self, key: tuple, value: Any, *, codec: str) -> bool:
        """Persist ``value`` under ``key``; returns whether it committed.

        Encoding errors (unknown codec, value/codec mismatch) raise — they
        are caller bugs. I/O errors are swallowed and counted: a full disk
        degrades the store to a smaller cache, it never fails a solve.
        Writes land in the entry's shard; any same-digest leftovers in the
        legacy flat layout are removed after the commit so the two layouts
        cannot disagree about one key.
        """
        if codec not in CODECS:
            raise KeyError(
                f"unknown store codec {codec!r}; registered: {sorted(CODECS)}"
            )
        meta, arrays = CODECS[codec][0](value)
        digest = key_digest(key)
        manifest = {
            "version": _STORE_VERSION,
            "codec": codec,
            "meta": meta,
            "arrays": sorted(arrays),
        }
        start = time.perf_counter()
        try:
            shard = self._shard_dir(digest)
            shard.mkdir(parents=True, exist_ok=True)
            if arrays:
                self._write_atomic(
                    shard,
                    self._arrays_path(digest),
                    lambda handle: np.savez(handle, **arrays),
                )
            self._write_atomic(
                shard,
                self._manifest_path(digest),
                lambda handle: handle.write(
                    json.dumps(manifest, sort_keys=True).encode()
                ),
            )
        except OSError:
            with self._metrics_lock:
                self.write_errors += 1
                self.write_seconds += time.perf_counter() - start
            return False
        # The sharded entry now shadows any flat-layout predecessor.
        for suffix in (".json", ".npz"):
            try:
                os.unlink(self._root / f"{digest}{suffix}")
            except OSError:
                pass
        with self._metrics_lock:
            self.writes += 1
            self.write_seconds += time.perf_counter() - start
        return True

    def _write_atomic(self, directory: Path, path: Path, write) -> None:
        # The temp file lives in the destination directory so the final
        # os.replace is a same-filesystem atomic rename.
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                write(handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry (and stray temp file); returns entries removed.

        Holds the maintenance lock. Only digest-named artifact files,
        shard directories emptied by the sweep, the derived index and
        this store's temp files are touched — pointing ``clear`` at a
        directory that is not a store removes nothing of consequence.
        """
        if not self._root.is_dir():
            return 0
        removed = 0
        with self._locked():
            for directory in self._entry_dirs():
                try:
                    children = list(directory.iterdir())
                except OSError:
                    continue
                for path in children:
                    if not (_is_entry_file(path) or _is_stray_temp(path)):
                        continue
                    is_entry = path.suffix == ".json"
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += int(is_entry)
                if directory != self._root:
                    try:
                        directory.rmdir()  # only succeeds once empty
                    except OSError:
                        pass
            try:
                self.index_path.unlink()  # a cleared store has no catalog
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

        Holds the maintenance lock. Always removes stray temp files and
        *orphaned* artifacts (an ``.npz`` with no committed manifest — the
        footprint of a writer killed between artifact and sidecar). With
        ``max_entries``/``max_bytes`` set, committed entries are then
        evicted oldest-manifest-first until the store fits both bounds.
        Returns ``{"entries", "orphans", "temp_files"}`` removal counts.
        """
        if (max_entries is not None and max_entries < 0) or (
            max_bytes is not None and max_bytes < 0
        ):
            raise ValueError("prune bounds must be non-negative")
        summary = {"entries": 0, "orphans": 0, "temp_files": 0}
        if not self._root.is_dir():
            return summary
        with self._locked():
            committed: list[tuple[float, int, str, Path]] = []
            manifest_stems = set()
            npz_files: list[Path] = []
            for directory in self._entry_dirs():
                try:
                    children = list(directory.iterdir())
                except OSError:
                    continue
                for path in children:
                    if _is_stray_temp(path):
                        try:
                            path.unlink()
                            summary["temp_files"] += 1
                        except OSError:
                            pass
                    elif _is_entry_file(path):
                        if path.suffix == ".npz":
                            npz_files.append(path)
                        else:
                            manifest_stems.add(path.stem)
                            try:
                                stat = path.stat()
                            except OSError:
                                continue
                            size = stat.st_size
                            sibling = path.with_suffix(".npz")
                            try:
                                size += sibling.stat().st_size
                            except OSError:
                                pass
                            committed.append(
                                (stat.st_mtime, size, path.stem, path)
                            )
            for path in npz_files:
                if path.stem not in manifest_stems:
                    try:
                        path.unlink()
                        summary["orphans"] += 1
                    except OSError:
                        pass
            if max_entries is None and max_bytes is None:
                return summary
            committed.sort()  # oldest manifest first
            total_bytes = sum(size for _, size, _, _ in committed)
            remaining = len(committed)
            for _, size, _, manifest in committed:
                over_entries = (
                    max_entries is not None and remaining > max_entries
                )
                over_bytes = max_bytes is not None and total_bytes > max_bytes
                if not (over_entries or over_bytes):
                    break
                # Manifest first: the entry stops being committed before
                # its artifact disappears, so a concurrent reader can
                # never decode a half-removed entry.
                try:
                    manifest.unlink()
                except OSError:
                    continue
                try:
                    manifest.with_suffix(".npz").unlink()
                except OSError:
                    pass
                summary["entries"] += 1
                remaining -= 1
                total_bytes -= size
        return summary

    # ------------------------------------------------------------------
    # the derived index
    # ------------------------------------------------------------------
    def scan_entries(self) -> dict[str, dict]:
        """Catalog every committed entry straight off the directory tree.

        The ground truth :meth:`rebuild_index` snapshots: digest →
        ``{"codec", "version", "bytes"}``. Unreadable manifests are
        skipped (they are misses on the read path too).
        """
        entries: dict[str, dict] = {}
        for manifest_path in self._manifests():
            try:
                manifest = json.loads(manifest_path.read_bytes())
                size = manifest_path.stat().st_size
            except (OSError, ValueError):
                continue
            sibling = manifest_path.with_suffix(".npz")
            try:
                size += sibling.stat().st_size
            except OSError:
                pass
            entries[manifest_path.stem] = {
                "codec": manifest.get("codec"),
                "version": manifest.get("version"),
                "bytes": size,
            }
        return entries

    def rebuild_index(self) -> dict:
        """Scan the store and (re)write ``index.json``; returns the index.

        Holds the maintenance lock, so concurrent rebuilds serialize and
        a rebuild never interleaves with ``clear``/``prune`` sweeps. The
        index is purely derived state: deleting it costs nothing but this
        rescan.
        """
        with self._locked():
            index = {
                "version": _STORE_VERSION,
                "entries": self.scan_entries(),
            }
            try:
                self._root.mkdir(parents=True, exist_ok=True)
                self._write_atomic(
                    self._root,
                    self.index_path,
                    lambda handle: handle.write(
                        json.dumps(index, sort_keys=True).encode()
                    ),
                )
            except OSError:
                pass
        return index

    def load_index(self) -> dict | None:
        """The committed ``index.json``, or ``None`` if absent/unreadable."""
        try:
            index = json.loads(self.index_path.read_bytes())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(index, dict)
            or index.get("version") != _STORE_VERSION
            or not isinstance(index.get("entries"), dict)
        ):
            return None
        return index

    def stats(self) -> dict:
        """Counters plus on-disk footprint, JSON-ready."""
        entries = 0
        flat_entries = 0
        size = 0
        shards = 0
        for directory in self._entry_dirs():
            if directory != self._root:
                shards += 1
            try:
                children = list(directory.iterdir())
            except OSError:
                continue
            for path in children:
                if not _is_entry_file(path):
                    continue
                if path.suffix == ".json":
                    entries += 1
                    if directory == self._root:
                        flat_entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        with self._metrics_lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "write_errors": self.write_errors,
                "read_seconds": self.read_seconds,
                "write_seconds": self.write_seconds,
            }
        return {
            "path": str(self._root),
            "entries": entries,
            "flat_entries": flat_entries,
            "shards": shards,
            "bytes": size,
            **counters,
        }
