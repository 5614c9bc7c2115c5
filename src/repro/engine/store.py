"""Persistent content-addressed storage of solve artifacts.

The second tier of the solve service's cache: where the in-memory
:class:`~repro.engine.cache.SolveCache` dies with the process, the
:class:`SolveStore` keeps solved artifacts on disk under a digest of their
*content key* — the same key the memory tier uses — so a re-run of any
figure, oligopoly competition or trajectory against a warm store
performs zero equilibrium solves.

Layout
------
One entry is one file, ``<root>/<digest[:2]>/<digest>.bin``: named by the
SHA-256 digest of the canonically encoded key and *sharded* into a
subdirectory named by the digest's first byte, so many concurrent writers
— the ``repro serve`` daemon's whole point — fan out across 256
directories instead of contending on one. The file is one raw buffer:

* an 8-byte magic;
* the header length, a little-endian ``u64``;
* a JSON header — ``version``, ``codec``, scalar ``meta``, the data
  section's ``nbytes`` and an ``arrays`` table of
  ``[name, dtype, shape, offset]`` rows;
* every array's C-contiguous bytes, 8-byte aligned and concatenated.

Array dtypes come from a closed allowlist (:data:`DTYPES`), so an entry
holds no object arrays and reading one can never unpickle or execute
code. A read is one ``read`` of the file, one ``json.loads`` of the
header and one ``np.frombuffer`` view per array — the returned arrays
are writable views of a buffer private to that read. An entry is
written to a temp file in its shard and committed by one atomic rename,
so a reader sees either the whole entry or none of it.

Corruption tolerance
--------------------
A store can be shared between processes, interrupted mid-write, or
hand-edited; *any* failure to decode an entry — missing file, a size
other than header plus ``nbytes`` (truncation, trailing garbage), a bad
magic, garbage or missing header, unknown codec or dtype, wrong version
(an entry of an older format), an array table overrunning the data, a
missing array — is a cache **miss**, never an exception.
:meth:`SolveStore.get` repairs nothing and crashes never; the caller
simply recomputes and :meth:`SolveStore.put` overwrites the entry.

Maintenance and observability
-----------------------------
``clear``/``prune`` serialize against each other across processes
through an advisory file lock (``<root>/.lock``, ``flock``), so two
daemons pruning one store cannot race each other's directory walks. Both
sweep stray temp files (a writer killed before its rename) older than
:data:`_TEMP_GRACE_SECONDS` — a younger one may belong to a live writer,
so a write that races a clear commits — and *orphans*: the digest-named
``.json``/``.npz`` files of the older npz formats.
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
    work of the grid engine, oligopoly states and refinement.
``"ndarrays"``
    ``dict[str, np.ndarray]`` — generic named-array bundles (oligopoly
    competitions, dynamics trajectories).

An entry naming any other codec (such as the retired ``"json"``) reads as
a miss.

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
import math
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

__all__ = ["CODECS", "DTYPES", "SolveStore", "key_digest"]

#: Environment variable naming the default on-disk store directory.
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Store format version; bumping it invalidates every existing entry.
_STORE_VERSION = 3

#: First bytes of every entry file.
_MAGIC = b"\x89REPRO\r\n"

#: Bytes before the JSON header: the magic, then its u64 length.
_PREFIX = len(_MAGIC) + 8

#: Alignment of the data section and of every array in it.
_ALIGN = 8

#: The closed set of array dtypes an entry may hold, by ``dtype.str``.
#: ``put`` refuses any other (object arrays included); at read an unknown
#: dtype is a miss.
DTYPES: dict[str, np.dtype] = {
    name: np.dtype(name) for name in ("<f8", "<i8", "|b1")
}

#: Name of the advisory maintenance lock file at the root.
_LOCK_NAME = ".lock"

#: ``clear`` and ``prune`` sweep only temp files at least this old
#: (seconds): a younger one may belong to a writer between its ``mkstemp``
#: and its rename.
_TEMP_GRACE_SECONDS = 600.0

#: The removal count each kind of swept file lands in.
_SWEPT = {"entry": "entries", "orphan": "orphans", "temp": "temp_files"}

#: Files named by a SHA-256 hex digest. Maintenance operations (``clear``,
#: ``prune``, ``stats``, ``__len__``) only ever touch files of this shape
#: and this store's temp files, so ``cache clear --cache-dir <wrong path>``
#: cannot eat foreign files.
_DIGEST_NAME = re.compile(r"^[0-9a-f]{64}\.(bin|npz|json)$")

#: Shard directories are the first byte of the digest, in hex.
_SHARD_DIR = re.compile(r"^[0-9a-f]{2}$")


def _classify(name: str, *, in_shard: bool) -> str | None:
    """What a store file is: ``"entry"``, ``"orphan"``, ``"temp"`` or None.

    An entry is ``<shard>/<digest>.bin``. Orphans are every other
    digest-named file: the ``.json``/``.npz`` files of the older npz
    formats, in a shard or at the root, and a ``.bin`` at the root. Temp
    files are ``tempfile.mkstemp(suffix=".tmp")`` names
    (``tmp<random>.tmp``).
    """
    if name.startswith("tmp") and name.endswith(".tmp"):
        return "temp"
    if not _DIGEST_NAME.match(name):
        return None
    return "entry" if in_shard and name.endswith(".bin") else "orphan"


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
        "kkt_residual": np.array(
            [r.kkt_residual for r in results], dtype=float
        ),
        "iterations": np.array([r.iterations for r in results], dtype=np.int64),
    }
    for field in _STATE_VECTORS:
        arrays[f"state.{field}"] = np.stack(
            [getattr(r.state, field) for r in results]
        )
    for field in _STATE_SCALARS:
        arrays[f"state.{field}"] = np.array(
            [getattr(r.state, field) for r in results], dtype=float
        )
    meta = {"methods": [r.method for r in results], "count": len(results)}
    return meta, arrays


def _decode_grid_row(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    methods = meta["methods"]
    count = int(meta["count"])
    if len(methods) != count:
        raise ValueError("grid-row manifest/count mismatch")
    vectors = {field: arrays[f"state.{field}"] for field in _STATE_VECTORS}
    scalars = {
        field: arrays[f"state.{field}"].tolist() for field in _STATE_SCALARS
    }
    subsidies = arrays["subsidies"]
    kkt_residuals = arrays["kkt_residual"].tolist()
    iterations = arrays["iterations"].tolist()
    return tuple(
        EquilibriumResult(
            subsidies=subsidies[j],
            state=MarketState(
                **{field: rows[j] for field, rows in vectors.items()},
                **{field: values[j] for field, values in scalars.items()},
            ),
            kkt_residual=kkt_residuals[j],
            iterations=iterations[j],
            method=str(methods[j]),
        )
        for j in range(count)
    )


def _encode_ndarrays(value: Any) -> tuple[dict, dict[str, np.ndarray]]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, np.ndarray)
        for k, v in value.items()
    ):
        raise TypeError("ndarrays codec expects a dict[str, np.ndarray]")
    return {"names": sorted(value)}, {f"v.{k}": v for k, v in value.items()}


def _decode_ndarrays(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    return {name: arrays[f"v.{name}"] for name in meta["names"]}


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
}


def _encode_entry(
    codec: str, meta: dict, arrays: dict[str, np.ndarray]
) -> bytes:
    """One entry's bytes: magic, header length, JSON header, array data."""
    table: list[list] = []
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(arrays):
        array = arrays[name]
        if array.dtype.str not in DTYPES:
            raise TypeError(
                f"store array {name!r} has dtype {array.dtype.str}; "
                f"allowed: {sorted(DTYPES)}"
            )
        data = array.tobytes()
        table.append([name, array.dtype.str, list(array.shape), offset])
        chunks.append(data + bytes(-len(data) % _ALIGN))
        offset += len(chunks[-1])
    header = json.dumps(
        {
            "version": _STORE_VERSION,
            "codec": codec,
            "meta": meta,
            "nbytes": offset,
            "arrays": table,
        },
        sort_keys=True,
    ).encode()
    header += b" " * (-(_PREFIX + len(header)) % _ALIGN)
    return b"".join(
        [_MAGIC, len(header).to_bytes(8, "little"), header, *chunks]
    )


def _decode_entry(buf: bytearray) -> Any:
    """Rebuild the artifact from one entry's bytes (raises on any defect).

    The arrays are writable ``np.frombuffer`` views of ``buf``.
    """
    if buf[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a store entry")
    start = _PREFIX + int.from_bytes(buf[len(_MAGIC) : _PREFIX], "little")
    header = json.loads(buf[_PREFIX:start])
    if header["version"] != _STORE_VERSION:
        raise ValueError(f"store version {header['version']}")
    decode = CODECS[header["codec"]][1]
    nbytes = header["nbytes"]
    if len(buf) != start + nbytes:
        raise ValueError("entry size does not match its header")
    arrays: dict[str, np.ndarray] = {}
    for name, dtype_str, shape, offset in header["arrays"]:
        dtype = DTYPES[dtype_str]
        if any(dim < 0 for dim in shape):
            raise ValueError(f"bad shape {shape!r}")
        count = math.prod(shape)
        if not 0 <= offset <= nbytes - count * dtype.itemsize:
            raise ValueError(f"array {name!r} overruns the entry")
        arrays[name] = np.frombuffer(
            buf, dtype, count, start + offset
        ).reshape(shape)
    return decode(header["meta"], arrays)


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
        return self._root / digest[:2] / f"{digest}.bin"

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
        with open(self._entry_path(digest), "rb", buffering=0) as handle:
            buf = bytearray(os.fstat(handle.fileno()).st_size)
            if handle.readinto(buf) != len(buf):
                raise ValueError("short read")
        return _decode_entry(buf)

    # ------------------------------------------------------------------
    # write path: best-effort, atomic commit
    # ------------------------------------------------------------------
    def put(self, key: tuple, value: Any, *, codec: str) -> bool:
        """Persist ``value`` under ``key``; returns whether it committed.

        Encoding errors (unknown codec, value/codec mismatch, an array
        dtype outside :data:`DTYPES`) raise — they are caller bugs. I/O
        errors are swallowed and counted: a full disk degrades the store
        to a smaller cache, it never fails a solve.
        """
        if codec not in CODECS:
            raise KeyError(
                f"unknown store codec {codec!r}; registered: {sorted(CODECS)}"
            )
        payload = _encode_entry(codec, *CODECS[codec][0](value))
        path = self._entry_path(key_digest(key))
        start = time.perf_counter()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # The temp file lives in the shard so the final os.replace is
            # a same-filesystem atomic rename: the commit point.
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
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
    def _sweep(
        self, *, entries: bool
    ) -> tuple[dict, list[tuple[float, int, str]]]:
        """Remove garbage, and every entry when ``entries``; the caller
        holds the maintenance lock.

        Garbage is *orphans* (the digest-named files of the older npz
        formats) and temp files at least :data:`_TEMP_GRACE_SECONDS` old:
        a younger one may be a live writer's, between its ``mkstemp`` and
        its commit rename. Returns the removal counts
        ``{"entries", "orphans", "temp_files"}`` and the entries left on
        disk as ``(mtime, size, path)``.
        """
        summary = {"entries": 0, "orphans": 0, "temp_files": 0}
        kept: list[tuple[float, int, str]] = []
        swept_before = time.time() - _TEMP_GRACE_SECONDS
        for kind, item in self._scan()[0]:
            if kind == "temp" or (kind == "entry" and not entries):
                try:
                    stat = item.stat()
                except OSError:
                    continue
                if kind == "entry":
                    kept.append((stat.st_mtime, stat.st_size, item.path))
                    continue
                if stat.st_mtime > swept_before:
                    continue  # possibly a live writer's temp file
            try:
                os.unlink(item.path)
            except OSError:
                continue
            summary[_SWEPT[kind]] += 1
        return summary, kept

    def clear(self) -> int:
        """Remove every entry and garbage file; returns entries removed.

        Holds the maintenance lock and sweeps like :meth:`prune`, so a
        temp file younger than :data:`_TEMP_GRACE_SECONDS` is spared.
        Shard directories stay: a writer creates its shard just before
        its temp file. A write that races a clear therefore commits, and
        its entry may outlive the clear. Only digest-named files and this
        store's temp files are touched — pointing ``clear`` at a
        directory that is not a store removes nothing of consequence.
        """
        if not self._root.is_dir():
            return 0
        with self._locked():
            return self._sweep(entries=True)[0]["entries"]

    def prune(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> dict:
        """Sweep garbage and evict oldest entries beyond the given bounds.

        Holds the maintenance lock. Always removes stray temp files (the
        footprint of a writer killed before its rename) at least
        :data:`_TEMP_GRACE_SECONDS` old — a younger one may be a live
        writer's — and *orphans* (the digest-named files of the older npz
        formats). With ``max_entries``/``max_bytes`` set, entries are then
        evicted oldest-first until the store fits both bounds. Returns
        ``{"entries", "orphans", "temp_files"}`` removal counts.
        """
        if (max_entries is not None and max_entries < 0) or (
            max_bytes is not None and max_bytes < 0
        ):
            raise ValueError("prune bounds must be non-negative")
        if not self._root.is_dir():
            return {"entries": 0, "orphans": 0, "temp_files": 0}
        with self._locked():
            summary, entries = self._sweep(entries=False)
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
