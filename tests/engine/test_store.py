"""Unit tests for the persistent content-addressed solve store."""

import json
import os
import time
import zipfile

import numpy as np
import pytest

from repro.engine.grid_engine import solve_cap_row
from repro.engine.store import CODECS, DTYPES, SolveStore, key_digest
from repro.providers import AccessISP, Market, exponential_cp

#: An entry's magic, then its little-endian u64 header length.
MAGIC = b"\x89REPRO\r\n"
PREFIX = len(MAGIC) + 8


def small_market():
    return Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


def solved_row():
    return solve_cap_row(
        small_market(), np.linspace(0.2, 1.0, 3), 0.5, warm_start=True
    )


def sole_entry(root):
    """The one entry file under ``root``."""
    entries = [p for p in root.rglob("*") if p.is_file() and p.name != ".lock"]
    assert len(entries) == 1
    return entries[0]


def split_entry(raw):
    """An entry's bytes as (header bytes, data section bytes)."""
    assert raw[: len(MAGIC)] == MAGIC
    start = PREFIX + int.from_bytes(raw[len(MAGIC) : PREFIX], "little")
    return raw[PREFIX:start], raw[start:]


def read_header(path):
    return json.loads(split_entry(path.read_bytes())[0])


def rewrite_entry(path, edit):
    """Rewrite an entry file in place after ``edit`` mutates its parts.

    ``edit`` receives ``{"header": bytes, "data": bytes}``; the file is
    reassembled with the header length prefix matching the new header.
    """
    header, data = split_entry(path.read_bytes())
    parts = {"header": header, "data": data}
    edit(parts)
    path.write_bytes(
        MAGIC
        + len(parts["header"]).to_bytes(8, "little")
        + parts["header"]
        + parts["data"]
    )


def set_manifest_bytes(raw):
    """Replace the JSON header with ``raw`` (``b""``: no header at all)."""

    def edit(parts):
        parts["header"] = raw

    return edit


def edit_manifest(**changes):
    def edit(parts):
        header = json.loads(parts["header"])
        parts["header"] = json.dumps({**header, **changes}).encode()

    return edit


def drop_member(name):
    """Remove array ``name`` from the header's table (its bytes stay)."""

    def edit(parts):
        header = json.loads(parts["header"])
        header["arrays"] = [row for row in header["arrays"] if row[0] != name]
        parts["header"] = json.dumps(header).encode()

    return edit


def old_format_put(root, key, value, *, codec, flat=False):
    """Write ``key`` as the older two-file format did: a version-1
    ``.json`` manifest beside an ``.npz`` of the bare arrays, in the
    key's shard or (``flat``) directly under the root."""
    meta, arrays = CODECS[codec][0](value)
    digest = key_digest(key)
    directory = root if flat else root / digest[:2]
    directory.mkdir(parents=True, exist_ok=True)
    if arrays:
        with open(directory / f"{digest}.npz", "wb") as handle:
            np.savez(handle, **arrays)
    manifest = {"version": 1, "codec": codec, "meta": meta,
                "arrays": sorted(arrays)}
    (directory / f"{digest}.json").write_text(json.dumps(manifest))


def npz_format_put(root, key, value, *, codec):
    """Write ``key`` as the version-2 one-file format did: one
    ``<shard>/<digest>.npz`` holding the arrays and a ``__manifest__``
    uint8 member carrying the JSON manifest."""
    meta, arrays = CODECS[codec][0](value)
    manifest = {"version": 2, "codec": codec, "meta": meta,
                "arrays": sorted(arrays)}
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8
    )
    digest = key_digest(key)
    path = root / digest[:2] / f"{digest}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    return path


def backdate(path, seconds=3600.0):
    """Age ``path`` past the prune grace period of live temp files."""
    then = time.time() - seconds
    os.utime(path, (then, then))


def assert_rows_bitwise_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.subsidies.tobytes() == y.subsidies.tobytes()
        assert x.kkt_residual == y.kkt_residual
        assert x.iterations == y.iterations
        assert x.method == y.method
        for field in (
            "subsidies",
            "effective_prices",
            "populations",
            "rates",
            "throughputs",
            "utilities",
        ):
            assert (
                getattr(x.state, field).tobytes()
                == getattr(y.state, field).tobytes()
            )
        for field in (
            "utilization",
            "revenue",
            "welfare",
            "gap_slope",
            "price",
            "capacity",
        ):
            assert getattr(x.state, field) == getattr(y.state, field)


class TestKeyDigest:
    def test_deterministic_and_content_sensitive(self):
        key = ("cap-row/1", "fp", b"\x00\x01", 0.5, True)
        assert key_digest(key) == key_digest(key)
        assert key_digest(key) != key_digest(("cap-row/1", "fp", b"\x00\x01", 0.5, False))
        assert key_digest(key) != key_digest(("cap-row/1", "fp", b"\x00\x02", 0.5, True))

    def test_nested_tuples_and_none(self):
        a = key_digest(("x", ((0, 1), (2,), ()), None))
        b = key_digest(("x", ((0, 1), (2,), ()), None))
        c = key_digest(("x", ((0, 1), (2,), (3,)), None))
        assert a == b != c

    def test_type_distinctions(self):
        # bool/int/float/str/bytes with "equal" surface values stay distinct.
        assert key_digest((1,)) != key_digest((1.0,))
        assert key_digest((True,)) != key_digest((1,))
        assert key_digest(("1",)) != key_digest((1,))

    def test_rejects_unhashable_content(self):
        with pytest.raises(TypeError):
            key_digest((object(),))

    def test_encoding_is_injective_for_adversarial_byte_content(self):
        # Keys embed raw float buffers (prices.tobytes()), which can
        # contain any byte sequence — including ones that would collide
        # under separator-based (rather than length-prefixed) encodings.
        assert key_digest(((b"x\x1fb:y",),)) != key_digest(((b"x", b"y"),))
        assert key_digest((b"x\x1eb:y",)) != key_digest((b"x", b"y"))
        assert key_digest(("ab", "c")) != key_digest(("a", "bc"))
        assert key_digest((("a",), "b")) != key_digest((("a", "b"),))


class TestRoundTrip:
    def test_grid_row_round_trip_is_bitwise(self, tmp_path):
        store = SolveStore(tmp_path)
        row = solved_row()
        key = ("row", b"axes", 0.5)
        assert store.put(key, row, codec="grid-row")
        loaded = store.get(key)
        assert loaded is not None
        assert_rows_bitwise_equal(row, loaded)
        assert store.hits == 1 and store.writes == 1

    def test_ndarrays_round_trip(self, tmp_path):
        store = SolveStore(tmp_path)
        value = {
            "price": np.asarray(0.1 + 0.2, dtype=float),
            "warm": np.linspace(0.0, 1.0, 5),
            "count": np.asarray(7, dtype=np.int64),
        }
        store.put(("nd",), value, codec="ndarrays")
        loaded = store.get(("nd",))
        assert set(loaded) == set(value)
        for name in value:
            assert loaded[name].tobytes() == value[name].tobytes()
            assert loaded[name].dtype == value[name].dtype

    def test_entry_of_the_removed_json_codec_is_a_miss(self, tmp_path):
        # Byte for byte what the retired "json" codec wrote: a header
        # carrying the payload and no array data.
        key = ("j",)
        header = json.dumps(
            {"version": 3, "codec": "json", "meta": {"payload": {"v": 1}},
             "nbytes": 0, "arrays": []},
            sort_keys=True,
        ).encode()
        digest = key_digest(key)
        entry = tmp_path / digest[:2] / f"{digest}.bin"
        entry.parent.mkdir()
        entry.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        store = SolveStore(tmp_path)
        assert store.get(key) is None
        assert store.misses == 1 and store.hits == 0
        assert store.put(key, {"v": np.ones(1)}, codec="ndarrays")
        assert store.get(key)["v"].tolist() == [1.0]

    def test_missing_key_misses(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.get(("absent",)) is None
        assert store.misses == 1

    def test_overwrite_replaces(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": np.array([1.0])}, codec="ndarrays")
        store.put(("k",), {"v": np.array([2.0])}, codec="ndarrays")
        assert store.get(("k",))["v"].tolist() == [2.0]
        assert len(store) == 1


class TestCorruptionTolerance:
    """Bad entry -> miss, never crash; recompute-and-put repairs."""

    def test_truncated_entry_is_a_miss_then_repairable(self, tmp_path):
        store = SolveStore(tmp_path)
        row = solved_row()
        key = ("row", 1)
        store.put(key, row, codec="grid-row")
        entry = sole_entry(tmp_path)
        entry.write_bytes(entry.read_bytes()[:20])
        assert store.get(key) is None
        assert store.misses == 1
        # The caller recomputes and overwrites; the entry works again.
        assert store.put(key, row, codec="grid-row")
        assert_rows_bitwise_equal(row, store.get(key))

    def test_trailing_garbage_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        entry = sole_entry(tmp_path)
        entry.write_bytes(entry.read_bytes() + b"\x00" * 8)
        assert store.get(("k",)) is None

    def test_garbage_header_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_entry(sole_entry(tmp_path), set_manifest_bytes(b"{not json"))
        assert store.get(("k",)) is None

    def test_missing_header_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_entry(sole_entry(tmp_path), set_manifest_bytes(b""))
        assert store.get(("k",)) is None

    def test_header_without_arrays_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_entry(sole_entry(tmp_path), drop_member("subsidies"))
        assert store.get(("k",)) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": np.ones(1)}, codec="ndarrays")
        rewrite_entry(sole_entry(tmp_path), edit_manifest(version=999))
        assert store.get(("k",)) is None

    def test_unknown_codec_in_header_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": np.ones(1)}, codec="ndarrays")
        rewrite_entry(sole_entry(tmp_path), edit_manifest(codec="no-codec"))
        assert store.get(("k",)) is None

    @pytest.mark.parametrize(
        "row",
        [
            ["v.x", "<f8", [3], 8],  # runs one element past the data
            ["v.x", "<f8", [4], 0],
            ["v.x", "<f8", [3], -8],  # would read the header
            ["v.x", "<f8", [-1], 0],  # -1 would mean "infer"
            ["v.x", "<f8", [3], 0.0],
        ],
    )
    def test_array_table_overrunning_the_data_is_a_miss(self, tmp_path, row):
        store = SolveStore(tmp_path)
        store.put(("k",), {"x": np.arange(3.0)}, codec="ndarrays")
        rewrite_entry(sole_entry(tmp_path), edit_manifest(arrays=[row]))
        assert store.get(("k",)) is None

    def test_object_dtype_in_header_is_a_miss(self, tmp_path):
        # Only allowlisted dtypes are ever viewed: nothing is unpickled.
        store = SolveStore(tmp_path)
        store.put(("k",), {"x": np.arange(3.0)}, codec="ndarrays")
        rewrite_entry(
            sole_entry(tmp_path), edit_manifest(arrays=[["v.x", "|O", [3], 0]])
        )
        assert store.get(("k",)) is None

    def test_put_of_an_object_array_raises(self, tmp_path):
        store = SolveStore(tmp_path)
        with pytest.raises(TypeError):
            store.put(
                ("k",), {"x": np.array([object()], dtype=object)},
                codec="ndarrays",
            )
        with pytest.raises(TypeError):
            store.put(("k",), {"x": np.array(["a"])}, codec="ndarrays")
        assert store.writes == 0 and not list(tmp_path.rglob("*"))

    def test_unwritable_root_degrades_to_no_store(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        store = SolveStore(blocker / "sub")
        assert store.put(("k",), {"v": np.ones(1)}, codec="ndarrays") is False
        assert store.write_errors == 1
        assert store.get(("k",)) is None  # still just a miss


class TestMaintenance:
    def test_put_unknown_codec_raises(self, tmp_path):
        store = SolveStore(tmp_path)
        with pytest.raises(KeyError):
            store.put(("k",), {"v": 1}, codec="nope")

    def test_codec_value_mismatch_raises(self, tmp_path):
        store = SolveStore(tmp_path)
        with pytest.raises(TypeError):
            store.put(("k",), {"v": "not an array"}, codec="ndarrays")
        with pytest.raises(TypeError):
            store.put(("k",), ("not", "results"), codec="grid-row")

    def test_clear_removes_everything(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        store.put(("b",), solved_row(), codec="grid-row")
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(("a",)) is None

    def test_clear_shares_prunes_temp_file_rule(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        shard = sole_entry(tmp_path).parent
        young = shard / "tmpyoung.tmp"
        old = shard / "tmpold.tmp"
        young.write_bytes(b"a live writer's")
        old.write_bytes(b"a killed writer's")
        backdate(old)
        assert store.clear() == 1
        assert young.exists()
        assert not old.exists()
        assert shard.is_dir()

    def test_clear_on_missing_directory(self, tmp_path):
        assert SolveStore(tmp_path / "never-created").clear() == 0

    def test_stats_shape(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["path"] == str(tmp_path)
        assert {"hits", "misses", "writes", "write_errors"} <= set(stats)

    def test_stats_carries_no_flat_layout_key(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        assert set(store.stats()) == {
            "path", "entries", "shards", "bytes", *store.counters(),
        }

    def test_counters_do_not_walk_the_store(self, tmp_path, monkeypatch):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        store.get(("a",))
        store.get(("b",))

        def no_walk(self):
            raise AssertionError("counters() walked the store")

        monkeypatch.setattr(SolveStore, "_scan", no_walk)
        counters = store.counters()
        assert (counters["hits"], counters["misses"], counters["writes"]) == (
            1, 1, 1,
        )

    def test_len_counts_committed_entries_only(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        shard = sole_entry(tmp_path).parent
        (shard / "tmpwriter.tmp").write_bytes(b"half written")
        (shard / ("e" * 64 + ".json")).write_text("{}")
        (shard / ("b" * 64 + ".npz")).write_bytes(b"npz-format entry")
        (tmp_path / ("d" * 64 + ".npz")).write_bytes(b"flat leftover")
        (tmp_path / ("a" * 64 + ".bin")).write_bytes(b"not in a shard")
        assert len(store) == 1
        assert store.stats()["entries"] == 1

    def test_clear_leaves_foreign_files_alone(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": np.ones(1)}, codec="ndarrays")
        (tmp_path / "notes.json").write_text("{}")
        (tmp_path / "data.npz").write_bytes(b"not a store entry")
        (tmp_path / "ab").mkdir(exist_ok=True)
        (tmp_path / "ab" / "keep.txt").write_text("mine")
        assert store.clear() == 1
        assert (tmp_path / "notes.json").read_text() == "{}"
        assert (tmp_path / "data.npz").exists()
        assert (tmp_path / "ab" / "keep.txt").read_text() == "mine"

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert SolveStore.from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = SolveStore.from_env()
        assert store is not None and store.path == tmp_path

    def test_codec_registry_is_closed(self):
        assert set(CODECS) == {"grid-row", "ndarrays"}


class TestShardedLayout:
    def test_entries_land_in_first_byte_shards(self, tmp_path):
        store = SolveStore(tmp_path)
        key = ("sharded", 1)
        store.put(key, {"v": np.ones(1)}, codec="ndarrays")
        digest = key_digest(key)
        assert (tmp_path / digest[:2] / f"{digest}.bin").is_file()
        assert not (tmp_path / f"{digest}.bin").exists()

    def test_put_leaves_one_file_in_its_shard(self, tmp_path):
        store = SolveStore(tmp_path)
        key = ("one-file", 1)
        assert store.put(key, solved_row(), codec="grid-row")
        digest = key_digest(key)
        shard = tmp_path / digest[:2]
        assert [p.name for p in shard.iterdir()] == [f"{digest}.bin"]
        assert store.put(key, solved_row(), codec="grid-row")  # overwrite
        assert [p.name for p in shard.iterdir()] == [f"{digest}.bin"]

    def test_corrupt_sharded_entry_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        key = ("corrupt-shard", 1)
        store.put(key, solved_row(), codec="grid-row")
        digest = key_digest(key)
        entry = tmp_path / digest[:2] / f"{digest}.bin"
        entry.write_bytes(entry.read_bytes()[:16])
        assert store.get(key) is None
        # Recompute-and-put repairs in place.
        assert store.put(key, solved_row(), codec="grid-row")
        assert store.get(key) is not None


class TestEntryFormat:
    def test_header_names_codec_version_and_arrays(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"x": np.arange(3.0), "y": np.ones(2)}, codec="ndarrays")
        entry = sole_entry(tmp_path)
        header, data = split_entry(entry.read_bytes())
        assert json.loads(header) == {
            "version": 3,
            "codec": "ndarrays",
            "meta": {"names": ["x", "y"]},
            "nbytes": 40,
            "arrays": [["v.x", "<f8", [3], 0], ["v.y", "<f8", [2], 24]],
        }
        assert (PREFIX + len(header)) % 8 == 0  # the data is 8-byte aligned
        assert data == np.arange(3.0).tobytes() + np.ones(2).tobytes()
        assert entry.stat().st_size == PREFIX + len(header) + 40

    def test_arrays_are_aligned_after_a_bool_array(self, tmp_path):
        store = SolveStore(tmp_path)
        value = {"a": np.array([True, False, True]), "b": np.arange(2.0)}
        store.put(("k",), value, codec="ndarrays")
        table = read_header(sole_entry(tmp_path))["arrays"]
        assert table == [["v.a", "|b1", [3], 0], ["v.b", "<f8", [2], 8]]
        loaded = store.get(("k",))
        assert loaded["a"].tolist() == [True, False, True]
        assert loaded["b"].flags.aligned

    def test_grid_row_entry_holds_only_allowed_dtypes(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("row",), solved_row(), codec="grid-row")
        table = read_header(sole_entry(tmp_path))["arrays"]
        dtypes = {name: dtype for name, dtype, _, _ in table}
        assert set(dtypes.values()) <= set(DTYPES)
        assert dtypes["iterations"] == "<i8"
        assert dtypes["state.revenue"] == "<f8"

    def test_empty_bundle_entry_is_one_file_holding_only_the_header(
        self, tmp_path
    ):
        store = SolveStore(tmp_path)
        store.put(("j",), {}, codec="ndarrays")
        entry = sole_entry(tmp_path)
        assert entry.suffix == ".bin"
        header, data = split_entry(entry.read_bytes())
        assert json.loads(header)["arrays"] == [] and data == b""
        assert store.get(("j",)) == {}

    def test_get_never_opens_a_zip(self, tmp_path, monkeypatch):
        store = SolveStore(tmp_path)
        row = solved_row()
        store.put(("row",), row, codec="grid-row")

        def no_zip(*args, **kwargs):
            raise AssertionError("a store read opened a zip archive")

        monkeypatch.setattr(zipfile, "ZipFile", no_zip)
        monkeypatch.setattr(np, "load", no_zip)
        assert_rows_bitwise_equal(row, store.get(("row",)))
        assert store.hits == 1 and store.misses == 0

    def test_failed_commit_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os as _os

        store = SolveStore(tmp_path)

        def failing_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(_os, "replace", failing_replace)
        assert store.put(("k",), {"v": np.ones(1)}, codec="ndarrays") is False
        assert store.write_errors == 1 and store.writes == 0
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        monkeypatch.undo()
        assert store.put(("k",), {"v": np.ones(1)}, codec="ndarrays")
        assert store.get(("k",))["v"].tolist() == [1.0]


class TestOldFormat:
    """Stores of the older npz formats miss, heal and clear: the
    two-file version 1 (in a shard or flat under the root) and the
    one-file version 2 ``<shard>/<digest>.npz``."""

    LAYOUTS = ("v1-shard", "v1-flat", "v2")
    KEYS = [
        (("old", i), {"v": np.array([i, 0.1 + i])}, "ndarrays")
        for i in range(3)
    ] + [
        (("old-row", i), None, "grid-row") for i in range(3)
    ]

    def _populate(self, root):
        for i, (key, value, codec) in enumerate(self.KEYS):
            value = solved_row() if value is None else value
            layout = self.LAYOUTS[i % len(self.LAYOUTS)]
            if layout == "v2":
                npz_format_put(root, key, value, codec=codec)
            else:
                old_format_put(
                    root, key, value, codec=codec, flat=layout == "v1-flat"
                )

    def test_reads_as_misses_recompute_overwrites_and_clear_empties(
        self, tmp_path
    ):
        self._populate(tmp_path)
        store = SolveStore(tmp_path)
        assert len(store) == 0
        for key, _, _ in self.KEYS:
            assert store.get(key) is None
        assert store.misses == len(self.KEYS) and store.hits == 0
        for key, value, codec in self.KEYS:
            value = solved_row() if value is None else value
            assert store.put(key, value, codec=codec)
        assert store.get(("old", 1))["v"].tolist() == [1.0, 1.1]
        assert_rows_bitwise_equal(solved_row(), store.get(("old-row", 0)))
        assert len(store) == store.stats()["entries"] == len(self.KEYS)
        assert store.clear() == len(self.KEYS)
        # Emptied shard directories stay (a racing writer may need them).
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [".lock"]

    def test_prune_sweeps_the_leftovers(self, tmp_path):
        self._populate(tmp_path)
        leftovers = len(list(tmp_path.rglob("*.json"))) + len(
            list(tmp_path.rglob("*.npz"))
        )
        store = SolveStore(tmp_path)
        summary = store.prune()
        assert summary == {"entries": 0, "orphans": leftovers, "temp_files": 0}
        assert not list(tmp_path.rglob("*.json"))
        assert not list(tmp_path.rglob("*.npz"))

    def test_v2_npz_entry_is_an_orphan(self, tmp_path, capsys):
        from repro.experiments.runner import main

        npz_format_put(tmp_path, ("v2",), {"x": np.arange(3.0)}, codec="ndarrays")
        store = SolveStore(tmp_path)
        assert len(store) == 0
        assert store.stats()["entries"] == 0
        assert store.get(("v2",)) is None
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0
        assert store.prune() == {"entries": 0, "orphans": 1, "temp_files": 0}
        assert not list(tmp_path.rglob("*.npz"))
        npz_format_put(tmp_path, ("v2",), {"x": np.arange(3.0)}, codec="ndarrays")
        assert store.clear() == 0
        # Emptied shard directories stay (a racing writer may need them).
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [".lock"]


class TestPrune:
    def test_prune_removes_orphans_and_temps(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("keep",), solved_row(), codec="grid-row")
        digest = key_digest(("keep",))
        shard = tmp_path / digest[:2]
        # An orphan: a manifest left over from the older two-file format.
        (shard / ("f" * 64 + ".json")).write_text("{}")
        stale = shard / "tmpabc123.tmp"
        stale.write_bytes(b"scratch")
        backdate(stale)
        summary = store.prune()
        assert summary == {"entries": 0, "orphans": 1, "temp_files": 1}
        assert store.get(("keep",)) is not None

    def test_prune_spares_young_temp_files(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("keep",), {"v": np.ones(1)}, codec="ndarrays")
        shard = sole_entry(tmp_path).parent
        young = shard / "tmplive.tmp"
        young.write_bytes(b"a writer is still writing")
        old = shard / "tmpdead.tmp"
        old.write_bytes(b"a writer died")
        backdate(old)
        assert store.prune() == {"entries": 0, "orphans": 0, "temp_files": 1}
        assert young.exists() and not old.exists()

    def test_root_level_digest_npz_is_an_orphan(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("keep",), {"v": np.ones(1)}, codec="ndarrays")
        flat = tmp_path / ("c" * 64 + ".npz")
        flat.write_bytes(b"older flat layout")
        assert store.prune() == {"entries": 0, "orphans": 1, "temp_files": 0}
        assert not flat.exists()
        assert store.get(("keep",))["v"].tolist() == [1.0]

    def test_prune_max_entries_evicts_oldest(self, tmp_path):
        import os as _os

        store = SolveStore(tmp_path)
        for i in range(4):
            key = (f"k{i}",)
            store.put(key, {"v": np.full(1, float(i))}, codec="ndarrays")
            entry = tmp_path / key_digest(key)[:2] / (
                key_digest(key) + ".bin"
            )
            _os.utime(entry, (1000.0 + i, 1000.0 + i))
        summary = store.prune(max_entries=2)
        assert summary["entries"] == 2
        assert len(store) == 2
        assert store.get(("k0",)) is None and store.get(("k1",)) is None
        assert store.get(("k2",)) is not None
        assert store.get(("k3",)) is not None

    def test_prune_max_bytes(self, tmp_path):
        store = SolveStore(tmp_path)
        for i in range(3):
            store.put((f"k{i}",), {"v": np.zeros(8)}, codec="ndarrays")
        assert store.prune(max_bytes=0)["entries"] == 3
        assert len(store) == 0

    def test_prune_rejects_negative_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            SolveStore(tmp_path).prune(max_entries=-1)

    def test_prune_missing_directory(self, tmp_path):
        summary = SolveStore(tmp_path / "never").prune(max_entries=1)
        assert summary == {"entries": 0, "orphans": 0, "temp_files": 0}
