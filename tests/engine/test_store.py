"""Unit tests for the persistent content-addressed solve store."""

import json

import numpy as np
import pytest

from repro.engine.grid_engine import solve_cap_row
from repro.engine.store import CODECS, SolveStore, key_digest
from repro.providers import AccessISP, Market, exponential_cp


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


def rewrite_entry(path, edit):
    """Rewrite an entry file in place after ``edit`` mutates its members."""
    with np.load(path) as payload:
        members = {name: payload[name] for name in payload.files}
    edit(members)
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def set_manifest_bytes(raw):
    def edit(members):
        members["__manifest__"] = np.frombuffer(raw, dtype=np.uint8)

    return edit


def edit_manifest(**changes):
    def edit(members):
        manifest = json.loads(members["__manifest__"].tobytes())
        set_manifest_bytes(json.dumps({**manifest, **changes}).encode())(
            members
        )

    return edit


def drop_member(name):
    return lambda members: members.pop(name)


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

    def test_json_round_trip_exact_floats(self, tmp_path):
        store = SolveStore(tmp_path)
        value = {"price": 0.1 + 0.2, "after": [[0, 1], [2], []]}
        store.put(("j",), value, codec="json")
        loaded = store.get(("j",))
        assert loaded["price"] == value["price"]  # repr round-trip is exact
        assert loaded["after"] == value["after"]

    def test_missing_key_misses(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.get(("absent",)) is None
        assert store.misses == 1

    def test_overwrite_replaces(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": [1]}, codec="json")
        store.put(("k",), {"v": [2]}, codec="json")
        assert store.get(("k",))["v"] == [2]
        assert len(store) == 1


class TestCorruptionTolerance:
    """Bad entry -> miss, never crash; recompute-and-put repairs."""

    def test_truncated_npz_is_a_miss_then_repairable(self, tmp_path):
        store = SolveStore(tmp_path)
        row = solved_row()
        key = ("row", 1)
        store.put(key, row, codec="grid-row")
        npz = sole_entry(tmp_path)
        npz.write_bytes(npz.read_bytes()[:20])
        assert store.get(key) is None
        assert store.misses == 1
        # The caller recomputes and overwrites; the entry works again.
        assert store.put(key, row, codec="grid-row")
        assert_rows_bitwise_equal(row, store.get(key))

    def test_garbage_manifest_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_entry(sole_entry(tmp_path), set_manifest_bytes(b"{not json"))
        assert store.get(("k",)) is None

    def test_missing_manifest_member_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_entry(sole_entry(tmp_path), drop_member("__manifest__"))
        assert store.get(("k",)) is None

    def test_manifest_without_arrays_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_entry(sole_entry(tmp_path), drop_member("subsidies"))
        assert store.get(("k",)) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": 1}, codec="json")
        rewrite_entry(sole_entry(tmp_path), edit_manifest(version=999))
        assert store.get(("k",)) is None

    def test_unknown_codec_in_manifest_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": 1}, codec="json")
        rewrite_entry(sole_entry(tmp_path), edit_manifest(codec="no-codec"))
        assert store.get(("k",)) is None

    def test_pickled_member_is_a_miss(self, tmp_path):
        # Entries load with allow_pickle off: an object array is refused.
        store = SolveStore(tmp_path)
        store.put(("k",), {"x": np.arange(3.0)}, codec="ndarrays")

        def pickled(members):
            members["v.x"] = np.array([object()], dtype=object)

        rewrite_entry(sole_entry(tmp_path), pickled)
        assert store.get(("k",)) is None

    def test_unwritable_root_degrades_to_no_store(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        store = SolveStore(blocker / "sub")
        assert store.put(("k",), {"v": 1}, codec="json") is False
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
        store.put(("a",), {"v": 1}, codec="json")
        store.put(("b",), solved_row(), codec="grid-row")
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(("a",)) is None

    def test_clear_on_missing_directory(self, tmp_path):
        assert SolveStore(tmp_path / "never-created").clear() == 0

    def test_stats_shape(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": 1}, codec="json")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["path"] == str(tmp_path)
        assert {"hits", "misses", "writes", "write_errors"} <= set(stats)

    def test_stats_carries_no_flat_layout_key(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": 1}, codec="json")
        assert set(store.stats()) == {
            "path", "entries", "shards", "bytes", *store.counters(),
        }

    def test_counters_do_not_walk_the_store(self, tmp_path, monkeypatch):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": 1}, codec="json")
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
        store.put(("a",), {"v": 1}, codec="json")
        shard = sole_entry(tmp_path).parent
        (shard / "tmpwriter.tmp").write_bytes(b"half written")
        (shard / ("e" * 64 + ".json")).write_text("{}")
        (tmp_path / ("d" * 64 + ".npz")).write_bytes(b"flat leftover")
        assert len(store) == 1
        assert store.stats()["entries"] == 1

    def test_clear_leaves_foreign_files_alone(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": 1}, codec="json")
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
        assert set(CODECS) == {"grid-row", "ndarrays", "json"}


class TestShardedLayout:
    def test_entries_land_in_first_byte_shards(self, tmp_path):
        store = SolveStore(tmp_path)
        key = ("sharded", 1)
        store.put(key, {"v": 1}, codec="json")
        digest = key_digest(key)
        assert (tmp_path / digest[:2] / f"{digest}.npz").is_file()
        assert not (tmp_path / f"{digest}.npz").exists()

    def test_put_leaves_one_file_in_its_shard(self, tmp_path):
        store = SolveStore(tmp_path)
        key = ("one-file", 1)
        assert store.put(key, solved_row(), codec="grid-row")
        digest = key_digest(key)
        shard = tmp_path / digest[:2]
        assert [p.name for p in shard.iterdir()] == [f"{digest}.npz"]
        assert store.put(key, solved_row(), codec="grid-row")  # overwrite
        assert [p.name for p in shard.iterdir()] == [f"{digest}.npz"]

    def test_corrupt_sharded_entry_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        key = ("corrupt-shard", 1)
        store.put(key, solved_row(), codec="grid-row")
        digest = key_digest(key)
        npz = tmp_path / digest[:2] / f"{digest}.npz"
        npz.write_bytes(npz.read_bytes()[:16])
        assert store.get(key) is None
        # Recompute-and-put repairs in place.
        assert store.put(key, solved_row(), codec="grid-row")
        assert store.get(key) is not None


class TestEntryFormat:
    def test_manifest_member_names_codec_version_and_arrays(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"x": np.arange(3.0), "y": np.ones(2)}, codec="ndarrays")
        with np.load(sole_entry(tmp_path), allow_pickle=False) as payload:
            members = set(payload.files)
            raw = payload["__manifest__"]
            manifest = json.loads(raw.tobytes())
        assert raw.dtype == np.uint8
        assert manifest == {
            "version": 2,
            "codec": "ndarrays",
            "meta": {"names": ["x", "y"]},
            "arrays": ["v.x", "v.y"],
        }
        assert members == {"__manifest__", "v.x", "v.y"}

    def test_grid_row_entry_holds_no_object_arrays(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("row",), solved_row(), codec="grid-row")
        with np.load(sole_entry(tmp_path), allow_pickle=False) as payload:
            dtypes = {name: payload[name].dtype for name in payload.files}
        assert all(dtype != object for dtype in dtypes.values())
        assert dtypes["iterations"] == np.int64

    def test_json_codec_entry_is_one_file_holding_only_the_manifest(
        self, tmp_path
    ):
        store = SolveStore(tmp_path)
        store.put(("j",), {"after": [1, 2.5]}, codec="json")
        entry = sole_entry(tmp_path)
        assert entry.suffix == ".npz"
        with np.load(entry, allow_pickle=False) as payload:
            assert payload.files == ["__manifest__"]
        assert store.get(("j",)) == {"after": [1, 2.5]}

    def test_failed_commit_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import os as _os

        store = SolveStore(tmp_path)

        def failing_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(_os, "replace", failing_replace)
        assert store.put(("k",), {"v": 1}, codec="json") is False
        assert store.write_errors == 1 and store.writes == 0
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        monkeypatch.undo()
        assert store.put(("k",), {"v": 1}, codec="json")
        assert store.get(("k",)) == {"v": 1}


class TestOldFormat:
    """Stores of the older two-file format miss, heal and clear."""

    KEYS = [(("old", i), {"v": [i, 0.1 + i]}, "json") for i in range(2)] + [
        (("old-row", i), None, "grid-row") for i in range(2)
    ]

    def _populate(self, root):
        for i, (key, value, codec) in enumerate(self.KEYS):
            value = solved_row() if value is None else value
            old_format_put(root, key, value, codec=codec, flat=i % 2 == 1)

    def test_reads_as_misses_recompute_overwrites_and_clear_empties(
        self, tmp_path
    ):
        self._populate(tmp_path)
        store = SolveStore(tmp_path)
        for key, _, _ in self.KEYS:
            assert store.get(key) is None
        assert store.misses == len(self.KEYS) and store.hits == 0
        for key, value, codec in self.KEYS:
            value = solved_row() if value is None else value
            assert store.put(key, value, codec=codec)
        assert store.get(("old", 1))["v"] == [1, 1.1]
        assert_rows_bitwise_equal(solved_row(), store.get(("old-row", 0)))
        assert len(store) == store.stats()["entries"] == len(self.KEYS)
        assert store.clear() == len(self.KEYS)
        assert [p.name for p in tmp_path.rglob("*")] == [".lock"]

    def test_prune_sweeps_the_leftovers(self, tmp_path):
        self._populate(tmp_path)
        leftovers = len(list(tmp_path.rglob("*.json"))) + len(
            list(tmp_path.glob("*.npz"))
        )
        store = SolveStore(tmp_path)
        summary = store.prune()
        assert summary == {"entries": 0, "orphans": leftovers, "temp_files": 0}
        assert not list(tmp_path.rglob("*.json"))
        assert not list(tmp_path.glob("*.npz"))


class TestPrune:
    def test_prune_removes_orphans_and_temps(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("keep",), solved_row(), codec="grid-row")
        digest = key_digest(("keep",))
        shard = tmp_path / digest[:2]
        # An orphan: a manifest left over from the older two-file format.
        (shard / ("f" * 64 + ".json")).write_text("{}")
        (shard / "tmpabc123.tmp").write_bytes(b"scratch")
        summary = store.prune()
        assert summary == {"entries": 0, "orphans": 1, "temp_files": 1}
        assert store.get(("keep",)) is not None

    def test_root_level_digest_npz_is_an_orphan(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("keep",), {"v": 1}, codec="json")
        flat = tmp_path / ("c" * 64 + ".npz")
        flat.write_bytes(b"older flat layout")
        assert store.prune() == {"entries": 0, "orphans": 1, "temp_files": 0}
        assert not flat.exists()
        assert store.get(("keep",)) == {"v": 1}

    def test_prune_max_entries_evicts_oldest(self, tmp_path):
        import os as _os

        store = SolveStore(tmp_path)
        for i in range(4):
            key = (f"k{i}",)
            store.put(key, {"v": i}, codec="json")
            entry = tmp_path / key_digest(key)[:2] / (
                key_digest(key) + ".npz"
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
            store.put((f"k{i}",), {"v": "x" * 64}, codec="json")
        assert store.prune(max_bytes=0)["entries"] == 3
        assert len(store) == 0

    def test_prune_rejects_negative_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            SolveStore(tmp_path).prune(max_entries=-1)

    def test_prune_missing_directory(self, tmp_path):
        summary = SolveStore(tmp_path / "never").prune(max_entries=1)
        assert summary == {"entries": 0, "orphans": 0, "temp_files": 0}
