"""Properties of the solve store's raw entry format.

* The ``"ndarrays"`` codec round-trips every allowlisted dtype bit for
  bit — 0-d, empty and 2-D shapes, NaN payloads and ``-0.0`` included.
* A damaged entry is a miss, never an exception: the file cut at every
  possible length, and every byte of its prefix and JSON header flipped.
* Returned arrays are writable, and mutating one never reaches a later
  ``get``: each read views a buffer of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine.grid_engine import solve_cap_row
from repro.engine.store import DTYPES, SolveStore, key_digest
from repro.providers import AccessISP, Market, exponential_cp

SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)


@st.composite
def store_arrays(draw):
    """One array of an allowlisted dtype; floats drawn as raw bit patterns
    (so NaN payloads, infinities and ``-0.0`` all occur)."""
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    shape = draw(SHAPES)
    if dtype == "<f8":
        bits = draw(hnp.arrays(np.dtype("<i8"), shape))
        return bits.view("<f8")
    return draw(hnp.arrays(DTYPES[dtype], shape))


BUNDLES = st.dictionaries(
    st.text("abcxyz_", min_size=1, max_size=6), store_arrays(), max_size=5
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return SolveStore(tmp_path_factory.mktemp("store"))


def _entry_path(store, key):
    digest = key_digest(key)
    return store.path / digest[:2] / f"{digest}.bin"


@settings(max_examples=150, deadline=None)
@given(bundle=BUNDLES)
def test_ndarrays_round_trip_bit_for_bit(store, bundle):
    assert store.put(("prop", "round-trip"), bundle, codec="ndarrays")
    loaded = store.get(("prop", "round-trip"))
    assert set(loaded) == set(bundle)
    for name, array in bundle.items():
        assert loaded[name].dtype == array.dtype
        assert loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()


@settings(max_examples=60, deadline=None)
@given(bundle=BUNDLES)
def test_returned_arrays_are_writable_and_private(store, bundle):
    key = ("prop", "mutate")
    store.put(key, bundle, codec="ndarrays")
    first = store.get(key)
    for array in first.values():
        assert array.flags.writeable
        array[...] = np.ones((), dtype=array.dtype)
    again = store.get(key)
    for name, array in bundle.items():
        assert again[name].tobytes() == array.tobytes()


def _entries():
    """A grid-row entry and an ndarrays entry, as (key, value, codec)."""
    market = Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )
    row = solve_cap_row(market, np.linspace(0.2, 1.0, 2), 0.5, warm_start=True)
    bundle = {"x": np.arange(3.0), "flag": np.array([True]), "n": np.asarray(4)}
    return [
        (("prop", "row"), row, "grid-row"),
        (("prop", "nd"), bundle, "ndarrays"),
    ]


@pytest.mark.parametrize("key, value, codec", _entries(), ids=["grid-row", "ndarrays"])
def test_every_truncation_is_a_miss(store, key, value, codec):
    store.put(key, value, codec=codec)
    path = _entry_path(store, key)
    raw = path.read_bytes()
    assert store.get(key) is not None
    for length in range(len(raw)):
        path.write_bytes(raw[:length])
        assert store.get(key) is None, length


@pytest.mark.parametrize("key, value, codec", _entries(), ids=["grid-row", "ndarrays"])
def test_every_header_byte_flip_is_a_miss(store, key, value, codec):
    store.put(key, value, codec=codec)
    path = _entry_path(store, key)
    raw = path.read_bytes()
    # The 8-byte magic, the u64 header length, then the JSON header.
    data_start = 16 + int.from_bytes(raw[8:16], "little")
    for index in range(data_start):
        flipped = bytearray(raw)
        flipped[index] ^= 0xFF
        path.write_bytes(bytes(flipped))
        assert store.get(key) is None, index
