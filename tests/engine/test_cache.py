"""Unit tests for the content-keyed solve cache."""

import numpy as np
import pytest

from repro.engine.cache import SolveCache, market_fingerprint
from repro.engine.grid_engine import cap_row_task
from repro.providers import AccessISP, Market, exponential_cp


def _market(price=1.0, alpha=2.0):
    return Market(
        [exponential_cp(alpha, 3.0, value=1.0)],
        AccessISP(price=price, capacity=1.0),
    )


class TestMarketFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert market_fingerprint(_market()) == market_fingerprint(_market())

    def test_price_changes_fingerprint(self):
        assert market_fingerprint(_market(price=1.0)) != market_fingerprint(
            _market(price=1.5)
        )

    def test_provider_changes_fingerprint(self):
        assert market_fingerprint(_market(alpha=2.0)) != market_fingerprint(
            _market(alpha=5.0)
        )


def _row_key(market, prices, cap, *, warm_start=True):
    return cap_row_task(market, prices, cap, warm_start=warm_start).key


class TestCapRowKey:
    def test_content_keyed_not_identity_keyed(self):
        prices = np.linspace(0.1, 1.0, 5)
        a = _row_key(_market(), prices, 1.0)
        b = _row_key(_market(), prices.copy(), 1.0)
        assert a == b

    def test_axes_and_options_distinguish(self):
        prices = np.linspace(0.1, 1.0, 5)
        base = _row_key(_market(), prices, 1.0)
        assert base != _row_key(_market(), prices[:-1], 1.0)
        assert base != _row_key(_market(), prices, 0.0)
        assert base != _row_key(_market(), prices, 1.0, warm_start=False)
        assert base != _row_key(_market(alpha=5.0), prices, 1.0)


class TestSolveCache:
    def test_round_trip_and_counters(self):
        cache = SolveCache()
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_is_oldest_first(self):
        cache = SolveCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_clear(self):
        cache = SolveCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            SolveCache(maxsize=0)
