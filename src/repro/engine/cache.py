"""Content keys and the in-memory tier of the solve service.

Solve tasks are keyed by the *content* of the request — a fingerprint of
the market's economic primitives plus the exact axes and solve options —
rather than by object identity. Two `Market` instances built from equal
parameters hit the same entry; any change to a provider, the ISP, the axes
or the options misses. :class:`SolveCache` is the bounded memory tier
that :class:`~repro.engine.service.SolveService` keeps those results in.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Any, Hashable

from repro.exceptions import ModelError
from repro.providers.market import Market

__all__ = ["market_fingerprint", "SolveCache"]


#: Fingerprints memoized per Market instance — markets are immutable in
#: practice (every mutation-style API returns a new object), and a grid
#: solve fingerprints the same market once per cap row, so recomputing
#: the canonical serialization each time would tax the warm-replay fast
#: path.
_FINGERPRINTS: "weakref.WeakKeyDictionary[Market, str]" = (
    weakref.WeakKeyDictionary()
)


def market_fingerprint(market: Market) -> str:
    """Deterministic digest of a market's economic content.

    Markets built from the registered functional families digest their
    *canonical serialization* (:func:`repro.io.market_digest`), so the
    fingerprint is stable across dataclass-repr changes and shared with
    anything else that hashes the JSON payload. Markets containing custom
    (unserializable) function objects fall back to a digest of the
    dataclass reprs; give such objects a parameter-revealing ``__repr__``
    to be cache-distinguishable.
    """
    cached = _FINGERPRINTS.get(market)
    if cached is not None:
        return cached
    try:
        # Runtime import: repro.io sits above the engine layer (it imports
        # the scenario spec), so binding it at module load would cycle.
        from repro.io import market_digest

        fingerprint = market_digest(market)
    except (ImportError, ModelError):
        payload = "\n".join(
            [
                *(repr(cp) for cp in market.providers),
                repr(market.isp),
                type(market.isp.utilization).__name__,
            ]
        )
        fingerprint = hashlib.sha256(payload.encode()).hexdigest()
    _FINGERPRINTS[market] = fingerprint
    return fingerprint


class SolveCache:
    """A bounded, thread-safe, content-keyed store of solve results.

    Entries evict oldest-first once ``maxsize`` is exceeded; ``hits`` and
    ``misses`` counters make cache behavior observable in benchmarks.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        """The LRU bound (entries beyond it evict oldest-first)."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The cached value for ``key``, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` under ``key``, evicting oldest entries if full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (tests use this to start from cold solves)."""
        with self._lock:
            self._entries.clear()
