"""Bounded LRU row caches for the stored-query engine.

Upper-layer index rows (``blocks``, ``inodes``) are tiny — ``O(n/f)``
rows for an ``n``-node tree — and immutable once a tree is stored, so a
small in-process cache turns the per-hop point ``SELECT``s of the
layered LCA algorithm into dictionary lookups on the warm path.
:class:`LRUCache` is deliberately minimal: a bounded mapping with
least-recently-used eviction and hit/miss/eviction counters that
:meth:`repro.storage.engine.StoredQueryEngine.cache_stats` aggregates
for the benchmarks.

Scan resistance
---------------
The index skeleton every layered-LCA walk climbs — every block row,
every upper-layer inode and the layer-0 inodes the walk reaches through
block references — does not live in these caches at all: it lives in
the tree's :class:`~repro.storage.engine.IndexSkeleton`, shared by
every handle of the store and never evicted.  A flood of inserts here —
a layer-0 full-tree scan, like a whole-tree node fetch — can only evict
other layer-0 rows, so the warm-path statement-count guarantee survives
adversarial scan loads without a second segment in each cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import StorageError


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache (or an aggregate over several).

    Attributes
    ----------
    hits / misses:
        Lookup outcomes since creation (or the last ``reset_stats``).
    evictions:
        Entries dropped to respect the size bound.
    size / maxsize:
        Current entries and the entry bound.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            maxsize=self.maxsize + other.maxsize,
        )

    def as_dict(self) -> dict[str, int | float]:
        """JSON-friendly rendering (used by the CLI and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; must be at least 1
        (:class:`~repro.errors.StorageError` otherwise, so callers can
        catch configuration mistakes as :class:`~repro.errors.CrimsonError`).

    Notes
    -----
    ``get`` counts a hit or a miss; ``put`` never counts a lookup, so
    pre-warming (batch fills) does not inflate the hit rate.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise StorageError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not count as a lookup or refresh recency."""
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch ``key``, refreshing its recency; counts a hit or miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the least recently used
        entry when the cache is full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
            data[key] = value
            return
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; see ``reset_stats``)."""
        self._data.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
