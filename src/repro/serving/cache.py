"""LRU result cache for the serving layer.

Entries are keyed on ``(query, k, index_version)``.  The index version is a
monotonic counter bumped by every state write-back
(:attr:`repro.core.ReverseTopKIndex.version`), so a refinement persisted into
the index implicitly invalidates all earlier answers: lookups always use the
*current* version, so stale entries never match again.

Aging out alone is not enough under churn, though: every version bump
strands a full generation of unmatchable keys, and LRU aging only removes
them under *insertion* pressure — exactly what a cache-friendly hot working
set does not generate.  The stranded entries then pin their heavyweight
:class:`QueryResult` payloads (per-query ``n``-length proximity vectors)
indefinitely and inflate the cache's occupancy.  The service therefore calls
:meth:`ResultCache.purge_versions_below` right after each bump (a persisted
refinement, or a dynamic-graph update batch), dropping the dead generation
eagerly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import threading
from typing import Dict, Hashable, Optional, Tuple

from .._validation import check_non_negative_int
from ..core.query import QueryResult

#: Cache key: (query node, depth k, index version at lookup time).
CacheKey = Tuple[int, int, int]


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's counters.

    Attributes
    ----------
    hits / misses:
        Lookup outcomes since construction (or the last :meth:`ResultCache.clear`).
    insertions:
        Number of entries ever stored.
    evictions:
        Entries displaced by the LRU policy (capacity pressure only).
    purged:
        Dead-generation entries dropped by
        :meth:`ResultCache.purge_versions_below` after index version bumps.
    size / capacity:
        Current and maximum entry counts.
    """

    hits: int
    misses: int
    insertions: int
    evictions: int
    size: int
    capacity: int
    purged: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when no lookups yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Counter snapshot suitable for JSON metrics output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "purged": self.purged,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Thread-safe LRU cache mapping :data:`CacheKey` to :class:`QueryResult`.

    A capacity of ``0`` disables caching entirely (every lookup misses, puts
    are dropped), which lets the service expose a single code path.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = check_non_negative_int(capacity, "capacity")
        self._entries: "OrderedDict[Hashable, QueryResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._purged = 0
        self._obs: Optional[Dict[str, object]] = None

    def bind_registry(self, registry) -> None:
        """Mirror the cache counters into a metrics registry.

        The instance counters remain authoritative (and instance-local);
        the registry children are an additive mirror labeled by outcome so
        hit rates show up in the shared exposition.
        """
        lookups = registry.counter(
            "repro_cache_lookups_total",
            "Result-cache lookups by outcome",
            labels=("outcome",),
        )
        events = registry.counter(
            "repro_cache_events_total",
            "Result-cache mutations by kind",
            labels=("kind",),
        )
        self._obs = {
            "hit": lookups.labels(outcome="hit"),
            "miss": lookups.labels(outcome="miss"),
            "insert": events.labels(kind="insert"),
            "evict": events.labels(kind="evict"),
            "purge": events.labels(kind="purge"),
            "size": registry.gauge(
                "repro_cache_size", "Entries currently held by the result cache"
            ),
        }

    def get(self, key: CacheKey, *, count_miss: bool = True) -> Optional[QueryResult]:
        """Return the cached result for ``key`` (marking it most-recent), or None.

        ``count_miss=False`` leaves a miss uncounted, for a caller whose miss
        goes on to a lookup that counts it (a hit is always counted).
        """
        obs = self._obs
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                if count_miss:
                    self._misses += 1
                    if obs is not None:
                        obs["miss"].inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            if obs is not None:
                obs["hit"].inc()
            return result

    def put(self, key: CacheKey, result: QueryResult) -> None:
        """Store ``result`` under ``key``, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        obs = self._obs
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = result
                return
            self._entries[key] = result
            self._insertions += 1
            if obs is not None:
                obs["insert"].inc()
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                if obs is not None:
                    obs["evict"].inc()
            if obs is not None:
                obs["size"].set(len(self._entries))

    def purge_versions_below(self, version: int) -> int:
        """Eagerly drop entries keyed under an index version older than ``version``.

        Version-keyed entries can never match again once the index moves
        past them, but LRU aging only drops them under insertion pressure —
        which a hot working set served from cache never generates — so each
        update bump would otherwise pin one full generation of heavyweight
        results indefinitely.  The serving layer calls this on its
        post-update version bump; returns the number of entries dropped.

        Only keys following the :data:`CacheKey` layout (version in the
        third slot) are considered; foreign keys are left untouched.
        """
        with self._lock:
            dead = [
                key
                for key in self._entries
                if isinstance(key, tuple)
                and len(key) >= 3
                and isinstance(key[2], int)
                and key[2] < version
            ]
            for key in dead:
                del self._entries[key]
            self._purged += len(dead)
            if self._obs is not None and dead:
                self._obs["purge"].inc(len(dead))
                self._obs["size"].set(len(self._entries))
            return len(dead)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._insertions = 0
            self._evictions = self._purged = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                purged=self._purged,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ResultCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )
