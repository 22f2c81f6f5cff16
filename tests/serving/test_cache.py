"""Tests for the version-keyed LRU result cache."""

import threading

import pytest

from repro.serving import ResultCache


def _key(query, k=10, version=0):
    return (query, k, version)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get(_key(1)) is None
        cache.put(_key(1), "r1")
        assert cache.get(_key(1)) == "r1"
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_uncounted_miss_still_counts_hits(self):
        cache = ResultCache(4)
        assert cache.get(_key(1), count_miss=False) is None
        cache.put(_key(1), "r1")
        assert cache.get(_key(1), count_miss=False) == "r1"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 0)

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put(_key(1), "r1")
        cache.put(_key(2), "r2")
        cache.get(_key(1))  # touch 1 so 2 becomes LRU
        cache.put(_key(3), "r3")
        assert cache.get(_key(2)) is None
        assert cache.get(_key(1)) == "r1"
        assert cache.get(_key(3)) == "r3"
        assert cache.stats().evictions == 1

    def test_put_existing_key_updates_value(self):
        cache = ResultCache(2)
        cache.put(_key(1), "old")
        cache.put(_key(1), "new")
        assert len(cache) == 1
        assert cache.get(_key(1)) == "new"

    def test_version_in_key_separates_entries(self):
        cache = ResultCache(4)
        cache.put(_key(1, version=0), "v0")
        assert cache.get(_key(1, version=1)) is None
        cache.put(_key(1, version=1), "v1")
        assert cache.get(_key(1, version=0)) == "v0"
        assert cache.get(_key(1, version=1)) == "v1"

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(0)
        cache.put(_key(1), "r1")
        assert cache.get(_key(1)) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_clear_resets_entries_and_counters(self):
        cache = ResultCache(4)
        cache.put(_key(1), "r1")
        cache.get(_key(1))
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.insertions) == (0, 0, 0)

    def test_contains(self):
        cache = ResultCache(4)
        cache.put(_key(9), "r")
        assert _key(9) in cache
        assert _key(8) not in cache

    def test_purge_versions_below_drops_only_dead_generations(self):
        cache = ResultCache(8)
        cache.put(_key(1, version=0), "old-a")
        cache.put(_key(2, version=0), "old-b")
        cache.put(_key(1, version=1), "live")
        cache.put("foreign-key", "kept")  # non-CacheKey entries are untouched
        dropped = cache.purge_versions_below(1)
        assert dropped == 2
        assert cache.get(_key(1, version=1)) == "live"
        assert cache.get("foreign-key") == "kept"
        assert cache.get(_key(1, version=0)) is None
        stats = cache.stats()
        assert stats.purged == 2
        assert stats.size == 2

    def test_purge_is_idempotent_and_counts_accumulate(self):
        cache = ResultCache(8)
        cache.put(_key(1, version=0), "old")
        assert cache.purge_versions_below(1) == 1
        assert cache.purge_versions_below(1) == 0
        cache.put(_key(1, version=1), "also-old-soon")
        assert cache.purge_versions_below(2) == 1
        assert cache.stats().purged == 2

    def test_stranded_generation_is_pinned_forever_without_purge(self):
        # Regression for the dead-generation leak: a version bump strands a
        # full generation of unmatchable keys.  LRU aging only removes them
        # under *insertion* pressure — a hot working set smaller than the
        # capacity never generates any, so without the purge hook the dead
        # entries (each pinning a heavyweight QueryResult) stay resident
        # indefinitely.
        capacity = 8
        leaky = ResultCache(capacity)
        purged = ResultCache(capacity)
        for cache in (leaky, purged):
            for query in range(capacity):
                cache.put(_key(query, version=0), f"v0-{query}")
        # The index moves to version 1: generation 0 is dead.
        purged.purge_versions_below(1)
        # Steady state: a small hot set, served mostly from cache — barely
        # any insertions, so LRU aging never fires.
        for _ in range(10):
            for cache in (leaky, purged):
                if cache.get(_key(0, version=1)) is None:
                    cache.put(_key(0, version=1), "live-0")
                if cache.get(_key(1, version=1)) is None:
                    cache.put(_key(1, version=1), "live-1")
        # The purged cache holds exactly the live working set; the leaky one
        # still pins six dead results that can never be matched again.
        assert purged.stats().size == 2
        assert leaky.stats().size == capacity
        dead_still_resident = sum(
            1 for query in range(capacity) if _key(query, version=0) in leaky
        )
        assert dead_still_resident == capacity - 2

    def test_concurrent_access_is_safe(self):
        cache = ResultCache(64)
        errors = []

        def worker(offset):
            try:
                for i in range(200):
                    key = _key((offset * 200 + i) % 100)
                    cache.put(key, i)
                    cache.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
