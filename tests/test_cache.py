"""Tests for the byte-budgeted cache manager and its policies."""

import pytest

from repro.dataset.cache import (
    AdmissionControlledLRUPolicy,
    CacheManager,
    LRUPolicy,
    PinnedPolicy,
)


class TestLRU:
    def test_put_get(self):
        cache = CacheManager(100, LRUPolicy())
        assert cache.put(("a", 0), [1], 10)
        assert cache.get(("a", 0)) == [1]
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = CacheManager(100, LRUPolicy())
        assert cache.get(("nope", 0)) is None
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = CacheManager(100, LRUPolicy())
        cache.put("a", [1], 40)
        cache.put("b", [2], 40)
        cache.get("a")  # touch a; b is now LRU
        cache.put("c", [3], 40)
        assert cache.contains("a")
        assert not cache.contains("b")
        assert cache.contains("c")
        assert cache.evictions == 1

    def test_used_accounting(self):
        cache = CacheManager(100, LRUPolicy())
        cache.put("a", [1], 30)
        cache.put("b", [2], 30)
        assert cache.used == 60
        cache.put("c", [3], 60)  # evicts "a" only; "b" + "c" fit
        assert cache.used == 90
        assert len(cache) == 2
        assert not cache.contains("a")

    def test_oversized_object_rejected(self):
        cache = CacheManager(100, LRUPolicy())
        assert not cache.put("big", [0], 200)
        assert cache.rejections == 1

    def test_duplicate_put_is_noop(self):
        cache = CacheManager(100, LRUPolicy())
        cache.put("a", [1], 10)
        assert cache.put("a", [999], 10)
        assert cache.get("a") == [1]
        assert cache.used == 10

    def test_invalidate_predicate(self):
        cache = CacheManager(100, LRUPolicy())
        cache.put(("ds1", 0), [1], 10)
        cache.put(("ds1", 1), [2], 10)
        cache.put(("ds2", 0), [3], 10)
        cache.invalidate(lambda k: k[0] == "ds1")
        assert not cache.contains(("ds1", 0))
        assert cache.contains(("ds2", 0))
        assert cache.used == 10

    def test_clear(self):
        cache = CacheManager(100, LRUPolicy())
        cache.put("a", [1], 10)
        cache.clear()
        assert len(cache) == 0
        assert cache.used == 0


class TestAdmissionControl:
    def test_refuses_objects_above_fraction(self):
        cache = CacheManager(100, AdmissionControlledLRUPolicy(0.5))
        assert not cache.put("big", [0], 60)
        assert cache.put("small", [0], 40)

    def test_admission_causes_lru_pathology(self):
        """Bigger budget can admit huge unused objects that evict reused
        small ones — the paper's Amazon LRU anomaly."""
        small_budget = CacheManager(100, AdmissionControlledLRUPolicy(0.6))
        # 80-byte object refused at budget 100 -> small objects survive.
        small_budget.put("reused", [1], 30)
        assert not small_budget.put("huge", [0], 80)
        assert small_budget.contains("reused")

        big_budget = CacheManager(200, AdmissionControlledLRUPolicy(0.6))
        big_budget.put("reused", [1], 30)
        big_budget.put("huge1", [0], 90)
        big_budget.put("huge2", [0], 90)  # evicts "reused"
        assert not big_budget.contains("reused")

    def test_invalid_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            AdmissionControlledLRUPolicy(0.0)


class TestPinned:
    def test_only_pinned_admitted(self):
        cache = CacheManager(100, PinnedPolicy({"keep"}))
        assert cache.put("keep", [1], 10)
        assert not cache.put("drop", [2], 10)

    def test_pinned_never_evicted(self):
        cache = CacheManager(50, PinnedPolicy({"a", "b"}))
        cache.put("a", [1], 40)
        assert not cache.put("b", [2], 40)  # no victim available
        assert cache.contains("a")

    def test_dataset_id_prefix_pinning(self):
        cache = CacheManager(100, PinnedPolicy({42}))
        assert cache.put((42, 0), [1], 10)
        assert cache.put((42, 1), [2], 10)
        assert not cache.put((43, 0), [3], 10)


class TestThreadSafety:
    def test_concurrent_put_get_keeps_accounting_consistent(self):
        """Regression: concurrent evictions raced entries.pop and drifted
        the used-bytes accounting (concurrent partition pulls)."""
        import threading

        from repro.dataset.cache import CacheManager, LRUPolicy

        manager = CacheManager(budget_bytes=10_000, policy=LRUPolicy())
        errors = []

        def hammer(tid):
            try:
                for i in range(300):
                    key = (tid % 3, i % 40)
                    if manager.get(key) is None:
                        manager.put(key, [i], 500)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert manager.used == sum(e.size for e in manager.entries.values())
        assert manager.used <= manager.budget
