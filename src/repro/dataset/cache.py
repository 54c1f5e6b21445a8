"""Byte-budgeted partition cache with pluggable eviction policies.

Three policies matter to the paper's experiments (Section 5.4):

- :class:`LRUPolicy` — plain least-recently-used, the Spark default.
- :class:`AdmissionControlledLRUPolicy` — LRU plus Spark's implicit admission
  control: an object larger than a fixed fraction of the budget is never
  admitted.  The paper observes this causes LRU to *worsen* with more memory
  on the Amazon pipeline.
- :class:`PinnedPolicy` — the KeystoneML strategy: only a pre-selected cache
  set (chosen by the greedy materialization algorithm) is admitted, and
  pinned entries are never evicted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional


@dataclass
class CacheEntry:
    key: Hashable
    value: list
    size: int


class CachePolicy:
    """Decides admission and eviction for a :class:`CacheManager`."""

    def admits(self, key: Hashable, size: int, manager: "CacheManager") -> bool:
        raise NotImplementedError

    def victim(self, manager: "CacheManager") -> Optional[Hashable]:
        """Return the key to evict next, or ``None`` if nothing is evictable."""
        raise NotImplementedError

    def touched(self, key: Hashable, manager: "CacheManager") -> None:
        """Called on every cache hit; policies may update recency state."""


class LRUPolicy(CachePolicy):
    """Classic LRU: admit anything that can possibly fit, evict oldest."""

    def admits(self, key, size, manager):
        return size <= manager.budget

    def victim(self, manager):
        for key in manager.entries:
            return key
        return None

    def touched(self, key, manager):
        manager.entries.move_to_end(key)


class AdmissionControlledLRUPolicy(LRUPolicy):
    """LRU with Spark-style admission control.

    Objects larger than ``fraction`` of the total budget are refused, which
    reproduces Spark's behaviour of silently not caching huge blocks.
    """

    def __init__(self, fraction: float = 0.6):
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def admits(self, key, size, manager):
        return size <= manager.budget * self.fraction


class PinnedPolicy(CachePolicy):
    """Admit only keys in a fixed cache set; never evict them.

    This is how KeystoneML's executor realizes the cache set chosen by the
    greedy materialization optimizer.
    """

    def __init__(self, cache_set: set):
        self.cache_set = set(cache_set)

    def admits(self, key, size, manager):
        # Keys are (dataset_id, partition); pinning a dataset id pins all of
        # its partitions.
        pinned = key in self.cache_set or (
            isinstance(key, tuple) and key and key[0] in self.cache_set)
        return pinned and size <= manager.budget

    def victim(self, manager):
        return None


class CacheManager:
    """Holds materialized partitions subject to a byte budget.

    Keys are ``(dataset_id, partition_index)`` pairs; values are lists of
    rows.  Eviction happens at insert time until the new entry fits, per the
    configured policy.

    Thread-safe: :class:`~repro.serving.cache.ServingCache` shares one
    manager between client threads (pre-queue lookups) and micro-batch
    flush threads, and callers may pull partitions of shared datasets
    from a thread pool, so every compound operation (hit
    bookkeeping, the admit/evict/insert sequence) runs under one lock —
    without it, concurrent evictions race ``entries.pop`` and corrupt the
    ``used`` accounting.  Policy callbacks run under the lock and must not
    call back into the manager.
    """

    def __init__(self, budget_bytes: float = float("inf"),
                 policy: Optional[CachePolicy] = None):
        self.budget = budget_bytes
        self.policy = policy or LRUPolicy()
        self.entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self.used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0
        self._lock = threading.RLock()

    def get(self, key: Hashable) -> Optional[list]:
        with self._lock:
            entry = self.entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self.policy.touched(key, self)
            return entry.value

    def peek(self, key: Hashable) -> Optional[list]:
        """Like :meth:`get` but without hit/miss accounting.

        For re-checks after waiting on an in-flight compute, where the
        original lookup already counted the miss.
        """
        with self._lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.policy.touched(key, self)
            return entry.value

    def contains(self, key: Hashable) -> bool:
        with self._lock:
            return key in self.entries

    def put(self, key: Hashable, value: list, size: int) -> bool:
        """Insert ``value``; returns True if the entry was admitted."""
        with self._lock:
            if key in self.entries:
                return True
            if not self.policy.admits(key, size, self):
                self.rejections += 1
                return False
            while self.used + size > self.budget:
                victim = self.policy.victim(self)
                if victim is None:
                    self.rejections += 1
                    return False
                self._evict(victim)
            self.entries[key] = CacheEntry(key, value, size)
            self.used += size
            return True

    def _evict(self, key: Hashable) -> None:
        entry = self.entries.pop(key)
        self.used -= entry.size
        self.evictions += 1

    def invalidate(self, predicate) -> None:
        """Drop all entries whose key matches ``predicate``."""
        with self._lock:
            for key in [k for k in self.entries if predicate(k)]:
                entry = self.entries.pop(key)
                self.used -= entry.size

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.used = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.entries)
