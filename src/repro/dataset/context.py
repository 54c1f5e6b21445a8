"""Execution context: cache manager + instrumentation for datasets."""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dataset.cache import CacheManager, CachePolicy


@dataclass
class ExecutionStats:
    """Counters the materialization experiments read back.

    ``compute_counts[dataset_id]`` is the number of partition computations
    performed for that dataset — recomputation of uncached intermediates
    shows up directly here, which is how Figure 10's comparisons are
    measured.  Updates are locked: callers pulling partitions from a
    thread pool record computes from several threads, and an unguarded
    read-modify-write would drop counts.
    """

    compute_counts: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    elements_computed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record_compute(self, dataset_id: int, num_elements: int) -> None:
        with self._lock:
            self.compute_counts[dataset_id] += 1
            self.elements_computed += num_elements

    def total_computations(self) -> int:
        return sum(self.compute_counts.values())

    def reset(self) -> None:
        with self._lock:
            self.compute_counts.clear()
            self.elements_computed = 0


class Context:
    """Owns the cache and stats shared by a family of datasets.

    Analogous to a SparkContext restricted to what the KeystoneML optimizer
    needs: a place to parallelize data, a cache with a byte budget, and
    execution counters.
    """

    def __init__(self, cache_budget_bytes: float = float("inf"),
                 policy: Optional[CachePolicy] = None,
                 default_partitions: int = 4):
        self.cache = CacheManager(cache_budget_bytes, policy)
        self.stats = ExecutionStats()
        self.default_partitions = default_partitions
        self._next_dataset_id = 0
        self._id_lock = threading.Lock()

    def next_dataset_id(self) -> int:
        # Locked: callers may derive datasets from several threads (fits
        # or apply_dataset calls sharing one Context), and duplicate ids
        # would alias (id, partition) cache keys.
        with self._id_lock:
            self._next_dataset_id += 1
            return self._next_dataset_id

    def parallelize(self, items, num_partitions: Optional[int] = None) -> "Dataset":
        """Create a source :class:`Dataset` from an in-memory sequence."""
        from repro.dataset.dataset import Dataset

        return Dataset.from_items(self, list(items),
                                  num_partitions or self.default_partitions)

    def set_policy(self, policy: CachePolicy,
                   budget_bytes: Optional[float] = None) -> None:
        """Swap the caching policy (and optionally the budget), keeping stats."""
        budget = budget_bytes if budget_bytes is not None else self.cache.budget
        self.cache = CacheManager(budget, policy)

    def reset_stats(self) -> None:
        self.stats.reset()
