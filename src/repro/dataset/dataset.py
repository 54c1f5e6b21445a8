"""Lazy, partitioned, lineage-tracked dataset — the Spark-RDD substitute.

A :class:`Dataset` never holds data directly (unless it is a source): it
records how each partition is computed from its parents.  Actions
(``collect``, ``count``, ``reduce`` ...) trigger partition computation, which
consults the context's :class:`~repro.dataset.cache.CacheManager` when the
dataset is marked cached.  Every partition computation is recorded in
:class:`~repro.dataset.context.ExecutionStats`, so recomputation caused by
cache misses is directly observable — this is the mechanism behind the
automatic-materialization experiments (paper Section 5.4).
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Iterable, List, Tuple

import numpy as np

from repro.dataset.context import Context
from repro.dataset.sizing import estimate_partition_size


def tree_combine(partials: List[Any], comb: Callable[[Any, Any], Any]) -> Any:
    """Pairwise binary combining tree over ``partials`` (non-empty).

    The single definition of the tree shape used by
    :meth:`Dataset.tree_aggregate` *and* by estimators that merge
    per-partition sufficient statistics computed elsewhere (the actor
    backend's stat-merge path) — both must reduce in exactly the same
    order for results to stay byte-identical.
    """
    if not partials:
        raise ValueError("tree_combine requires at least one partial")
    level = list(partials)
    while len(level) > 1:
        nxt = []
        for j in range(0, len(level), 2):
            if j + 1 < len(level):
                nxt.append(comb(level[j], level[j + 1]))
            else:
                nxt.append(level[j])
        level = nxt
    return level[0]


class _StoredPartitions:
    """Compute function over pre-materialized partitions.

    Used by unpickled datasets and by backends that register partitions
    computed elsewhere (worker processes) — both hand over exclusively
    owned row lists, so only the outer list is copied here.  Each pull
    returns a shallow copy, matching ``from_items`` — consumers may
    mutate the returned row lists.
    """

    def __init__(self, partitions: List[List[Any]]):
        self.partitions = list(partitions)

    def __call__(self, i: int) -> List[Any]:
        return list(self.partitions[i])


class Dataset:
    """A lazy partitioned collection with deterministic recompute semantics.

    Instances are created via :meth:`Context.parallelize` or by transforming
    existing datasets.  Transformations (``map``, ``filter``, ...) are lazy;
    actions (``collect``, ``count``, ...) force computation partition by
    partition.
    """

    def __init__(self, ctx: Context, num_partitions: int,
                 compute: Callable[[int], List[Any]],
                 parents: Tuple["Dataset", ...] = (),
                 name: str = ""):
        self.ctx = ctx
        self.id = ctx.next_dataset_id()
        self.num_partitions = num_partitions
        self._compute = compute
        self.parents = parents
        self.name = name or f"dataset-{self.id}"
        self.should_cache = False
        # Per-partition in-flight guards for cached datasets: threads
        # racing the same cold partition wait for one compute instead of
        # duplicating the whole upstream flow (dict.setdefault is atomic).
        self._inflight: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_items(cls, ctx: Context, items: List[Any],
                   num_partitions: int) -> "Dataset":
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        n = len(items)
        bounds = [round(i * n / num_partitions) for i in range(num_partitions + 1)]
        slices = [items[bounds[i]:bounds[i + 1]] for i in range(num_partitions)]

        def compute(i: int) -> List[Any]:
            return list(slices[i])

        return cls(ctx, num_partitions, compute, name="source")

    # ------------------------------------------------------------------
    # Partition resolution (cache-aware)
    # ------------------------------------------------------------------
    def partition(self, i: int) -> List[Any]:
        """Materialize partition ``i``, consulting the cache if enabled."""
        if not 0 <= i < self.num_partitions:
            raise IndexError(f"partition {i} out of range [0, {self.num_partitions})")
        if not self.should_cache:
            rows = self._compute(i)
            self.ctx.stats.record_compute(self.id, len(rows))
            return rows
        key = (self.id, i)
        hit = self.ctx.cache.get(key)
        if hit is not None:
            return hit
        # Cold partition: compute under a per-partition lock so concurrent
        # pulls (a thread pool over partition()) do the work once.
        # Lineage is a DAG of distinct datasets, so a compute never
        # re-enters its own (dataset, partition) lock.
        with self._inflight.setdefault(i, threading.Lock()):
            # peek, not get: the miss was already counted above.
            hit = self.ctx.cache.peek(key)
            if hit is not None:
                return hit
            rows = self._compute(i)
            self.ctx.stats.record_compute(self.id, len(rows))
            self.ctx.cache.put(key, rows, estimate_partition_size(rows))
            return rows

    def holds_partition(self, i: int) -> bool:
        """Whether :meth:`partition` would return already-held row objects
        for ``i``: a source (parent-less) dataset always holds its rows, a
        cached dataset holds them while the partition is resident."""
        if not self.parents:
            return True
        return self.should_cache and self.ctx.cache.contains((self.id, i))

    def _iter_partitions(self) -> Iterable[List[Any]]:
        for i in range(self.num_partitions):
            yield self.partition(i)

    def iter_partitions(self) -> Iterable[List[Any]]:
        """Yield every partition's row list, in partition order."""
        return self._iter_partitions()

    # ------------------------------------------------------------------
    # Pickling (materialize-on-serialize)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle as materialized partitions.

        Lineage (``_compute`` closures, parents, the owning context) is
        process-local and unpicklable by design; a dataset crossing a
        pickle boundary is frozen into its partition contents instead.
        Executing a plan against an unpickled source re-roots it into the
        execution context exactly like any other foreign dataset.
        """
        return {
            "name": self.name,
            "num_partitions": self.num_partitions,
            "partitions": [self.partition(i)
                           for i in range(self.num_partitions)],
            "should_cache": self.should_cache,
        }

    def __setstate__(self, state):
        ctx = Context()
        self.ctx = ctx
        self.id = ctx.next_dataset_id()
        self.num_partitions = state["num_partitions"]
        self._compute = _StoredPartitions(state["partitions"])
        self.parents = ()
        self.name = state["name"]
        self.should_cache = state["should_cache"]
        self._inflight = {}

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------
    def map(self, f: Callable[[Any], Any], name: str = "") -> "Dataset":
        def compute(i: int) -> List[Any]:
            return [f(x) for x in self.partition(i)]

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       name or f"map({self.name})")

    def flat_map(self, f: Callable[[Any], Iterable[Any]], name: str = "") -> "Dataset":
        def compute(i: int) -> List[Any]:
            out: List[Any] = []
            for x in self.partition(i):
                out.extend(f(x))
            return out

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       name or f"flat_map({self.name})")

    def filter(self, pred: Callable[[Any], bool], name: str = "") -> "Dataset":
        def compute(i: int) -> List[Any]:
            return [x for x in self.partition(i) if pred(x)]

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       name or f"filter({self.name})")

    def map_partitions(self, f: Callable[[List[Any]], List[Any]],
                       name: str = "") -> "Dataset":
        def compute(i: int) -> List[Any]:
            return list(f(self.partition(i)))

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       name or f"map_partitions({self.name})")

    def zip(self, other: "Dataset", name: str = "") -> "Dataset":
        """Pairwise zip; both datasets must have identical partitioning."""
        if other.num_partitions != self.num_partitions:
            raise ValueError(
                "zip requires equal partition counts: "
                f"{self.num_partitions} != {other.num_partitions}")

        def compute(i: int) -> List[Any]:
            left, right = self.partition(i), other.partition(i)
            if len(left) != len(right):
                raise ValueError(
                    f"zip partition {i} length mismatch: {len(left)} != {len(right)}")
            return list(zip(left, right))

        return Dataset(self.ctx, self.num_partitions, compute, (self, other),
                       name or f"zip({self.name},{other.name})")

    def zip_with_index(self) -> "Dataset":
        offsets = [0]
        for i in range(self.num_partitions):
            offsets.append(offsets[-1] + len(self.partition(i)))

        def compute(i: int) -> List[Any]:
            base = offsets[i]
            return [(x, base + j) for j, x in enumerate(self.partition(i))]

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       f"zip_with_index({self.name})")

    def union(self, other: "Dataset") -> "Dataset":
        total = self.num_partitions + other.num_partitions

        def compute(i: int) -> List[Any]:
            if i < self.num_partitions:
                return self.partition(i)
            return other.partition(i - self.num_partitions)

        return Dataset(self.ctx, total, compute, (self, other),
                       f"union({self.name},{other.name})")

    def sample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Deterministic Bernoulli sample of roughly ``fraction`` of rows."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def compute(i: int) -> List[Any]:
            rng = random.Random(seed * 1_000_003 + i)
            return [x for x in self.partition(i) if rng.random() < fraction]

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       f"sample({self.name})")

    def glom(self) -> "Dataset":
        """One element per partition: the list of that partition's rows."""
        def compute(i: int) -> List[Any]:
            return [self.partition(i)]

        return Dataset(self.ctx, self.num_partitions, compute, (self,),
                       f"glom({self.name})")

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------
    def cache(self) -> "Dataset":
        self.should_cache = True
        return self

    def unpersist(self) -> "Dataset":
        self.should_cache = False
        self.ctx.cache.invalidate(lambda key: key[0] == self.id)
        return self

    # ------------------------------------------------------------------
    # Actions (eager)
    # ------------------------------------------------------------------
    def collect(self) -> List[Any]:
        out: List[Any] = []
        for part in self._iter_partitions():
            out.extend(part)
        return out

    def count(self) -> int:
        return sum(len(part) for part in self._iter_partitions())

    def take(self, n: int) -> List[Any]:
        out: List[Any] = []
        for part in self._iter_partitions():
            out.extend(part[:n - len(out)])
            if len(out) >= n:
                break
        return out

    def first(self) -> Any:
        got = self.take(1)
        if not got:
            raise ValueError(f"dataset {self.name} is empty")
        return got[0]

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        acc = None
        seen = False
        for part in self._iter_partitions():
            for x in part:
                acc = x if not seen else f(acc, x)
                seen = True
        if not seen:
            raise ValueError(f"reduce on empty dataset {self.name}")
        return acc

    def aggregate(self, zero: Any, seq: Callable[[Any, Any], Any],
                  comb: Callable[[Any, Any], Any]) -> Any:
        """Per-partition fold + combine.

        ``zero`` is deep-copied per partition, so mutable accumulators
        (Counters, lists, arrays) are safe with in-place ``seq``/``comb``.
        """
        import copy

        partials = []
        for part in self._iter_partitions():
            acc = copy.deepcopy(zero)
            for x in part:
                acc = seq(acc, x)
            partials.append(acc)
        result = copy.deepcopy(zero)
        for p in partials:
            result = comb(result, p)
        return result

    def tree_aggregate(self, zero: Any, seq: Callable[[Any, Any], Any],
                       comb: Callable[[Any, Any], Any], depth: int = 2) -> Any:
        """Aggregation with a combining tree (models Spark's treeAggregate).

        Functionally identical to :meth:`aggregate`; the tree shape matters
        only for the communication cost models, but we keep the reduction
        order consistent with a binary combine tree for determinism.
        ``zero`` is deep-copied per partition (mutable accumulators are
        safe).
        """
        import copy

        partials = []
        for part in self._iter_partitions():
            acc = copy.deepcopy(zero)
            for x in part:
                acc = seq(acc, x)
            partials.append(acc)
        if not partials:
            return copy.deepcopy(zero)
        return comb(copy.deepcopy(zero), tree_combine(partials, comb))

    # ------------------------------------------------------------------
    # Numeric helpers
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Stack rows into a 2-D array (1-D rows) or 1-D array (scalars)."""
        rows = self.collect()
        return np.asarray(rows)

    def estimated_size_bytes(self, sample_partitions: int = 1) -> int:
        """Estimate total materialized size by measuring a few partitions."""
        k = min(sample_partitions, self.num_partitions)
        measured = sum(estimate_partition_size(self.partition(i)) for i in range(k))
        return int(measured * self.num_partitions / k)

    def __repr__(self) -> str:
        return (f"Dataset(id={self.id}, name={self.name!r}, "
                f"partitions={self.num_partitions}, cached={self.should_cache})")
