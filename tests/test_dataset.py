"""Tests for the lazy partitioned Dataset substrate."""

import threading
import time

import pytest

from repro.dataset import Context, Dataset
from repro.dataset.cache import LRUPolicy, PinnedPolicy
from repro.dataset.dataset import _StoredPartitions, tree_combine


@pytest.fixture
def ctx():
    return Context(default_partitions=4)


class TestConstruction:
    def test_parallelize_roundtrip(self, ctx):
        items = list(range(17))
        assert ctx.parallelize(items).collect() == items

    def test_partition_count(self, ctx):
        ds = ctx.parallelize(range(10), 3)
        assert ds.num_partitions == 3
        assert sum(len(ds.partition(i)) for i in range(3)) == 10

    def test_empty_dataset(self, ctx):
        ds = ctx.parallelize([], 2)
        assert ds.collect() == []
        assert ds.count() == 0

    def test_more_partitions_than_items(self, ctx):
        ds = ctx.parallelize([1, 2], 5)
        assert ds.collect() == [1, 2]

    def test_invalid_partitions(self, ctx):
        with pytest.raises(ValueError, match="num_partitions"):
            Dataset.from_items(ctx, [1], 0)

    def test_partitions_are_balanced(self, ctx):
        ds = ctx.parallelize(range(23), 5)
        sizes = [len(ds.partition(i)) for i in range(5)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1


class TestTransformations:
    def test_map(self, ctx):
        ds = ctx.parallelize(range(10))
        assert ds.map(lambda x: x * 2).collect() == [x * 2 for x in range(10)]

    def test_map_is_lazy(self, ctx):
        calls = []
        ds = ctx.parallelize(range(4)).map(lambda x: calls.append(x) or x)
        assert calls == []
        ds.collect()
        assert sorted(calls) == list(range(4))

    def test_map_partitions(self, ctx):
        ds = ctx.parallelize(range(10), 2)
        out = ds.map_partitions(lambda rows: [sum(rows)])
        assert out.collect() == [sum(range(5)), sum(range(5, 10))]

    def test_zip(self, ctx):
        a = ctx.parallelize(range(6), 3)
        b = a.map(lambda x: x * 10)
        assert a.zip(b).collect() == [(x, x * 10) for x in range(6)]

    def test_zip_partition_mismatch(self, ctx):
        a = ctx.parallelize(range(6), 3)
        b = ctx.parallelize(range(6), 2)
        with pytest.raises(ValueError, match="partition counts"):
            a.zip(b)

    def test_zip_length_mismatch(self, ctx):
        a = ctx.parallelize(range(6), 2)
        b = a.map_partitions(lambda rows: rows[1:])
        with pytest.raises(ValueError, match="length mismatch"):
            a.zip(b).collect()


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(13), 5).count() == 13

    def test_take_spans_partitions(self, ctx):
        ds = ctx.parallelize(range(10), 5)
        assert ds.take(7) == list(range(7))

    def test_take_more_than_available(self, ctx):
        assert ctx.parallelize([1, 2]).take(10) == [1, 2]

    def test_take_zero(self, ctx):
        ds = ctx.parallelize(range(10), 5).map(lambda x: x)
        assert ds.take(0) == []
        assert ctx.stats.compute_counts[ds.id] == 1  # stops after one partition

    def test_first(self, ctx):
        assert ctx.parallelize([9, 8, 7]).first() == 9

    def test_first_empty_raises(self, ctx):
        with pytest.raises(ValueError, match="empty"):
            ctx.parallelize([]).first()

    def test_aggregate(self, ctx):
        ds = ctx.parallelize(range(10), 4)
        total = ds.aggregate(0, lambda acc, x: acc + x, lambda a, b: a + b)
        assert total == 45

    def test_aggregate_copies_a_mutable_zero(self, ctx):
        ds = ctx.parallelize(range(10), 4)
        zero = []
        out = ds.aggregate(zero, lambda acc, x: acc.append(x) or acc,
                           lambda a, b: a.extend(b) or a)
        assert out == list(range(10))
        assert zero == []

    def test_iter_partitions_yields_partition_order(self, ctx):
        ds = ctx.parallelize(range(10), 3).map(lambda x: -x)
        parts = list(ds.iter_partitions())
        assert parts == [ds.partition(i) for i in range(3)]
        assert [x for part in parts for x in part] == ds.collect()


class TestCachingSemantics:
    def test_recompute_counted_per_scan(self, ctx):
        ds = ctx.parallelize(range(10), 2).map(lambda x: x + 1)
        ds.collect()
        ds.collect()
        assert ctx.stats.compute_counts[ds.id] == 4  # 2 partitions x 2 scans

    def test_reading_a_parentless_dataset_is_no_computation(self, ctx):
        """Sources and stored rows only hand back what they hold: reading
        them, cached or not, records nothing; the map over them does."""
        source = ctx.parallelize(range(10), 2)
        stored = Dataset(ctx, 2, _StoredPartitions([[1, 2], [3]]))
        cached = ctx.parallelize(range(4), 2).cache()
        derived = source.map(lambda x: x + 1)
        for ds in (source, stored, cached, derived):
            ds.collect()
            ds.collect()
        assert dict(ctx.stats.compute_counts) == {derived.id: 4}

    def test_cached_dataset_computes_once(self, ctx):
        ds = ctx.parallelize(range(10), 2).map(lambda x: x + 1).cache()
        ds.collect()
        ds.collect()
        assert ctx.stats.compute_counts[ds.id] == 2  # once per partition

    def test_cache_serves_correct_values(self, ctx):
        ds = ctx.parallelize(range(6), 2).map(lambda x: x * 3).cache()
        first = ds.collect()
        second = ds.collect()
        assert first == second == [x * 3 for x in range(6)]

    def test_unpersist_drops_entries(self, ctx):
        ds = ctx.parallelize(range(6), 2).map(lambda x: x).cache()
        ds.collect()
        assert len(ctx.cache.entries) == 2
        ds.unpersist()
        assert len(ctx.cache.entries) == 0
        ds.collect()
        assert ctx.stats.compute_counts[ds.id] == 4

    def test_uncached_parent_recomputed_through_child(self, ctx):
        parent = ctx.parallelize(range(10), 2).map(lambda x: x + 1)
        child = parent.map(lambda x: x * 2)
        child.collect()
        child.collect()
        assert ctx.stats.compute_counts[parent.id] == 4

    def test_cached_parent_shields_recompute(self, ctx):
        parent = ctx.parallelize(range(10), 2).map(lambda x: x + 1).cache()
        child = parent.map(lambda x: x * 2)
        child.collect()
        child.collect()
        assert ctx.stats.compute_counts[parent.id] == 2

    def test_budget_zero_caches_nothing(self):
        ctx = Context(cache_budget_bytes=0, policy=LRUPolicy())
        ds = ctx.parallelize(range(10), 2).map(lambda x: x).cache()
        ds.collect()
        ds.collect()
        assert ctx.stats.compute_counts[ds.id] == 4

    def test_pinned_policy_pins_by_dataset_id(self):
        ctx = Context(policy=PinnedPolicy(set()))
        ds = ctx.parallelize(range(10), 2).map(lambda x: x).cache()
        other = ctx.parallelize(range(10), 2).map(lambda x: x).cache()
        ctx.cache.policy.cache_set.add(ds.id)
        ds.collect(); ds.collect()
        other.collect(); other.collect()
        assert ctx.stats.compute_counts[ds.id] == 2
        assert ctx.stats.compute_counts[other.id] == 4

    def test_partition_out_of_range(self, ctx):
        ds = ctx.parallelize(range(4), 2)
        with pytest.raises(IndexError):
            ds.partition(2)

    def test_concurrent_pulls_compute_a_cold_partition_once(self, ctx):
        def slow(rows):
            time.sleep(0.05)
            return [x + 1 for x in rows]

        ds = ctx.parallelize(range(8), 2).map_partitions(slow).cache()
        start = threading.Barrier(4)
        got = []

        def pull():
            start.wait()
            got.append(ds.partition(0))

        threads = [threading.Thread(target=pull) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert got == [[1, 2, 3, 4]] * 4
        assert ctx.stats.compute_counts[ds.id] == 1


class TestHoldsPartition:
    def test_a_source_holds_every_partition(self, ctx):
        ds = ctx.parallelize(range(6), 3)
        assert all(ds.holds_partition(i) for i in range(3))

    def test_an_uncached_derived_dataset_holds_nothing(self, ctx):
        ds = ctx.parallelize(range(6), 3).map(lambda x: x)
        ds.collect()
        assert not any(ds.holds_partition(i) for i in range(3))

    def test_a_cached_dataset_holds_only_resident_partitions(self, ctx):
        ds = ctx.parallelize(range(6), 3).map(lambda x: x).cache()
        ds.partition(1)
        assert [ds.holds_partition(i) for i in range(3)] == [False, True, False]
        ds.unpersist()
        assert not ds.holds_partition(1)


class TestTreeCombine:
    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            tree_combine([], lambda a, b: a + b)

    def test_combines_adjacent_pairs_level_by_level(self):
        shape = tree_combine(list("abcde"), lambda a, b: f"({a}{b})")
        assert shape == "(((ab)(cd))e)"
