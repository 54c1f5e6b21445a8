"""Property-based tests (hypothesis) on core data structures and invariants."""

import operator

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import graph as g
from repro.core import materialization as mat
from repro.core.operators import Transformer
from repro.core.profiler import NodeProfile, PipelineProfile
from repro.cost.profile import CostProfile
from repro.dataset import Context
from repro.dataset.dataset import tree_combine
from repro.linalg.tsqr import tsqr_r


# ----------------------------------------------------------------------
# Dataset vs list semantics
# ----------------------------------------------------------------------

items_strategy = st.lists(st.integers(-1000, 1000), max_size=60)
partitions_strategy = st.integers(1, 8)


class TestDatasetSemantics:
    @given(items=items_strategy, parts=partitions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_collect_roundtrip(self, items, parts):
        ctx = Context()
        assert ctx.parallelize(items, parts).collect() == items

    @given(items=items_strategy, parts=partitions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_map_matches_list_map(self, items, parts):
        ctx = Context()
        out = ctx.parallelize(items, parts).map(lambda x: x * 2 + 1).collect()
        assert out == [x * 2 + 1 for x in items]

    @given(items=items_strategy, parts=partitions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_count_matches_len(self, items, parts):
        ctx = Context()
        assert ctx.parallelize(items, parts).count() == len(items)

    @given(items=items_strategy, parts=partitions_strategy,
           n=st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_take_is_prefix(self, items, parts, n):
        ctx = Context()
        assert ctx.parallelize(items, parts).take(n) == items[:n]

    @given(items=items_strategy, parts=partitions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_caching_does_not_change_results(self, items, parts):
        ctx = Context()
        ds = ctx.parallelize(items, parts).map(lambda x: x - 7)
        plain = ds.collect()
        ds.cache()
        assert ds.collect() == plain
        assert ds.collect() == plain

    @given(items=items_strategy, parts=partitions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tree_combine_equals_sum(self, items, parts):
        ds = Context().parallelize(items, parts)
        partials = [ds.partition(i) for i in range(parts)]
        assert tree_combine([sum(p) for p in partials], operator.add) == sum(items)
        # The tree keeps partition order: concatenation rebuilds the rows.
        assert tree_combine(partials, operator.add) == items


# ----------------------------------------------------------------------
# CostProfile algebra
# ----------------------------------------------------------------------

profile_strategy = st.builds(
    CostProfile,
    flops=st.floats(0, 1e15, allow_nan=False),
    bytes=st.floats(0, 1e15, allow_nan=False),
    network=st.floats(0, 1e15, allow_nan=False))


class TestCostProfileAlgebra:
    @given(a=profile_strategy, b=profile_strategy)
    @settings(max_examples=50)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(a=profile_strategy)
    @settings(max_examples=50)
    def test_zero_identity(self, a):
        assert a + CostProfile.zero() == a

    @given(a=profile_strategy, s=st.floats(0, 100, allow_nan=False))
    @settings(max_examples=50)
    def test_scaling_distributes(self, a, s):
        left = (a + a) * s
        right = a * s + a * s
        assert np.isclose(left.flops, right.flops)
        assert np.isclose(left.bytes, right.bytes)


# ----------------------------------------------------------------------
# TSQR invariant: R^T R == A^T A for any block partitioning
# ----------------------------------------------------------------------

class TestTSQRProperty:
    @given(seed=st.integers(0, 10_000), n_blocks=st.integers(1, 6),
           rows=st.integers(1, 12), cols=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_gram_preserved(self, seed, n_blocks, rows, cols):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((rows, cols))
                  for _ in range(n_blocks)]
        a = np.vstack(blocks)
        r = tsqr_r(blocks)
        np.testing.assert_allclose(r.T @ r, a.T @ a, atol=1e-7)

    @given(seed=st.integers(0, 10_000), split=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_partitioning_invariance(self, seed, split):
        """R (up to sign) should not depend on how rows are partitioned."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 3))
        one_block = tsqr_r([a])
        two_blocks = tsqr_r([a[:split], a[split:]])
        np.testing.assert_allclose(np.abs(one_block), np.abs(two_blocks),
                                   atol=1e-7)


# ----------------------------------------------------------------------
# Materialization: greedy vs exact on random DAG chains
# ----------------------------------------------------------------------

class _Op(Transformer):
    def __init__(self, weight=1):
        self.weight = weight

    def apply(self, x):
        return x


def _random_problem(rng, n_nodes):
    """A random chain with random weights/times/sizes."""
    src = g.source("d")
    nodes = [src]
    node = src
    for _ in range(n_nodes):
        node = g.OpNode(g.TRANSFORMER, _Op(int(rng.integers(1, 6))), (node,))
        nodes.append(node)
    profile = PipelineProfile()
    for n in nodes:
        profile.nodes[n.id] = NodeProfile(
            node=n, t_seconds=float(rng.uniform(0.1, 10)),
            size_bytes=float(rng.uniform(1, 100)), stats=None,
            weight=n.weight)
    return mat.MaterializationProblem([node], profile)


class TestGreedyQuality:
    @given(seed=st.integers(0, 5000), n_nodes=st.integers(1, 6),
           budget=st.floats(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_greedy_between_exact_and_uncached(self, seed, n_nodes, budget):
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng, n_nodes)
        uncached = problem.estimate_runtime(set())
        greedy = problem.estimate_runtime(
            mat.greedy_cache_set(problem, budget))
        exact = problem.estimate_runtime(
            mat.exact_cache_set(problem, budget))
        assert exact <= greedy + 1e-9
        assert greedy <= uncached + 1e-9

    @given(seed=st.integers(0, 5000), n_nodes=st.integers(1, 6),
           budget=st.floats(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_greedy_respects_budget(self, seed, n_nodes, budget):
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng, n_nodes)
        cache = mat.greedy_cache_set(problem, budget)
        assert sum(problem.size[i] for i in cache) <= budget + 1e-9

    @given(seed=st.integers(0, 5000), n_nodes=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_more_memory_never_hurts(self, seed, n_nodes):
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng, n_nodes)
        t_small = problem.estimate_runtime(
            mat.greedy_cache_set(problem, 50.0))
        t_large = problem.estimate_runtime(
            mat.greedy_cache_set(problem, 5000.0))
        assert t_large <= t_small + 1e-9
