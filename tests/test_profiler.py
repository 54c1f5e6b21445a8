"""Tests for execution subsampling and pipeline profiling."""

import numpy as np
import pytest

from repro.cluster.resources import local_machine
from repro.core import graph as g
from repro.core import profiler
from repro.core.operators import (
    Estimator,
    LabelEstimator,
    Optimizable,
    Transformer,
)
from repro.core.optimizer import Optimizer
from repro.core.pipeline import Pipeline
from repro.core.profiler import _extrapolate, profile_pipeline
from repro.cost.model import CostModel
from repro.cost.profile import CostProfile
from repro.dataset import Context
from repro.dataset.sizing import estimate_size
from repro.pipelines import amazon_pipeline, timit_pipeline
from repro.workloads import amazon_reviews, timit_frames


class Doubler(Transformer):
    def apply(self, x):
        return x * 2


class Expander(Transformer):
    """flat-map-like behaviour through apply_partition."""

    def apply_partition(self, items):
        return [x for item in items for x in (item, item)]

    def apply(self, x):
        return x


class MeanEstimator(Estimator):
    def fit(self, data):
        values = data.collect()
        mean = sum(values) / len(values)

        class Shift(Transformer):
            def apply(self, x, _m=mean):
                return x - _m

        return Shift()


class TestExtrapolate:
    def test_linear_fit(self):
        # t(n) = 2 + 3n
        assert _extrapolate(10, 32, 20, 62, 100) == pytest.approx(302)

    def test_negative_slope_clamped(self):
        assert _extrapolate(10, 50, 20, 40, 1000) == pytest.approx(40)

    def test_equal_points_scales_proportionally(self):
        assert _extrapolate(10, 5, 10, 5, 100) == pytest.approx(50)


class TestProfile:
    def _fitted_graph(self, ctx):
        data = ctx.parallelize([float(i) for i in range(100)], 4)
        pipe = (Pipeline.identity()
                .and_then(Doubler())
                .and_then(MeanEstimator(), data))
        return pipe.sink

    def test_all_nodes_profiled(self):
        ctx = Context()
        sink = self._fitted_graph(ctx)
        profile = profile_pipeline([sink], local_machine(),
                                   sample_sizes=(10, 20))
        for node in g.ancestors([sink]):
            assert node.id in profile.nodes

    def test_row_count_extrapolation(self):
        ctx = Context()
        data = ctx.parallelize(list(range(1000)), 4)
        pipe = Pipeline.identity().and_then(MeanEstimator(), data)
        profile = profile_pipeline([pipe.sink], local_machine(),
                                   sample_sizes=(10, 20))
        # The training-flow source extrapolates to the full 1000 records.
        source_nodes = [n for n in g.ancestors([pipe.sink])
                        if n.kind == g.SOURCE and not n.is_pipeline_input]
        assert profile.nodes[source_nodes[0].id].stats.n == 1000

    def test_flat_map_ratio_propagates(self):
        ctx = Context()
        data = ctx.parallelize(list(range(500)), 4)
        pipe = (Pipeline.identity()
                .and_then(Expander())
                .and_then(MeanEstimator(), data))
        profile = profile_pipeline([pipe.sink], local_machine(),
                                   sample_sizes=(10, 20))
        expander_nodes = [n for n in g.ancestors([pipe.sink])
                          if n.label == "Expander"
                          and n.parents[0].kind == g.SOURCE]
        stats = profile.nodes[expander_nodes[0].id].stats
        assert stats.n == 1000  # 2x expansion extrapolated

    def test_sizes_grow_with_n(self):
        ctx = Context()
        data = ctx.parallelize([np.ones(50) for _ in range(400)], 4)
        pipe = Pipeline.identity().and_then(MeanEstimator(), data)
        profile = profile_pipeline([pipe.sink], local_machine(),
                                   sample_sizes=(10, 20))
        source = [n for n in g.ancestors([pipe.sink])
                  if n.kind == g.SOURCE and not n.is_pipeline_input][0]
        # 400 rows x 400 bytes
        assert profile.size(source.id) == pytest.approx(400 * 400, rel=0.3)

    def test_profiling_seconds_recorded(self):
        ctx = Context()
        sink = self._fitted_graph(ctx)
        profile = profile_pipeline([sink], local_machine(),
                                   sample_sizes=(5, 10))
        assert profile.profiling_seconds > 0


class TestOperatorSelection:
    class ToyOptimizable(LabelEstimator, Optimizable):
        """Two options whose cost models prefer by sparsity."""

        def options(self):
            dense_op = _FixedEstimator("dense")
            sparse_op = _FixedEstimator("sparse")
            return [(_SparsityCost("dense-impl", wants_sparse=False),
                     dense_op),
                    (_SparsityCost("sparse-impl", wants_sparse=True),
                     sparse_op)]

        def fit(self, data, labels):
            raise AssertionError("logical operator should have been "
                                 "replaced before fitting")

    def test_selection_replaces_op(self):
        ctx = Context()
        data = ctx.parallelize([np.ones(10) for _ in range(50)], 2)
        labels = ctx.parallelize([np.ones(2) for _ in range(50)], 2)
        pipe = Pipeline.identity().and_then(self.ToyOptimizable(),
                                            data, labels)
        profile = profile_pipeline([pipe.sink], local_machine(),
                                   sample_sizes=(5, 10),
                                   select_operators=True)
        assert "_FixedEstimator" in profile.selections.values()
        est_node = [n for n in g.ancestors([pipe.sink])
                    if n.kind == g.ESTIMATOR][0]
        assert isinstance(est_node.op, _FixedEstimator)
        assert est_node.op.name == "dense"  # input was dense

    def test_selection_skipped_when_disabled(self):
        ctx = Context()
        data = ctx.parallelize([np.ones(10) for _ in range(50)], 2)
        labels = ctx.parallelize([np.ones(2) for _ in range(50)], 2)
        pipe = Pipeline.identity().and_then(self.ToyOptimizable(),
                                            data, labels)
        with pytest.raises(AssertionError, match="should have been"):
            profile_pipeline([pipe.sink], local_machine(),
                             sample_sizes=(5, 10), select_operators=False)


class TestRegistryDecisions:
    """Operator selection and the cache set of the registry's sparse text
    and dense random-feature pipelines are pinned."""

    CASES = {
        "amazon": (
            lambda ctx: amazon_pipeline(
                ctx, amazon_reviews(300, 10, vocab_size=2000, seed=0),
                num_features=1000),
            ["LBFGSSolver"],
            ["CommonSparseFeatures", "TermFrequency",
             "apply(CommonSparseFeatures)"]),
        "timit": (
            lambda ctx: timit_pipeline(
                ctx, timit_frames(600, 10, dim=32, num_classes=24, seed=0),
                num_feature_blocks=4, block_size=512),
            ["BlockCoordinateSolver"],
            ["CosineRandomFeatures"] * 4 + ["VectorCombiner"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_selections_and_cache_set(self, name, monkeypatch):
        build, selections, cache_labels = self.CASES[name]
        sized = []

        def counting_size(obj):
            sized.append(obj)
            return estimate_size(obj)

        monkeypatch.setattr(profiler, "estimate_size", counting_size)
        plan = Optimizer().optimize(build(Context()))
        # Every sampled output (and sample-fitted model) is sized once.
        assert sized and len({id(obj) for obj in sized}) == len(sized)
        assert sorted(plan.selections.values()) == selections
        assert plan.cache_set_labels == sorted(cache_labels)


class _FixedEstimator(LabelEstimator):
    def __init__(self, name):
        self.name = name

    def fit(self, data, labels):
        class Noop(Transformer):
            def apply(self, x):
                return x

        return Noop()


class _SparsityCost(CostModel):
    def __init__(self, name, wants_sparse):
        self.name = name
        self.wants_sparse = wants_sparse

    def cost(self, stats, workers):
        cheap = stats.is_sparse == self.wants_sparse
        return CostProfile(flops=1e6 if cheap else 1e12)
