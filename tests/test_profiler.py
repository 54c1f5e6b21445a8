"""Tests for execution subsampling and pipeline profiling."""

from collections import Counter

import numpy as np
import pytest
from workload_scenarios import SCENARIOS, _vector_pipeline, comparable

from repro.cluster.resources import local_machine
from repro.core import graph as g
from repro.core import profiler
from repro.core.operators import (
    Estimator,
    LabelEstimator,
    Optimizable,
    Transformer,
)
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import ShardingPass
from repro.core.pipeline import Pipeline
from repro.core.profiler import _extrapolate, profile_pipeline
from repro.core.program import training_keys
from repro.cost.model import CostModel
from repro.cost.profile import CostProfile
from repro.dataset import Context
from repro.dataset.sizing import estimate_size
from repro.incremental import SweepPlanner
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.learning.pca import PCAEstimator
from repro.nodes.numeric import MaxClassifier, StandardScaler, VectorCombiner
from repro.obs import trace as obs_trace
from repro.pipelines import amazon_pipeline, timit_pipeline, voc_pipeline
from repro.workloads import amazon_reviews, timit_frames, voc_images


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

    #: name -> (workload, pipeline over it, selections, cache set)
    CASES = {
        "amazon": (
            lambda: amazon_reviews(300, 10, vocab_size=2000, seed=0),
            lambda ctx, wl: amazon_pipeline(ctx, wl, num_features=1000),
            ["LBFGSSolver"],
            ["CommonSparseFeatures", "TermFrequency",
             "apply(CommonSparseFeatures)"]),
        "timit": (
            lambda: timit_frames(600, 10, dim=32, num_classes=24, seed=0),
            lambda ctx, wl: timit_pipeline(ctx, wl, num_feature_blocks=4,
                                           block_size=512),
            ["BlockCoordinateSolver"],
            ["CosineRandomFeatures"] * 4 + ["VectorCombiner"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_selections_and_cache_set(self, name, monkeypatch):
        workload, build, selections, cache_labels = self.CASES[name]
        sized = []

        def counting_size(obj):
            sized.append(obj)
            return estimate_size(obj)

        monkeypatch.setattr(profiler, "estimate_size", counting_size)
        plan = Optimizer().optimize(build(Context(), workload()))
        # Every sampled output (and sample-fitted model) is sized once.
        assert sized and len({id(obj) for obj in sized}) == len(sized)
        assert sorted(plan.selections.values()) == selections
        assert plan.cache_set_labels == sorted(cache_labels)


def _registry_case(name):
    workload, build = TestRegistryDecisions.CASES[name][:2]

    def case(ctx):
        wl = workload()
        return build(ctx, wl), wl.test_items

    return case


def _sweep_case(ctx):
    """Two random-feature widths merged into one SweepPlanner union: each
    solver's chain ends at the union's sink gather."""
    wl = timit_frames(100, 16, dim=24, num_classes=4, seed=0)
    planner = SweepPlanner(lambda p: _vector_pipeline(ctx, wl, p["features"]),
                           [{"features": 16}, {"features": 32}])
    return planner.union_pipeline()[0], wl.test_items


#: name -> ctx -> (pipeline, test items): every cross-suite scenario, the
#: two registry-size pipelines pinned above and a sweep union
DECISION_CASES = dict(SCENARIOS)
DECISION_CASES.update({f"registry_{name}": _registry_case(name)
                       for name in TestRegistryDecisions.CASES})
DECISION_CASES["sweep_union"] = _sweep_case


def _no_pruning(monkeypatch):
    """The unpruned reference: every estimator is sample-fitted."""
    monkeypatch.setattr(profiler, "_unread_chain", lambda *args: None)


def _optimize(case, level):
    """Plan one case at ``level``, with auto sharding where there is a
    profile to price (level ``none`` profiles nothing)."""
    pipe, items = case(Context())
    passes = passes_for_level(level)
    if level != "none":
        passes.append(ShardingPass(workers="auto", max_workers=8))
    return Optimizer(passes).optimize(pipe, level=level), items


def _decisions(case, level):
    """Optimize and train one case; everything its decisions produced."""
    plan, items = _optimize(case, level)
    order = g.ancestors([plan.sink])
    fitted = plan.execute()
    return {
        "nodes": [(n.label, plan.selections.get(n.id),
                   plan.profile.nodes[n.id].weight) for n in order],
        "cache": [i for i, n in enumerate(order) if n.id in plan.cache_set],
        "workers": plan.state.shard_workers,
        "predictions": comparable([fitted.apply(x) for x in items]),
    }


#: level ``none``: no profile, so no selection, cache set, weights or
#: auto sharding
_UNPROFILED = ((), (), None, None)

#: name -> level -> (selections, cache-set labels, (profiled nodes,
#: {ancestor index: weight} for every weight other than 1), auto worker
#: count).  Recorded before lowering went live-only; each value agreed
#: over five separate runs.
PINNED_DECISIONS = {
    "amazon": {
        "pipe": ((), ("CommonSparseFeatures", "TermFrequency",
                      "apply(CommonSparseFeatures)"), (15, {7: 50}), 8),
        "full": (("LocalQRSolver",), ("CommonSparseFeatures",
                                      "TermFrequency"), (15, {}), 8),
    },
    "cifar10": {
        "pipe": ((), ("Normalizer",), (12, {5: 50}), 8),
        "full": (("LocalQRSolver",), (), (12, {}), 8),
    },
    "imagenet": {
        "pipe": ((), ("Normalizer",), (12, {5: 50}), 8),
        "full": (("LocalQRSolver",), (), (12, {}), 8),
    },
    "registry_amazon": {
        "pipe": ((), ("CommonSparseFeatures", "TermFrequency",
                      "apply(CommonSparseFeatures)"), (18, {9: 30}), 8),
        "full": (("LBFGSSolver",), ("CommonSparseFeatures", "TermFrequency",
                                    "apply(CommonSparseFeatures)"),
                 (18, {9: 30}), 8),
    },
    "registry_timit": {
        "pipe": ((), ("CosineRandomFeatures",) * 4 + ("VectorCombiner",),
                 (21, {12: 50}), 8),
        "full": (("BlockCoordinateSolver",),
                 ("CosineRandomFeatures",) * 4 + ("VectorCombiner",),
                 (21, {12: 6}), 8),
    },
    "sweep_union": {
        "pipe": ((), ("CosineRandomFeatures", "CosineRandomFeatures",
                      "StandardScaler", "apply(CosineRandomFeatures)",
                      "apply(CosineRandomFeatures)", "apply(StandardScaler)"),
                 (19, {6: 50, 14: 50}), 8),
        "full": (("LocalQRSolver", "LocalQRSolver"),
                 ("CosineRandomFeatures", "CosineRandomFeatures",
                  "StandardScaler", "apply(StandardScaler)"), (19, {}), 8),
    },
    "timit": {
        "pipe": ((), ("CosineRandomFeatures", "StandardScaler",
                      "apply(CosineRandomFeatures)", "apply(StandardScaler)"),
                 (12, {6: 50}), 8),
        "full": (("LocalQRSolver",), ("CosineRandomFeatures", "StandardScaler",
                                      "apply(StandardScaler)"), (12, {}), 8),
    },
    "timit_gmm": {
        "pipe": ((), ("StandardScaler", "apply(StandardScaler)"),
                 (7, {3: 4}), 8),
        "full": ((), ("StandardScaler", "apply(StandardScaler)"),
                 (7, {3: 4}), 8),
    },
    "timit_kmeans": {
        "pipe": ((), ("StandardScaler", "apply(StandardScaler)"),
                 (7, {3: 4}), 8),
        "full": ((), ("StandardScaler", "apply(StandardScaler)"),
                 (7, {3: 4}), 8),
    },
    "timit_logistic": {
        "pipe": ((), ("StandardScaler", "apply(StandardScaler)"),
                 (9, {4: 8}), 8),
        "full": ((), ("StandardScaler", "apply(StandardScaler)"),
                 (9, {4: 8}), 8),
    },
    "voc": {
        "pipe": ((), ("Normalizer",), (12, {5: 50}), 8),
        "full": (("LocalQRSolver",), (), (12, {}), 8),
    },
    "youtube8m": {
        "pipe": ((), ("CosineRandomFeatures", "StandardScaler",
                      "apply(CosineRandomFeatures)", "apply(StandardScaler)"),
                 (12, {6: 50}), 8),
        "full": (("LocalQRSolver",), ("CosineRandomFeatures", "StandardScaler",
                                      "apply(StandardScaler)"), (12, {}), 8),
    },
}


class TestPinnedDecisions:
    """Every decision case at every level against the recorded table."""

    @pytest.mark.parametrize("level", ["none", "pipe", "full"])
    @pytest.mark.parametrize("name", sorted(DECISION_CASES))
    def test_decisions_are_pinned(self, name, level):
        plan, _items = _optimize(DECISION_CASES[name], level)
        weights = None
        if plan.state.profile is not None:
            order = [plan.state.profile.nodes[n.id].weight
                     for n in g.ancestors([plan.sink])]
            weights = (len(order),
                       {i: w for i, w in enumerate(order) if w != 1})
        got = (tuple(sorted(plan.selections.values())),
               tuple(plan.cache_set_labels), weights,
               plan.state.shard_workers)
        assert got == PINNED_DECISIONS[name].get(level, _UNPROFILED)


def _count_fits(monkeypatch, *logical):
    """Count ``fit`` calls per physical option class of ``logical`` ops."""
    calls = Counter()
    for cls in {type(op) for est in logical for _model, op in est.options()}:
        def fit(self, *args, _fit=cls.fit, _name=cls.__name__):
            calls[_name] += 1
            return _fit(self, *args)

        monkeypatch.setattr(cls, "fit", fit)
    return calls


class TestDecisionDrivenPruning:
    """Skipping sample fits no decision reads changes no decision."""

    @pytest.mark.parametrize("level", ["pipe", "full"])
    @pytest.mark.parametrize("name", sorted(DECISION_CASES))
    def test_decisions_match_unpruned_reference(self, name, level,
                                                monkeypatch):
        pruned = _decisions(DECISION_CASES[name], level)
        with monkeypatch.context() as m:
            _no_pruning(m)
            reference = _decisions(DECISION_CASES[name], level)
        assert pruned == reference

    @pytest.mark.parametrize("name", ["timit", "amazon"])
    def test_selected_solver_fits_once(self, name, monkeypatch):
        calls = _count_fits(monkeypatch, LinearSolver())
        plan = Optimizer().optimize(SCENARIOS[name](Context())[0])
        plan.execute()
        assert calls == {next(iter(plan.selections.values())): 1}

    def test_solver_feeding_an_estimator_is_sample_fitted(self, monkeypatch):
        wl = timit_frames(100, 4, dim=24, num_classes=4, seed=0)
        data = wl.train_data(Context())
        labels = wl.train_label_vectors(data.ctx)
        pipe = (Pipeline.identity()
                .and_then(StandardScaler(), data)
                .and_then(LinearSolver(), data, labels)
                .and_then(LinearSolver(l2_reg=1e-4), data, labels)
                .and_then(MaxClassifier()))
        calls = _count_fits(monkeypatch, LinearSolver())
        plan = Optimizer().optimize(pipe)
        plan.execute()
        # First solver: two sample fits and the real one; second: real only.
        assert sum(calls.values()) == 3 + 1
        solvers = [n for n in g.ancestors([plan.sink])
                   if n.label == "LinearSolver"]
        assert [n.id in plan.profile.pruned for n in solvers] == [False, True]

    def test_solvers_behind_a_gather_are_sample_fitted(self, monkeypatch):
        wl = timit_frames(100, 4, dim=24, num_classes=4, seed=0)
        data = wl.train_data(Context())
        labels = wl.train_label_vectors(data.ctx)
        branches = [Pipeline.identity().and_then(LinearSolver(l2_reg=l2),
                                                 data, labels)
                    for l2 in (1e-8, 1e-4)]
        pipe = (Pipeline.gather(branches).and_then(VectorCombiner())
                .and_then(MaxClassifier()))
        calls = _count_fits(monkeypatch, LinearSolver())
        plan = Optimizer().optimize(pipe)
        plan.execute()
        assert sum(calls.values()) == 2 * 3
        assert plan.profile.pruned == []

    def test_pca_feeding_an_estimator_is_sample_fitted(self, monkeypatch):
        wl = voc_images(16, 2, size=32, num_classes=3, seed=0)
        pipe = voc_pipeline(Context(), wl, pca_dims=4, gmm_components=2,
                            sampled_descriptors=40)
        calls = _count_fits(monkeypatch, PCAEstimator(4), LinearSolver())
        plan = Optimizer(passes_for_level("full", sample_sizes=(6, 12))
                         ).optimize(pipe)
        plan.execute()
        pca, solver = sorted(plan.selections)
        assert calls[plan.selections[pca]] == 3
        assert calls[plan.selections[solver]] == 1
        assert pca not in plan.profile.pruned
        assert solver in plan.profile.pruned

    @pytest.mark.parametrize("name", ["timit", "amazon"])
    def test_solver_training_key_independent_of_pruning(self, name,
                                                        monkeypatch):
        def solver_key():
            plan = Optimizer().optimize(SCENARIOS[name](Context())[0])
            (solver,) = [n for n in g.ancestors([plan.sink])
                         if n.id in plan.selections]
            return training_keys([plan.sink])[solver.id]

        pruned = solver_key()
        with monkeypatch.context() as m:
            _no_pruning(m)
            assert solver_key() == pruned

    def test_skip_is_explained_traced_and_estimated(self):
        pipe, _ = SCENARIOS["timit"](Context())
        tracer = obs_trace.enable()
        try:
            plan = Optimizer().optimize(pipe)
        finally:
            obs_trace.disable()
        assert ("pruned=['LinearSolver', 'apply(LinearSolver)', "
                "'MaxClassifier']") in plan.explain()
        (event,) = [s for s in tracer.spans if s["name"] == "profile.skip"]
        solver_id, *chain = plan.profile.pruned
        solver = plan.profile.nodes[solver_id]
        assert event["args"] == {
            "node": "LinearSolver",
            "operator": plan.selections[solver_id],
            "estimated_seconds": solver.t_seconds}
        assert solver.t_seconds > 0
        d, k = solver.stats.d, solver.stats.k
        assert (d, k) == (32, 4)  # 32 random features, 4 classes
        assert solver.size_bytes == d * k * 8
        for nid in chain:
            entry = plan.profile.nodes[nid]
            assert entry.t_seconds == 0.0
            assert entry.stats.d == k
            assert entry.size_bytes == entry.stats.n * k * 8

    def test_sweep_union_prunes_like_independent_fits(self):
        """The union's sink gather ends each trial's chain: the union
        prunes every entry the independent fits prune, and the gather's
        own entry is derived from its parents'."""
        ctx = Context()
        wl = timit_frames(100, 16, dim=24, num_classes=4, seed=0)
        widths = (16, 32)
        union = Optimizer().optimize(_sweep_case(ctx)[0])
        independent = [Optimizer().optimize(_vector_pipeline(ctx, wl, w))
                       for w in widths]

        def labels(plan):
            nodes = plan.profile.nodes
            return sorted(nodes[nid].node.label for nid in plan.profile.pruned)

        assert labels(union) == sorted(
            label for plan in independent for label in labels(plan))
        gather = union.profile.nodes[union.sink.id]
        parents = [union.profile.nodes[p.id] for p in union.sink.parents]
        assert union.sink.id not in union.profile.pruned
        assert gather.t_seconds == 0.0
        assert gather.stats.n == min(p.stats.n for p in parents)
        assert gather.size_bytes == sum(p.size_bytes for p in parents)

    def test_gather_with_a_consumer_blocks_pruning(self):
        pipe, _ = _sweep_case(Context())
        plan = Optimizer().optimize(pipe.and_then(VectorCombiner()))
        assert plan.profile.pruned == []

    def test_pipe_level_prunes_nothing(self):
        plan = Optimizer(passes_for_level("pipe")).optimize(
            SCENARIOS["timit"](Context())[0])
        assert plan.profile.pruned == []


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
