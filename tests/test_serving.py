"""Tests for the online serving subsystem (repro.serving).

The headline contract, in the style of ``tests/test_backends.py``: every
workload in ``workloads/registry.py`` served through :class:`ModelServer`
— micro-batches of many rows or of one, cache on and off — returns
predictions byte-identical to
``FittedPipeline.apply``.  Every served request is a cache hit or a row
of a micro-batch over the kernel-lowered plan: ``VectorizePass`` lowers
kernel-capable op runs into batch-invariant columnar ``KernelStage``
slots, so served pipelines need not end in a classification head — raw
score vectors are byte-identical too (``TestVectorizedServing`` —
single-process and replica-tier, cache on and off).

Component coverage: the InferencePlan compiler (flat lowering, fusion/CSE
preservation, compiled-plan caching on FittedPipeline), the micro-batcher
(flush on max_batch / max_delay, bounded-queue backpressure, error
propagation), the cost-model serving cache (greedy selection under
``sink_requests``, fingerprints, LRU eviction), the server registry (warm
swap, versions, stats) and ``ShardingPass(workers="auto")``.
"""

import inspect
import threading
import time

import numpy as np
import pytest

from repro.core import graph as g
from repro.core.backends import LocalBackend, recursive_apply_item
from repro.core.materialization import (
    MaterializationProblem,
    greedy_cache_set,
)
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import FusionPass, ShardingPass
from repro.core.pipeline import Pipeline
from repro.core.plan import PassDecision
from repro.core.profiler import NodeProfile, PipelineProfile
from repro.dataset import Context
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.learning.logistic import LogisticRegressionEstimator
from repro.nodes.learning.random_features import CosineRandomFeatures
from repro.nodes.numeric import (
    Flatten,
    MaxClassifier,
    Normalizer,
    StandardScaler,
)
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    TermFrequency,
    Tokenizer,
)
from repro.serving import (
    HIGH,
    LOW,
    NORMAL,
    AsyncModelServer,
    InferencePlan,
    MicroBatcher,
    ModelServer,
    ReplicaSet,
    RequestShedError,
    ServerOverloadedError,
    ServingCache,
    SLOController,
    compile_inference_plan,
    fingerprint,
)
from repro.workloads import amazon_reviews, timit_frames, youtube8m

# Servable scenarios (one classifier-headed pipeline per registry
# workload) are shared with the backend-equivalence and pickling suites.
from workload_scenarios import SCENARIOS, _vector_pipeline, comparable

_FITTED = {}


def fitted_scenario(name):
    """Train each scenario once per session (fit is the slow part)."""
    if name not in _FITTED:
        pipe, items = SCENARIOS[name](Context())
        fitted = pipe.fit(level="none")
        _FITTED[name] = (fitted, items,
                         comparable([fitted.apply(x) for x in items]))
    return _FITTED[name]


_RAW_FITTED = {}


def raw_scenario(name):
    """Headless (raw-score-vector) pipelines, one per vectorizable
    workload family — the pipelines the pre-kernel serving stack could
    only serve byte-identically unbatched."""
    if name not in _RAW_FITTED:
        ctx = Context()
        if name == "amazon":
            wl = amazon_reviews(120, 16, vocab_size=200, seed=0)
            pipe = (Pipeline.identity()
                    .and_then(LowerCase())
                    .and_then(Tokenizer())
                    .and_then(TermFrequency(lambda c: 1.0))
                    .and_then(CommonSparseFeatures(120), wl.train_data(ctx))
                    .and_then(LinearSolver(), wl.train_data(ctx),
                              wl.train_label_vectors(ctx)))
        elif name == "logistic":
            wl = timit_frames(80, 12, dim=16, num_classes=3, seed=2)
            pipe = (Pipeline.identity()
                    .and_then(StandardScaler(), wl.train_data(ctx))
                    .and_then(LogisticRegressionEstimator(max_iter=8),
                              wl.train_data(ctx),
                              wl.train_label_vectors(ctx)))
        else:
            wl = (timit_frames(80, 12, dim=16, num_classes=3, seed=1)
                  if name == "timit"
                  else youtube8m(80, 12, dim=24, num_classes=4, seed=0))
            pipe = (Pipeline.identity()
                    .and_then(StandardScaler(), wl.train_data(ctx))
                    .and_then(CosineRandomFeatures(16, seed=1),
                              wl.train_data(ctx))
                    .and_then(LinearSolver(), wl.train_data(ctx),
                              wl.train_label_vectors(ctx)))
        fitted = pipe.fit(level="none")
        items = wl.test_items
        _RAW_FITTED[name] = (fitted, items,
                             comparable([fitted.apply(x) for x in items]))
    return _RAW_FITTED[name]


class TestServingEquivalence:
    """ModelServer == FittedPipeline.apply, byte for byte."""

    @staticmethod
    def _serve(server, name, items, batched):
        """Open-loop ``predict_many`` fills micro-batches; one synchronous
        ``predict`` at a time makes every micro-batch a single row."""
        if batched:
            return comparable(server.predict_many(name, items))
        return comparable([server.predict(name, x) for x in items])

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("batched", [True, False],
                             ids=["batched", "unbatched"])
    @pytest.mark.parametrize("cache_budget", [0.0, 1e7],
                             ids=["cache-off", "cache-on"])
    def test_served_predictions_byte_identical(self, name, batched,
                                               cache_budget):
        fitted, items, expected = fitted_scenario(name)
        server = ModelServer(max_batch=8, max_delay_ms=5.0,
                             cache_budget_bytes=cache_budget)
        with server:
            server.register(name, fitted, warmup_items=items[:3])
            got = self._serve(server, name, items, batched)
            assert got == expected
            # Repeats (cache hits, when enabled) must not change bytes.
            again = self._serve(server, name, items, batched)
            assert again == expected
            stats = server.stats(name).models[f"{name}@v1"]
            if cache_budget:
                assert stats.cache_hits > 0
            if not batched:
                assert stats.max_batch_size == 1

    @pytest.mark.parametrize("batched", [True, False],
                             ids=["batched", "unbatched"])
    def test_serving_matches_raw_scores(self, batched):
        """No classification head required: the kernel-lowered path
        matches apply bit-for-bit on raw score vectors, whether a
        micro-batch holds many rows or one."""
        raw, wl_items, expected = raw_scenario("timit")
        server = ModelServer(cache_budget_bytes=1e7)
        with server:
            server.register("raw", raw, warmup_items=wl_items[:2])
            got = self._serve(server, "raw", wl_items, batched)
            again = self._serve(server, "raw", wl_items, batched)
        assert got == expected
        assert again == expected


class TestInferencePlanCompiler:
    def test_flat_lowering_is_topological(self):
        fitted, items, _ = fitted_scenario("timit")
        plan = compile_inference_plan(fitted)
        assert len(plan) == len(g.ancestors([fitted.sink]))
        for op in plan.ops:
            assert all(p < op.slot for p in op.parents)
        assert plan.sink_slot == len(plan) - 1

    def test_run_item_matches_recursive_walk(self):
        for name in ("amazon", "timit", "imagenet"):
            fitted, items, _ = fitted_scenario(name)
            plan = compile_inference_plan(fitted)
            for item in items[:4]:
                assert comparable([plan.run_item(item)]) == comparable(
                    [recursive_apply_item(fitted, item)])

    def test_gather_pipeline_compiles_and_matches(self):
        wl = amazon_reviews(100, 10, vocab_size=150, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        base = (Pipeline.identity().and_then(LowerCase())
                .and_then(Tokenizer())
                .and_then(TermFrequency(lambda c: 1.0))
                .and_then(CommonSparseFeatures(80), data))
        fitted = Pipeline.gather(
            [base.and_then(LinearSolver(), data, labels),
             base.and_then(LinearSolver(l2_reg=1.0), data, labels)],
        ).fit(level="pipe", sample_sizes=(10, 20))
        plan = fitted.inference_plan()
        # CSE merged the shared featurization: one slot feeds both
        # solver branches, and run_item computes it once per request.
        gather_op = plan.ops[plan.sink_slot]
        assert gather_op.kind == "gather"
        assert len(gather_op.parents) == 2
        for item in wl.test_items[:4]:
            assert comparable(plan.run_item(item)) == comparable(
                recursive_apply_item(fitted, item))
        batch = plan.run_batch(wl.test_items)
        assert comparable(batch) == comparable(
            fitted.apply_dataset(
                Context().parallelize(wl.test_items, 1)).collect())

    def test_fused_stages_stay_fused(self):
        wl = timit_frames(60, 8, dim=12, num_classes=3, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (Pipeline.identity()
                .and_then(Normalizer())
                .and_then(Flatten())
                .and_then(LinearSolver(), data, labels))
        passes = passes_for_level("none")
        passes.insert(0, FusionPass())
        fitted = Optimizer(passes).optimize(pipe).execute()
        from repro.core.fusion import FusedTransformer

        plan = compile_inference_plan(fitted)
        fused = [op for op in plan.ops
                 if isinstance(op.op, FusedTransformer)]
        assert fused, "FusionPass stages must arrive as one compiled op"

    def test_fitted_pipeline_caches_compiled_plan(self):
        fitted, items, _ = fitted_scenario("timit")
        plan1 = fitted.inference_plan()
        fitted.apply(items[0])
        assert fitted.inference_plan() is plan1

    def test_pre_compiled_plan_pickles_load(self):
        """A pickle whose state predates the compiled-plan cache (no
        _compiled_plan key) must apply cleanly, not AttributeError."""
        from repro.core.pipeline import FittedPipeline

        fitted, items, expected = fitted_scenario("voc")
        state = fitted.__getstate__()
        del state["_compiled_plan"]  # simulate a v1.1.0 pickle payload
        revived = FittedPipeline.__new__(FittedPipeline)
        revived.__setstate__(state)
        assert comparable([revived.apply(items[0])]) == [expected[0]]

    def test_apply_with_backend_matches_default(self):
        fitted, items, expected = fitted_scenario("voc")
        got = comparable([fitted.apply(x, backend=LocalBackend())
                          for x in items])
        assert got == expected

    def test_rejects_unbound_source(self):
        ctx = Context()
        bound = g.source(ctx.parallelize([1, 2], 1))
        sink = g.OpNode(g.TRANSFORMER, Normalizer(), (bound,))
        from repro.core.pipeline import FittedPipeline

        broken = FittedPipeline(g.pipeline_input(), sink)
        with pytest.raises(ValueError, match="unbound source"):
            compile_inference_plan(broken)


class TestMicroBatcher:
    def test_flushes_on_max_batch(self):
        sizes = []

        def runner(items):
            sizes.append(len(items))
            return items

        batcher = MicroBatcher(runner, max_batch=4, max_delay_ms=500)
        futures = [batcher.submit(i) for i in range(10)]
        batcher.start()
        assert [f.result(timeout=10) for f in futures] == list(range(10))
        batcher.stop()
        # Pre-queued requests flush as full batches; only the remainder
        # waits out the delay.
        assert sizes[0] == 4
        assert sum(sizes) == 10
        assert max(sizes) <= 4

    def test_flushes_on_max_delay(self):
        batcher = MicroBatcher(lambda items: items, max_batch=64,
                               max_delay_ms=20).start()
        start = time.perf_counter()
        assert batcher.submit("x").result(timeout=10) == "x"
        elapsed = time.perf_counter() - start
        batcher.stop()
        assert elapsed < 5.0  # flushed by the delay, not max_batch

    def test_bounded_queue_sheds_load(self):
        batcher = MicroBatcher(lambda items: items, max_queue=2)
        batcher.submit(1)
        batcher.submit(2)
        with pytest.raises(ServerOverloadedError, match="queue full"):
            batcher.submit(3)

    def test_runner_error_propagates_to_futures(self):
        def boom(items):
            raise RuntimeError("boom")

        batcher = MicroBatcher(boom, max_batch=2, max_delay_ms=1).start()
        fut = batcher.submit("x")
        with pytest.raises(RuntimeError, match="boom"):
            fut.result(timeout=10)
        batcher.stop()

    def test_wrong_result_length_is_an_error(self):
        batcher = MicroBatcher(lambda items: items[:-1], max_batch=2,
                               max_delay_ms=1).start()
        fut = batcher.submit("x")
        with pytest.raises(RuntimeError, match="results for"):
            fut.result(timeout=10)
        batcher.stop()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda i: i, max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(lambda i: i, max_queue=0)

    def test_submit_after_stop_is_rejected(self):
        batcher = MicroBatcher(lambda items: items).start()
        batcher.stop()
        with pytest.raises(ServerOverloadedError, match="stopped"):
            batcher.submit("x")

    def test_stop_drains_requests_enqueued_during_shutdown(self):
        """The post-join sweep resolves late arrivals instead of parking
        their futures until the caller's timeout."""
        batcher = MicroBatcher(lambda items: items, max_delay_ms=1)
        fut = batcher.submit("x")  # worker never started: queue only
        batcher.stop()  # drain=True must still flush it
        assert fut.result(timeout=1) == "x"


class TestServingCacheSelection:
    def _problem(self, times, sizes, sink_requests):
        """A 3-node chain a -> b -> c with the given costs/sizes."""
        a = g.OpNode(g.TRANSFORMER, Normalizer(), (g.pipeline_input(),),
                     label="a")
        b = g.OpNode(g.TRANSFORMER, Normalizer(), (a,), label="b")
        c = g.OpNode(g.TRANSFORMER, Normalizer(), (b,), label="c")
        profile = PipelineProfile()
        for node, t, size in zip((a, b, c), times, sizes):
            profile.nodes[node.id] = NodeProfile(
                node=node, t_seconds=t, size_bytes=size, stats=None)
        profile.nodes[a.parents[0].id] = NodeProfile(
            node=a.parents[0], t_seconds=0.0, size_bytes=0.0, stats=None)
        return c, MaterializationProblem([c], profile,
                                         sink_requests=sink_requests)

    def test_sink_requests_make_linear_chains_cacheable(self):
        # With one request per input, caching a linear chain buys
        # nothing; with repeats, the sink is the best buy.
        _, once = self._problem([1.0, 1.0, 1.0], [10, 10, 10], 1.0)
        assert greedy_cache_set(once, mem_budget=100) == set()
        sink, repeated = self._problem([1.0, 1.0, 1.0], [10, 10, 10], 5.0)
        assert sink.id in greedy_cache_set(repeated, mem_budget=100)

    def test_budget_excludes_fat_nodes(self):
        sink, problem = self._problem([1.0, 1.0, 1.0], [10, 10, 1000], 5.0)
        chosen = greedy_cache_set(problem, mem_budget=50)
        assert sink.id not in chosen  # sink too big for the budget
        assert chosen  # but a cheaper upstream node still pays off

    def test_sink_requests_validation(self):
        with pytest.raises(ValueError, match="sink_requests"):
            self._problem([1.0], [1.0], 0.5)

    def test_server_selects_expensive_sink(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(cache_budget_bytes=1e7, expected_reuse=8.0)
        model = server.register("m", fitted, warmup_items=items[:4])
        # Selection is content-addressed: the sink's op key is in the set.
        assert model.plan.key_of(fitted.sink.id) in model.cache.keys
        assert model.plan.sink_slot in model.plan.cached_slots


class TestServingCacheRuntime:
    def test_lru_eviction_under_budget(self):
        value = np.zeros(64)  # estimate_size >> 1 byte
        from repro.dataset.sizing import estimate_size

        size = estimate_size(value)
        cache = ServingCache(budget_bytes=2.5 * size, keys={"op1"})
        cache.put("op1", b"a", value)
        cache.put("op1", b"b", value)
        cache.put("op1", b"c", value)  # evicts the oldest (a)
        assert len(cache) == 2
        assert cache.lookup("op1", b"a") == (False, None)
        assert cache.lookup("op1", b"c")[0]
        assert cache.manager.evictions == 1

    def test_boxed_values_roundtrip_falsy_outputs(self):
        cache = ServingCache(budget_bytes=1e6, keys={"op1"})
        cache.put("op1", b"k", 0)
        assert cache.lookup("op1", b"k") == (True, 0)

    def test_fingerprints_discriminate(self):
        a = np.arange(4, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.astype(np.float32))
        assert fingerprint(a) != fingerprint(a.reshape(2, 2))
        assert fingerprint("doc") == fingerprint("doc")
        assert fingerprint("doc") != fingerprint("Doc")
        assert fingerprint([1, 2]) != fingerprint((1, 2))
        assert fingerprint(1) != fingerprint("1")
        import scipy.sparse as sp

        row = sp.csr_matrix(np.eye(3)[0])
        assert fingerprint(row) == fingerprint(row.copy())
        assert fingerprint(row) != fingerprint(sp.csr_matrix(np.eye(3)[1]))

    def test_invalid_budget(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            ServingCache(budget_bytes=0, keys={"op1"})

    def test_opaque_types_are_rejected_not_aliased(self):
        # repr() of a default object embeds its memory address; hashing
        # it would alias two different requests after address reuse.
        class Opaque:
            pass

        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(Opaque())
        assert isinstance(fingerprint(np.int64(7)), bytes)

    def test_batched_reuse_of_intermediate_only_cache(self):
        """When the sink is over budget, a cached featurizer must still
        answer repeats on the batched path (not be write-only)."""
        fitted, items, expected = fitted_scenario("timit")
        plan = compile_inference_plan(fitted)
        # Cache only the RandomFeatures output: the expensive prefix.
        feature_key = [op.key for op in plan.ops
                       if "RandomFeatures" in op.label][0]
        cache = ServingCache(budget_bytes=1e7, keys={feature_key})
        plan.attach_cache(cache)
        fps = [fingerprint(x) for x in items]
        first = plan.run_batch(items, fps)
        assert cache.hits == 0 and len(cache) == len(items)
        second = plan.run_batch(items, fps)
        assert cache.hits == len(items)
        assert comparable(first) == comparable(second) == expected


class TestModelServer:
    def test_one_request_path_surface(self):
        """No knob selects another request path: no inline
        ``micro_batching`` mode, no ``vectorize`` override, and
        ``run_item`` takes no cache arguments."""
        def params(fn):
            return list(inspect.signature(fn).parameters)[1:]

        assert params(ModelServer.__init__) == [
            "max_batch", "max_delay_ms", "max_queue", "cache_budget_bytes",
            "expected_reuse", "replicas", "slo_target_p99_ms",
            "shed_watermarks"]
        assert params(ModelServer.register) == [
            "name", "fitted", "version", "warmup_items",
            "cache_budget_bytes", "expected_reuse", "deploy"]
        assert params(InferencePlan.run_item) == ["item"]

    def test_warm_swap_between_versions(self):
        wl = timit_frames(80, 10, dim=16, num_classes=3, seed=2)
        ctx = Context()
        v1 = _vector_pipeline(ctx, wl, 16).fit(level="none")
        v2 = (Pipeline.identity()
              .and_then(Normalizer())
              .and_then(LinearSolver(), wl.train_data(ctx),
                        wl.train_label_vectors(ctx))
              .and_then(MaxClassifier())
              .fit(level="none"))
        item = wl.test_items[0]
        server = ModelServer()
        with server:
            server.register("m", v1, version="v1")
            server.register("m", v2, version="v2")  # warm, not default
            assert server.default_version("m") == "v1"
            assert server.versions("m") == ["v1", "v2"]
            assert server.predict("m", item) == v1.apply(item)
            server.deploy("m", "v2")
            assert server.default_version("m") == "v2"
            assert server.predict("m", item) == v2.apply(item)
            # Pinned requests still reach the undeployed version.
            assert server.predict("m", item, version="v1") == v1.apply(item)

    def test_reregistering_a_version_stops_displaced_batcher(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(max_batch=4, max_delay_ms=1.0)
        with server:
            old = server.register("m", fitted)
            assert old.batcher.running
            new = server.register("m", fitted, version="v1")
            assert not old.batcher.running
            assert new.batcher.running
            assert server.predict("m", items[0]) == fitted.apply(items[0])

    def test_stopped_server_rejects_instead_of_resurrecting(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(max_batch=4, max_delay_ms=1.0,
                             cache_budget_bytes=1e7)
        with server:
            model = server.register("m", fitted, warmup_items=items[:3])
            server.predict("m", items[0])
        assert not model.batcher.running
        # Rejects cold requests AND cached repeats alike.
        with pytest.raises(ServerOverloadedError, match="stopped"):
            server.predict("m", items[1])
        with pytest.raises(ServerOverloadedError, match="stopped"):
            server.predict("m", items[0])
        assert not model.batcher.running  # no worker was resurrected
        server.start()
        assert server.predict("m", items[0]) == fitted.apply(items[0])

    def test_cache_hit_rate_counts_each_request_once(self):
        """The pre-queue sink probe and the batch path's backward pass
        must not double-count one request's miss."""
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(max_batch=4, max_delay_ms=2.0,
                             cache_budget_bytes=1e7)
        with server:
            server.register("m", fitted, warmup_items=items[:3])
            cold = items[:2]
            server.predict_many("m", cold)   # 2 misses
            server.predict_many("m", cold)   # 2 hits
            stats = server.stats("m").models["m@v1"]
        assert (stats.cache_hits, stats.cache_misses) == (2, 2)
        assert stats.cache_hit_rate == pytest.approx(0.5)

    def test_stats_report_cached_nodes_before_any_traffic(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(cache_budget_bytes=1e7)
        server.register("m", fitted, warmup_items=items[:3])
        stats = server.stats("m").models["m@v1"]
        assert stats.cached_nodes > 0  # selection visible pre-traffic

    def test_undeployed_only_model_raises_actionable_error(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer()
        server.register("m", fitted, version="v1", deploy=False)
        with pytest.raises(KeyError, match="no deployed version"):
            server.predict("m", items[0])
        server.deploy("m", "v1")
        assert server.predict("m", items[0]) == fitted.apply(items[0])

    def test_unknown_model_and_version(self):
        server = ModelServer()
        with pytest.raises(KeyError, match="no model registered"):
            server.predict("ghost", 1)
        fitted, items, _ = fitted_scenario("timit")
        server.register("m", fitted)
        with pytest.raises(KeyError, match="no version"):
            server.predict("m", items[0], version="v9")

    def test_stats_report_shape(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(max_batch=4, max_delay_ms=2.0,
                             cache_budget_bytes=1e7)
        with server:
            server.register("timit", fitted, warmup_items=items[:3])
            server.predict_many("timit", items)
            server.predict_many("timit", items)
            stats = server.stats()
        model = stats.models["timit@v1"]
        assert model.requests == 2 * len(items)
        assert stats.total_requests == model.requests
        assert model.errors == 0
        assert model.throughput_rps > 0
        assert 0 < model.p50_ms <= model.p95_ms <= model.p99_ms
        assert model.batches >= 1
        assert 1 <= model.mean_batch_size <= 4
        assert model.cache_hit_rate > 0
        # register() compiles through VectorizePass by default, so the
        # served plan can be shorter than the raw inference plan.
        assert model.plan_ops == len(
            compile_inference_plan(fitted, vectorize=True))
        assert model.plan_ops <= len(fitted.inference_plan())
        text = stats.describe()
        assert "timit@v1" in text
        assert "p95" in text
        assert "hit rate" in text

    def test_request_errors_are_recorded_and_raised(self):
        from repro.core.operators import Transformer

        class Boom(Transformer):
            def apply(self, item):
                raise RuntimeError("inference boom")

        fitted = (Pipeline.identity().and_then(Boom())
                  .fit(level="none"))
        server = ModelServer(max_batch=2, max_delay_ms=1.0)
        with server:
            server.register("m", fitted)
            with pytest.raises(RuntimeError, match="inference boom"):
                server.predict("m", 1)
            assert server.stats("m").models["m@v1"].errors == 1

    def test_concurrent_clients_closed_loop(self):
        fitted, items, expected = fitted_scenario("youtube8m")
        server = ModelServer(max_batch=8, max_delay_ms=2.0,
                             cache_budget_bytes=1e7)
        failures = []

        def client():
            for item, want in zip(items, expected):
                got = comparable([server.predict("youtube8m", item)])
                if got != [want]:
                    failures.append(got)

        with server:
            server.register("youtube8m", fitted, warmup_items=items[:3])
            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "clients hung"
        assert not failures
        assert server.stats().total_requests == 4 * len(items)


class TestCrossVersionCache:
    """Two versions sharing a featurization prefix share cache entries."""

    def _two_text_versions(self):
        wl = amazon_reviews(120, 12, vocab_size=200, seed=0)

        def train(l2_reg):
            ctx = Context()
            data = wl.train_data(ctx)
            labels = wl.train_label_vectors(ctx)
            return (Pipeline.identity()
                    .and_then(LowerCase())
                    .and_then(Tokenizer())
                    .and_then(TermFrequency(lambda c: 1.0))
                    .and_then(CommonSparseFeatures(80), data)
                    .and_then(LinearSolver(l2_reg=l2_reg), data, labels)
                    .and_then(MaxClassifier())
                    .fit(level="none"))

        return train(1e-8), train(1.0), wl.test_items

    def test_prefix_ops_share_content_keys(self):
        v1, v2, _ = self._two_text_versions()
        p1 = compile_inference_plan(v1)
        p2 = compile_inference_plan(v2)
        keys1 = [op.key for op in p1.ops]
        keys2 = [op.key for op in p2.ops]
        # input + featurization prefix (LowerCase..CommonSparseFeatures)
        # fingerprint equal; the differently-regularized solver and the
        # classifier head downstream of it flip.
        assert keys1[:5] == keys2[:5]
        assert keys1[5] != keys2[5]
        assert keys1[6] != keys2[6]

    def test_versions_share_one_cache_and_prefix_entries(self):
        v1, v2, items = self._two_text_versions()
        server = ModelServer(max_batch=8, max_delay_ms=2.0,
                             cache_budget_bytes=1e7)
        with server:
            # No warmup: every non-input op is cache-marked, so the
            # shared featurization prefix is cacheable in both versions.
            m1 = server.register("m", v1, version="v1")
            m2 = server.register("m", v2, version="v2")
            assert m1.cache is m2.cache  # one cache per registry entry
            expected_v1 = comparable(
                server.predict_many("m", items, version="v1"))
            hits_before = m1.cache.hits
            got_v2 = comparable(
                server.predict_many("m", items, version="v2"))
        assert expected_v1 == comparable([v1.apply(x) for x in items])
        assert got_v2 == comparable([v2.apply(x) for x in items])
        # v2 never served these items, yet its featurization resumed
        # from entries v1 wrote: content-addressed cross-version reuse.
        assert m1.cache.hits > hits_before

    def test_distinct_entries_keep_private_caches(self):
        v1, v2, items = self._two_text_versions()
        server = ModelServer(cache_budget_bytes=1e7)
        with server:
            m1 = server.register("a", v1)
            m2 = server.register("b", v2)
            assert m1.cache is not m2.cache


class TestShardingAutoWorkers:
    def _plan(self, workers, max_workers=None, resources=None):
        from repro.cluster.resources import r3_4xlarge

        wl = amazon_reviews(150, 10, vocab_size=200, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (Pipeline.identity().and_then(LowerCase())
                .and_then(Tokenizer())
                .and_then(TermFrequency(lambda c: 1.0))
                .and_then(CommonSparseFeatures(100), data)
                .and_then(LinearSolver(), data, labels))
        passes = passes_for_level("pipe", sample_sizes=(10, 20))
        passes.append(ShardingPass(workers=workers,
                                   max_workers=max_workers))
        return Optimizer(passes).optimize(
            pipe, resources=resources or r3_4xlarge(16))

    def test_auto_respects_budget(self):
        plan = self._plan("auto", max_workers=4)
        assert 1 <= plan.state.shard_workers <= 4

    def test_auto_defaults_budget_to_resources(self):
        plan = self._plan("auto")
        assert 1 <= plan.state.shard_workers <= 16

    def test_auto_decision_reaches_explain(self):
        plan = self._plan("auto", max_workers=8)
        text = plan.explain()
        assert "auto=True" in text
        assert "budget=8" in text
        assert "simulated_seconds=" in text

    def test_auto_requires_profile(self):
        from repro.cluster.resources import r3_4xlarge

        wl = amazon_reviews(60, 5, vocab_size=100, seed=0)
        ctx = Context()
        pipe = (Pipeline.identity().and_then(Tokenizer())
                .and_then(TermFrequency(lambda c: 1.0))
                .and_then(CommonSparseFeatures(50), wl.train_data(ctx))
                .and_then(LinearSolver(), wl.train_data(ctx),
                          wl.train_label_vectors(ctx)))
        passes = passes_for_level("none")
        passes.append(ShardingPass(workers="auto"))
        with pytest.raises(ValueError, match="needs a profiled plan"):
            Optimizer(passes).optimize(pipe, resources=r3_4xlarge(8))

    def test_auto_finds_interior_optimum_when_coordination_dominates(self):
        # Inflate the solver's profiled output: its log2(w) aggregation
        # traffic then outweighs the 1/w compute win well below the
        # budget, so auto must stop early.
        plan = self._plan(1)  # profiled plan; sharding decision ignored
        state = plan.state
        for node in g.ancestors([state.sink]):
            if node.kind == g.ESTIMATOR:
                state.profile.nodes[node.id].size_bytes = 1e12
        sharding = ShardingPass(workers="auto", max_workers=128)
        state.decisions.append(PassDecision(name=sharding.name))
        sharding.run(state)
        assert state.shard_workers < 128

    def test_auto_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers must be"):
            ShardingPass(workers="turbo")
        with pytest.raises(ValueError, match="max_workers"):
            ShardingPass(workers="auto", max_workers=0)

    def test_sharded_backend_consumes_auto_decision(self):
        from repro.core.backends import ShardedBackend

        plan = self._plan("auto", max_workers=6)
        fitted = plan.execute(backend=ShardedBackend())
        assert (fitted.training_report.simulated_workers
                == plan.state.shard_workers)


class TestSLOController:
    def test_pressure_grows_batch_within_hard_bounds(self):
        ctrl = SLOController(target_p99_ms=5.0, max_batch=32,
                             max_delay_ms=4.0, adjust_every=8)
        for _ in range(200):  # sustained 50ms latencies: way over target
            ctrl.observe(0.050, queue_depth=100)
            batch, delay = ctrl.limits()
            assert 1 <= batch <= 32          # never exceeds max_batch
            assert 0.0 <= delay <= 4.0       # never negative
        assert ctrl.pressure_events > 0
        assert ctrl.batch_limit == 32  # converged to the ceiling, not past

    def test_light_load_shrinks_delay_and_never_goes_negative(self):
        ctrl = SLOController(target_p99_ms=50.0, max_batch=32,
                             max_delay_ms=4.0, min_delay_ms=0.0,
                             adjust_every=4)
        initial_delay = ctrl.delay_ms
        for _ in range(400):  # fast requests, empty queue
            ctrl.observe(0.0001, queue_depth=0)
            batch, delay = ctrl.limits()
            assert delay >= 0.0
            assert batch >= ctrl.min_batch
        assert ctrl.delay_ms < initial_delay
        assert ctrl.batch_limit == ctrl.min_batch

    def test_pressure_then_calm_round_trips(self):
        ctrl = SLOController(target_p99_ms=5.0, max_batch=16,
                             max_delay_ms=2.0, adjust_every=4, window=64)
        for _ in range(64):
            ctrl.observe(0.050, queue_depth=50)
        grown = ctrl.batch_limit
        assert grown > ctrl.min_batch
        for _ in range(200):  # the window must forget the slow past
            ctrl.observe(0.0001, queue_depth=0)
        assert ctrl.batch_limit < grown

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="target_p99_ms"):
            SLOController(0.0)
        with pytest.raises(ValueError, match="min_batch"):
            SLOController(5.0, min_batch=4, max_batch=2)
        with pytest.raises(ValueError, match="min_delay_ms"):
            SLOController(5.0, min_delay_ms=-1.0)
        with pytest.raises(ValueError, match="grow"):
            SLOController(5.0, grow=1.0)
        with pytest.raises(ValueError, match="shrink"):
            SLOController(5.0, shrink=1.5)
        with pytest.raises(ValueError, match="adjust_every"):
            SLOController(5.0, adjust_every=0)

    def test_batcher_clamps_a_rogue_controller(self):
        """The batcher's hard box holds even if controller state is
        corrupted: effective batch <= max_batch, effective delay >= 0."""
        ctrl = SLOController(5.0, max_batch=1000, max_delay_ms=100.0)
        batcher = MicroBatcher(lambda items: items, max_batch=8,
                               max_delay_ms=2.0, controller=ctrl)
        ctrl.batch_limit = 1000
        ctrl.delay_ms = -7.0
        batch, delay = batcher._limits()
        assert batch == 8
        assert delay == 0.0

    def test_server_wires_controller_observations(self):
        fitted, items, expected = fitted_scenario("timit")
        server = ModelServer(max_batch=8, max_delay_ms=1.0,
                             slo_target_p99_ms=50.0)
        with server:
            server.register("m", fitted)
            got = comparable(server.predict_many("m", items * 4))
        assert got == expected * 4
        stats = server.stats("m").models["m@v1"]
        assert stats.slo_target_p99_ms == 50.0
        assert stats.slo_adjustments >= 1  # 64 requests, adjust_every=64
        assert 1 <= stats.effective_batch <= 8
        assert 0.0 <= stats.effective_delay_ms <= 1.0


class TestPriorityShedding:
    def _gated_batcher(self, **kwargs):
        gate = threading.Event()

        def runner(items):
            gate.wait(10.0)
            return items

        return gate, MicroBatcher(runner, max_batch=4, max_queue=8,
                                  **kwargs)

    def test_shed_before_overload_ordering(self):
        """Low-priority traffic degrades at its watermark while higher
        tiers still queue; only a full queue overloads everyone."""
        gate, batcher = self._gated_batcher(
            shed_watermarks={HIGH: 1.0, NORMAL: 0.75, LOW: 0.5})
        futures = [batcher.submit(i) for i in range(4)]  # depth 4 = 50%
        with pytest.raises(RequestShedError):
            batcher.submit("low", priority=LOW)
        futures += [batcher.submit(4), batcher.submit(5)]  # depth 6 = 75%
        with pytest.raises(RequestShedError):
            batcher.submit("normal", priority=NORMAL)
        futures += [batcher.submit("h1", priority=HIGH),
                    batcher.submit("h2", priority=HIGH)]  # depth 8: full
        with pytest.raises(ServerOverloadedError) as err:
            batcher.submit("h3", priority=HIGH)
        assert not isinstance(err.value, RequestShedError)  # full, not shed
        assert batcher.shed_requests == 2
        assert batcher.shed_by_priority == {LOW: 1, NORMAL: 1}
        gate.set()
        batcher.start()
        [f.result(timeout=10) for f in futures]
        batcher.stop()

    def test_shed_is_backpressure_subtype(self):
        assert issubclass(RequestShedError, ServerOverloadedError)

    def test_unmapped_priority_degrades_with_nearest_tier_above(self):
        gate, batcher = self._gated_batcher(shed_watermarks={LOW: 0.5})
        for i in range(4):
            batcher.submit(i)
        with pytest.raises(RequestShedError):
            batcher.submit("x", priority=LOW + 5)  # below LOW: sheds too
        batcher.submit("y", priority=HIGH)  # above all tiers: admitted
        gate.set()
        batcher.start()
        batcher.stop()

    def test_no_watermarks_means_no_early_shedding(self):
        gate, batcher = self._gated_batcher()
        for i in range(8):
            batcher.submit(i, priority=LOW)  # fills the queue, no shed
        assert batcher.shed_requests == 0
        with pytest.raises(ServerOverloadedError):
            batcher.submit("x", priority=HIGH)
        gate.set()
        batcher.start()
        batcher.stop()

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError, match="watermark"):
            MicroBatcher(lambda i: i, shed_watermarks={LOW: 0.0})
        with pytest.raises(ValueError, match="watermark"):
            MicroBatcher(lambda i: i, shed_watermarks={LOW: 1.5})

    def test_server_surfaces_shed_counts(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(max_batch=1, max_delay_ms=1.0, max_queue=4,
                             shed_watermarks={HIGH: 1.0, LOW: 0.25})
        with server:
            server.register("m", fitted)
            model = server._resolve("m")
            gate = threading.Event()
            orig = model.batcher.runner
            model.batcher.runner = (
                lambda payloads: (gate.wait(10.0), orig(payloads))[1])
            futs = [server.submit("m", items[0])]  # flushes, blocks on gate
            deadline = time.perf_counter() + 10.0
            while (model.batcher.batches < 1
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            futs.append(server.submit("m", items[0]))  # depth 1 = 25%
            with pytest.raises(RequestShedError):
                server.submit("m", items[0], priority=LOW)
            stats = server.stats("m").models["m@v1"]
            assert stats.shed_requests == 1
            gate.set()
            [f.result(timeout=10) for f in futs]


class TestMicroBatcherConcurrency:
    def test_flushes_overlap_across_dispatch_threads(self):
        """With concurrency=2 both flushes must be in the runner at
        once: a single dispatch thread would time out the barrier."""
        barrier = threading.Barrier(2)

        def runner(items):
            barrier.wait(timeout=10.0)
            return items

        batcher = MicroBatcher(runner, max_batch=1, max_delay_ms=0.5,
                               concurrency=2).start()
        futures = [batcher.submit(i) for i in range(2)]
        assert sorted(f.result(timeout=10) for f in futures) == [0, 1]
        batcher.stop()

    def test_flush_on_shutdown_with_queued_items_and_concurrency(self):
        seen = []

        def runner(items):
            seen.extend(items)
            return items

        batcher = MicroBatcher(runner, max_batch=4, concurrency=3)
        futures = [batcher.submit(i) for i in range(10)]  # never started
        batcher.stop()  # drain must flush all 10 through the sweep
        assert [f.result(timeout=1) for f in futures] == list(range(10))
        assert sorted(seen) == list(range(10))

    def test_stop_without_drain_cancels_queued_requests(self):
        batcher = MicroBatcher(lambda items: items, concurrency=2)
        futures = [batcher.submit(i) for i in range(3)]
        batcher.stop(drain=False)
        assert all(f.cancelled() for f in futures)

    def test_invalid_concurrency(self):
        with pytest.raises(ValueError, match="concurrency"):
            MicroBatcher(lambda i: i, concurrency=0)


class TestAsyncServer:
    def test_async_predictions_byte_identical(self):
        import asyncio

        fitted, items, expected = fitted_scenario("timit")

        async def go():
            server = ModelServer(max_batch=8, max_delay_ms=1.0)
            server.register("m", fitted)
            async with AsyncModelServer(server) as srv:
                single = await srv.predict("m", items[0])
                many = await srv.predict_many("m", items)
                return single, many

        single, many = asyncio.run(go())
        assert comparable([single]) == expected[:1]
        assert comparable(many) == expected

    def test_gathered_requests_share_batches(self):
        import asyncio

        fitted, items, expected = fitted_scenario("timit")

        async def go():
            server = ModelServer(max_batch=16, max_delay_ms=20.0)
            server.register("m", fitted)
            async with AsyncModelServer(server) as srv:
                out = await asyncio.gather(
                    *(srv.predict("m", item) for item in items))
                return list(out), srv.stats("m").models["m@v1"]

        out, stats = asyncio.run(go())
        assert comparable(out) == expected
        # All submissions were open before the first await resolved, so
        # the batcher formed multi-request flushes.
        assert stats.max_batch_size > 1

    def test_constructor_rejects_server_plus_knobs(self):
        with pytest.raises(ValueError, match="not both"):
            AsyncModelServer(ModelServer(), max_batch=4)

    def test_overload_raises_in_the_awaiting_coroutine(self):
        import asyncio

        fitted, items, _ = fitted_scenario("timit")

        async def go():
            server = ModelServer(max_queue=1, max_batch=1,
                                 max_delay_ms=1.0)
            server.register("m", fitted)
            model = server._resolve("m")
            gate = threading.Event()
            orig = model.batcher.runner
            model.batcher.runner = (
                lambda payloads: (gate.wait(10.0), orig(payloads))[1])
            srv = await AsyncModelServer(server).start()
            first = server.submit("m", items[0])  # flushed, gated
            deadline = time.perf_counter() + 10.0
            while (model.batcher.batches < 1
                   and time.perf_counter() < deadline):
                await asyncio.sleep(0.005)
            second = server.submit("m", items[0])  # fills the queue
            with pytest.raises(ServerOverloadedError):
                await srv.predict("m", items[0])
            gate.set()
            await asyncio.wrap_future(first)
            await asyncio.wrap_future(second)
            await srv.stop()

        asyncio.run(go())


class TestReplicaServing:
    @pytest.mark.parametrize("name", ["timit", "amazon"])
    def test_replica_served_predictions_byte_identical(self, name):
        fitted, items, expected = fitted_scenario(name)
        server = ModelServer(replicas=2, max_batch=8, max_delay_ms=1.0)
        try:
            with server:
                got = None
                server.register(name, fitted)
                got = comparable(server.predict_many(name, items))
            assert got == expected
            stats = server.stats(name).models[f"{name}@v1"]
            assert stats.replicas == 2
            assert stats.replica_batches >= 1
        finally:
            server.close()

    def test_replica_cache_is_shared_across_the_fleet(self):
        """A result computed on any replica answers repeats fleet-wide:
        the content-addressed cache lives parent-side."""
        fitted, items, expected = fitted_scenario("timit")
        server = ModelServer(replicas=2, max_batch=4, max_delay_ms=1.0,
                             cache_budget_bytes=64e6)
        try:
            with server:
                server.register("m", fitted, warmup_items=items[:3])
                first = comparable(server.predict_many("m", items))
                again = comparable(server.predict_many("m", items))
            assert first == expected
            assert again == expected
            stats = server.stats("m").models["m@v1"]
            assert stats.cache_hits >= len(items)
        finally:
            server.close()

    def test_replica_death_mid_request_recovers_without_drops(self):
        """Kill a replica process, then serve: the pool respawns it,
        replays the model load, retries the batch — no dropped
        responses, byte-identical results."""
        fitted, items, expected = fitted_scenario("timit")
        plan = compile_inference_plan(fitted)
        fleet = ReplicaSet(1, name="death-test")
        try:
            fleet.load("m", plan.program)
            assert comparable(fleet.run_batch("m", items)) == expected
            fleet.pool.actors[0].proc.terminate()
            fleet.pool.actors[0].proc.join(timeout=10.0)
            got = comparable(fleet.run_batch("m", items))
            assert got == expected
            assert fleet.restarts >= 1
        finally:
            fleet.shutdown()

    def test_concurrent_batches_overlap_across_replicas(self):
        """pool.call holds only the target actor's lock: two threads
        driving two replicas make progress concurrently."""
        fitted, items, expected = fitted_scenario("timit")
        plan = compile_inference_plan(fitted)
        fleet = ReplicaSet(2, name="overlap-test")
        results, errors = [None, None], []

        def drive(i):
            try:
                for _ in range(3):
                    results[i] = comparable(fleet.run_batch("m", items))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        try:
            fleet.load("m", plan.program)
            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors
            assert results[0] == expected
            assert results[1] == expected
            assert fleet.batches == 6
        finally:
            fleet.shutdown()

    def test_unknown_slot_raises_in_parent(self):
        fleet = ReplicaSet(1, name="slot-test")
        try:
            with pytest.raises(KeyError, match="no plan loaded"):
                fleet.run_batch("ghost", [1, 2])
        finally:
            fleet.shutdown()

    def test_negative_replica_count_is_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            ModelServer(replicas=-1)

    def test_close_is_idempotent_and_terminal(self):
        fitted, items, _ = fitted_scenario("timit")
        server = ModelServer(replicas=1, max_delay_ms=1.0)
        with server:
            server.register("m", fitted)
            server.predict("m", items[0])
        server.close()
        server.close()
        with pytest.raises(ServerOverloadedError, match="stopped"):
            server.predict("m", items[0])


class TestVectorizedServing:
    """VectorizePass end to end: kernel-lowered serving is byte-identical
    to ``fitted.apply`` on raw score vectors — batched, cache on and off,
    single-process and replica-tier — and the rewrite is inspectable."""

    @pytest.mark.parametrize("name",
                             ["timit", "youtube8m", "amazon", "logistic"])
    @pytest.mark.parametrize("cache_budget", [0.0, 1e7],
                             ids=["cache-off", "cache-on"])
    def test_batched_raw_scores_byte_identical(self, name, cache_budget):
        fitted, items, expected = raw_scenario(name)
        server = ModelServer(max_batch=8, max_delay_ms=5.0,
                             cache_budget_bytes=cache_budget)
        with server:
            server.register(name, fitted, warmup_items=items[:3])
            got = comparable(server.predict_many(name, items))
            again = comparable(server.predict_many(name, items))
        assert got == expected
        assert again == expected

    @pytest.mark.parametrize("name",
                             ["timit", "youtube8m", "amazon", "logistic"])
    def test_plan_run_batch_raw_scores_byte_identical(self, name):
        fitted, items, expected = raw_scenario(name)
        plan = compile_inference_plan(fitted, vectorize=True)
        assert comparable(plan.run_batch(items)) == expected
        assert comparable([plan.run_item(x) for x in items]) == expected

    @pytest.mark.parametrize("name", ["timit", "amazon"])
    def test_replica_tier_raw_scores_byte_identical(self, name):
        """Replica workers inherit the kernel stages for free: the
        pickled OpProgram carries the rewritten ops."""
        fitted, items, expected = raw_scenario(name)
        plan = compile_inference_plan(fitted, vectorize=True)
        fleet = ReplicaSet(1, name=f"vectorized-{name}")
        try:
            fleet.load("m", plan.program)
            assert comparable(fleet.run_batch("m", items)) == expected
        finally:
            fleet.shutdown()

    def test_vectorize_knob_and_describe_membership(self):
        """register() has no lowering knob: the served plan is always
        kernel-lowered, shorter than the interpreter plan."""
        fitted, items, expected = fitted_scenario("timit")
        interp = compile_inference_plan(fitted)
        server = ModelServer()
        with server:
            served = server.register("m", fitted)
            assert comparable(server.predict_many("m", items)) == expected
        assert len(served.plan) < len(interp)
        desc = served.plan.describe()
        assert "kernel[" in desc and "fold " in desc
        assert "kernel[" not in interp.describe()

    def test_cross_rewrite_cache_sharing(self):
        """Grouped op keys combine deterministically (a stage keeps its
        last member's key), so the content-addressed serving cache keeps
        hitting across differently folded plans: a version whose cache
        selection pins some fold boundaries answers the repeats of a
        version that pins every op."""
        fitted, items, expected = raw_scenario("amazon")
        interp = compile_inference_plan(fitted)
        server = ModelServer(cache_budget_bytes=64e6)
        with server:
            v1 = server.register("m", fitted, version="v1",
                                 warmup_items=items[:3])
            v2 = server.register("m", fitted, version="v2")
            assert len(v1.plan) != len(v2.plan)
            assert (interp.key_of(fitted.sink.id)
                    == v1.plan.key_of(fitted.sink.id)
                    == v2.plan.key_of(fitted.sink.id))
            first = comparable(server.predict_many("m", items,
                                                   version="v1"))
            hits_before = v2.cache.hits
            second = comparable(server.predict_many("m", items,
                                                    version="v2"))
        assert first == expected
        assert second == expected
        assert v2.cache.hits - hits_before >= len(items)
