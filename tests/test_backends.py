"""Tests for the pluggable ExecutionBackend API.

The contract under test: every backend trains a physical plan to
byte-identical predictions vs the serial LocalBackend, on both a linear
(quickstart-style) pipeline and a gather/branching one; backend selection
threads through ``plan.execute``, ``Pipeline.fit`` and
``FittedPipeline.apply`` / ``apply_dataset``; ``ShardingPass`` decisions
reach ``explain()`` and the sharded backend's simulated pricing anchors to
measured serial time at ``workers=1``.
"""

import inspect
import threading
import time

import numpy as np
import pytest

from repro.cluster.resources import r3_4xlarge
from repro.core import graph as g
from repro.core.backends import (
    BACKENDS,
    ActorBackend,
    ExecutionBackend,
    LocalBackend,
    PipelinedBackend,
    ProcessPoolBackend,
    ShardedBackend,
    plan_scaling_sweep,
    resolve_backend,
    shutdown_actor_pools,
    shutdown_worker_pools,
)
from repro.core.executor import ExclusiveTimer
from repro.core.operators import Transformer
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import ShardingPass
from repro.core.pipeline import Pipeline
from repro.dataset import Context
from repro.nodes.learning.kmeans import KMeansEstimator
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.numeric import StandardScaler
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    NGramsFeaturizer,
    TermFrequency,
    Tokenizer,
)
from repro.workloads import amazon_reviews
from workload_scenarios import SCENARIOS

WORKLOAD = amazon_reviews(200, 20, vocab_size=300, seed=0)

#: bounds every multi-process wave so a wedged worker fails the test
#: run instead of hanging it (the tests' deadlock guard)
PROCESS_TIMEOUT = 300.0


def text_pipeline(ctx, wl=WORKLOAD):
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    return (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(200), data)
            .and_then(LinearSolver(), data, labels))


def branching_pipeline(ctx, wl=WORKLOAD):
    """Two solver branches over a shared featurization, gathered."""
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    base = (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 1))
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(100), data))
    branch1 = base.and_then(LinearSolver(), data, labels)
    branch2 = base.and_then(LinearSolver(l2_reg=1.0), data, labels)
    return Pipeline.gather([branch1, branch2])


def comparable(rows):
    """Map prediction rows to hashable byte-exact representations."""
    out = []
    for row in rows:
        if isinstance(row, (list, tuple)):
            out.append(tuple(comparable(row)))
        else:
            arr = np.asarray(row)
            out.append((str(arr.dtype), arr.shape, arr.tobytes()))
    return out


def optimize(builder, extra_passes=()):
    passes = passes_for_level("full", sample_sizes=(20, 40))
    passes.extend(extra_passes)
    return Optimizer(passes).optimize(builder(Context()))


ALL_BACKENDS = [
    pytest.param(lambda: LocalBackend(), id="local"),
    pytest.param(lambda: PipelinedBackend(max_workers=3), id="pipelined"),
    pytest.param(lambda: ShardedBackend(workers=4,
                                        resources=r3_4xlarge(4)),
                 id="sharded"),
    pytest.param(lambda: ProcessPoolBackend(workers=2,
                                            task_timeout=PROCESS_TIMEOUT),
                 id="process"),
    pytest.param(lambda: ActorBackend(workers=2,
                                      task_timeout=PROCESS_TIMEOUT),
                 id="actors"),
]


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        """LocalBackend predictions for both pipeline shapes."""
        out = {}
        for key, builder in [("text", text_pipeline),
                             ("branching", branching_pipeline)]:
            fitted = optimize(builder).execute(backend=LocalBackend())
            rows = fitted.apply_dataset(
                WORKLOAD.test_data(Context())).collect()
            out[key] = comparable(rows)
        return out

    @pytest.mark.parametrize("make_backend", ALL_BACKENDS)
    @pytest.mark.parametrize("shape", ["text", "branching"])
    def test_byte_identical_predictions(self, make_backend, shape,
                                        reference):
        builder = text_pipeline if shape == "text" else branching_pipeline
        backend = make_backend()
        fitted = optimize(builder).execute(backend=backend)
        rows = fitted.apply_dataset(WORKLOAD.test_data(Context()),
                                    backend=backend).collect()
        assert comparable(rows) == reference[shape]

    @pytest.mark.parametrize("make_backend", ALL_BACKENDS)
    def test_single_item_apply_accepts_backend(self, make_backend):
        fitted = optimize(text_pipeline).execute()
        doc = "great product love it"
        expected = comparable([fitted.apply(doc)])
        got = comparable([fitted.apply(doc, backend=make_backend())])
        assert got == expected

    def test_fit_accepts_backend(self):
        fitted = text_pipeline(Context()).fit(sample_sizes=(20, 40),
                                              backend="pipelined")
        assert fitted.training_report.backend == "pipelined"
        assert fitted.apply("fine product") is not None

    def test_report_names_backend(self):
        plan = optimize(text_pipeline)
        fitted = plan.execute(backend=ShardedBackend(workers=4))
        assert fitted.training_report.backend == "sharded[workers=4]"


class TestTracingTransparency:
    """Tracing is a pure observer: zero spans recorded when disabled,
    byte-identical predictions on every backend when enabled."""

    @pytest.fixture(scope="class")
    def untraced_reference(self):
        fitted = optimize(text_pipeline).execute(backend=LocalBackend())
        rows = fitted.apply_dataset(WORKLOAD.test_data(Context())).collect()
        return comparable(rows)

    @pytest.mark.parametrize("make_backend", ALL_BACKENDS)
    def test_disabled_records_zero_spans(self, make_backend):
        from repro.obs import trace as obs_trace

        tracer = obs_trace.Tracer()
        obs_trace.enable(tracer)
        obs_trace.disable()
        assert not obs_trace.enabled()
        fitted = optimize(text_pipeline).execute(backend=make_backend())
        assert fitted.apply("fine product") is not None
        assert len(tracer) == 0
        assert tracer.dropped == 0

    @pytest.mark.parametrize("make_backend", ALL_BACKENDS)
    def test_byte_identical_with_tracing_on(self, make_backend,
                                            untraced_reference):
        from repro.obs import trace as obs_trace

        tracer = obs_trace.Tracer()
        obs_trace.enable(tracer)
        try:
            backend = make_backend()
            fitted = optimize(text_pipeline).execute(backend=backend)
            rows = fitted.apply_dataset(WORKLOAD.test_data(Context()),
                                        backend=backend).collect()
        finally:
            obs_trace.disable()
        assert comparable(rows) == untraced_reference
        assert len(tracer) > 0, "tracing was on but recorded nothing"


class TestResolveBackend:
    def test_none_is_local(self):
        assert isinstance(resolve_backend(None), LocalBackend)

    def test_instance_passthrough(self):
        backend = PipelinedBackend(2)
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_names_resolve(self, name):
        backend = resolve_backend(name)
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_plan_execute_rejects_unknown(self):
        plan = optimize(text_pipeline)
        with pytest.raises(ValueError, match="unknown backend"):
            plan.execute(backend="bogus")


class TestPipelinedBackend:
    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            PipelinedBackend(0)

    def test_terminates_without_deadlock(self):
        """Watchdog: a deadlocked scheduler fails instead of hanging."""
        result = {}

        def run():
            fitted = optimize(branching_pipeline).execute(
                backend=PipelinedBackend(max_workers=2))
            result["fitted"] = fitted

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive(), "pipelined execution deadlocked"
        assert result["fitted"].training_report.backend == "pipelined"

    def test_estimator_times_attributed(self):
        fitted = optimize(branching_pipeline).execute(
            backend=PipelinedBackend(max_workers=3))
        report = fitted.training_report
        # Three estimators: CommonSparseFeatures + two LinearSolvers.
        assert len(report.estimator_seconds) == 3
        assert all(t >= 0 for t in report.estimator_seconds.values())

    def test_lru_cache_safe_under_concurrency(self):
        """Regression: concurrent partition pulls raced the cache manager
        (eviction KeyError + corrupted byte accounting)."""
        reference = None
        for backend in (LocalBackend(), PipelinedBackend(max_workers=4)):
            fitted = branching_pipeline(Context()).fit(
                sample_sizes=(20, 40), cache_strategy="lru",
                mem_budget_bytes=2e5, backend=backend)
            rows = comparable(fitted.apply_dataset(
                WORKLOAD.test_data(Context())).collect())
            if reference is None:
                reference = rows
            assert rows == reference

    def test_error_propagates(self):
        from repro.core.operators import LabelEstimator

        class Boom(LabelEstimator):
            def fit(self, data, labels):
                raise RuntimeError("boom")

        ctx = Context()
        data = ctx.parallelize([1.0, 2.0], 2)
        labels = ctx.parallelize([1.0, 2.0], 2)
        pipe = Pipeline.identity().and_then(Boom(), data, labels)
        plan = Optimizer(passes_for_level("none")).optimize(pipe)
        with pytest.raises(RuntimeError, match="boom"):
            plan.execute(backend=PipelinedBackend(2))


class TestShardedBackend:
    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedBackend(workers=0)

    def test_workers_1_matches_serial_timings(self):
        """With one worker and no overhead, simulation == measurement."""
        backend = ShardedBackend(workers=1, resources=r3_4xlarge(1),
                                 overhead_per_stage=0.0)
        fitted = optimize(text_pipeline).execute(backend=backend)
        report = fitted.training_report
        assert report.simulated_workers == 1
        assert report.simulated_seconds == pytest.approx(
            sum(report.node_seconds.values()), rel=1e-9)

    def test_more_workers_shrink_simulated_time(self):
        results = {}
        for w in (1, 8):
            backend = ShardedBackend(workers=w, resources=r3_4xlarge(w),
                                     overhead_per_stage=0.0)
            fitted = optimize(text_pipeline).execute(backend=backend)
            results[w] = fitted.training_report.simulated_seconds
        assert results[8] < results[1]

    def test_workers_default_to_sharding_pass(self):
        plan = optimize(text_pipeline, [ShardingPass(workers=16)])
        fitted = plan.execute(backend=ShardedBackend())
        assert fitted.training_report.simulated_workers == 16

    def test_breakdown_separates_solve_from_featurize(self):
        fitted = optimize(text_pipeline).execute(
            backend=ShardedBackend(workers=4))
        breakdown = fitted.training_report.simulated_breakdown
        assert "Model Solve" in breakdown
        assert "Featurization" in breakdown

    def test_scaling_sweep_over_real_plan(self):
        backend = ShardedBackend(workers=8, resources=r3_4xlarge(8),
                                 overhead_per_stage=0.0)
        fitted = optimize(text_pipeline,
                          [ShardingPass(workers=8)]).execute(backend=backend)
        sweep = plan_scaling_sweep(fitted, [8, 16, 32, 64])
        totals = [sum(sweep[w].values()) for w in (8, 16, 32, 64)]
        assert sorted(sweep) == [8, 16, 32, 64]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_sweep_requires_sharded_run(self):
        fitted = optimize(text_pipeline).execute()
        with pytest.raises(ValueError, match="no simulated stages"):
            plan_scaling_sweep(fitted, [8, 16])

    def test_training_flow_gather_pays_coordination(self):
        """A gather feeding an estimator gets a network-only stage; the
        never-executed inference-path sink gather does not."""
        from repro.nodes.numeric import VectorCombiner

        def builder(ctx):
            wl = WORKLOAD
            data = wl.train_data(ctx)
            labels = wl.train_label_vectors(ctx)
            b1 = (Pipeline.identity().and_then(Tokenizer())
                  .and_then(TermFrequency(lambda c: 1.0))
                  .and_then(CommonSparseFeatures(100), data))
            b2 = (Pipeline.identity().and_then(LowerCase())
                  .and_then(Tokenizer())
                  .and_then(TermFrequency(lambda c: 1.0))
                  .and_then(CommonSparseFeatures(50), data))
            return (Pipeline.gather([b1, b2]).and_then(VectorCombiner())
                    .and_then(LinearSolver(), data, labels))

        fitted = optimize(builder).execute(
            backend=ShardedBackend(workers=8, resources=r3_4xlarge(8)))
        gathers = [s for s in fitted.training_report.simulated_stages
                   if s.name == "gather"]
        assert len(gathers) == 1
        assert gathers[0].profile_fn(1).network == 0.0
        assert gathers[0].profile_fn(8).network > 0.0

        # The branching fixture's gather sits on the inference path only
        # and must not be priced.
        sharded = optimize(branching_pipeline).execute(
            backend=ShardedBackend(workers=8, resources=r3_4xlarge(8)))
        assert all(s.name != "gather"
                   for s in sharded.training_report.simulated_stages)

    def test_apply_batch_shards_from_training_run(self):
        """workers=None re-partitions inference using the trained count."""
        backend = ShardedBackend()
        plan = optimize(text_pipeline, [ShardingPass(workers=8)])
        fitted = plan.execute(backend=backend)
        out = fitted.apply_dataset(WORKLOAD.test_data(Context()),
                                   backend=backend)
        assert out.num_partitions == 8
        serial = fitted.apply_dataset(WORKLOAD.test_data(Context()))
        assert comparable(out.collect()) == comparable(serial.collect())


class SleepyTransformer(Transformer):
    """Module-level (spawn-picklable) transformer that wedges a worker."""

    def __init__(self, seconds: float = 2.0):
        self.seconds = seconds

    def apply(self, item):
        time.sleep(self.seconds)
        return {"term": 1.0}


class UnpicklableTransformer(Transformer):
    """Carries a live lock, so its flow can never ship to a worker."""

    def __init__(self):
        self.lock = threading.Lock()

    def apply(self, item):
        return {str(item): 1.0}


@pytest.fixture(params=["process", "actors"])
def backend_name(request):
    """Both registry names of the one multi-process runtime."""
    return request.param


class TestActorBackend:
    """One multi-process runtime under two registry names: every check
    runs for ``"process"`` (the historical alias) and ``"actors"``."""

    def test_process_is_a_code_free_alias(self):
        """The alias only renames: no override, no extra option."""
        assert issubclass(ProcessPoolBackend, ActorBackend)
        assert [k for k in vars(ProcessPoolBackend)
                if not k.startswith("__")] == ["name"]
        assert shutdown_worker_pools is shutdown_actor_pools
        options = inspect.signature(ProcessPoolBackend).parameters
        assert len(options) == 8

    def test_invalid_workers(self, backend_name):
        with pytest.raises(ValueError, match="workers"):
            BACKENDS[backend_name](workers=0)

    def test_workers_1_degenerates_to_serial(self, backend_name):
        """One worker runs the serial reference path — no pool, identical
        predictions, and the report still names the backend."""
        fitted = optimize(text_pipeline).execute(
            backend=BACKENDS[backend_name](workers=1))
        report = fitted.training_report
        assert report.backend == f"{backend_name}[workers=1]"
        assert report.process_workers == 1
        assert not report.process_stat_merged
        assert not report.process_gathered
        assert not report.actor_iterative
        reference = optimize(text_pipeline).execute()
        got = comparable(fitted.apply_dataset(
            WORKLOAD.test_data(Context())).collect())
        want = comparable(reference.apply_dataset(
            WORKLOAD.test_data(Context())).collect())
        assert got == want

    def test_workers_default_to_sharding_pass(self, backend_name):
        plan = optimize(text_pipeline, [ShardingPass(workers=2)])
        backend = BACKENDS[backend_name](task_timeout=PROCESS_TIMEOUT)
        fitted = plan.execute(backend=backend)
        assert fitted.training_report.process_workers == 2
        assert fitted.training_report.backend == \
            f"{backend_name}[workers=2]"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registry_workload_parity(self, name, backend_name):
        """Every registry workload — including the iterative-solver
        heads — trains byte-identically in worker processes, and batch
        inference through the same pool matches too."""
        pipe, items = SCENARIOS[name](Context())
        reference = pipe.fit(level="none")
        expected = comparable([reference.apply(x) for x in items])

        backend = BACKENDS[backend_name](workers=2,
                                         task_timeout=PROCESS_TIMEOUT)
        pipe2, _ = SCENARIOS[name](Context())
        fitted = pipe2.fit(level="none", backend=backend)
        report = fitted.training_report
        assert report.process_workers == 2
        assert not report.process_fallback, report.process_fallback
        assert comparable([fitted.apply(x) for x in items]) == expected
        batch = fitted.apply_dataset(
            Context().parallelize(items, 4), backend=backend)
        assert comparable(batch.collect()) == expected

    def test_apply_batch_runs_in_the_pool(self, backend_name):
        """``apply_dataset(backend=...)`` is a wave over the actor pool
        (it used to fall through to the serial parent path on
        ``"actors"``), unkeyed: inference rows never enter the workers'
        shard-state caches."""
        with BACKENDS[backend_name](workers=2, task_timeout=PROCESS_TIMEOUT,
                                    reuse_pool=False) as backend:
            fitted = optimize(text_pipeline).execute(backend=backend)
            pool = backend._private_pool
            before = dict(pool.counters)
            holds = [set(actor.holds) for actor in pool.actors]
            out = fitted.apply_dataset(WORKLOAD.test_data(Context()),
                                       backend=backend)
            rows = comparable(out.collect())
            assert out.name.startswith(f"{backend_name}(")
            assert pool.counters["shipped_bytes"] > before["shipped_bytes"]
            assert pool.counters["hits"] == before["hits"]
            assert pool.counters["misses"] == before["misses"]
            assert [set(actor.holds) for actor in pool.actors] == holds
        serial = fitted.apply_dataset(WORKLOAD.test_data(Context()))
        assert rows == comparable(serial.collect())

    def test_stat_merge_and_gather_paths_both_used(self, backend_name):
        """The text pipeline exercises both merge strategies: frequency
        selection merges counters, the iterative solver gathers rows."""
        backend = BACKENDS[backend_name](workers=2,
                                         task_timeout=PROCESS_TIMEOUT)
        fitted = optimize(text_pipeline).execute(backend=backend)
        report = fitted.training_report
        assert "CommonSparseFeatures" in report.process_stat_merged
        assert "LinearSolver" in report.process_gathered
        assert not report.process_fallback

    def test_merge_stats_disabled_still_identical(self, backend_name):
        backend = BACKENDS[backend_name](workers=2, merge_stats=False,
                                         task_timeout=PROCESS_TIMEOUT)
        fitted = optimize(text_pipeline).execute(backend=backend)
        report = fitted.training_report
        assert not report.process_stat_merged
        assert "CommonSparseFeatures" in report.process_gathered
        reference = optimize(text_pipeline).execute()
        got = comparable(fitted.apply_dataset(
            WORKLOAD.test_data(Context())).collect())
        want = comparable(reference.apply_dataset(
            WORKLOAD.test_data(Context())).collect())
        assert got == want

    @pytest.mark.parametrize("name", ["timit_kmeans", "timit_gmm",
                                      "timit_logistic"])
    def test_iterative_solvers_run_in_worker(self, name, backend_name):
        """Pass-based estimators never gather: the featurized shard
        stays staged in the workers and only statistics cross."""
        pipe, _items = SCENARIOS[name](Context())
        backend = BACKENDS[backend_name](workers=2,
                                         task_timeout=PROCESS_TIMEOUT)
        fitted = pipe.fit(level="none", backend=backend)
        report = fitted.training_report
        assert report.actor_iterative, "solver did not run in-worker"
        assert not report.process_gathered
        assert not report.process_fallback

    def test_second_fit_hits_shard_state_cache(self, backend_name):
        """Cross-fit reuse: the same pool serving a second fit over the
        same data serves featurized shards from worker caches instead of
        recomputing (content-addressed op keys, not node identity)."""
        with BACKENDS[backend_name](workers=2, task_timeout=PROCESS_TIMEOUT,
                                    reuse_pool=False) as backend:
            first = optimize(text_pipeline).execute(backend=backend)
            second = optimize(text_pipeline).execute(backend=backend)
        cold, warm = (first.training_report, second.training_report)
        assert cold.shard_state_misses > 0
        assert warm.shard_state_hits > 0
        assert warm.shard_state_misses == 0
        assert warm.bytes_shipped < cold.bytes_shipped
        test_data = WORKLOAD.test_data(Context())
        assert (comparable(second.apply_dataset(test_data).collect())
                == comparable(first.apply_dataset(test_data).collect()))

    def test_unpicklable_flow_falls_back_to_serial(self, backend_name):
        """An operator that cannot cross the process boundary degrades to
        in-parent execution instead of failing the fit."""
        ctx = Context()
        data = ctx.parallelize([f"doc {i}" for i in range(16)], 4)
        pipe = (Pipeline.identity()
                .and_then(UnpicklableTransformer())
                .and_then(CommonSparseFeatures(4), data))
        plan = Optimizer(passes_for_level("none")).optimize(pipe)
        backend = BACKENDS[backend_name](workers=2,
                                         task_timeout=PROCESS_TIMEOUT)
        fitted = plan.execute(backend=backend)
        report = fitted.training_report
        assert report.process_fallback
        assert "CommonSparseFeatures" in report.process_fallback[0]
        assert fitted.apply("doc 3") is not None

    def test_wave_timeout_raises_instead_of_hanging(self, backend_name):
        """The deadlock/timeout guard: a wedged worker turns into a
        bounded RuntimeError, not a hung fit."""
        ctx = Context()
        data = ctx.parallelize(list(range(8)), 4)
        pipe = (Pipeline.identity()
                .and_then(SleepyTransformer(seconds=8.0))
                .and_then(CommonSparseFeatures(2), data))
        plan = Optimizer(passes_for_level("none")).optimize(pipe)
        backend = BACKENDS[backend_name](workers=2, task_timeout=0.5,
                                         max_restarts=0, reuse_pool=False)
        result = {}

        def run():
            try:
                plan.execute(backend=backend)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                result["error"] = exc

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        backend.close()
        assert not worker.is_alive(), "timed-out wave hung the fit"
        assert isinstance(result.get("error"), RuntimeError)
        assert "max_restarts" in str(result["error"])

    def test_report_times_cover_worker_nodes(self, backend_name):
        # A private pool: on a shared one an earlier test's featurized
        # shards are served from the worker caches and nothing is timed.
        with BACKENDS[backend_name](workers=2, task_timeout=PROCESS_TIMEOUT,
                                    reuse_pool=False) as backend:
            fitted = optimize(text_pipeline).execute(backend=backend)
        report = fitted.training_report
        # Featurization executed in workers still lands in node_seconds;
        # estimator fits are timed in the parent.
        assert len(report.node_seconds) >= 4
        assert len(report.estimator_seconds) == 2
        assert all(t >= 0.0 for t in report.node_seconds.values())


class TestAutoBackendRecommendation:
    def test_hint_mapping(self):
        sharding = ShardingPass(workers="auto")
        assert sharding._recommend_backend(1, 0.0) == "local"
        assert sharding._recommend_backend(4, 0.01) == "actors"
        assert sharding._recommend_backend(4, 0.5) == "pipelined"

    def test_hint_mapping_amortizes_iterative_passes(self):
        """Persistent workers pay shard movement once per fit, not once
        per pass: the network share is judged amortized, so iterative
        workloads flip to the actor runtime."""
        sharding = ShardingPass(workers="auto")
        # 0.5 network share over 10 passes amortizes to 0.05 <= 0.15.
        assert sharding._recommend_backend(4, 0.5, 10) == "actors"
        assert sharding._recommend_backend(4, 0.01, 20) == "actors"
        # Two passes are not enough to amortize 0.5 below the threshold.
        assert sharding._recommend_backend(4, 0.5, 2) == "pipelined"
        # One worker stays serial no matter how iterative the solver is.
        assert sharding._recommend_backend(1, 0.01, 50) == "local"
        # Non-iterative plans are judged on the unamortized share.
        assert sharding._recommend_backend(4, 0.01, 1) == "actors"

    def test_auto_recommends_actors_for_iterative_workload(self):
        """A k-means-headed plan profiles as iterative (weight > 1), so
        workers="auto" recommends the actor runtime and ``backend="auto"``
        executes on it."""
        rng = np.random.default_rng(3)
        pts = [rng.normal(size=16) for _ in range(120)]

        def builder(ctx):
            data = ctx.parallelize(pts, 4)
            return (Pipeline.identity()
                    .and_then(StandardScaler(), data)
                    .and_then(KMeansEstimator(3, max_iter=10, seed=0),
                              data))

        passes = passes_for_level("full", sample_sizes=(20, 40))
        passes.append(ShardingPass(workers="auto", max_workers=4))
        plan = Optimizer(passes).optimize(builder(Context()),
                                          resources=r3_4xlarge(4))
        assert plan.state.shard_workers >= 2
        assert plan.state.shard_backend == "actors"
        assert "recommended backend: actors" in plan.explain()
        fitted = plan.execute(backend="auto")
        report = fitted.training_report
        assert report.backend.startswith("actors")
        assert "KMeansEstimator" in report.actor_iterative

    def test_auto_recommends_actors_when_network_is_cheap(self):
        """Featurization-dominated text plan, tiny coordination bytes:
        the auto-chooser recommends multi-process execution."""
        passes = passes_for_level("full", sample_sizes=(20, 40))
        passes.append(ShardingPass(workers="auto", max_workers=4))
        plan = Optimizer(passes).optimize(text_pipeline(Context()),
                                          resources=r3_4xlarge(4))
        assert plan.state.shard_workers >= 2
        assert plan.state.shard_backend == "actors"
        assert "recommended backend: actors" in plan.explain()

    def test_execute_auto_honours_recommendation(self):
        passes = passes_for_level("full", sample_sizes=(20, 40))
        passes.append(ShardingPass(workers="auto", max_workers=2))
        plan = Optimizer(passes).optimize(text_pipeline(Context()),
                                          resources=r3_4xlarge(2))
        fitted = plan.execute(backend="auto")
        assert fitted.training_report.backend.startswith(
            plan.state.shard_backend)

    def test_execute_auto_without_recommendation_is_local(self):
        fitted = optimize(text_pipeline).execute(backend="auto")
        assert fitted.training_report.backend == "local"


class TestShardingPass:
    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ShardingPass(workers=0)

    def test_decisions_reach_explain(self):
        plan = optimize(text_pipeline, [ShardingPass(workers=8)])
        text = plan.explain()
        assert "ShardingPass" in text
        assert "workers=8" in text
        assert "sharding: 8 workers" in text
        assert "coordinated=" in text

    def test_roles_recorded_on_state(self):
        plan = optimize(branching_pipeline, [ShardingPass(workers=4)])
        state = plan.state
        assert state.shard_workers == 4
        kinds = {n.id: n.kind for n in g.ancestors([state.sink])}
        for nid, role in state.shard_roles.items():
            if kinds[nid] in (g.ESTIMATOR, g.GATHER):
                assert role == ShardingPass.COORDINATED
            else:
                assert role == ShardingPass.DATA_PARALLEL

    def test_workers_default_from_resources(self):
        passes = passes_for_level("none")
        passes.append(ShardingPass())
        plan = Optimizer(passes).optimize(text_pipeline(Context()),
                                          resources=r3_4xlarge(32))
        assert plan.state.shard_workers == 32


class TestExclusiveTimerThreadSafety:
    def test_per_thread_attribution(self):
        """Nested time on one thread must not leak into another's frame."""
        timer = ExclusiveTimer()

        def inner():
            time.sleep(0.03)

        wrapped_inner = timer.wrap("inner", inner)

        def outer():
            wrapped_inner()
            time.sleep(0.03)

        def other():
            time.sleep(0.08)

        threads = [threading.Thread(target=timer.wrap("outer", outer)),
                   threading.Thread(target=timer.wrap("other", other))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # With a shared stack, "other" (started second, finished last)
        # would absorb "outer"'s nested time or crash on pop.
        assert timer.times["inner"] == pytest.approx(0.03, abs=0.02)
        assert timer.times["outer"] == pytest.approx(0.03, abs=0.02)
        assert timer.times["other"] == pytest.approx(0.08, abs=0.02)

    def test_concurrent_accumulation_no_loss(self):
        """4 threads x 20 timed calls must all land in the accumulator."""
        timer = ExclusiveTimer()
        calls_per_thread, sleep = 20, 0.002
        fn = timer.wrap("x", lambda: time.sleep(sleep))

        def hammer():
            for _ in range(calls_per_thread):
                fn()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Dropped updates would leave the total below the slept floor.
        assert timer.times["x"] >= 4 * calls_per_thread * sleep
