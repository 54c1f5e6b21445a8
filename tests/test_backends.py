"""Tests for the pluggable ExecutionBackend API.

The contract under test: every backend trains a physical plan to
byte-identical predictions vs the serial LocalBackend, on both a linear
(quickstart-style) pipeline and a gather/branching one; backend selection
threads through ``plan.execute``, ``Pipeline.fit`` and
``FittedPipeline.apply`` / ``apply_dataset``; ``ShardingPass`` decisions
reach ``explain()``, and ``plan_scaling_sweep`` prices a fit through the
same stage rule, anchored to measured serial time at one worker.
"""

import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster.resources import r3_4xlarge
from repro.core import graph as g
from repro.core.backends import (
    BACKENDS,
    ActorBackend,
    LocalBackend,
    ProcessPoolBackend,
    TrainingSession,
    resolve_backend,
    shutdown_actor_pools,
    shutdown_worker_pools,
)
from repro.core.executor import ExclusiveTimer
from repro.core.operators import Transformer
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import (
    ShardingPass,
    plan_scaling_sweep,
    simulated_node_stages,
)
from repro.core.plan import PassDecision
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


def gather_then_solve(ctx, wl=WORKLOAD):
    """Two featurization branches gathered into one solver."""
    from repro.nodes.numeric import VectorCombiner

    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    b1 = (Pipeline.identity().and_then(Tokenizer())
          .and_then(TermFrequency(lambda c: 1.0))
          .and_then(CommonSparseFeatures(100), data))
    b2 = (Pipeline.identity().and_then(LowerCase()).and_then(Tokenizer())
          .and_then(TermFrequency(lambda c: 1.0))
          .and_then(CommonSparseFeatures(50), data))
    return (Pipeline.gather([b1, b2]).and_then(VectorCombiner())
            .and_then(LinearSolver(), data, labels))


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
    # retired registry names, still resolved by name by the observatory's
    # backend probe: they must keep giving the serial predictions
    pytest.param(lambda: resolve_backend("pipelined"), id="pipelined"),
    pytest.param(lambda: resolve_backend("sharded"), id="sharded"),
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

    @pytest.mark.parametrize("make_backend", ALL_BACKENDS)
    def test_estimator_times_attributed(self, make_backend):
        """Each estimator's fit time is its measured node time, once."""
        fitted = optimize(branching_pipeline).execute(
            backend=make_backend())
        report = fitted.training_report
        # Three estimators: CommonSparseFeatures + two LinearSolvers.
        assert len(report.estimator_seconds) == 3
        for node_id, seconds in report.estimator_seconds.items():
            assert seconds >= 0
            assert seconds == report.node_seconds[node_id]

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
            plan.execute()

    def test_fit_accepts_backend(self):
        backend = ActorBackend(workers=2, task_timeout=PROCESS_TIMEOUT)
        fitted = text_pipeline(Context()).fit(sample_sizes=(20, 40),
                                              backend=backend)
        assert fitted.training_report.backend == "actors[workers=2]"
        assert fitted.apply("fine product") is not None


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
        backend = LocalBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_names_resolve(self, name):
        assert type(resolve_backend(name)) is BACKENDS[name]

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


class TestConcurrentTraining:
    def test_lru_cache_safe_under_concurrency(self):
        """Regression: concurrent partition pulls raced the cache manager
        (eviction KeyError + corrupted byte accounting).  The two solver
        fits share one LRU-cached featurization and run on a thread pool;
        the batch output is then pulled partition-parallel."""
        reference = comparable(
            branching_pipeline(Context())
            .fit(sample_sizes=(20, 40), cache_strategy="lru",
                 mem_budget_bytes=2e5)
            .apply_dataset(WORKLOAD.test_data(Context())).collect())

        passes = passes_for_level("full", sample_sizes=(20, 40),
                                  cache_strategy="lru",
                                  mem_budget_bytes=2e5)
        plan = Optimizer(passes).optimize(branching_pipeline(Context()))
        session = TrainingSession(plan, None)
        selector, *solvers = session.estimator_nodes()
        assert [n.label for n in solvers] == ["LinearSolver"] * 2
        session.fit_estimator(selector)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(session.fit_estimator, solvers))
            out = session.finish().apply_dataset(
                WORKLOAD.test_data(Context()))
            parts = list(pool.map(out.partition,
                                  range(out.num_partitions)))
        cache = session.ctx.cache
        assert cache.used == sum(e.size for e in cache.entries.values())
        assert cache.used <= cache.budget
        assert comparable([row for part in parts for row in part]) == \
            reference


def _sweep_total(sweep, w):
    return sum(sweep[w].values())


class TestPlanScalingSweep:
    """Cluster scaling is priced from any fit's measured node seconds
    through the one stage rule, ``simulated_node_stages``."""

    @pytest.fixture(scope="class")
    def text_fit(self):
        plan = optimize(text_pipeline)
        return plan, plan.execute()

    def test_one_worker_prices_measured_seconds(self, text_fit):
        """With one worker and no overhead, the price is the measurement."""
        plan, fitted = text_fit
        sweep = plan_scaling_sweep(plan, fitted, [1],
                                   resources=r3_4xlarge(1))
        assert _sweep_total(sweep, 1) == pytest.approx(
            sum(fitted.training_report.node_seconds.values()), rel=1e-9)

    def test_more_workers_cost_less(self, text_fit):
        plan, fitted = text_fit
        sweep = plan_scaling_sweep(plan, fitted, [1, 8],
                                   resources=r3_4xlarge(1))
        assert _sweep_total(sweep, 8) < _sweep_total(sweep, 1)

    @pytest.mark.parametrize("make_backend", ALL_BACKENDS)
    def test_prices_any_backends_fit(self, make_backend):
        plan = optimize(text_pipeline)
        fitted = plan.execute(backend=make_backend())
        sweep = plan_scaling_sweep(plan, fitted, [1, 8],
                                   resources=r3_4xlarge(1))
        assert _sweep_total(sweep, 1) == pytest.approx(
            sum(fitted.training_report.node_seconds.values()), rel=1e-9)
        assert _sweep_total(sweep, 8) < _sweep_total(sweep, 1)

    def test_overhead_is_paid_once_per_stage(self, text_fit):
        plan, fitted = text_fit
        stages = simulated_node_stages(
            plan.state, r3_4xlarge(4),
            node_seconds=fitted.training_report.node_seconds)
        bare = plan_scaling_sweep(plan, fitted, [4])
        paid = plan_scaling_sweep(plan, fitted, [4], overhead_per_stage=0.5)
        assert _sweep_total(paid, 4) - _sweep_total(bare, 4) == \
            pytest.approx(0.5 * len(stages), rel=1e-9)

    def test_breakdown_separates_solve_from_featurize(self, text_fit):
        plan, fitted = text_fit
        sweep = plan_scaling_sweep(plan, fitted, [4])
        assert {"Featurization", "Model Solve"} <= set(sweep[4])

    def test_strong_scaling_is_monotone(self, text_fit):
        plan, fitted = text_fit
        nodes = [8, 16, 32, 64]
        sweep = plan_scaling_sweep(plan, fitted, nodes,
                                   resources=r3_4xlarge(8))
        totals = [_sweep_total(sweep, w) for w in nodes]
        assert sorted(sweep) == nodes
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_training_flow_gather_pays_coordination(self):
        """A gather feeding an estimator gets a network-only stage; the
        never-executed inference-path sink gather does not."""
        def gather_stages(builder):
            plan = optimize(builder)
            report = plan.execute().training_report
            return [stage for node, stage in simulated_node_stages(
                        plan.state, r3_4xlarge(8),
                        node_seconds=report.node_seconds)
                    if node.kind == g.GATHER]

        gathers = gather_stages(gather_then_solve)
        assert len(gathers) == 1
        assert gathers[0].profile_fn(1).flops == 0.0
        assert gathers[0].profile_fn(1).network == 0.0
        assert gathers[0].profile_fn(8).network > 0.0
        # The branching fixture's gather sits on the inference path only
        # and must not be priced.
        assert gather_stages(branching_pipeline) == []

    def test_unprofiled_plan_raises(self):
        plan = Optimizer(passes_for_level("none")).optimize(
            text_pipeline(Context()))
        fitted = plan.execute()
        with pytest.raises(ValueError, match="needs a profiled plan"):
            plan_scaling_sweep(plan, fitted, [8, 16])


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
        assert sharding._recommend_backend(4, 0.5) == "local"

    def test_hint_mapping_amortizes_iterative_passes(self):
        """Persistent workers pay shard movement once per fit, not once
        per pass: the network share is judged amortized, so iterative
        workloads flip to the actor runtime."""
        sharding = ShardingPass(workers="auto")
        # 0.5 network share over 10 passes amortizes to 0.05 <= 0.15.
        assert sharding._recommend_backend(4, 0.5, 10) == "actors"
        assert sharding._recommend_backend(4, 0.01, 20) == "actors"
        # Two passes are not enough to amortize 0.5 below the threshold.
        assert sharding._recommend_backend(4, 0.5, 2) == "local"
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


class TestStageRulePinned:
    """``simulated_node_stages`` prices a fixed profile to fixed numbers.

    The profile is overwritten with synthetic per-node seconds and bytes,
    so the expected values below do not depend on the machine; they were
    produced by the stage rule as it stood when it served only
    ``ShardingPass(workers="auto")`` and ``CostModelCalibrator``.
    """

    #: (label, seconds at w=1, seconds at w=8) per stage, DAG order
    STAGES = [
        ("data", 0.25, 0.03125),
        ("Tokenizer", 0.5, 0.0625),
        ("TermFrequency", 0.75, 0.09375),
        ("CommonSparseFeatures", 1.0, 0.509),
        ("apply(CommonSparseFeatures)", 1.25, 0.15625),
        ("LowerCase", 1.5, 0.1875),
        ("Tokenizer", 1.75, 0.21875),
        ("TermFrequency", 2.0, 0.25),
        ("CommonSparseFeatures", 2.25, 1.14525),
        ("apply(CommonSparseFeatures)", 2.5, 0.3125),
        ("gather", 0.0, 1.056),
        ("VectorCombiner", 3.0, 0.375),
        ("labels", 3.25, 0.40625),
        ("LinearSolver", 3.5, 1.7815),
        ("Tokenizer", 4.0, 0.5),
        ("TermFrequency", 4.25, 0.53125),
        ("apply(CommonSparseFeatures)", 4.5, 0.5625),
        ("LowerCase", 4.75, 0.59375),
        ("Tokenizer", 5.0, 0.625),
        ("TermFrequency", 5.25, 0.65625),
        ("apply(CommonSparseFeatures)", 5.5, 0.6875),
        ("gather", 0.0, 2.208),
        ("VectorCombiner", 6.0, 0.75),
        ("apply(LinearSolver)", 6.25, 0.78125),
    ]

    @pytest.fixture
    def state(self):
        plan = Optimizer(passes_for_level("full", sample_sizes=(20, 40))) \
            .optimize(gather_then_solve(Context()),
                      resources=r3_4xlarge(16))
        state = plan.state
        for i, node in enumerate(g.ancestors([state.sink])):
            entry = state.profile.nodes[node.id]
            entry.t_seconds = 0.0 if node.kind == g.GATHER else 0.25 * (i + 1)
            entry.size_bytes = 4e7 * (i + 1)
        return state

    def test_stage_seconds(self, state):
        from repro.cluster.simulator import ClusterSimulator

        stages = simulated_node_stages(state, r3_4xlarge(1))
        assert [n.label for n, _ in stages] == [s[0] for s in self.STAGES]
        for column, w in ((1, 1), (2, 8)):
            sim = ClusterSimulator(r3_4xlarge(w), overhead_per_stage=0.0)
            assert [sim.time_stage(s) for _, s in stages] == pytest.approx(
                [row[column] for row in self.STAGES], rel=1e-12)

    def test_auto_decision(self, state):
        sharding = ShardingPass(workers="auto", max_workers=16)
        state.decisions.append(PassDecision(name=sharding.name))
        sharding.run(state)
        details = state.decisions[-1].details
        assert state.shard_workers == 16
        assert details["simulated_seconds"] == 12.1205
        assert details["network_fraction"] == 0.6442
        # Expensive coordination: serial in-process execution.
        assert state.shard_backend == "local"


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
