"""Unit tests for the observability subsystem (repro.obs)."""

import json
import os
import threading

import pytest

from repro.core.executor import TrainingReport
from repro.obs import (
    CostModelCalibrator,
    Histogram,
    MetricsRegistry,
    Tracer,
    aggregate,
)
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    obs_trace.disable()
    yield
    obs_trace.disable()


class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick")
        spans = tracer.spans
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["tick"]["parent"] == by_name["inner"]["id"]
        assert by_name["tick"]["kind"] == "event"
        # inner closed before outer: duration containment holds
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner["dur"] <= outer["dur"]

    def test_ids_are_globally_unique_strings(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        rec = tracer.spans[0]
        assert rec["id"].startswith(f"{os.getpid()}-")

    def test_record_is_post_hoc(self):
        tracer = Tracer()
        tracer.record("op", seconds=0.5, key="k1", args={"node_id": 3})
        rec = tracer.spans[0]
        assert rec["dur"] == pytest.approx(0.5e6)
        assert rec["key"] == "k1"
        assert rec["kind"] == "span"

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            tracer.event("e")
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_drain_and_absorb_round_trip(self):
        worker = Tracer()
        worker.record("op", seconds=0.1, key="k")
        drained = worker.drain()
        assert len(worker) == 0
        parent = Tracer()
        parent.absorb(drained, worker="shard0")
        assert parent.spans[0]["worker"] == "shard0"

    def test_chrome_trace_is_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", key="k1"):
            tracer.event("mark")
        path = str(tmp_path / "trace.json")
        tracer.export_chrome_trace(path)
        with open(path) as fh:
            doc = json.load(fh)
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert phases == {"X", "i", "M"}
        complete = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert complete[0]["args"]["key"] == "k1"
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert meta[0]["name"] == "process_name"

    def test_aggregate_groups_by_content_key(self):
        tracer = Tracer()
        tracer.record("tokenize@A", seconds=0.2, key="same")
        tracer.record("tokenize@B", seconds=0.3, key="same")
        tracer.record("other", seconds=0.1)
        rows = aggregate(tracer.spans)
        assert rows[0]["key"] == "same"
        assert rows[0]["count"] == 2
        assert rows[0]["seconds"] == pytest.approx(0.5)

    def test_node_seconds_filters_by_category(self):
        tracer = Tracer()
        tracer.record("op", seconds=0.2, args={"node_id": 7})
        with tracer.span("fit", cat="fit", args={"node_id": 7}):
            pass
        seconds = obs_trace.node_seconds(tracer.spans)
        assert seconds == {7: pytest.approx(0.2)}


class TestModuleLevelFastPath:
    def test_disabled_span_is_shared_noop(self):
        assert obs_trace.span("x") is obs_trace.span("y")
        with obs_trace.span("x"):
            pass  # no tracer: nothing recorded, nothing raised
        obs_trace.event("e")
        obs_trace.absorb([{"name": "r"}])

    def test_enable_disable(self):
        tracer = obs_trace.enable()
        assert obs_trace.active() is tracer
        with obs_trace.span("x"):
            pass
        assert obs_trace.disable() is tracer
        assert not obs_trace.enabled()
        assert len(tracer) == 1

    def test_instrument_checks_per_call(self):
        calls = []
        fn = obs_trace.instrument("wrapped", lambda v: calls.append(v), node_id=1)
        fn(1)  # disabled: plain call
        tracer = obs_trace.enable()
        fn(2)
        obs_trace.disable()
        fn(3)
        assert calls == [1, 2, 3]
        assert len(tracer) == 1
        assert tracer.spans[0]["args"] == {"node_id": 1}


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("requests")
        reg.inc("requests", 2)
        reg.set("depth", 4.0)
        for v in [1.0, 2.0, 3.0]:
            reg.observe("latency", v)
        out = reg.to_dict()
        assert out["requests"] == 3
        assert out["depth"] == 4.0
        assert out["latency"]["count"] == 3
        assert out["latency"]["mean"] == pytest.approx(2.0)

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_create_or_get_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_histogram_window_is_bounded(self):
        h = Histogram("h", window=4)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100  # exact count survives eviction
        assert h.total == pytest.approx(sum(range(100)))
        assert len(h.values()) == 4  # but the reservoir is bounded
        assert h.percentile(0.0) == 96.0

    def test_histogram_percentile_matches_latency_recorder(self):
        from repro.serving.metrics import LatencyRecorder

        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        h = Histogram("h")
        rec = LatencyRecorder()
        for v in values:
            h.observe(v)
            rec.record(v)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.percentile(q) == rec.percentile(q)

    def test_thread_safety_of_counter(self):
        reg = MetricsRegistry()

        def bump():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.get("n").value == 4000


class TestTrainingReportSummary:
    def _report(self):
        return TrainingReport(
            level="full", backend="actors[workers=2]",
            optimize_seconds=0.5, execute_seconds=2.0,
            cse_nodes_removed=3, recomputations=7,
            actor_iterative=["KMeansEstimator"], worker_restarts=1,
            shard_state_hits=4, shard_state_misses=2,
            bytes_shipped=1024, bytes_mapped=2048)

    def test_summary_mentions_the_facts(self):
        text = self._report().summary()
        assert "actors[workers=2]" in text
        assert "2.000s" in text
        assert "4 hits" in text
        assert "restarts 1" in text

    def test_summary_omits_irrelevant_sections(self):
        text = TrainingReport(level="none", backend="local").summary()
        assert "actors:" not in text
        assert "process:" not in text

    def test_to_dict_is_registry_backed(self):
        out = self._report().to_dict()
        assert out["backend"] == "actors[workers=2]"
        assert out["execute_seconds"] == 2.0
        assert out["worker_restarts"] == 1
        assert out["bytes_shipped"] == 1024

    def test_fill_registry_prefixes(self):
        reg = self._report().fill_registry(prefix="training")
        assert reg.get("training.worker_restarts").value == 1


class TestCostModelCalibrator:
    def test_calibration_reduces_error(self):
        cal = CostModelCalibrator()
        for pred, obs in [(1.0, 2.1), (2.0, 3.9), (0.5, 1.05)]:
            cal.observe("n", pred, obs)
        result = cal.calibrate()
        assert result.samples == 3
        assert result.compute_scale == pytest.approx(2.0, rel=0.1)
        assert result.error_after < result.error_before
        assert result.error_ratio > 1.0

    def test_empty_calibrator_is_identity(self):
        result = CostModelCalibrator().calibrate()
        assert result.compute_scale == 1.0
        assert result.error_ratio == 1.0

    def test_nonpositive_pairs_skipped(self):
        cal = CostModelCalibrator()
        cal.observe("n", 0.0, 1.0)
        cal.observe("n", 1.0, 0.0)
        assert cal.pairs == []

    def test_report_path_counts_estimator_time_once(self):
        """``estimator_seconds`` is a view of the timer ``node_seconds``
        is built from: a joined estimator observes its node seconds, not
        twice them."""
        from repro.core import graph as g
        from repro.core.optimizer import Optimizer, passes_for_level
        from repro.core.pipeline import Pipeline
        from repro.dataset import Context
        from repro.nodes.learning.linear import LinearSolver
        from repro.nodes.text import (
            CommonSparseFeatures,
            TermFrequency,
            Tokenizer,
        )
        from repro.workloads import amazon_reviews

        wl = amazon_reviews(120, 10, vocab_size=200, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(50), data)
            .and_then(LinearSolver(), data, wl.train_label_vectors(ctx))
        )
        plan = Optimizer(passes_for_level("full", sample_sizes=(20, 40))).optimize(
            pipe
        )
        report = plan.execute().training_report
        calibrator = CostModelCalibrator()
        assert calibrator.observe_plan(plan, report=report) > 0
        observed = {label: seconds for label, _, seconds in calibrator.pairs}
        estimators = [
            n for n in g.ancestors([plan.state.sink]) if n.kind == g.ESTIMATOR
        ]
        assert {n.label for n in estimators} == {
            "CommonSparseFeatures",
            "LinearSolver",
        }
        for node in estimators:
            assert node.id in report.estimator_seconds
            assert observed[node.label] == report.node_seconds[node.id]


class TestPlanObservedExplain:
    def _plan(self):
        from repro.core.optimizer import Optimizer, passes_for_level
        from repro.core.pipeline import Pipeline
        from repro.dataset import Context
        from repro.nodes.text import (
            CommonSparseFeatures,
            TermFrequency,
            Tokenizer,
        )

        ctx = Context()
        data = ctx.parallelize([f"doc {i % 5}" for i in range(20)], 2)
        pipe = (
            Pipeline.identity()
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(5), data)
        )
        return Optimizer(passes_for_level("none")).optimize(pipe)

    def test_observed_explain_annotates_empty_trace(self):
        text = self._plan().explain(observed=True)
        assert "no spans recorded" in text

    def test_observed_explain_renders_span_table(self):
        plan = self._plan()
        tracer = obs_trace.enable()
        try:
            plan.execute()
        finally:
            obs_trace.disable()
        text = plan.explain(observed=True, tracer=tracer)
        assert "observed ops" in text
        assert "Tokenizer" in text

    def test_sharding_pass_accepts_calibration(self):
        from repro.cluster.resources import r3_4xlarge
        from repro.cluster.simulator import ClusterSimulator
        from repro.core.optimizer import Optimizer, passes_for_level
        from repro.core.passes import ShardingPass, simulated_node_stages
        from repro.core.pipeline import Pipeline
        from repro.dataset import Context
        from repro.nodes.text import (
            CommonSparseFeatures,
            TermFrequency,
            Tokenizer,
        )

        ctx = Context()
        data = ctx.parallelize([f"doc {i % 5}" for i in range(40)], 2)
        pipe = (
            Pipeline.identity()
            .and_then(Tokenizer())
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(5), data)
        )
        plan = Optimizer(passes_for_level("full", sample_sizes=(10, 20))).optimize(
            pipe, resources=r3_4xlarge(4)
        )
        sim = ClusterSimulator(r3_4xlarge(1), overhead_per_stage=0.0)
        base = sum(
            sim.time_stage(stage) for _, stage in simulated_node_stages(plan.state)
        )
        doubled = sum(
            sim.time_stage(stage)
            for _, stage in simulated_node_stages(plan.state, compute_scale=2.0)
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-6)
        # and the pass itself accepts a calibration object
        result = CostModelCalibrator()
        for pred, obs in [(1.0, 2.0), (2.0, 4.0)]:
            result.observe("n", pred, obs)
        ShardingPass(workers="auto", calibration=result.calibrate())
