"""Tests for pipeline fitting: levels, reports, caching behaviour."""

import pytest

from repro.core.executor import ExclusiveTimer
from repro.core.operators import Iterative, LabelEstimator, Transformer
from repro.core.pipeline import Pipeline
from repro.dataset import Context


class Slow(Transformer):
    """A transformer whose work is observable via a counter."""

    calls = 0

    def apply(self, x):
        Slow.calls += 1
        return x + 1


class IterativeEstimator(LabelEstimator, Iterative):
    """Scans its input `weight` times, like a real solver."""

    def __init__(self, passes=5):
        self.weight = passes
        self.passes = passes

    def fit(self, data, labels):
        total = 0.0
        for _ in range(self.passes):
            total += sum(data.collect())
        mean = total / (self.passes * data.count())

        class Sub(Transformer):
            def apply(self, x, _m=mean):
                return x - _m

        return Sub()


@pytest.fixture(autouse=True)
def _reset_counter():
    Slow.calls = 0


def _pipeline(ctx, passes=5):
    data = ctx.parallelize([float(i) for i in range(40)], 2)
    labels = ctx.parallelize([float(i) for i in range(40)], 2)
    return (Pipeline.identity()
            .and_then(Slow())
            .and_then(IterativeEstimator(passes), data, labels))


class TestLevels:
    def test_unknown_level(self):
        ctx = Context()
        with pytest.raises(ValueError, match="unknown optimization level"):
            _pipeline(ctx).fit(level="turbo")

    def test_none_level_runs(self):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="none")
        assert fitted.training_report.cache_set == set()

    def test_full_level_caches_iterated_input(self):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="full", sample_sizes=(5, 10))
        assert len(fitted.training_report.cache_set) > 0

    def test_caching_reduces_recomputation(self):
        ctx_none = Context()
        _pipeline(ctx_none, passes=6).fit(level="none")
        calls_none = Slow.calls

        Slow.calls = 0
        ctx_full = Context()
        _pipeline(ctx_full, passes=6).fit(level="full", sample_sizes=(5, 10))
        calls_full = Slow.calls
        # Unoptimized recomputes featurization on every pass.
        assert calls_none > 3 * calls_full


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["greedy", "lru", "rule", "none"])
    def test_strategies_execute(self, strategy):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="full", sample_sizes=(5, 10),
                                    cache_strategy=strategy,
                                    mem_budget_bytes=1e9)
        assert fitted.apply(1.0) is not None

    def test_rule_based_recomputes_more_than_greedy(self):
        ctx = Context()
        exec_ctx = Context()
        _pipeline(ctx, passes=8).fit(level="full", sample_sizes=(5, 10),
                                     cache_strategy="rule", ctx=exec_ctx)
        rule_recomp = exec_ctx.stats.total_computations()

        ctx2 = Context()
        exec_ctx2 = Context()
        _pipeline(ctx2, passes=8).fit(level="full", sample_sizes=(5, 10),
                                      cache_strategy="greedy",
                                      mem_budget_bytes=1e9, ctx=exec_ctx2)
        greedy_recomp = exec_ctx2.stats.total_computations()
        assert rule_recomp > greedy_recomp

    def test_lru_without_profile(self):
        """LRU must work even at level=none (no profile available)."""
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="none", cache_strategy="lru",
                                    mem_budget_bytes=1e9)
        assert fitted.apply(0.0) is not None


class TestReport:
    def test_stage_seconds_partition(self):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="full", sample_sizes=(5, 10))
        stages = fitted.training_report.stage_seconds()
        assert set(stages) == {"Optimize", "Featurize", "Solve"}
        assert all(v >= 0 for v in stages.values())

    def test_estimator_seconds_recorded(self):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="none")
        assert len(fitted.training_report.estimator_seconds) == 1

    def test_selections_empty_at_pipe_level(self):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="pipe", sample_sizes=(5, 10))
        assert fitted.training_report.selections == {}

    def test_cache_labels_human_readable(self):
        ctx = Context()
        fitted = _pipeline(ctx).fit(level="full", sample_sizes=(5, 10))
        for label in fitted.training_report.cache_set_labels:
            assert isinstance(label, str)


class TestExclusiveTimer:
    def test_nested_attribution(self):
        import time

        timer = ExclusiveTimer()

        def inner():
            time.sleep(0.02)

        def outer():
            wrapped_inner()
            time.sleep(0.02)

        wrapped_inner = timer.wrap("inner", inner)
        wrapped_outer = timer.wrap("outer", outer)
        wrapped_outer()
        assert timer.times["inner"] == pytest.approx(0.02, abs=0.015)
        assert timer.times["outer"] == pytest.approx(0.02, abs=0.015)

    def test_time_block(self):
        import time

        timer = ExclusiveTimer()
        with timer.time_block("blk"):
            time.sleep(0.01)
        assert timer.times["blk"] >= 0.005

    def test_accumulates_over_calls(self):
        timer = ExclusiveTimer()
        fn = timer.wrap("x", lambda: None)
        fn()
        fn()
        assert timer.times["x"] >= 0

    def test_added_seconds_leave_the_open_frame(self):
        """Seconds credited inside a frame (an evaluator op run during a
        fit) count for their node, not again for the frame's."""
        import time

        timer = ExclusiveTimer()
        start = time.perf_counter()
        with timer.time_block("fit"):
            timer.add("op", 0.5)
        elapsed = time.perf_counter() - start
        assert timer.times["op"] == 0.5
        assert timer.times["fit"] == pytest.approx(elapsed - 0.5, abs=1e-3)
