"""Incremental training: FitStore, warm retrain, deduped sweeps, streaming.

Covers the three consumers of :mod:`repro.incremental` plus the store's
degradation contract.  The acceptance bar throughout is byte-identity:
every warm, deduped, or streaming fit must produce predictions
``np.array_equal`` to an independent cold ``LocalBackend`` fit.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro import io as rio
from repro.core.backends import BACKENDS
from repro.core.backends.actors import ActorBackend
from repro.core.backends.local import LocalBackend
from repro.core.pipeline import Pipeline
from repro.core.tuning import GridSearch
from repro.dataset.context import Context
from repro.incremental import FitStore, SweepPlanner, diff_pipelines, refit
from repro.nodes.learning.random_features import CosineRandomFeatures
from repro.nodes.numeric import StandardScaler
from repro.nodes.text import CommonSparseFeatures, LowerCase, TermFrequency, Tokenizer
from repro.pipelines.amazon import amazon_pipeline
from repro.workloads import amazon_reviews

WORKLOAD = amazon_reviews(200, 30, vocab_size=300, seed=0)
L2_GRID = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0)


def build_text(ctx, l2_reg=1e-8, num_features=100):
    """The Amazon pipeline with the hyperparameter knob that survives
    optimization (every physical solver carries l2_reg)."""
    return amazon_pipeline(ctx, WORKLOAD, num_features=num_features, l2_reg=l2_reg)


def predictions(fitted, ctx):
    return np.asarray(fitted.apply_dataset(WORKLOAD.test_data(ctx)).collect())


def accuracy(fitted, ctx):
    preds = predictions(fitted, ctx)
    yhat = preds.argmax(axis=1)
    return float((yhat == np.asarray(WORKLOAD.test_labels)).mean())


class TestFitStore:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            FitStore(budget_bytes=0)

    def test_get_returns_fresh_copy(self):
        store = FitStore()
        store.put("k", [1, 2, 3])
        first = store.get("k")
        first.append(99)
        assert store.get("k") == [1, 2, 3]

    def test_miss_returns_none(self):
        store = FitStore()
        assert store.get("absent") is None
        assert "absent" not in store

    def test_over_budget_insert_evicts_lru(self):
        blob = b"x" * 64
        size = len(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL))
        store = FitStore(budget_bytes=2 * size)
        assert store.put("a", blob)
        assert store.put("b", blob)
        assert store.get("a") == blob  # touch: "b" is now least recent
        assert store.put("c", blob)
        assert store.evictions == 1
        assert "b" not in store
        assert "a" in store and "c" in store

    def test_entry_larger_than_budget_rejected(self):
        store = FitStore(budget_bytes=16)
        assert not store.put("huge", b"y" * 1024)
        assert len(store) == 0

    def test_unpicklable_value_refused(self):
        store = FitStore()
        assert not store.put("f", lambda x: x)
        assert "f" not in store

    def test_corrupt_entry_reads_as_miss_and_drops(self):
        store = FitStore()
        store.manager.put("bad", [b"\x80not a pickle"], 13)
        assert store.get("bad") is None
        assert "bad" not in store

    def test_namespaces_are_disjoint(self):
        store = FitStore()
        store.put_fit("k", "model")
        store.put_stats("k", "stat")
        assert store.get_fit("k") == "model"
        assert store.get_stats("k") == "stat"
        assert len(store) == 2


class TestFitStorePersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = FitStore(budget_bytes=1 << 20)
        store.put("a", np.arange(4))
        store.put("b", {"w": [1.5]})
        path = tmp_path / "store.bin"
        store.save(path)
        loaded = FitStore.load(path)
        assert sorted(loaded.keys()) == ["a", "b"]
        assert np.array_equal(loaded.get("a"), np.arange(4))
        assert loaded.get("b") == {"w": [1.5]}
        assert loaded.budget_bytes == 1 << 20

    def test_missing_file_loads_empty(self, tmp_path):
        store = FitStore.load(tmp_path / "nope.bin")
        assert len(store) == 0

    def test_garbage_file_loads_empty(self, tmp_path):
        path = tmp_path / "store.bin"
        path.write_bytes(b"this is not a pickle at all")
        assert len(FitStore.load(path)) == 0

    def test_truncated_file_loads_empty(self, tmp_path):
        store = FitStore()
        store.put("a", list(range(100)))
        path = tmp_path / "store.bin"
        store.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert len(FitStore.load(path)) == 0

    def test_wrong_format_version_loads_empty(self, tmp_path):
        path = tmp_path / "store.bin"
        doc = {"format": 999, "budget_bytes": 10.0, "entries": []}
        path.write_bytes(pickle.dumps(doc))
        store = FitStore.load(path)
        assert len(store) == 0
        assert store.budget_bytes == float("inf")

    def test_budget_override(self, tmp_path):
        store = FitStore(budget_bytes=1024)
        path = tmp_path / "store.bin"
        store.save(path)
        assert FitStore.load(path, budget_bytes=2048).budget_bytes == 2048


class TestWarmRetrain:
    def test_cold_fit_populates_store(self):
        ctx = Context()
        store = FitStore()
        fitted = build_text(ctx).fit(fit_store=store)
        report = fitted.training_report
        assert report.reused_ops == []
        assert sorted(report.refit_ops) == [
            "CommonSparseFeatures",
            "LinearSolver",
        ]
        assert report.reused_op_fraction == 0.0
        assert len(store) > 0

    def test_identical_refit_reuses_everything(self):
        ctx = Context()
        store = FitStore()
        build_text(ctx).fit(fit_store=store)
        warm = refit(build_text(ctx), store)
        report = warm.training_report
        assert report.refit_ops == []
        assert report.reused_op_fraction == 1.0
        cold = build_text(ctx).fit()
        assert np.array_equal(predictions(warm, ctx), predictions(cold, ctx))

    def test_hyperparam_change_refits_only_downstream(self):
        ctx = Context()
        store = FitStore()
        build_text(ctx, l2_reg=1e-8).fit(fit_store=store)
        warm = build_text(ctx, l2_reg=1e-2).refit(store)
        report = warm.training_report
        assert report.reused_ops == ["CommonSparseFeatures"]
        assert report.refit_ops == ["LinearSolver"]
        assert report.reused_op_fraction == 0.5
        cold = build_text(ctx, l2_reg=1e-2).fit()
        assert np.array_equal(predictions(warm, ctx), predictions(cold, ctx))

    def test_data_change_invalidates(self):
        ctx = Context()
        store = FitStore()
        build_text(ctx).fit(fit_store=store)
        other = amazon_reviews(200, 30, vocab_size=300, seed=1)
        changed = amazon_pipeline(ctx, other, num_features=100)
        report = changed.fit(fit_store=store).training_report
        assert report.reused_ops == []

    def test_diff_pipelines_previews_reuse(self):
        ctx = Context()
        diff = diff_pipelines(
            build_text(ctx, l2_reg=1e-8), build_text(ctx, l2_reg=1e-2)
        )
        assert diff.reusable == ["CommonSparseFeatures"]
        assert diff.stale == ["LinearSolver"]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_reuse_on_every_backend(self, backend):
        ctx = Context()
        store = FitStore()
        build_text(ctx).fit(fit_store=store, backend=backend)
        warm = build_text(ctx).fit(fit_store=store, backend=backend)
        assert warm.training_report.reused_op_fraction == 1.0
        cold = build_text(ctx).fit()
        assert np.array_equal(predictions(warm, ctx), predictions(cold, ctx))


class TestSweep:
    def test_union_dedup_counts(self):
        ctx = Context()
        configs = [{"l2": l2} for l2 in L2_GRID]
        planner = SweepPlanner(lambda p: build_text(ctx, l2_reg=p["l2"]), configs)
        trials, report = planner.run()
        assert len(trials) == len(configs)
        assert report.unique_ops < report.total_ops
        assert report.shared_ops == report.total_ops - report.unique_ops
        assert report.dedup_ratio > 1.0

    def test_trials_byte_identical_to_independent_fits(self):
        ctx = Context()
        configs = [{"l2": l2} for l2 in L2_GRID]
        planner = SweepPlanner(lambda p: build_text(ctx, l2_reg=p["l2"]), configs)
        trials, _ = planner.run()
        for params, trial in zip(configs, trials):
            cold = build_text(ctx, l2_reg=params["l2"]).fit()
            assert np.array_equal(predictions(trial, ctx), predictions(cold, ctx))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepPlanner(lambda p: None, []).union_pipeline()

    def test_built_datasets_outlive_the_union_build(self):
        """The fingerprint memo is keyed by ``id(dataset)``: a dataset
        freed mid-build could hand its id, and so its digest, to a later
        one.  Every dataset a builder made stays alive until the union
        is built."""
        refs, dead = [], []

        def builder(params):
            gc.collect()
            dead.append(sum(ref() is None for ref in refs))
            ctx = Context()
            data = ctx.parallelize(VECTORS[:20], 2)
            refs.append(weakref.ref(data))
            return Pipeline.identity().and_then(StandardScaler(), data)

        SweepPlanner(builder, [{"i": i} for i in range(5)]).union_pipeline()
        assert dead == [0] * 5

    def test_union_releases_each_trials_cached_data(self, monkeypatch):
        """A serial union fit drops a trial's cached features once its
        estimator has fitted, so no later trial's fit sees them."""
        widths = []
        fit = StandardScaler.fit

        def spy(self, data, labels=None):
            model = fit(self, data)
            entries = list(data.ctx.cache.entries.values())
            widths.append({len(e.value[0]) for e in entries if e.value})
            return model

        monkeypatch.setattr(StandardScaler, "fit", spy)
        ctx = Context()
        data = ctx.parallelize(VECTORS, 4)

        def builder(params):
            return (
                Pipeline.identity()
                .and_then(CosineRandomFeatures(params["d"], seed=0), data)
                .and_then(StandardScaler(), data)
            )

        configs = [{"d": d} for d in (5, 6, 7)]
        SweepPlanner(
            builder,
            configs,
            fit_kwargs={"cache_strategy": "all", "sample_sizes": (10, 20)},
        ).run()
        assert widths[-3:] == [{3, 5}, {3, 6}, {3, 7}]

    def test_grid_search_incremental_matches_plain(self):
        ctx = Context()
        grid = {"l2": list(L2_GRID)}

        def builder(params):
            return build_text(ctx, l2_reg=params["l2"])

        def scorer(fitted):
            return accuracy(fitted, ctx)

        search = GridSearch(builder, scorer, grid)
        independent = [scorer(builder(p).fit()) for p in search.configurations()]
        result = search.run()
        assert [t.score for t in result.trials] == independent
        assert result.sweep_report.unique_ops < result.sweep_report.total_ops

    def test_grid_search_threads_backend_and_store(self):
        ctx = Context()

        class SpyBackend(LocalBackend):
            def __init__(self):
                self.executions = 0

            def execute(self, plan, ctx=None):
                self.executions += 1
                return super().execute(plan, ctx=ctx)

        spy = SpyBackend()
        store = FitStore()
        grid = {"l2": [1e-8, 1e-2]}
        search = GridSearch(
            lambda p: build_text(ctx, l2_reg=p["l2"]),
            lambda fitted: accuracy(fitted, ctx),
            grid,
            fit_kwargs={"backend": spy, "fit_store": store},
        )
        result = search.run()
        assert spy.executions == 1
        assert len(store) > 0
        rerun = GridSearch(
            lambda p: build_text(ctx, l2_reg=p["l2"]),
            lambda fitted: accuracy(fitted, ctx),
            grid,
            fit_kwargs={"fit_store": store},
        ).run()
        assert [t.score for t in rerun.trials] == [t.score for t in result.trials]


VECTORS = [np.array([float(i), float(2 * i), 1.0]) for i in range(80)]


def scaler_pipeline(ctx, n_items, partitions):
    data = ctx.parallelize(VECTORS[:n_items], partitions)
    return Pipeline.identity().and_then(StandardScaler(), data)


class TestStreamingRefit:
    def test_appended_partitions_merge_stats(self):
        ctx = Context()
        store = FitStore()
        cold = scaler_pipeline(ctx, 60, 3).fit(fit_store=store)
        assert cold.training_report.stat_partitions_computed == 3
        assert cold.training_report.stat_partitions_reused == 0
        grown = scaler_pipeline(ctx, 80, 4).fit(fit_store=store)
        report = grown.training_report
        assert report.reused_ops == []  # data changed: no whole-fit splice
        assert report.stat_partitions_reused == 3
        assert report.stat_partitions_computed == 1

    def test_streaming_refit_byte_identical(self):
        ctx = Context()
        store = FitStore()
        scaler_pipeline(ctx, 60, 3).fit(fit_store=store)
        warm = scaler_pipeline(ctx, 80, 4).fit(fit_store=store)
        cold = scaler_pipeline(ctx, 80, 4).fit()
        probe = ctx.parallelize(VECTORS, 2)
        out_w = np.asarray(warm.apply_dataset(probe).collect())
        out_c = np.asarray(cold.apply_dataset(probe).collect())
        assert np.array_equal(out_w, out_c)

    def test_unshardable_flow_degrades_to_cold(self):
        ctx = Context()
        store = FitStore()
        fitted = build_text(ctx).fit(fit_store=store)
        # LinearSolver resolves to LocalQRSolver at this scale (not
        # shardable): it must fit cold without stats, not crash.
        assert "LinearSolver" in fitted.training_report.refit_ops


def text_features(ctx, n_docs, partitions):
    """A text flow into ``CommonSparseFeatures``; 20 documents a
    partition, so appending a partition keeps the old bounds."""
    data = ctx.parallelize(WORKLOAD.train_items[:n_docs], partitions)
    return (
        Pipeline.identity()
        .and_then(LowerCase())
        .and_then(Tokenizer())
        .and_then(TermFrequency())
        .and_then(CommonSparseFeatures(50), data)
    )


def feature_bytes(fitted, ctx):
    rows = fitted.apply_dataset(WORKLOAD.test_data(ctx)).collect()
    return b"".join(row.toarray().tobytes() for row in rows)


class TestStreamingRefitOnActors:
    """The FitStore's per-partition statistics serve a one-shot fit on
    the actor backend as on the local one: the wave covers only the
    partitions the store misses, and either backend reads what the
    other wrote."""

    @pytest.fixture(scope="class")
    def actors(self):
        with ActorBackend(workers=2, task_timeout=300.0, reuse_pool=False) as backend:
            yield backend

    @staticmethod
    def counts(fitted):
        report = fitted.training_report
        return report.stat_partitions_computed, report.stat_partitions_reused

    def test_appended_partition_is_the_only_wave(self, actors, monkeypatch):
        from repro.core.backends import actors as actor_module

        chunks = []
        plan_chunks = actor_module._plan_chunks

        def recording(*args):
            planned = plan_chunks(*args)
            chunks.append(planned[0])
            return planned

        monkeypatch.setattr(actor_module, "_plan_chunks", recording)
        ctx = Context()
        store = FitStore()
        cold = text_features(ctx, 60, 3).fit(fit_store=store, backend=actors)
        assert self.counts(cold) == (3, 0)
        assert cold.training_report.process_stat_merged == ["CommonSparseFeatures"]
        grown = text_features(ctx, 80, 4).fit(fit_store=store, backend=actors)
        assert self.counts(grown) == (1, 3)
        assert chunks == [[(0, 2), (2, 3)], [(3, 4)]]
        for n_docs, partitions, fitted in ((60, 3, cold), (80, 4, grown)):
            local = text_features(ctx, n_docs, partitions).fit(backend=LocalBackend())
            assert feature_bytes(fitted, ctx) == feature_bytes(local, ctx)

    def test_local_refit_reads_the_stats_actors_wrote(self, actors):
        ctx = Context()
        store = FitStore()
        text_features(ctx, 60, 3).fit(fit_store=store, backend=actors)
        grown = text_features(ctx, 80, 4).fit(fit_store=store, backend=LocalBackend())
        assert self.counts(grown) == (1, 3)
        cold = text_features(ctx, 80, 4).fit(backend=LocalBackend())
        assert feature_bytes(grown, ctx) == feature_bytes(cold, ctx)


class TestPersistedPipelineStore:
    def test_save_pipeline_writes_store_sidecar(self, tmp_path):
        ctx = Context()
        store = FitStore()
        fitted = build_text(ctx).fit(fit_store=store)
        path = tmp_path / "pipe.pkl"
        rio.save_pipeline(fitted, path, fit_store=store)
        assert rio.fit_store_path(path).exists()
        loaded = rio.load_fit_store(path)
        assert sorted(loaded.keys()) == sorted(store.keys())
        warm = build_text(ctx).fit(fit_store=loaded)
        assert warm.training_report.reused_op_fraction == 1.0

    def test_load_fit_store_missing_is_empty(self, tmp_path):
        assert len(rio.load_fit_store(tmp_path / "absent.pkl")) == 0

    def test_save_pipeline_without_store_unchanged(self, tmp_path):
        ctx = Context()
        fitted = build_text(ctx).fit()
        path = tmp_path / "pipe.pkl"
        rio.save_pipeline(fitted, path)
        assert not rio.fit_store_path(path).exists()
        reloaded = rio.load_pipeline(path)
        assert np.array_equal(predictions(reloaded, ctx), predictions(fitted, ctx))
