"""The three training workloads: ``train_text``, ``train_dense``,
``train_iter_actors``.

Each workload object is driven by ``run.py`` through the same steps:
``setup`` (repeatable: inputs from the seed, pools, one unmeasured
warm-up), ``round`` (one measured unit of work, timed step by step),
``verify`` (every model a round produced against an independent
LocalBackend fit read through ``recursive_apply_item``), ``probes`` (the
traced run's direct measurements of layers that cannot be separated from
outside a running fit), ``close``.

Step timings are plain ``perf_counter`` pairs and are always taken; the
``Recorder`` passed to ``round`` only adds the span tree, the timed
``Pass`` wrappers and the library's own ``repro.obs`` tracer, so the
untraced run pays for none of them.
"""

from __future__ import annotations

import gc
import hashlib
import os
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.backends import (
    ActorBackend,
    LocalBackend,
    recursive_apply_item,
    shutdown_actor_pools,
    shutdown_worker_pools,
)
from repro.core.optimizer import Optimizer, default_passes, passes_for_level
from repro.core.passes import Pass
from repro.core.pipeline import Pipeline
from repro.core import graph as g
from repro.core import program as prog
from repro.core.kernels import KernelStage
from repro.dataset import Context
from repro.incremental import FitStore, SweepPlanner, refit
from repro.nodes.learning.kmeans import KMeansEstimator
from repro.nodes.numeric import Densify, MaxClassifier
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    NGramsFeaturizer,
    TermFrequency,
    Tokenizer,
    unit_weighting,
)
from repro.obs import trace as obs_trace
from repro.pipelines import amazon_pipeline, timit_pipeline
from repro.runtime import transport
from repro.serving.compiler import compile_inference_plan
from repro.workloads import Workload, amazon_reviews, timit_frames

from harness import NULL, Samples, per_call_us, percentile, timed

#: solver-side operator labels; every other op of a training DAG is
#: featurization
SOLVER_WORDS = ("Solver", "KMeans", "Classifier")


class TimedPass(Pass):
    """A ``Pass`` that runs another pass inside a recorder span.

    ``Optimizer([...])`` accepting arbitrary ``Pass`` objects is the
    documented extension point; this wrapper is how the traced run times
    each optimizer pass without touching ``repro.core``.
    """

    def __init__(self, inner: Pass, rec) -> None:
        self.inner = inner
        self.rec = rec

    @property
    def name(self) -> str:
        return self.inner.name

    def run(self, state):
        with self.rec.span(f"core.passes.{self.inner.name}.run"):
            return self.inner.run(state)


def first_training_flow(pipe: Pipeline):
    """The training flow of the first estimator fed by transformers only
    (lowerable without any fitted model), or None."""
    for est in g.reachable([pipe.sink], g.ESTIMATOR):
        flow = est.parents[0]
        if not list(g.reachable([flow], g.ESTIMATOR)):
            return flow
    return None


def prediction_bytes(rows: Sequence[Any]) -> bytes:
    return b"".join(np.asarray(r).tobytes() for r in rows)


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def reference_predictions(pipe: Pipeline, items: Sequence[Any],
                          passes=None) -> bytes:
    """Independent reference: serial LocalBackend fit, recursive apply."""
    plan = Optimizer(passes).optimize(pipe)
    fitted = plan.execute(backend=LocalBackend())
    return prediction_bytes([recursive_apply_item(fitted, x) for x in items])


class TrainWorkload:
    """Shared step code of the training workloads."""

    name = ""
    backend: Any = None
    #: optimizer pass list factory (None: the default level-"full" stack)
    pass_factory = staticmethod(default_passes)

    def __init__(self, sizes: Dict[str, Any], seed: int,
                 samples: Samples) -> None:
        self.sizes = sizes
        self.seed = seed
        self.samples = samples
        self.ctx: Optional[Context] = None
        self.test_items: List[Any] = []
        self.test_data = None
        #: (label, reference key, prediction bytes) per model produced
        self.produced: List[tuple] = []
        self.last_plan = None
        self.last_model = None
        #: reference predictions per key, computed once in verify
        self.refs: Optional[Dict[str, bytes]] = None
        self.reference_digest = ""
        #: the library tracer's records of the last traced round
        #: (exported into the Chrome trace beside the recorder's spans)
        self.library_spans: List[Dict[str, Any]] = []

    # -- steps ---------------------------------------------------------
    def cold_fit(self, pipe: Pipeline, rec, fit_store=None, label="fit"):
        """``Optimizer().optimize`` + ``plan.execute``; returns the model
        and the two step durations."""
        passes = self.pass_factory()
        if rec.enabled:
            passes = [TimedPass(p, rec) for p in passes]
        with rec.span(label):
            start = time.perf_counter()
            with rec.span("core.optimizer.optimize"):
                plan = Optimizer(passes).optimize(pipe)
            mid = time.perf_counter()
            with rec.span("core.backends.execute"):
                model = plan.execute(backend=self.backend,
                                     fit_store=fit_store)
            end = time.perf_counter()
        self.last_plan, self.last_model = plan, model
        return model, mid - start, end - mid

    def step(self, name: str, seconds: float) -> None:
        """One timed training step of a round: an operation attempted, a
        sample of its ``e2e.<name>`` detail and of the round's
        ``step.<name>`` (``work_s`` is the sum of the step medians)."""
        s = self.samples
        s.attempt()
        s.add(f"e2e.{name}", seconds)
        s.add(f"step.{name}", seconds)

    def record_plan_layers(self, opt_s: float, exec_s: float) -> None:
        """Layer numbers of the cold fit ``cold_fit`` just returned."""
        s, plan, model = self.samples, self.last_plan, self.last_model
        s.add("core.optimizer.optimize_s", opt_s)
        s.add("core.backends.execute_s", exec_s)
        s.set("core.plan.nodes", plan.num_nodes())
        s.set("core.passes.cse.merged", plan.state.cse_nodes_removed)
        s.set("core.passes.materialization.cache_set", len(plan.cache_set))
        report = model.training_report
        solver = featurize = 0.0
        for nid, seconds in report.node_seconds.items():
            label = report.node_labels.get(nid, "")
            if any(word in label for word in SOLVER_WORDS):
                solver += seconds
            else:
                featurize += seconds
        s.add("nodes.solver.self_s", solver)
        s.add("nodes.featurize.self_s", featurize)
        top = sorted(report.node_seconds.values(), reverse=True)[:5]
        s.add("nodes.top5.self_s", sum(top))

    def score(self, model, rec, label: str, key: str) -> None:
        """Step (e): bulk ``apply_dataset`` on the test split (rows/s),
        then ``model.apply`` on every test item, one call at a time
        (latency percentiles)."""
        s = self.samples
        with rec.span("score.apply_dataset"):
            rows, seconds = timed(
                lambda: model.apply_dataset(self.test_data).collect())
        s.add("step.score_s", seconds)
        s.add("e2e.score_rows_per_s", len(rows) / seconds)
        s.attempt(len(rows))
        blob = prediction_bytes(rows)
        self.produced.append((f"{label}.apply_dataset", key, blob))
        # Several passes over the test items: each pass is one window of
        # latency samples, and the run reports the median window.
        clock = time.perf_counter
        with rec.span("score.apply_item"):
            start = clock()
            for _ in range(self.sizes["apply_passes"]):
                lat = []
                out = []
                for item in self.test_items:
                    t0 = clock()
                    out.append(model.apply(item))
                    lat.append((clock() - t0) * 1e3)
                for q in (50, 90, 99):
                    s.add(f"latency_p{q}_ms", percentile(lat, q))
            s.add("step.apply_items_s", clock() - start)
        s.attempt(len(out))
        self.produced.append((f"{label}.apply", key, prediction_bytes(out)))

    def keep_predictions(self, model, label: str, key: str) -> None:
        """Untimed test-split predictions of a model, for ``verify``."""
        rows = model.apply_dataset(self.test_data).collect()
        self.samples.attempt(len(rows))
        self.produced.append((label, key, prediction_bytes(rows)))

    # -- verification --------------------------------------------------
    def references(self) -> Dict[str, bytes]:
        raise NotImplementedError

    def verify(self) -> None:
        """Byte-compare every kept prediction set with its reference."""
        if self.refs is None:
            self.refs = self.references()
            self.reference_digest = digest(
                b"".join(self.refs[k] for k in sorted(self.refs)))
        n = len(self.test_items)
        for label, key, blob in self.produced:
            if key in self.refs and blob != self.refs[key]:
                self.samples.fail(
                    f"{self.name}: {label} differs from the LocalBackend "
                    f"reference for {key}", n)
        self.produced = []

    def trace_round(self, rec, body) -> float:
        """Run ``body`` (returns its measured seconds) under the library
        tracer when ``rec`` is live."""
        if not rec.enabled:
            return body()
        s = self.samples
        tracer = obs_trace.enable()
        s.tracing = True
        try:
            seconds = body()
        finally:
            s.tracing = False
            obs_trace.disable()
        s.add("obs.trace.spans", len(tracer.spans))
        s.add("obs.trace.dropped", tracer.dropped)
        s.extend("runtime.pool.wave_s",
                 [r["dur"] / 1e6 for r in tracer.spans
                  if r.get("cat") == "wave"])
        self.library_spans = tracer.spans
        return seconds

    def measure(self, seconds: float, rec) -> None:
        """Repeat ``round`` until ``seconds`` are used.  The layer run
        (``rec`` live) alternates untraced and traced rounds."""
        s = self.samples
        minimum = 2 if rec.enabled else self.sizes["min_rounds"]
        start = time.perf_counter()
        n = 0
        while True:
            live = rec if (rec.enabled and n % 2 == 1) else NULL
            gc.collect()
            took = self.round(live)
            if took is None:
                break
            n += 1
            s.add("round_traced_s" if live.enabled else "round_s", took)
            elapsed = time.perf_counter() - start
            if n >= minimum and elapsed + 0.5 * elapsed / n > seconds:
                break

    def finish(self) -> None:
        """Counters read once at the end (none for training)."""

    def teardown(self) -> None:
        """Release what ``setup`` made so it can run again."""

    def close(self) -> None:
        self.teardown()

    def probes(self, rec) -> None:
        """Traced-run direct measurements (lowering, keys, compile)."""
        s = self.samples
        model = self.last_model
        pipe = self.build()
        sink = pipe.sink
        program, seconds = timed(
            lambda: prog.lower_inference_program(model))
        s.add("core.program.lower_inference_s", seconds)
        s.add("core.program.training_keys_s",
              timed(lambda: prog.training_keys([sink]))[1])
        source = self.train_dataset()
        s.add("dataset.fingerprint_s",
              timed(lambda: prog.dataset_fingerprint(source))[1])
        plan, seconds = timed(
            lambda: compile_inference_plan(model, vectorize=True))
        s.add("serving.compiler.compile_s", seconds)
        s.set("core.program.ops", len(program))
        s.set("core.program.kernel_stages",
              sum(1 for op in plan.ops if isinstance(op.op, KernelStage)))
        items = self.test_items[:200]
        s.add("serving.compiler.run_item_us",
              per_call_us(plan.run_item, items))
        flow = first_training_flow(pipe)
        if flow is not None:
            s.add("core.program.lower_training_s", timed(
                lambda: prog.lower_training_program(
                    [flow], source_of=lambda node: node.op))[1])

    def build(self) -> Pipeline:
        raise NotImplementedError

    def train_dataset(self):
        raise NotImplementedError


# ----------------------------------------------------------------------
# train_text
# ----------------------------------------------------------------------

class TrainText(TrainWorkload):
    """Paper Fig. 2 Amazon pipeline, one *edit cycle* per round.

    (a) cold fit, (b) cold fit writing a fresh FitStore, (c) ``refit``
    after an ``l2_reg`` edit, (d) a 4-value ``l2_reg`` sweep through
    ``SweepPlanner``, (e) scoring the test split.
    """

    name = "train_text"

    def setup(self) -> None:
        z = self.sizes
        self.wl = amazon_reviews(z["n_train"], z["n_test"],
                                 vocab_size=z["vocab"], seed=self.seed)
        self.ctx = Context()
        self.test_items = list(self.wl.test_items)
        self.test_data = self.wl.test_data(self.ctx)
        model, _, _ = self.cold_fit(self.build(), NULL)
        model.apply_dataset(self.test_data).collect()
        model.apply(self.test_items[0])

    def build(self, l2_reg: Optional[float] = None) -> Pipeline:
        z = self.sizes
        return amazon_pipeline(
            self.ctx, self.wl, num_features=z["features"], ngrams=2,
            l2_reg=z["l2_base"] if l2_reg is None else l2_reg,
        ).and_then(MaxClassifier())

    def train_dataset(self):
        return self.wl.train_data(self.ctx)

    def round(self, rec) -> float:
        return self.trace_round(rec, lambda: self._cycle(rec))

    def _cycle(self, rec) -> float:
        z, s = self.sizes, self.samples
        start = time.perf_counter()
        with rec.span("train_text.cycle", rec.new_trace()):
            # (a) cold fit, no store
            model, opt_s, exec_s = self.cold_fit(self.build(), rec)
            self.step("fit_s", opt_s + exec_s)
            self.record_plan_layers(opt_s, exec_s)
            # (b) the same cold fit writing a fresh store
            store = FitStore()
            stored, opt_s, exec_s = self.cold_fit(
                self.build(), rec, fit_store=store, label="fit_store")
            self.step("fit_store_s", opt_s + exec_s)
            # (c) warm refit after a hyperparameter edit
            with rec.span("incremental.refit"):
                warm, seconds = timed(
                    lambda: refit(self.build(z["l2_edit"]), store))
            self.step("refit_s", seconds)
            s.add("incremental.refit.reused_op_fraction",
                  warm.training_report.reused_op_fraction)
            s.set("incremental.fitstore.used_bytes", store.used_bytes)
            # (d) union-program sweep over the l2 grid
            configs = [{"l2": v} for v in z["l2_grid"]]
            with rec.span("incremental.sweep"):
                (trials, sweep_report), seconds = timed(
                    lambda: SweepPlanner(
                        lambda p: self.build(p["l2"]), configs).run())
            self.step("sweep_s", seconds)
            s.set("incremental.sweep.dedup_ratio", sweep_report.dedup_ratio)
            # (e) score
            self.score(model, rec, "fit", f"l2={z['l2_base']}")
        seconds = time.perf_counter() - start
        self.keep_predictions(stored, "fit_store", f"l2={z['l2_base']}")
        self.keep_predictions(warm, "refit", f"l2={z['l2_edit']}")
        for value, trial in zip(z["l2_grid"], trials):
            self.keep_predictions(trial, f"sweep[{value}]", f"l2={value}")
        return seconds

    def references(self) -> Dict[str, bytes]:
        z = self.sizes
        values = dict.fromkeys([z["l2_base"], z["l2_edit"], *z["l2_grid"]])
        return {f"l2={v}": reference_predictions(self.build(v),
                                                 self.test_items)
                for v in values}

    def probes(self, rec) -> None:
        super().probes(rec)
        self._probe_fitstore()
        self._probe_stream_append()
        self._probe_backends()

    def _probe_fitstore(self) -> None:
        s = self.samples
        store = FitStore()
        self.build().fit(fit_store=store)
        keys = list(store.keys())
        values = [store.get(k) for k in keys]
        fresh = FitStore()
        s.add("incremental.fitstore.put_s", timed(lambda: [
            fresh.put(k, v) for k, v in zip(keys, values)])[1] / len(keys))
        s.add("incremental.fitstore.get_s", timed(lambda: [
            fresh.get(k) for k in keys])[1] / len(keys))
        with tempfile.TemporaryDirectory(dir=self.sizes["tmp_dir"]) as tmp:
            path = os.path.join(tmp, "fitstore.pkl")
            s.add("incremental.fitstore.save_s",
                  timed(lambda: store.save(path))[1])
            s.add("incremental.fitstore.load_s",
                  timed(lambda: FitStore.load(path))[1])

    def _probe_stream_append(self) -> None:
        """Refit after appending one equal-sized partition: stored
        per-partition statistics answer the old partitions."""
        z, s = self.sizes, self.samples
        parts = 4
        per = z["n_train"] // (parts + 1)

        def build(n_parts: int) -> Pipeline:
            n = per * n_parts
            grown = Workload(
                "amazon", self.wl.train_items[:n], self.wl.train_labels[:n],
                self.wl.test_items, self.wl.test_labels,
                self.wl.num_classes)
            return amazon_pipeline(self.ctx, grown,
                                   num_features=z["features"],
                                   partitions=n_parts)

        store = FitStore()
        refit(build(parts), store)
        warm, seconds = timed(lambda: refit(build(parts + 1), store))
        s.add("incremental.refit.stream_append_s", seconds)
        s.set("incremental.refit.stat_partitions_reused",
              warm.training_report.stat_partitions_reused)

    def _probe_backends(self) -> None:
        """One fit of this workload's plan per execution backend."""
        s = self.samples
        try:
            for name in ("local", "pipelined", "sharded", "process",
                         "actors"):
                plan = Optimizer().optimize(self.build())
                backend: Any = name
                if name == "process":
                    from repro.core.backends import ProcessPoolBackend
                    backend = ProcessPoolBackend(workers=2,
                                                 task_timeout=300.0)
                elif name == "actors":
                    backend = ActorBackend(workers=2, task_timeout=300.0)
                if name in ("process", "actors"):
                    # unmeasured first fit: spawn + worker imports
                    Optimizer().optimize(self.build()).execute(
                        backend=backend)
                model, seconds = timed(
                    lambda: plan.execute(backend=backend))
                s.add(f"core.backends.{name}.fit_s", seconds)
                s.attempt()
                self.keep_predictions(model, f"backend[{name}]",
                                      f"l2={self.sizes['l2_base']}")
        finally:
            shutdown_worker_pools()
            shutdown_actor_pools()


# ----------------------------------------------------------------------
# train_dense
# ----------------------------------------------------------------------

class TrainDense(TrainWorkload):
    """Paper TIMIT pipeline: cosine random-feature blocks, gather, solve."""

    name = "train_dense"

    def setup(self) -> None:
        z = self.sizes
        self.wl = timit_frames(z["n_train"], z["n_test"], dim=z["dim"],
                               num_classes=z["classes"], seed=self.seed)
        self.ctx = Context()
        self.test_items = list(self.wl.test_items)
        self.test_data = self.wl.test_data(self.ctx)
        model, _, _ = self.cold_fit(self.build(), NULL)
        model.apply_dataset(self.test_data).collect()
        model.apply(self.test_items[0])

    def build(self) -> Pipeline:
        z = self.sizes
        return timit_pipeline(
            self.ctx, self.wl, num_feature_blocks=z["blocks"],
            block_size=z["block_size"]).and_then(MaxClassifier())

    def train_dataset(self):
        return self.wl.train_data(self.ctx)

    def round(self, rec) -> float:
        return self.trace_round(rec, lambda: self._fit_and_score(rec))

    def _fit_and_score(self, rec) -> float:
        s = self.samples
        start = time.perf_counter()
        with rec.span("train_dense.round", rec.new_trace()):
            model, opt_s, exec_s = self.cold_fit(self.build(), rec)
            self.step("fit_s", opt_s + exec_s)
            self.record_plan_layers(opt_s, exec_s)
            self.score(model, rec, "fit", "dense")
        return time.perf_counter() - start

    def references(self) -> Dict[str, bytes]:
        return {"dense": reference_predictions(self.build(),
                                               self.test_items)}


# ----------------------------------------------------------------------
# train_iter_actors
# ----------------------------------------------------------------------

class TrainIterActors(TrainWorkload):
    """5-pass k-means text plan on a shared 2-worker ``ActorPool``.

    Every round draws a fresh document set (new content keys: the worker
    shard-state cache misses and payloads ship), fits it cold, then fits
    the identical plan again (hits only, ships next to nothing).
    """

    name = "train_iter_actors"
    pass_factory = staticmethod(lambda: passes_for_level("none"))
    #: rounds whose models are checked against a serial reference fit;
    #: a reference costs about two cold fits (it featurizes on one core)
    REFERENCE_ROUNDS = 2

    def setup(self) -> None:
        z = self.sizes
        pool_docs = amazon_reviews(z["pool_docs"], z["n_test"],
                                   vocab_size=z["vocab"], seed=self.seed)
        self.docs = pool_docs.train_items
        self.ctx = Context()
        self.test_items = list(pool_docs.test_items)
        self.test_data = pool_docs.test_data(self.ctx)
        rng = np.random.default_rng(self.seed)
        #: one index draw per round, drawn up front; +1 for the warm-up
        self.draws = [rng.choice(len(self.docs), size=z["n_train"],
                                 replace=False)
                      for _ in range(z["max_rounds"] + 1)]
        self.round_no = 0
        self.backend = ActorBackend(workers=z["workers"],
                                    task_timeout=z["task_timeout"])
        _, seconds = timed(lambda: self._fit(len(self.draws) - 1, NULL))
        self.samples.add("runtime.pool.spawn_s", seconds)

    def teardown(self) -> None:
        shutdown_actor_pools()

    def build(self, draw: int = 0) -> Pipeline:
        z = self.sizes
        docs = [self.docs[i] for i in self.draws[draw]]
        data = self.ctx.parallelize(docs, z["partitions"])
        return (Pipeline.identity()
                .and_then(LowerCase())
                .and_then(Tokenizer())
                .and_then(NGramsFeaturizer(1, 2))
                .and_then(TermFrequency(unit_weighting()))
                .and_then(CommonSparseFeatures(z["features"]), data)
                .and_then(Densify())
                .and_then(KMeansEstimator(z["clusters"],
                                          max_iter=z["passes"], seed=7),
                          data))

    def train_dataset(self):
        docs = [self.docs[i] for i in self.draws[0]]
        return self.ctx.parallelize(docs, self.sizes["partitions"])

    def _fit(self, draw: int, rec, label: str = "fit"):
        return self.cold_fit(self.build(draw), rec, label=label)

    def round(self, rec) -> Optional[float]:
        if self.round_no >= self.sizes["max_rounds"]:
            return None  # every pre-drawn input has been used
        return self.trace_round(rec, lambda: self._cold_then_refit(rec))

    def _cold_then_refit(self, rec) -> float:
        s = self.samples
        draw = self.round_no
        self.round_no += 1
        start = time.perf_counter()
        with rec.span("train_iter_actors.round", rec.new_trace()):
            cold, opt_s, exec_s = self._fit(draw, rec)
            self.step("fit_s", opt_s + exec_s)
            self.record_plan_layers(opt_s, exec_s)
            cold_plan = self.last_plan
            warm, opt_s, exec_s = self._fit(draw, rec, label="refit")
            self.step("refit_s", opt_s + exec_s)
            # the ranked cost table reads the cold fit, not the refit
            self.last_plan, self.last_model = cold_plan, cold
            self.score(cold, rec, f"fit[{draw}]", f"draw={draw}")
        seconds = time.perf_counter() - start
        c, w = cold.training_report, warm.training_report
        for report in (c, w):
            if report.process_fallback:
                s.fail(f"actor fit fell back serial: "
                       f"{report.process_fallback}")
        s.add("runtime.bytes_shipped", c.bytes_shipped)
        s.add("runtime.bytes_mapped", c.bytes_mapped)
        s.add("runtime.shard_state_hits", c.shard_state_hits)
        s.add("runtime.shard_state_misses", c.shard_state_misses)
        s.add("runtime.worker_restarts",
              c.worker_restarts + w.worker_restarts)
        s.add("runtime.refit.bytes_shipped", w.bytes_shipped)
        s.add("runtime.refit.shard_state_hits", w.shard_state_hits)
        s.add("runtime.refit.shard_state_misses", w.shard_state_misses)
        # The identical refit must agree with the cold fit on every
        # round; the serial reference covers the first rounds only.
        rows = warm.apply_dataset(self.test_data).collect()
        s.attempt(len(rows))
        cold_blob = self.produced[-2][2]
        if prediction_bytes(rows) != cold_blob:
            s.fail(f"round {draw}: identical refit predicts differently "
                   "from the cold fit", len(rows))
        return seconds

    def references(self) -> Dict[str, bytes]:
        # cache_strategy="all" featurizes once instead of once per
        # k-means pass; same operators, same serial reduction order.
        passes = passes_for_level("none", cache_strategy="all")
        return {f"draw={d}": reference_predictions(
                    self.build(d), self.test_items, passes)
                for d in range(min(self.REFERENCE_ROUNDS, self.round_no))}

    def probes(self, rec) -> None:
        super().probes(rec)
        s = self.samples
        # pack / unpack one featurized shard of this workload's input
        z = self.sizes
        docs = [self.docs[i] for i in self.draws[0][:z["shard_docs"]]]
        data = self.ctx.parallelize(docs, 1)
        featurizer = (Pipeline.identity()
                      .and_then(LowerCase())
                      .and_then(Tokenizer())
                      .and_then(NGramsFeaturizer(1, 2))
                      .and_then(TermFrequency(unit_weighting()))
                      .and_then(CommonSparseFeatures(z["features"]), data)
                      .and_then(Densify())).fit(level="none")
        shard = featurizer.apply_dataset(data).collect()
        # Through the inline (pipe) path, the one this workload's own
        # payloads take: documents carry no numpy buffers to map.
        shipped, seconds = timed(
            lambda: transport.pack(shard, shm_threshold=1 << 62))
        s.add("runtime.transport.pack_s", seconds)
        s.add("runtime.transport.unpack_s",
              timed(lambda: transport.unpack(shipped.payload))[1])


WORKLOADS = {w.name: w for w in (TrainText, TrainDense, TrainIterActors)}
