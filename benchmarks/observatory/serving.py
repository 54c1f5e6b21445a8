"""The two serving workloads: ``serve_text_zipf`` and
``serve_dense_unique``.

Both serve one model from a ``ModelServer`` with its default policy
(``vectorize=True``, micro-batching); only the queue bound is raised so
that an over-capacity rung shows as latency and backlog, never as refused
requests.  Load is open loop (independent users) from the one generator
thread of this process.

Phase A — bursts: ``burst`` requests submitted back to back, then
gathered; the burst's wall time is the workload's unit of work and
``burst / wall`` its saturation throughput.

Phase B — paced: requests due at ``t0 + i / rate``; latency runs from
the due time to the Future's done-callback.  The untraced run holds one
fixed rate for the whole phase (the bounded latency metrics); the layer
run climbs the four-rung ladder instead and reports the highest rung
that meets the latency limit.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.backends import recursive_apply_item
from repro.core.kernels import KernelStage
from repro.core.optimizer import Optimizer
from repro.dataset import Context
from repro.nodes.numeric import MaxClassifier
from repro.obs import trace as obs_trace
from repro.pipelines import amazon_pipeline, timit_pipeline
from repro.serving import ModelServer
from repro.serving.cache import ServingCache, fingerprint
from repro.serving.compiler import compile_inference_plan
from repro.workloads import amazon_reviews, timit_frames

from harness import (
    NULL,
    Samples,
    open_loop,
    per_call_us,
    percentile,
    quiesce,
    timed,
)
from training import digest, prediction_bytes

MODEL = "model"


class ServeWorkload:
    """Shared phases of the serving workloads."""

    name = ""

    def __init__(self, sizes: Dict[str, Any], seed: int,
                 samples: Samples) -> None:
        self.sizes = sizes
        self.seed = seed
        self.samples = samples
        self.server: Optional[ModelServer] = None
        self.catalog: List[Any] = []
        self.fitted = None
        #: reference output per catalog item (computed once, in verify)
        self.expected: Optional[np.ndarray] = None
        #: (catalog index array, results) per phase, checked in verify
        self.answered: List[tuple] = []
        self.reference_digest = ""
        self.overloaded = 0
        self.queue_peak = 0
        self.late_ms: List[float] = []
        #: the library tracer's records of the last traced burst
        self.library_spans: List[Dict[str, Any]] = []

    # -- inputs --------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def fit(self):
        raise NotImplementedError

    def indices(self, n: int) -> np.ndarray:
        """Catalog positions of the next ``n`` requests."""
        raise NotImplementedError

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        z, s = self.sizes, self.samples
        # re-seeded per set-up: every repeat sees the same request stream
        self.rng = np.random.default_rng(self.seed)
        self.generate()
        self.fitted, seconds = timed(self.fit)
        s.add("setup.fit_s", seconds)
        self.server = ModelServer(
            cache_budget_bytes=z["cache_budget_bytes"],
            max_queue=z["max_queue"])
        self.server.start()
        self.model, seconds = timed(lambda: self.server.register(
            MODEL, self.fitted, warmup_items=self.catalog[:z["warmup"]]))
        s.add("serving.server.register_s", seconds)
        # warm-up: code paths, BLAS, and the cache's steady state
        self._burst(NULL, z["warm_requests"], keep=False)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def close(self) -> None:
        self.teardown()

    # -- phase A -------------------------------------------------------
    def _burst(self, rec, n: int, keep: bool = True) -> float:
        idx = self.indices(n)
        items = [self.catalog[i] for i in idx]
        submit = self.server.submit
        traced = rec.enabled
        quiesce()
        with rec.span("burst", rec.new_trace()):
            start = time.perf_counter()
            try:
                if traced:
                    futures = []
                    for item in items:
                        with rec.span("serving.server.submit"):
                            futures.append(submit(MODEL, item))
                else:
                    futures = [submit(MODEL, item) for item in items]
                sent = time.perf_counter()
                depth = self.model.batcher.queue_depth
                with rec.span("gather"):
                    results = [f.result(60.0) for f in futures]
            except Exception as exc:  # refused, shed, or a failed batch
                self.samples.attempt(n)
                self.samples.fail(f"burst failed: {exc!r}", n)
                return time.perf_counter() - start
            wall = time.perf_counter() - start
        if keep:
            s = self.samples
            s.attempt(n)
            if not traced:  # the span around each submit is not its cost
                s.add("serving.server.submit_us", (sent - start) / n * 1e6)
            self.queue_peak = max(self.queue_peak, depth)
            self.answered.append((idx, results))
        return wall

    # -- phase B -------------------------------------------------------
    def paced(self, rate: float, seconds: float) -> Dict[str, float]:
        """One open-loop rung; returns its statistics."""
        s = self.samples
        n = max(int(rate * seconds), 1)
        idx = self.indices(n)
        items = [self.catalog[i] for i in idx]
        submit = self.server.submit
        quiesce()
        futures, latency, late, sent_end, done_at = open_loop(
            lambda item: submit(MODEL, item), items, rate)
        s.attempt(n)
        ok_idx, ok_results, lat_ms = [], [], []
        failed = 0
        for i, fut in enumerate(futures):
            if isinstance(fut, Exception):
                failed += 1
                self.overloaded += 1
                continue
            if latency[i] is None or fut.exception() is not None:
                failed += 1
                continue
            ok_idx.append(idx[i])
            ok_results.append(fut.result())
            lat_ms.append(latency[i] * 1e3)
        if failed:
            s.fail(f"{failed} of {n} requests failed at {rate:.0f} req/s",
                   failed)
        self.answered.append((np.asarray(ok_idx, dtype=np.int64),
                              ok_results))
        late_ms = [v * 1e3 for v in late]
        # Percentiles per window of requests, then the median window: a
        # stall of the machine spoils one window, not the run.
        size = self.sizes["window_requests"]
        windows = [slice(k, k + size)
                   for k in range(0, max(len(lat_ms) - size + 1, 1), size)]
        inf = float("inf")
        return {
            "rate": rate, "n": n, "failed": failed,
            **{f"p{q}_ms": [percentile(lat_ms[w], q) for w in windows
                            if lat_ms[w]] or [inf]
               for q in (50, 90, 99)},
            "late_p99_ms": statistics.median(
                percentile(late_ms[w], 99) for w in windows),
            # what was in flight when the last request went out
            "drain_s": max(done_at - sent_end, 0.0),
        }

    def rung_passes(self, rung: Dict[str, float]) -> bool:
        z = self.sizes
        return (statistics.median(rung["p99_ms"]) <= z["slo_p99_ms"]
                and rung["failed"] <= 0.001 * rung["n"]
                # a rung the generator could not pace measures the
                # generator, not the server
                and rung["late_p99_ms"] <= z["late_limit_ms"]
                # the queue is not growing: what is left when the last
                # request goes out drains within one latency limit
                and rung["drain_s"] * 1e3 <= z["slo_p99_ms"])

    # -- measurement ---------------------------------------------------
    def measure(self, seconds: float, rec) -> None:
        z, s = self.sizes, self.samples
        layer_run = rec.enabled
        # Phase A
        budget = seconds * (0.25 if layer_run else 0.5)
        start = time.perf_counter()
        n = 0
        while True:
            live = rec if (layer_run and n % 2 == 1) else NULL
            tracer = obs_trace.enable() if live.enabled else None
            try:
                wall = self._burst(live, z["burst"])
            finally:
                if tracer is not None:
                    obs_trace.disable()
                    s.add("obs.trace.spans", len(tracer.spans))
                    s.add("obs.trace.dropped", tracer.dropped)
                    self.library_spans = tracer.spans
            n += 1
            if live.enabled:
                s.add("round_traced_s", wall)
            else:
                s.add("round_s", wall)
                s.add("step.burst_s", wall)
                s.add("e2e.saturation_rps", z["burst"] / wall)
            elapsed = time.perf_counter() - start
            if n >= z["min_bursts"] and elapsed + 0.5 * elapsed / n > budget:
                break
        # Phase B
        left = seconds - (time.perf_counter() - start)
        if not layer_run:
            self._keep_latency(self.paced(z["rate"], max(left, 1.0)))
            return
        rungs = z["rungs"]
        per_rung = max(seconds * 0.5 / len(rungs), 0.5)
        slo_rate = 0.0
        for k, rate in enumerate(rungs, 1):
            rung = self.paced(rate, per_rung)
            ok = self.rung_passes(rung)
            s.set(f"serve.rung{k}.p99_ms", statistics.median(rung["p99_ms"]))
            s.set(f"serve.rung{k}.p50_ms", statistics.median(rung["p50_ms"]))
            if ok:
                slo_rate = rate
            if rate == z["rate"]:
                self._keep_latency(rung)
        s.set("e2e.slo_rate_rps", slo_rate)

    def _keep_latency(self, rung: Dict[str, Any]) -> None:
        """The fixed-rate rung feeds the latency metrics; if the
        generator itself ran late there, the run is invalid."""
        s = self.samples
        for q in (50, 90, 99):
            s.extend(f"latency_p{q}_ms", rung[f"p{q}_ms"])
        self.late_ms.append(rung["late_p99_ms"])
        if rung["late_p99_ms"] > self.sizes["late_limit_ms"]:
            s.notes.append(
                f"INVALID: generator ran {rung['late_p99_ms']:.2f} ms late "
                f"(p99, median window) at {rung['rate']:.0f} req/s")

    # -- verification --------------------------------------------------
    def verify(self) -> None:
        """Every served response against the naive per-item walk."""
        s = self.samples
        if self.expected is None:
            self.expected = np.asarray(
                [recursive_apply_item(self.fitted, x) for x in self.catalog])
            self.reference_digest = digest(prediction_bytes(self.expected))
        expected = self.expected
        for idx, results in self.answered:
            got = np.asarray(results)
            want = expected[idx]
            if got.dtype != want.dtype or got.shape != want.shape:
                s.fail(f"{self.name}: response dtype/shape "
                       f"{got.dtype}{got.shape} != reference "
                       f"{want.dtype}{want.shape}", len(idx))
                continue
            wrong = int(np.count_nonzero(got != want))
            if wrong:
                s.fail(f"{self.name}: {wrong} responses differ from "
                       "recursive_apply_item", wrong)
        self.answered = []

    def finish(self) -> None:
        """Read the counters the server exposes."""
        s, z = self.samples, self.sizes
        stats = self.server.stats(MODEL).models[f"{MODEL}@v1"]
        s.set("serving.cache.hit_rate", stats.cache_hit_rate)
        s.set("serving.cache.used_bytes", stats.cache_used_bytes)
        cache = self.model.cache
        s.set("serving.cache.evictions",
              cache.manager.evictions if cache is not None else 0)
        s.set("serving.batcher.batch_size_mean", stats.mean_batch_size)
        s.set("serving.batcher.queue_depth_peak", self.queue_peak)
        s.set("serving.batcher.shed", stats.shed_requests)
        s.set("serving.batcher.overloaded", self.overloaded)
        s.set("bench.generator.late_p99_ms", max(self.late_ms, default=0.0))
        lo, hi = z["hit_rate_range"]
        if not lo <= stats.cache_hit_rate <= hi:
            s.notes.append(
                f"INVALID: cache hit rate {stats.cache_hit_rate:.3f} outside "
                f"the workload's range [{lo}, {hi}]")
        if s.values["serving.cache.evictions"][0] <= 0:
            s.notes.append("INVALID: the cache never evicted; the budget no "
                           "longer binds")

    # -- layer probes --------------------------------------------------
    def probes(self, rec) -> None:
        s, z = self.samples, self.sizes
        items = self.catalog[:z["probe_items"]]
        plan, seconds = timed(
            lambda: compile_inference_plan(self.fitted, vectorize=True))
        s.add("serving.compiler.compile_s", seconds)
        interp = compile_inference_plan(self.fitted, vectorize=False)
        s.set("core.program.ops", len(interp))
        s.set("core.program.kernel_stages",
              sum(1 for op in plan.ops if isinstance(op.op, KernelStage)))
        s.add("serving.compiler.run_item_us",
              per_call_us(plan.run_item, items))
        batches = [items[i:i + 32] for i in range(0, len(items) - 31, 32)]
        vec_us = per_call_us(plan.run_batch, batches) / 32
        int_us = per_call_us(interp.run_batch, batches) / 32
        s.add("serving.compiler.run_batch_us_per_row", vec_us)
        s.add("serving.compiler.run_batch_interp_us_per_row", int_us)
        s.add("core.kernels.vectorized_ratio", int_us / vec_us)
        # cache micro-costs on a scratch cache of the same budget
        s.add("serving.cache.fingerprint_us", per_call_us(fingerprint, items))
        fps = [fingerprint(x) for x in items]
        value = recursive_apply_item(self.fitted, items[0])
        scratch = ServingCache(z["cache_budget_bytes"], {"k"})
        s.add("serving.cache.lookup_miss_us",
              per_call_us(lambda fp: scratch.lookup("k", fp), fps))
        s.add("serving.cache.put_us",
              per_call_us(lambda fp: scratch.put("k", fp, value), fps,
                          repeats=1))
        held = [fp for fp in fps if scratch.lookup("k", fp, count=False)[0]]
        s.add("serving.cache.lookup_hit_us",
              per_call_us(lambda fp: scratch.lookup("k", fp), held))
        s.set("serving.batcher.residual_ms",
              s.median("latency_p50_ms")
              - s.median("serving.server.submit_us") / 1e3
              - vec_us / 1e3)


# ----------------------------------------------------------------------
# serve_text_zipf
# ----------------------------------------------------------------------

class ServeTextZipf(ServeWorkload):
    """Zipf(1.1) repeats over a document catalog: hits dominate."""

    name = "serve_text_zipf"

    def generate(self) -> None:
        z = self.sizes
        self.wl = amazon_reviews(z["n_train"], z["catalog"],
                                 vocab_size=z["vocab"], seed=self.seed)
        self.catalog = list(self.wl.test_items)
        ranks = np.arange(1, len(self.catalog) + 1, dtype=np.float64)
        probs = ranks ** -z["zipf_a"]
        self.probs = probs / probs.sum()
        #: which catalog item holds each popularity rank
        self.by_rank = self.rng.permutation(len(self.catalog))

    def fit(self):
        z = self.sizes
        ctx = Context()
        pipe = amazon_pipeline(ctx, self.wl, num_features=z["features"],
                               ngrams=2).and_then(MaxClassifier())
        return Optimizer().optimize(pipe).execute()

    def indices(self, n: int) -> np.ndarray:
        return self.by_rank[self.rng.choice(len(self.catalog), size=n,
                                            p=self.probs)]


# ----------------------------------------------------------------------
# serve_dense_unique
# ----------------------------------------------------------------------

class ServeDenseUnique(ServeWorkload):
    """Distinct frames cycled in order past a small LRU: every request
    misses, is computed by the dense kernel stages, is put and evicts."""

    name = "serve_dense_unique"

    def generate(self) -> None:
        z = self.sizes
        self.wl = timit_frames(z["n_train"], z["catalog"], dim=z["dim"],
                               num_classes=z["classes"], seed=self.seed)
        self.catalog = list(self.wl.test_items)
        self.position = 0

    def fit(self):
        z = self.sizes
        ctx = Context()
        pipe = timit_pipeline(
            ctx, self.wl, num_feature_blocks=z["blocks"],
            block_size=z["block_size"]).and_then(MaxClassifier())
        return Optimizer().optimize(pipe).execute()

    def indices(self, n: int) -> np.ndarray:
        idx = (self.position + np.arange(n)) % len(self.catalog)
        self.position = int((self.position + n) % len(self.catalog))
        return idx

    def probes(self, rec) -> None:
        super().probes(rec)
        # one Phase-A pass through the two-process replica tier
        s, z = self.samples, self.sizes
        fleet = ModelServer(replicas=2, max_queue=z["max_queue"])
        try:
            fleet.start()
            s.add("serving.replicas.load_s", timed(
                lambda: fleet.register(MODEL, self.fitted))[1])
            fleet.predict_many(MODEL, self.catalog[:256])  # spawn + imports
            idx = self.indices(z["burst"])
            items = [self.catalog[i] for i in idx]
            results, seconds = timed(
                lambda: fleet.predict_many(MODEL, items))
            s.add("serving.replicas.saturation_rps", len(items) / seconds)
            s.attempt(len(items))
            self.answered.append((idx, results))  # verified after probes
        finally:
            fleet.close()


WORKLOADS = {w.name: w for w in (ServeTextZipf, ServeDenseUnique)}
