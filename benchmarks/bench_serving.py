"""Online serving benchmark: compiled plans + micro-batching + cache.

The ROADMAP's north star is a system that "serves heavy traffic"; this
bench measures the serving subsystem against the pre-serving hot path
(:func:`repro.core.backends.base.recursive_apply_item` — a fresh
recursive graph walk per request) on production-shaped load.

Two experiments:

- ``test_serving_throughput_open_loop`` — an open-loop load generator
  (submit everything, then gather) drives two vector workloads through
  four configurations: naive per-item apply, compiled per-item apply,
  micro-batched serving on an all-unique stream, and the full stack
  (micro-batching + cost-model serving cache) on a Zipf-repeat stream —
  the catalog-with-hot-items distribution real traffic has.  The full
  stack must sustain >= 5x the naive single-request throughput on both
  workloads; predictions are byte-identical (the classification heads
  served here are covered item-by-item by ``tests/test_serving.py``).
- ``test_serving_closed_loop_latency`` — a closed-loop generator
  (concurrent clients, one outstanding request each) reports the latency
  percentiles and cache hit rate under concurrency.
- ``test_serving_replica_drifting_zipf`` — the multi-process replica
  tier vs the single-process server on open-loop Zipf load whose hot set
  *drifts* over a 2M-uid key space; gates the replica/single throughput
  ratio and p99 parity (multi-core runners) and asserts byte identity on
  every replica path.
- ``test_serving_goodput_under_overload`` — paced open-loop traffic at
  ~3x measured capacity, 30% HIGH / 70% LOW priority with a LOW-tier
  shed watermark; gates HIGH-priority goodput (shed-before-overload).
- ``test_serving_cross_version_cache`` — two registered versions sharing
  a featurization prefix; measures the content-addressed cache's
  cross-version hit rate (the new version's first pass over traffic the
  old version already served), recorded and gated as
  ``serving_cross_version.cross_version_hit_rate``.

Set ``REPRO_BENCH_FAST=1`` to shrink the workloads for CI smoke runs.
"""

import gc
import os
import statistics
import threading
import time

import numpy as np

from repro.core.backends import recursive_apply_item
from repro.core.pipeline import Pipeline
from repro.dataset import Context
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.learning.random_features import CosineRandomFeatures
from repro.nodes.numeric import MaxClassifier, StandardScaler
from repro.serving import HIGH, LOW, ModelServer, ServerOverloadedError
from repro.workloads import timit_frames, youtube8m

from _common import fmt_row, once, record_result, report

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

NUM_REQUESTS = 400 if FAST else 1200
CATALOG = 60 if FAST else 100  # distinct items behind the Zipf stream
#: alternating timed windows per path in the kernel-throughput bench
KERNEL_WINDOWS = 5
MAX_BATCH = 32 if FAST else 64
MAX_DELAY_MS = 5.0
CACHE_BUDGET = 256e6
SPEEDUP_FLOOR = 5.0

WORKLOADS = {
    # Feature widths keep the projection matrix out of cache even in
    # FAST mode: the naive per-request GEMV stays memory-bound, which is
    # exactly the cost batching and the serving cache amortize.
    "timit": dict(num_train=200 if FAST else 500,
                  dim=256 if FAST else 440,
                  classes=6 if FAST else 12,
                  features=2048),
    "youtube8m": dict(num_train=200 if FAST else 400,
                      dim=512 if FAST else 1024,
                      classes=8 if FAST else 16,
                      features=2048 if FAST else 1024),
}


def _fit(name):
    cfg = WORKLOADS[name]
    if name == "timit":
        wl = timit_frames(cfg["num_train"], CATALOG, dim=cfg["dim"],
                          num_classes=cfg["classes"], seed=0)
    else:
        wl = youtube8m(cfg["num_train"], CATALOG, dim=cfg["dim"],
                       num_classes=cfg["classes"], seed=0)
    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    pipe = (Pipeline.identity()
            .and_then(StandardScaler(), data)
            .and_then(CosineRandomFeatures(cfg["features"], seed=1), data)
            .and_then(LinearSolver(lbfgs_iters=20), data, labels)
            .and_then(MaxClassifier()))
    return pipe.fit(level="none"), wl.test_items


def _zipf_stream(catalog_items, n, seed=0):
    """Zipf-distributed request stream over a finite catalog."""
    ranks = np.arange(1, len(catalog_items) + 1, dtype=np.float64)
    probs = ranks ** -1.1
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(catalog_items), size=n, p=probs)
    return [catalog_items[i] for i in picks]


def _timed_rps(fn, n):
    # The FAST-mode windows are a few milliseconds; a gen-2 GC cycle
    # landing inside one (quasi-deterministic: it depends on allocation
    # counts of everything imported before) skews a single-core run by
    # 5-10x.  Collect up front so every phase starts with zero GC debt.
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, n / (time.perf_counter() - start)


def test_serving_throughput_open_loop(benchmark):
    """Naive vs compiled vs batched vs batched+cache, two workloads."""
    fitted = {name: _fit(name) for name in WORKLOADS}

    def run():
        results = {}
        for name, (model, catalog) in fitted.items():
            stream = _zipf_stream(catalog, NUM_REQUESTS, seed=1)
            unique = [catalog[i % len(catalog)]
                      for i in range(NUM_REQUESTS)]
            model.apply(stream[0])  # compile + BLAS warmup

            expected, naive_rps = _timed_rps(
                lambda: [recursive_apply_item(model, x) for x in stream],
                NUM_REQUESTS)
            compiled, compiled_rps = _timed_rps(
                lambda: [model.apply(x) for x in stream], NUM_REQUESTS)

            server = ModelServer(max_batch=MAX_BATCH,
                                 max_delay_ms=MAX_DELAY_MS,
                                 max_queue=2 * NUM_REQUESTS)
            with server:
                server.register(name, model)
                batched, batch_rps = _timed_rps(
                    lambda: server.predict_many(name, unique),
                    NUM_REQUESTS)

            cached_server = ModelServer(max_batch=MAX_BATCH,
                                        max_delay_ms=MAX_DELAY_MS,
                                        max_queue=2 * NUM_REQUESTS,
                                        cache_budget_bytes=CACHE_BUDGET,
                                        expected_reuse=NUM_REQUESTS
                                        / CATALOG)
            with cached_server:
                cached_server.register(name, model,
                                       warmup_items=catalog[:8])
                # Prime: one pass over the catalog fills the cache, so
                # the timed stream measures steady-state serving (the
                # regime a long-running server spends its life in).
                cached_server.predict_many(name, list(catalog))
                served, served_rps = _timed_rps(
                    lambda: cached_server.predict_many(name, stream),
                    NUM_REQUESTS)
                stats = cached_server.stats(name).models[f"{name}@v1"]

            assert served == expected, (
                f"{name}: served predictions diverged from naive apply")
            assert compiled == expected
            results[name] = dict(naive=naive_rps, compiled=compiled_rps,
                                 batched=batch_rps, served=served_rps,
                                 stats=stats)
        return results

    results = once(benchmark, run)

    widths = [11, 10, 10, 10, 12, 9, 8]
    lines = [f"open-loop, {NUM_REQUESTS} requests, catalog {CATALOG}, "
             f"max_batch {MAX_BATCH}, zipf(1.1) repeats",
             "batched = unique stream, cache off; batch+cache = zipf "
             "stream, steady state (primed cache)",
             fmt_row(["workload", "naive", "compiled", "batched",
                      "batch+cache", "speedup", "hit"], widths)]
    for name, r in results.items():
        stats = r["stats"]
        lines.append(fmt_row(
            [name, f"{r['naive']:.0f}/s", f"{r['compiled']:.0f}/s",
             f"{r['batched']:.0f}/s", f"{r['served']:.0f}/s",
             f"{r['served'] / r['naive']:.1f}x",
             f"{stats.cache_hit_rate:.2f}"], widths))
        lines.append(
            f"  {name} serving latency ms: p50 {stats.p50_ms:.2f}  "
            f"p95 {stats.p95_ms:.2f}  p99 {stats.p99_ms:.2f}; "
            f"{stats.batches} batches, mean size "
            f"{stats.mean_batch_size:.1f}")
    report("serving_throughput", lines)

    # Performance-trajectory artifact: machine-independent throughput
    # ratios, gated by benchmarks/check_regression.py.
    metrics = {}
    for name, r in results.items():
        metrics[f"speedup_{name}"] = r["served"] / r["naive"]
        metrics[f"batched_speedup_{name}"] = r["batched"] / r["naive"]
    metrics["min_speedup"] = min(r["served"] / r["naive"]
                                 for r in results.values())
    record_result("serving", metrics)

    for name, r in results.items():
        # Micro-batching alone must beat the naive walk...
        assert r["batched"] > r["naive"], name
        # ...and the full serving stack must clear the 5x floor.
        assert r["served"] >= SPEEDUP_FLOOR * r["naive"], (
            f"{name}: {r['served']:.0f}/s < "
            f"{SPEEDUP_FLOOR}x naive {r['naive']:.0f}/s")
        assert r["stats"].cache_hit_rate > 0.3, name


def test_serving_cross_version_cache(benchmark):
    """Content-addressed cross-version reuse: v2 resumes from v1's work.

    Both versions train through the identical featurization prefix
    (StandardScaler -> CosineRandomFeatures) and differ only in the
    solver, so the prefix ops carry equal content keys and one serving
    cache backs both registered versions.  The metric is the hit rate of
    the *new* version's first pass over a catalog only the *old* version
    has served — every hit is an intermediate v2 never computed.
    """
    name = "timit"
    cfg = WORKLOADS[name]
    wl = timit_frames(cfg["num_train"], CATALOG, dim=cfg["dim"],
                      num_classes=cfg["classes"], seed=0)

    def fit(l2_reg):
        ctx = Context()
        data = wl.train_data(ctx)
        labels = wl.train_label_vectors(ctx)
        pipe = (Pipeline.identity()
                .and_then(StandardScaler(), data)
                .and_then(CosineRandomFeatures(cfg["features"], seed=1),
                          data)
                .and_then(LinearSolver(lbfgs_iters=20, l2_reg=l2_reg),
                          data, labels)
                .and_then(MaxClassifier()))
        return pipe.fit(level="none")

    v1, v2 = fit(1e-8), fit(1.0)

    def run():
        server = ModelServer(max_batch=MAX_BATCH,
                             max_delay_ms=MAX_DELAY_MS,
                             cache_budget_bytes=CACHE_BUDGET)
        with server:
            # No warmup: every non-input op is cache-marked, so the
            # shared prefix is cacheable in both versions.
            server.register(name, v1, version="v1")
            m2 = server.register(name, v2, version="v2", deploy=True)
            catalog = list(wl.test_items)
            # The old version serves the catalog (writes the prefix)...
            expected_v1 = server.predict_many(name, catalog, version="v1")
            hits_before = m2.cache.hits
            # ...then the new version sees the same traffic cold.
            served = server.predict_many(name, catalog)
            cross_hits = m2.cache.hits - hits_before
        return expected_v1, served, cross_hits, len(catalog)

    expected_v1, served, cross_hits, n = once(benchmark, run)
    assert expected_v1 == [v1.apply(x) for x in wl.test_items]
    assert served == [v2.apply(x) for x in wl.test_items]
    rate = cross_hits / n
    lines = [f"two versions, shared StandardScaler+RandomFeatures prefix, "
             f"catalog {n}",
             f"v2 first-pass cross-version cache hit rate: {rate:.2f} "
             f"({cross_hits} hits)"]
    report("serving_cross_version", lines)
    record_result("serving_cross_version",
                  {"cross_version_hit_rate": rate})
    # Every v2 request must resume from at least the shared prefix.
    assert rate > 0.9, (
        f"cross-version hit rate {rate:.2f}: content-addressed sharing "
        "is not answering the new version's requests")


def test_serving_closed_loop_latency(benchmark):
    """Concurrent closed-loop clients: tail latency + cache behaviour."""
    name = "timit"
    model, catalog = _fit(name)
    clients = 4
    per_client = 75 if FAST else 200
    streams = [_zipf_stream(catalog, per_client, seed=10 + c)
               for c in range(clients)]
    expected = {id(item): recursive_apply_item(model, item)
                for stream in streams for item in stream}

    def run():
        server = ModelServer(max_batch=MAX_BATCH,
                             max_delay_ms=MAX_DELAY_MS,
                             cache_budget_bytes=CACHE_BUDGET,
                             expected_reuse=per_client * clients / CATALOG)
        failures = []

        def client(stream):
            for item in stream:
                if server.predict(name, item) != expected[id(item)]:
                    failures.append(item)

        with server:
            server.register(name, model, warmup_items=catalog[:8])
            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(s,))
                       for s in streams]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            elapsed = time.perf_counter() - start
            assert not any(t.is_alive() for t in threads), "clients hung"
            stats = server.stats(name).models[f"{name}@v1"]
        return failures, stats, elapsed

    failures, stats, elapsed = once(benchmark, run)
    total = clients * per_client

    lines = [f"closed-loop: {clients} clients x {per_client} requests, "
             f"catalog {CATALOG}, zipf(1.1)",
             f"aggregate throughput: {total / elapsed:.0f} req/s",
             f"latency ms: mean {stats.mean_ms:.2f}  p50 {stats.p50_ms:.2f}"
             f"  p95 {stats.p95_ms:.2f}  p99 {stats.p99_ms:.2f}",
             f"cache: hit rate {stats.cache_hit_rate:.2f} "
             f"({stats.cache_hits} hits), {stats.cache_entries} entries, "
             f"{stats.cache_used_bytes} bytes",
             f"batches: {stats.batches}, mean size "
             f"{stats.mean_batch_size:.1f}, max {stats.max_batch_size}"]
    report("serving_closed_loop", lines)

    assert not failures, "served predictions diverged under concurrency"
    assert stats.requests == total
    assert stats.errors == 0
    assert stats.cache_hit_rate > 0.2
    assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms


# ----------------------------------------------------------------------
# Replica tier + SLO policies (PR 9)
# ----------------------------------------------------------------------

USERS = 2_000_000  # uid key space behind the drifting hot set
N_OVERLOAD = 300 if FAST else 800
OVERLOAD_FACTOR = 3.0  # offered load vs measured capacity


def _drifting_zipf_uids(n, users, hot, seed=0):
    """Zipf picks inside a hot window that drifts across ``users`` uids.

    The catalog-with-hot-items distribution of ``_zipf_stream``, made
    adversarial for caches: the hot set slides 8 times over the stream,
    so a server must keep *re-earning* its hits on a key space no cache
    could enumerate — the "millions of users" regime of the ROADMAP.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, hot + 1, dtype=np.float64)
    probs = ranks ** -1.1
    probs /= probs.sum()
    base = int(rng.integers(0, users))
    stride = max(1, hot // 2)  # half the window slides out per step
    step = max(1, n // 8)
    picks = rng.choice(hot, size=n, p=probs)
    return [int((base + (t // step) * stride + picks[t]) % users)
            for t in range(n)]


def _item_for_uid(uid, dim):
    """Deterministic per-user feature vector (content-keyed by uid)."""
    return np.random.default_rng(uid).standard_normal(dim)


def test_serving_replica_drifting_zipf(benchmark):
    """Single-process server vs the 2-replica tier on drifting-Zipf load.

    Open-loop traffic from a 2M-uid key space whose Zipf hot set drifts
    over the stream; both servers run the identical batching/cache
    configuration, the replica server additionally ships batches to two
    persistent worker processes (``serving/replicas.py``).  Records the
    replica/single throughput ratio and the p99 parity
    (single p99 / replica p99), gated in ``baselines.json`` on
    multi-core runners; predictions are spot-checked byte-identical to
    ``fitted.apply``.
    """
    cpus = os.cpu_count() or 1
    name = "timit"
    model, _catalog = _fit(name)
    dim = WORKLOADS[name]["dim"]
    uids = _drifting_zipf_uids(NUM_REQUESTS, USERS, CATALOG, seed=3)
    items = {uid: _item_for_uid(uid, dim) for uid in set(uids)}
    stream = [items[uid] for uid in uids]
    expected_head = [model.apply(x) for x in stream[:32]]

    def serve(server):
        with server:
            server.register(name, model, warmup_items=stream[:8])
            server.predict_many(name, stream[:32])  # path + BLAS warmup
            preds, rps = _timed_rps(
                lambda: server.predict_many(name, stream), NUM_REQUESTS)
            stats = server.stats(name).models[f"{name}@v1"]
        return preds, rps, stats

    def run():
        single = ModelServer(max_batch=MAX_BATCH,
                             max_delay_ms=MAX_DELAY_MS,
                             max_queue=2 * NUM_REQUESTS,
                             cache_budget_bytes=CACHE_BUDGET)
        s_preds, s_rps, s_stats = serve(single)
        replica = ModelServer(max_batch=MAX_BATCH,
                              max_delay_ms=MAX_DELAY_MS,
                              max_queue=2 * NUM_REQUESTS,
                              cache_budget_bytes=CACHE_BUDGET,
                              replicas=2)
        try:
            r_preds, r_rps, r_stats = serve(replica)
        finally:
            replica.close()
        return s_preds, s_rps, s_stats, r_preds, r_rps, r_stats

    s_preds, s_rps, s_stats, r_preds, r_rps, r_stats = once(benchmark, run)

    # Byte-identity on every replica path: replica == single == apply.
    assert r_preds == s_preds, (
        "replica-served predictions diverged from single-process serving")
    assert s_preds[:32] == expected_head, (
        "served predictions diverged from fitted.apply")

    ratio = r_rps / s_rps
    parity = s_stats.p99_ms / max(r_stats.p99_ms, 1e-9)
    widths = [10, 10, 9, 9, 6]
    lines = [f"open-loop drifting zipf: {NUM_REQUESTS} requests, "
             f"{len(items)} distinct uids of {USERS}, hot set {CATALOG}, "
             f"{cpus} cpu(s)",
             fmt_row(["tier", "rps", "p50ms", "p99ms", "hit"], widths),
             fmt_row(["single", f"{s_rps:.0f}", f"{s_stats.p50_ms:.2f}",
                      f"{s_stats.p99_ms:.2f}",
                      f"{s_stats.cache_hit_rate:.2f}"], widths),
             fmt_row(["replica2", f"{r_rps:.0f}", f"{r_stats.p50_ms:.2f}",
                      f"{r_stats.p99_ms:.2f}",
                      f"{r_stats.cache_hit_rate:.2f}"], widths),
             f"replica/single throughput {ratio:.2f}x, "
             f"p99 parity {parity:.2f} "
             f"({r_stats.replica_batches} replica batches)"]
    report("serving_replicas", lines)

    metrics = {"single_rps": s_rps, "replica_rps": r_rps,
               "single_p99_ms": s_stats.p99_ms,
               "replica_p99_ms": r_stats.p99_ms,
               "replica_batches": r_stats.replica_batches,
               "cpus": cpus}
    if cpus >= 2:
        # The acceptance bar: the replica tier beats one process on
        # throughput without giving up the tail (gated ratios; a 1-CPU
        # machine cannot scale serving compute, so it only records the
        # ungated absolutes above).
        metrics["replica_throughput_ratio"] = ratio
        metrics["p99_parity"] = parity
        assert ratio > 1.0, (
            f"2 replicas did not beat single-process serving: "
            f"{r_rps:.0f}/s vs {s_rps:.0f}/s")
    record_result("serving_replicas", metrics)
    assert r_stats.replicas == 2
    assert r_stats.replica_batches >= 1
    assert r_stats.errors == 0


def test_serving_goodput_under_overload(benchmark):
    """Priority shedding under ~3x-capacity open-loop overload.

    Measures single-server capacity first, then offers a paced stream at
    ``OVERLOAD_FACTOR``x that rate, 30% HIGH / 70% LOW priority, with
    the LOW tier shedding at 12.5% queue depth.  The gated metric is
    HIGH-priority goodput (completed / offered): shedding must degrade
    the low tier *before* the high tier sees ``ServerOverloadedError``.
    """
    name = "timit"
    model, catalog = _fit(name)
    stream = _zipf_stream(catalog, N_OVERLOAD, seed=7)
    model.apply(stream[0])
    expected_head = [model.apply(x) for x in stream[:8]]

    def run():
        cap_server = ModelServer(max_batch=MAX_BATCH,
                                 max_delay_ms=MAX_DELAY_MS,
                                 max_queue=2 * N_OVERLOAD)
        with cap_server:
            cap_server.register(name, model)
            cap_server.predict_many(name, stream[:32])
            _, capacity = _timed_rps(
                lambda: cap_server.predict_many(name, stream), N_OVERLOAD)

        server = ModelServer(max_batch=MAX_BATCH,
                             max_delay_ms=MAX_DELAY_MS,
                             max_queue=8 * MAX_BATCH,
                             shed_watermarks={HIGH: 1.0, LOW: 0.125})
        rng = np.random.default_rng(11)
        priorities = [HIGH if rng.random() < 0.3 else LOW
                      for _ in range(N_OVERLOAD)]
        offered = {HIGH: 0, LOW: 0}
        shed = {HIGH: 0, LOW: 0}
        futures = []
        interarrival = 1.0 / (OVERLOAD_FACTOR * capacity)
        with server:
            server.register(name, model)
            server.predict_many(name, stream[:8])
            start = time.perf_counter()
            for i, (item, pr) in enumerate(zip(stream, priorities)):
                target = start + i * interarrival
                now = time.perf_counter()
                if target > now:
                    time.sleep(target - now)
                offered[pr] += 1
                try:
                    futures.append(
                        (pr, item, server.submit(name, item, priority=pr)))
                except ServerOverloadedError:
                    shed[pr] += 1
            completed = {HIGH: 0, LOW: 0}
            head_checked = 0
            for pr, item, fut in futures:
                value = fut.result(timeout=300)
                completed[pr] += 1
                if head_checked < 8 and item is stream[head_checked]:
                    assert value == expected_head[head_checked]
                    head_checked += 1
        return capacity, offered, shed, completed

    capacity, offered, shed, completed = once(benchmark, run)
    high_goodput = completed[HIGH] / max(1, offered[HIGH])
    low_goodput = completed[LOW] / max(1, offered[LOW])

    lines = [f"capacity {capacity:.0f}/s, offered "
             f"{OVERLOAD_FACTOR:.0f}x ({N_OVERLOAD} requests, "
             f"30% HIGH / 70% LOW, LOW sheds at 12.5% of queue)",
             fmt_row(["tier", "offered", "completed", "shed", "goodput"],
                     [8, 9, 10, 7, 8]),
             fmt_row(["HIGH", str(offered[HIGH]), str(completed[HIGH]),
                      str(shed[HIGH]), f"{high_goodput:.2f}"],
                     [8, 9, 10, 7, 8]),
             fmt_row(["LOW", str(offered[LOW]), str(completed[LOW]),
                      str(shed[LOW]), f"{low_goodput:.2f}"],
                     [8, 9, 10, 7, 8])]
    report("serving_goodput", lines)

    record_result("serving_slo", {
        "high_priority_goodput": high_goodput,
        "low_priority_goodput": low_goodput,
        "capacity_rps": capacity,
        "low_shed": shed[LOW],
        "high_shed": shed[HIGH]})

    # Overload actually engaged, and it degraded the tiers in order.
    assert shed[LOW] > 0, "overload never engaged the LOW watermark"
    assert high_goodput >= 0.9, (
        f"HIGH-priority goodput {high_goodput:.2f}: shedding did not "
        "protect the high tier")
    assert high_goodput > low_goodput


# ----------------------------------------------------------------------
# Vectorized kernel backend (PR 10)
# ----------------------------------------------------------------------


def test_vectorized_kernel_throughput(benchmark):
    """Interpreter vs kernel-lowered ``run_batch``, per workload family.

    Both plans compile from the same fitted pipeline; the vectorized one
    went through ``VectorizePass`` (the serving default), which lowers
    kernel-capable op runs into columnar ``KernelStage`` slots executing
    the whole batch as a handful of numpy calls.  Because the kernels
    are batch-invariant, the speedup is free of the historical raw-score
    caveat: batched outputs are asserted byte-identical to
    ``fitted.apply``.  Each path's rows/s is the median of
    ``KERNEL_WINDOWS`` windows, alternating with the other path's.  Gates
    ``serving_kernels.vectorized_throughput_ratio`` (the text workload's
    ratio — the sparse featurization chain is where per-item dispatch
    hurts most).
    """
    from repro.nodes.text import (CommonSparseFeatures, LowerCase,
                                  TermFrequency, Tokenizer, unit_weighting)
    from repro.serving import compile_inference_plan
    from repro.workloads import amazon_reviews

    ctx = Context()
    fitted = {}
    wl_a = amazon_reviews(300 if FAST else 600, CATALOG,
                          vocab_size=1000 if FAST else 3000, seed=0)
    data = wl_a.train_data(ctx)
    labels = wl_a.train_label_vectors(ctx)
    fitted["amazon"] = (
        (Pipeline.identity()
         .and_then(LowerCase())
         .and_then(Tokenizer())
         .and_then(TermFrequency(unit_weighting()))
         .and_then(CommonSparseFeatures(512), data)
         .and_then(LinearSolver(lbfgs_iters=20), data, labels))
        .fit(level="none"),
        wl_a.test_items)
    cfg = WORKLOADS["timit"]
    wl_t = timit_frames(cfg["num_train"], CATALOG, dim=cfg["dim"],
                        num_classes=cfg["classes"], seed=0)
    t_data = wl_t.train_data(ctx)
    t_labels = wl_t.train_label_vectors(ctx)
    fitted["timit"] = (
        (Pipeline.identity()
         .and_then(StandardScaler(), t_data)
         .and_then(CosineRandomFeatures(cfg["features"], seed=1), t_data)
         .and_then(LinearSolver(lbfgs_iters=20), t_data, t_labels))
        .fit(level="none"),
        wl_t.test_items)

    def run():
        results = {}
        for name, (model, catalog) in fitted.items():
            stream = _zipf_stream(catalog, NUM_REQUESTS, seed=5)
            interp = compile_inference_plan(model, vectorize=False)
            vector = compile_inference_plan(model, vectorize=True)
            interp.run_batch(stream[:32])  # compile + BLAS warmup
            vector.run_batch(stream[:32])  # kernel-build warmup
            # One window per path is a few ms; BLAS threads still spinning
            # after the interpreter's GEMM can take the core for whole
            # scheduler ticks of the next one.  Alternate the paths over
            # KERNEL_WINDOWS windows each and compare medians.
            interp_rps, vector_rps = [], []
            for _ in range(KERNEL_WINDOWS):
                expected, rps = _timed_rps(
                    lambda: interp.run_batch(stream), NUM_REQUESTS)
                interp_rps.append(rps)
                got, rps = _timed_rps(
                    lambda: vector.run_batch(stream), NUM_REQUESTS)
                vector_rps.append(rps)
            interp_rps = statistics.median(interp_rps)
            vector_rps = statistics.median(vector_rps)
            # The kernel path is byte-identical to per-item apply; the
            # interpreter's batched path is not (it rides the members'
            # BLAS-batched apply_partition — the historical caveat), so
            # it is only checked to ulp tolerance.
            per_item = [model.apply(x) for x in stream[:64]]
            assert ([(r.dtype, r.shape, r.tobytes()) for r in got[:64]]
                    == [(r.dtype, r.shape, r.tobytes())
                        for r in per_item]), (
                f"{name}: vectorized raw scores diverged from apply")
            np.testing.assert_allclose(
                np.asarray(expected[:64]), np.asarray(per_item),
                rtol=1e-9)
            results[name] = dict(interp=interp_rps, vector=vector_rps,
                                 ops_before=len(interp),
                                 ops_after=len(vector))
        return results

    results = once(benchmark, run)

    widths = [10, 12, 12, 8, 10]
    lines = [f"raw-score (headless) plans, {NUM_REQUESTS} requests, "
             f"catalog {CATALOG}, zipf(1.1) repeats, run_batch",
             fmt_row(["workload", "interpreter", "vectorized", "ratio",
                      "plan ops"], widths)]
    for name, r in results.items():
        lines.append(fmt_row(
            [name, f"{r['interp']:.0f}/s", f"{r['vector']:.0f}/s",
             f"{r['vector'] / r['interp']:.1f}x",
             f"{r['ops_before']}->{r['ops_after']}"], widths))
    report("serving_kernels", lines)

    # Absolute rows/s sit beside each ratio (ungated: they move with the
    # machine), so a ratio that drops names the path that moved.
    metrics = {}
    for name, r in results.items():
        metrics[f"ratio_{name}"] = r["vector"] / r["interp"]
        metrics[f"interp_rows_per_s_{name}"] = r["interp"]
        metrics[f"vector_rows_per_s_{name}"] = r["vector"]
    metrics["vectorized_throughput_ratio"] = metrics["ratio_amazon"]
    record_result("serving_kernels", metrics)

    for name, r in results.items():
        assert r["ops_after"] < r["ops_before"], (
            f"{name}: VectorizePass folded nothing")
    # The acceptance bar: >= 2x on the text workload, where the sparse
    # featurization chain pays per-item dispatch on every request.  The
    # dense workload's ratio is recorded ungated: its interpreter
    # baseline already rides one BLAS gemm per batch (the byte-divergent
    # path), so the batch-invariant per-row kernels buy identity there,
    # not throughput.
    assert metrics["vectorized_throughput_ratio"] >= 2.0, (
        f"text kernel ratio {metrics['vectorized_throughput_ratio']:.2f} "
        "< 2.0")
