"""Figure 12: strong scaling of real plans and of the paper's pipelines.

The paper scales from 8 to 128 nodes: ImageNet (featurization-dominated,
embarrassingly parallel) scales near-linearly to 128; Amazon and TIMIT
scale well to 64 and then flatten — Amazon because common-feature selection
ends in an aggregation tree, TIMIT because the dense solve requires
coordination.

Two experiments:

- ``test_fig12_real_plan_strong_scaling`` — the node-count sweep is
  produced by *executing a real PhysicalPlan* (the Figure 2 text
  classification pipeline, optimized with a ShardingPass), then
  re-pricing its measured per-node seconds at each cluster size with
  ``plan_scaling_sweep``.
- ``test_fig12_paper_scale_model`` — the paper-scale stage models
  (Table 3 constants) that reproduce Figure 12's absolute shapes, which
  no laptop-sized real run can.

Set ``REPRO_BENCH_FAST=1`` to shrink the real workload for CI smoke runs.
"""

import os
import time

import numpy as np

from repro.cluster.resources import r3_4xlarge
from repro.core.backends import (
    ActorBackend,
    LocalBackend,
    ProcessPoolBackend,
    shutdown_actor_pools,
)
from repro.core.operators import Transformer
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.passes import ShardingPass, plan_scaling_sweep
from repro.core.pipeline import Pipeline
from repro.dataset import Context
from repro.nodes.learning.kmeans import KMeansEstimator
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    NGramsFeaturizer,
    TermFrequency,
    Tokenizer,
)
from repro.scaling import pipeline_scaling
from repro.workloads import amazon_reviews

from _common import fmt_row, once, record_result, report

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")
NODES = [8, 16, 32, 64, 128]
PIPELINES = ["amazon", "timit", "imagenet"]

NUM_TRAIN = 400 if FAST else 2000
VOCAB = 500 if FAST else 2000
SAMPLES = (40, 80) if FAST else (100, 200)
#: simulated task-launch cost per stage for the real-plan sweep, as a
#: fraction of the measured serial run — the fixed cost that bounds
#: strong scaling on real clusters.  Relative to measured time (not a
#: wall-clock constant) so the sweep's *shape* is machine-independent:
#: with overhead o = f*S per stage over n stages, speedup(w) ≈
#: (1/w₀ + n·f) / (1/w + n·f) regardless of how fast the runner is.
REAL_PLAN_OVERHEAD_FRACTION = 0.01


def _total(breakdown):
    return sum(breakdown.values())


def _real_plan():
    wl = amazon_reviews(num_train=NUM_TRAIN, num_test=50,
                        vocab_size=VOCAB, seed=0)
    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    pipe = (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(VOCAB // 2), data)
            .and_then(LinearSolver(), data, labels))
    passes = passes_for_level("full", sample_sizes=SAMPLES)
    passes.append(ShardingPass(workers=NODES[0]))
    return Optimizer(passes).optimize(pipe, level="full")


def test_fig12_real_plan_strong_scaling(benchmark):
    """Sweep cluster sizes by pricing one real fit of the plan."""
    plan = _real_plan()

    def run():
        fitted = plan.execute()
        rep = fitted.training_report
        serial = sum(rep.node_seconds.values())
        overhead = REAL_PLAN_OVERHEAD_FRACTION * serial
        return fitted, plan_scaling_sweep(
            plan, fitted, NODES, resources=r3_4xlarge(NODES[0]),
            overhead_per_stage=overhead)

    fitted, sweep = once(benchmark, run)
    rep = fitted.training_report

    widths = [8, 12, 12, 12, 10]
    lines = [f"plan: {rep.backend} fit, {len(rep.node_seconds)} timed "
             f"nodes, measured serial {sum(rep.node_seconds.values()):.3f}s",
             fmt_row(["nodes", "Featurize(s)", "Solve(s)", "total(s)",
                      "speedup"], widths)]
    t8 = _total(sweep[NODES[0]])
    for w in NODES:
        b = sweep[w]
        lines.append(fmt_row(
            [w, f"{b.get('Featurization', 0):.4f}",
             f"{b.get('Model Solve', 0):.4f}",
             f"{_total(b):.4f}", f"{t8 / _total(b):.1f}x"], widths))
    lines.append("")
    lines.append("sharding decision: " + next(
        d.describe() for d in plan.decisions if d.name == "ShardingPass"))
    report("fig12_real_plan_scaling", lines)

    assert sorted(sweep) == sorted(NODES)
    assert {"Featurization", "Model Solve"} <= set(sweep[NODES[0]])
    # Strong scaling: monotone non-increasing totals, real speedup by 128
    # nodes, but sublinear (the per-stage overhead bounds it).
    totals = [_total(sweep[w]) for w in NODES]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[0] / totals[-1] > 2.0
    assert totals[0] / totals[-1] < NODES[-1] / NODES[0]
    # The ShardingPass decision is visible on the executed plan.
    assert "sharding:" in plan.explain()
    record_result("fig12_scalability",
                  {"real_plan_speedup": totals[0] / totals[-1]})


# ----------------------------------------------------------------------
# Measured multi-process series (next to the simulated sweep above)
# ----------------------------------------------------------------------

#: worker count of the measured series; also names the gated metric
MEASURED_WORKERS = 2
MEASURED_TRAIN = 1000 if FAST else 3000
MEASURED_VOCAB = 400 if FAST else 1200


def _numpy_light_plan(seed: int = 0):
    """Text featurization plan where pure-Python work dominates.

    Tokenization/n-grams/term counting hold the GIL and parallelize
    across processes, which is exactly the workload multi-process
    execution exists for; the solver is kept light so the featurization
    axis is what the measurement sees.  ``seed`` controls the document
    content, so differently-seeded plans share *no* content-addressed
    shard state in the workers.
    """
    wl = amazon_reviews(num_train=MEASURED_TRAIN, num_test=60,
                        vocab_size=MEASURED_VOCAB, seed=seed)
    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    pipe = (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(MEASURED_VOCAB // 2), data)
            .and_then(LinearSolver(lbfgs_iters=5), data, labels))
    plan = Optimizer(passes_for_level("none")).optimize(pipe)
    return wl, plan


def test_fig12_process_backend_measured(benchmark):
    """Real multi-process execution vs the serial reference, wall clock.

    The simulated sweep above prices what a cluster *would* do; this
    series measures what this machine actually does when shards run in
    worker processes — the actor runtime, driven through its historical
    ``ProcessPoolBackend`` name so the gated metric keeps its series.
    The pool is pre-warmed on differently-seeded documents: spawn and
    imports stay out of the measurement, and the timed fit still
    featurizes every shard (no cached state to reuse — the refit case is
    the next test's).  Byte-identical predictions are asserted; the
    speedup is asserted (and recorded for the regression gate) only on
    multi-core runners — a 1-CPU machine cannot speed anything up.
    """
    cpus = os.cpu_count() or 1
    wl, _ = _numpy_light_plan()

    def run():
        timings = {}
        # Untimed warm runs: pool spawn + BLAS warmup stay out of the
        # measurement (a trained system's steady state).
        _, serial_plan = _numpy_light_plan()
        serial_plan.execute(backend=LocalBackend())
        start = time.perf_counter()
        serial_fitted = serial_plan.execute(backend=LocalBackend())
        timings["serial"] = time.perf_counter() - start

        backend = ProcessPoolBackend(workers=MEASURED_WORKERS,
                                     task_timeout=600.0, reuse_pool=False)
        _, prewarm_plan = _numpy_light_plan(seed=1)
        prewarm_plan.execute(backend=backend)
        _, process_plan = _numpy_light_plan()
        start = time.perf_counter()
        process_fitted = process_plan.execute(backend=backend)
        timings["process"] = time.perf_counter() - start
        backend.close()
        return timings, serial_fitted, process_fitted

    timings, serial_fitted, process_fitted = once(benchmark, run)
    test_data = wl.test_data(Context())
    serial_rows = [np.asarray(r).tobytes()
                   for r in serial_fitted.apply_dataset(test_data).collect()]
    process_rows = [np.asarray(r).tobytes()
                    for r in process_fitted.apply_dataset(test_data).collect()]
    speedup = timings["serial"] / timings["process"]

    rep = process_fitted.training_report
    lines = [f"{MEASURED_TRAIN} docs, {cpus} cpu(s), "
             f"workers={MEASURED_WORKERS}",
             fmt_row(["backend", "train(s)", "speedup"], [10, 10, 8]),
             fmt_row(["local", f"{timings['serial']:.3f}", "1.0x"],
                     [10, 10, 8]),
             fmt_row(["process", f"{timings['process']:.3f}",
                      f"{speedup:.2f}x"], [10, 10, 8]),
             f"stat-merged: {rep.process_stat_merged}; "
             f"gathered: {rep.process_gathered}; "
             f"fallback: {rep.process_fallback}"]
    report("fig12_process_backend", lines)

    assert process_rows == serial_rows, \
        "process backend diverged from serial predictions"
    assert rep.process_workers == MEASURED_WORKERS
    assert not rep.process_fallback, rep.process_fallback
    assert rep.shard_state_misses > 0, "timed fit featurized nothing"

    metrics = {"serial_seconds": timings["serial"],
               "process_seconds": timings["process"],
               "workers": MEASURED_WORKERS,
               "cpus": cpus}
    if cpus >= 2:
        # The acceptance bar: real parallelism beats the serial reference
        # on a numpy-light workload.  Only measurable with >= 2 cores.
        metrics[f"speedup_workers_{MEASURED_WORKERS}"] = speedup
        assert speedup > 1.0, (
            f"ProcessPoolBackend(workers={MEASURED_WORKERS}) did not beat "
            f"LocalBackend: {timings['process']:.3f}s vs "
            f"{timings['serial']:.3f}s")
    record_result("process_backend", metrics)


# ----------------------------------------------------------------------
# Measured actor-runtime iterative series
# ----------------------------------------------------------------------

ACTOR_WORKERS = 2
ACTOR_TRAIN = 600 if FAST else 1600
ACTOR_VOCAB = 250 if FAST else 800
ACTOR_FEATURES = 150 if FAST else 400
ACTOR_CLUSTERS = 6 if FAST else 8
ACTOR_PASSES = 5 if FAST else 6


class Densify(Transformer):
    """Module-level (spawn-picklable): sparse row -> dense vector."""

    def apply(self, row):
        return np.asarray(row.todense()).ravel()


def _iterative_plan(seed: int):
    """Text featurization into an in-worker iterative k-means head.

    Featurization dominates and the solver makes ``ACTOR_PASSES`` passes
    over it: the serial reference re-featurizes every pass, persistent
    actors featurize once into the shard cache and then only move
    per-pass statistics.  ``seed`` controls the document content, so
    differently-seeded plans share *no* content-addressed shard state.
    """
    wl = amazon_reviews(num_train=ACTOR_TRAIN, num_test=50,
                        vocab_size=ACTOR_VOCAB, seed=seed)
    ctx = Context()
    data = wl.train_data(ctx)
    pipe = (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(ACTOR_FEATURES), data)
            .and_then(Densify())
            .and_then(KMeansEstimator(ACTOR_CLUSTERS,
                                      max_iter=ACTOR_PASSES, seed=7),
                      data))
    return wl, Optimizer(passes_for_level("none")).optimize(pipe)


def test_fig12_actor_runtime_measured(benchmark):
    """Iterative solving on persistent actors vs the serial reference.

    Three measurements: the serial fit re-featurizes the training data
    on every k-means pass; the actor fit featurizes once into worker
    shard caches and iterates in-worker (cold caches — the pool is
    pre-warmed on differently-seeded documents so process spawn and
    imports stay out of the measurement without seeding any reusable
    state); a refit of the same plan then serves featurization entirely
    from the worker caches.  Byte-identical predictions are asserted for
    both actor fits; speedup is asserted and gated on multi-core runners.
    """
    cpus = os.cpu_count() or 1
    wl, _ = _iterative_plan(seed=0)

    def run():
        timings = {}
        _, warm_plan = _iterative_plan(seed=0)
        warm_plan.execute(backend=LocalBackend())
        _, serial_plan = _iterative_plan(seed=0)
        start = time.perf_counter()
        serial_fitted = serial_plan.execute(backend=LocalBackend())
        timings["serial"] = time.perf_counter() - start

        backend = ActorBackend(workers=ACTOR_WORKERS, task_timeout=600.0,
                               reuse_pool=False)
        _, prewarm_plan = _iterative_plan(seed=1)
        prewarm_plan.execute(backend=backend)
        _, actor_plan = _iterative_plan(seed=0)
        start = time.perf_counter()
        actor_fitted = actor_plan.execute(backend=backend)
        timings["actors"] = time.perf_counter() - start
        _, refit_plan = _iterative_plan(seed=0)
        start = time.perf_counter()
        refit_fitted = refit_plan.execute(backend=backend)
        timings["refit"] = time.perf_counter() - start
        backend.close()
        return timings, serial_fitted, actor_fitted, refit_fitted

    timings, serial_fitted, actor_fitted, refit_fitted = \
        once(benchmark, run)
    test_docs = wl.test_data(Context()).collect()
    serial_rows = [np.asarray(serial_fitted.apply(d)).tobytes()
                   for d in test_docs]
    actor_rows = [np.asarray(actor_fitted.apply(d)).tobytes()
                  for d in test_docs]
    refit_rows = [np.asarray(refit_fitted.apply(d)).tobytes()
                  for d in test_docs]
    speedup = timings["serial"] / timings["actors"]
    refit_speedup = timings["serial"] / timings["refit"]

    cold, warm = actor_fitted.training_report, refit_fitted.training_report
    hit_rate = warm.shard_state_hits / max(
        1, warm.shard_state_hits + warm.shard_state_misses)
    lines = [f"{ACTOR_TRAIN} docs, {ACTOR_PASSES}-pass k-means, "
             f"{cpus} cpu(s), workers={ACTOR_WORKERS}",
             fmt_row(["backend", "train(s)", "speedup"], [12, 10, 8]),
             fmt_row(["local", f"{timings['serial']:.3f}", "1.0x"],
                     [12, 10, 8]),
             fmt_row(["actors", f"{timings['actors']:.3f}",
                      f"{speedup:.2f}x"], [12, 10, 8]),
             fmt_row(["actors-refit", f"{timings['refit']:.3f}",
                      f"{refit_speedup:.2f}x"], [12, 10, 8]),
             f"in-worker iterative: {cold.actor_iterative}; "
             f"cold hits/misses: {cold.shard_state_hits}/"
             f"{cold.shard_state_misses}; "
             f"refit hits/misses: {warm.shard_state_hits}/"
             f"{warm.shard_state_misses}; "
             f"refit shipped: {warm.bytes_shipped}B"]
    report("fig12_actor_runtime", lines)

    assert actor_rows == serial_rows, \
        "actor runtime diverged from serial predictions"
    assert refit_rows == serial_rows, \
        "actor refit diverged from serial predictions"
    assert "KMeansEstimator" in cold.actor_iterative
    assert not cold.process_gathered, cold.process_gathered
    assert not cold.process_fallback, cold.process_fallback
    assert warm.shard_state_hits > 0
    assert warm.shard_state_misses == 0
    assert warm.bytes_shipped < cold.bytes_shipped

    metrics = {"serial_seconds": timings["serial"],
               "actor_seconds": timings["actors"],
               "refit_seconds": timings["refit"],
               "refit_state_hit_rate": hit_rate,
               "workers": ACTOR_WORKERS,
               "cpus": cpus}
    if cpus >= 2:
        # The acceptance bar: persistent workers beat serial end-to-end
        # on an iterative workload (featurize once, iterate in-worker).
        metrics[f"iterative_speedup_workers_{ACTOR_WORKERS}"] = speedup
        metrics["refit_speedup"] = refit_speedup
        assert speedup > 1.0, (
            f"ActorBackend(workers={ACTOR_WORKERS}) did not beat "
            f"LocalBackend on the iterative plan: {timings['actors']:.3f}s "
            f"vs {timings['serial']:.3f}s")
    record_result("actor_runtime", metrics)
    shutdown_actor_pools()


def test_fig12_paper_scale_model(benchmark):
    """Paper-scale stage models: the absolute Figure 12 shapes."""
    def run():
        return {p: pipeline_scaling(p, NODES) for p in PIPELINES}

    results = once(benchmark, run)

    widths = [10, 8] + [12] * 5
    lines = [fmt_row(["pipeline", "nodes", "Loading", "Featurize",
                      "Solve", "Eval", "total(min)"], widths)]
    for p in PIPELINES:
        for w in NODES:
            b = results[p][w]
            lines.append(fmt_row(
                [p, w,
                 f"{b.get('Loading', 0) / 60:.1f}",
                 f"{b.get('Featurization', 0) / 60:.1f}",
                 f"{b.get('Model Solve', 0) / 60:.1f}",
                 f"{b.get('Model Eval', 0) / 60:.1f}",
                 f"{_total(b) / 60:.1f}"], widths))
    speedups = [fmt_row(["pipeline", "8->64", "8->128", "ideal"],
                        [10, 8, 8, 8])]
    for p in PIPELINES:
        t8 = _total(results[p][8])
        speedups.append(fmt_row(
            [p, f"{t8 / _total(results[p][64]):.1f}x",
             f"{t8 / _total(results[p][128]):.1f}x", "8x/16x"],
            [10, 8, 8, 8]))
    report("fig12_scalability", lines + [""] + speedups)

    for p in PIPELINES:
        totals = [_total(results[p][w]) for w in NODES]
        # Everyone improves monotonically out to 128 nodes.
        assert all(a > b for a, b in zip(totals, totals[1:])), p

    # ImageNet scales near-linearly 8 -> 128 (paper: near-perfect).
    img = [_total(results["imagenet"][w]) for w in NODES]
    assert img[0] / img[-1] > 10  # >10x of the ideal 16x
    # Amazon and TIMIT flatten: their 8->128 speedup is clearly below
    # ImageNet's.
    for p in ("amazon", "timit"):
        t = [_total(results[p][w]) for w in NODES]
        assert t[0] / t[-1] < img[0] / img[-1], p
        # Dominant stage matches the paper's breakdown.
    assert results["timit"][8]["Model Solve"] > \
        results["timit"][8]["Featurization"]
    assert results["imagenet"][8]["Featurization"] > \
        results["imagenet"][8]["Model Solve"]
    assert results["amazon"][8]["Featurization"] > \
        results["amazon"][8]["Model Solve"]
