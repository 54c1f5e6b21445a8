"""Execution backends: one plan, four ways to run it.

Optimizes the Figure-2 text classification pipeline once, then trains the
same PhysicalPlan under each shipped ExecutionBackend:

- local      — serial depth-first execution (the reference semantics);
- pipelined  — independent estimator fits overlap on a thread pool;
- sharded    — trains in-process, then prices per-shard stage times on a
               simulated 8-node cluster and sweeps the cluster size
               (the Figure-12 axis) without retraining;
- actors     — actually executes shards in persistent worker processes
               (``backend="process"`` is an alias): spawn-safe shard
               programs, sufficient-statistic merges for the frequency
               selector, gather-and-fit for the solvers
               (``examples/actor_runtime.py`` tours the worker-side
               caching and in-worker iterative solving).

All four produce byte-identical predictions — that is the backend
contract (asserted below; this example exits non-zero if it breaks).

Threads vs processes on this workload: tokenization/n-grams/term counting
are pure Python, so the thread pool only overlaps the two solver
branches (the GIL serializes featurization) while the actor pool
parallelizes featurization itself and featurizes once for both solver
branches by keeping worker output.

Run:  python examples/backend_comparison.py
"""

from repro import Context, Optimizer, Pipeline, ShardingPass
from repro.cluster.resources import r3_4xlarge
from repro.core.backends import (
    ActorBackend,
    LocalBackend,
    PipelinedBackend,
    ShardedBackend,
    plan_scaling_sweep,
    shutdown_actor_pools,
)
from repro.core.optimizer import passes_for_level
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    NGramsFeaturizer,
    TermFrequency,
    Tokenizer,
)
from repro.workloads import amazon_reviews

WORKERS = 8
NODES = [8, 16, 32, 64, 128]


def build_plan(wl):
    ctx = Context()
    data = wl.train_data(ctx)
    labels = wl.train_label_vectors(ctx)
    # Two solver branches over a shared featurization: the pipelined
    # backend can overlap their fits.
    base = (Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency(lambda c: 1.0))
            .and_then(CommonSparseFeatures(1000), data))
    branch1 = base.and_then(LinearSolver(), data, labels)
    branch2 = base.and_then(LinearSolver(l2_reg=1.0), data, labels)
    pipe = Pipeline.gather([branch1, branch2])

    passes = passes_for_level("full", sample_sizes=(100, 200))
    passes.append(ShardingPass(workers=WORKERS))
    return Optimizer(passes).optimize(pipe, level="full")


def main():
    wl = amazon_reviews(num_train=2000, num_test=200, vocab_size=2000,
                        seed=0)
    test_data = wl.test_data(Context())

    backends = [
        LocalBackend(),
        PipelinedBackend(max_workers=4),
        ShardedBackend(resources=r3_4xlarge(WORKERS),
                       overhead_per_stage=0.02),
        ActorBackend(workers=2, task_timeout=600.0),
    ]

    reference = None
    sharded_fitted = None
    train_seconds = {}
    print(f"{'backend':<22} {'train(s)':>9} {'identical':>10}")
    for backend in backends:
        plan = build_plan(wl)
        fitted = plan.execute(backend=backend)
        rows = fitted.apply_dataset(test_data, backend=backend).collect()
        key = [tuple(x.tobytes() for x in row) for row in rows]
        if reference is None:
            reference = key
        report = fitted.training_report
        train_seconds[backend.name] = report.execute_seconds
        print(f"{report.backend:<22} {report.execute_seconds:>9.2f} "
              f"{str(key == reference):>10}")
        # The backend contract, enforced: identical bytes or die.
        assert key == reference, (
            f"{report.backend} diverged from the serial reference")
        if isinstance(backend, ShardedBackend):
            sharded_fitted = fitted
            sharded_plan = plan
        if isinstance(backend, ActorBackend):
            actor_report = report

    print("\nThreads vs processes on this numpy-light text workload:")
    print(f"  pipelined (threads) {train_seconds['pipelined']:>7.2f}s — the "
          "GIL serializes tokenization; only solver branches overlap")
    print(f"  actors    (2 procs) {train_seconds['actors']:>7.2f}s — "
          "featurization itself runs in parallel shards "
          f"(stat-merged: {actor_report.process_stat_merged}, "
          f"gathered: {actor_report.process_gathered})")
    assert not actor_report.process_fallback, \
        actor_report.process_fallback

    print("\nThe actor fit, summarized (TrainingReport.summary()):")
    for line in actor_report.summary().splitlines():
        print(f"  {line}")

    report = sharded_fitted.training_report
    print(f"\nSharded pricing at {report.simulated_workers} workers: "
          f"{report.simulated_seconds:.3f}s simulated "
          f"(measured serial {sum(report.node_seconds.values()):.3f}s)")
    for category, seconds in sorted(report.simulated_breakdown.items()):
        print(f"  {category:<14} {seconds:.3f}s")

    print("\nStrong scaling of the SAME trained plan (no retraining):")
    sweep = plan_scaling_sweep(sharded_fitted, NODES)
    base_total = sum(sweep[NODES[0]].values())
    for w in NODES:
        total = sum(sweep[w].values())
        print(f"  {w:>4} workers: {total:.3f}s  "
              f"({base_total / total:.1f}x)")

    print("\nThe optimizer recorded the sharding decision on the plan:")
    sharding_lines = [line for line in sharded_plan.explain().splitlines()
                      if "Sharding" in line or "sharding" in line]
    assert sharding_lines, "ShardingPass decision missing from explain()"
    for line in sharding_lines:
        print(f"  {line.strip()}")
    shutdown_actor_pools()


if __name__ == "__main__":
    main()
