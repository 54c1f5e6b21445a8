"""Hyperparameter tuning over whole pipelines (paper §7 future work).

Grid-searches the TIMIT-style kernel-approximation pipeline over the
number of random features and the kernel bandwidth and scores each
configuration on held-out data.  ``GridSearch`` fits the whole grid as
one deduplicated union program (``SweepPlanner``), so each trial's
``fit(s)`` is the union fit amortized evenly; each trial records which
physical solver the optimizer chose for it, so the search results
explain themselves.

The second half shows what the deduplication buys: on a text pipeline
the shared featurization prefix fits once, and only the solvers the grid
actually distinguishes fit per trial — with scores identical to a loop
of independent fits and a measured speedup over it.

Run:  python examples/hyperparameter_tuning.py
"""

import time

from repro.core.pipeline import Pipeline
from repro.core.tuning import GridSearch
from repro.dataset import Context
from repro.evaluation import accuracy
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.learning.random_features import CosineRandomFeatures
from repro.nodes.numeric import MaxClassifier
from repro.pipelines.amazon import amazon_pipeline
from repro.workloads import amazon_reviews, timit_frames


def main():
    workload = timit_frames(num_train=800, num_test=200, dim=64,
                            num_classes=8, seed=0)

    def builder(params):
        ctx = Context()
        data = workload.train_data(ctx)
        labels = workload.train_label_vectors(ctx)
        return (Pipeline.identity()
                .and_then(CosineRandomFeatures(params["num_features"],
                                               gamma=params["gamma"],
                                               seed=0), data)
                .and_then(LinearSolver(), data, labels))

    def scorer(fitted):
        ctx = Context()
        scores = fitted.apply_dataset(workload.test_data(ctx)).collect()
        preds = [MaxClassifier().apply(s) for s in scores]
        return accuracy(preds, workload.test_labels)

    search = GridSearch(
        builder, scorer,
        grid={"num_features": [32, 128, 512],
              "gamma": [0.005, 0.02, 0.1]},
        fit_kwargs={"sample_sizes": (40, 80)})

    print(f"{'num_features':>12} {'gamma':>7} {'accuracy':>9} "
          f"{'fit(s)':>7}  solver   (fit(s): union fit, amortized)")
    result = search.run()
    for trial in result.ranked():
        solver = ",".join(sorted(set(trial.selections.values()))) or "-"
        print(f"{trial.params['num_features']:>12} "
              f"{trial.params['gamma']:>7g} {trial.score:>9.3f} "
              f"{trial.fit_seconds:>7.2f}  {solver}")
    best = result.best
    print(f"\nbest: {best.params} -> accuracy {best.score:.3f} "
          f"(chance = {1 / workload.num_classes:.3f})")
    # Gate the smoke run: the search must find a configuration that
    # genuinely beats chance.
    assert best.score > 1.5 / workload.num_classes, (
        f"best accuracy {best.score:.3f} is not meaningfully above "
        f"chance {1 / workload.num_classes:.3f}")

    deduplicated_sweep()


def deduplicated_sweep():
    """Dedupe a solver-hyperparameter sweep into one union fit.

    Uses the Amazon text pipeline, where n-gram featurization dominates
    each trial — the regime where executing the shared prefix once
    instead of once per configuration visibly pays.  (A solver-dominated
    sweep, e.g. regularization over wide random features, shares almost
    no per-trial cost and dedups without a wall-clock win.)
    """
    workload = amazon_reviews(num_train=1200, num_test=150,
                              vocab_size=1800, seed=0)
    ctx = Context()

    # amazon_pipeline binds the workload's datasets internally; sharing
    # happens by *content* hashing, so each configuration's rebuild of
    # the same training data still keys (and therefore merges) equal.
    def builder(params):
        return amazon_pipeline(ctx, workload, num_features=400,
                               l2_reg=params["l2_reg"])

    def scorer(fitted):
        scores = fitted.apply_dataset(workload.test_data(ctx)).collect()
        preds = [MaxClassifier().apply(s) for s in scores]
        return accuracy(preds, workload.test_labels)

    grid = {"l2_reg": [1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0]}

    search = GridSearch(builder, scorer, grid)

    start = time.perf_counter()
    independent = [scorer(builder(params).fit())
                   for params in search.configurations()]
    independent_s = time.perf_counter() - start

    start = time.perf_counter()
    result = search.run()
    union_s = time.perf_counter() - start

    report = result.sweep_report
    speedup = independent_s / union_s
    print(f"\ndeduplicated sweep over {len(report.configs)} configs: "
          f"{report.unique_ops} union ops for {report.total_ops} total "
          f"(dedup {report.dedup_ratio:.1f}x)")
    print(f"independent fits {independent_s:.2f}s, union fit "
          f"{union_s:.2f}s -> speedup {speedup:.1f}x")
    # Deduplication must not change results...
    assert [t.score for t in result.trials] == independent
    # ...and sharing the featurization prefix must actually pay.
    assert speedup > 1.0, (
        f"union fit was not faster than independent fits "
        f"({union_s:.2f}s vs {independent_s:.2f}s)")


if __name__ == "__main__":
    main()
