"""Warm retrain: re-fit a pipeline, splicing unchanged state from a store.

``refit(pipeline, store)`` is ``pipeline.fit(fit_store=store)`` with a
name that says what happens: the training session keys the (optimized)
training DAG with :func:`repro.core.program.training_keys` — estimator
keys digest the unfitted operator, the featurization chain above it, and
the *content* of every bound dataset — probes the store for each
estimator's key, splices stored fitted state for every hit, and re-fits
only what changed (storing the new state back).  A hyperparameter change
re-keys exactly the changed estimator and everything downstream of its
output; the unchanged prefix rides in from the store.  The returned
pipeline's :class:`~repro.core.executor.TrainingReport` records the split
in ``reused_ops`` / ``refit_ops``.

Shardable estimators (:class:`~repro.core.operators.ShardableEstimator`)
additionally refit *streaming*, on every backend: per-partition
sufficient statistics are keyed by partition content
(:func:`~repro.core.program.partition_flow_keys`), so a refit after
appending partitions to a source merges stored statistics for the old
partitions with freshly computed ones for the new — the estimator's own
``fit_from_stats`` reduction order — without replaying old data (an
actor fit's wave covers just the new tail).

Everything spliced is byte-identical to a cold fit: training keys hash
content (not identity), stored state round-trips through pickle exactly,
and the stats merge is the serial reduction by contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core import graph as g
from repro.core import program as prog
from repro.core.pipeline import FittedPipeline, Pipeline

from repro.incremental.fitstore import FitStore


def refit(pipeline: Pipeline, store: FitStore, **fit_kwargs) -> FittedPipeline:
    """Fit ``pipeline``, reusing (and extending) ``store``.

    ``fit_kwargs`` are :func:`repro.core.executor.fit_pipeline` keyword
    arguments (``level``, ``backend``, ``sample_sizes``, ...).  The first
    call against an empty store is a cold fit that populates it;
    subsequent calls splice every estimator whose training key still
    hits.  Reuse requires *content-stable* keys across builds: operators
    that pack captured lambdas via ``core/serde.py`` marshal them *with*
    source location, so two textually identical lambdas on different
    source lines key differently — build pipelines through a shared
    factory (the caveat is pinned in ``tests/test_program.py``).
    """
    return pipeline.fit(fit_store=store, **fit_kwargs)


@dataclass
class RefitDiff:
    """Which of a new pipeline's estimators an old one already covers.

    Computed on the *unoptimized* DAGs, so it previews reuse before any
    fit (the session keys the optimizer-rewritten DAG; for pipelines
    where the optimizer substitutes physical operators the preview is
    conservative in label terms but the split logic is the same).
    """

    #: estimator labels of the new pipeline whose training keys also
    #: occur in the old pipeline (a warm retrain would splice these)
    reusable: List[str]
    #: estimator labels whose keys are new (a warm retrain re-fits these)
    stale: List[str]


def diff_pipelines(old: Pipeline, new: Pipeline) -> RefitDiff:
    """Key both training DAGs and report ``new``'s estimator-level diff.

    Hashes the bound datasets of both pipelines (content addressing is
    what makes the diff trustworthy), so this costs a pass over the
    training data — use it for observability, not in inner loops.
    """
    memo: dict = {}
    old_keys = set(prog.training_keys([old.sink], memo).values())
    new_keys = prog.training_keys([new.sink], memo)
    reusable, stale = [], []
    for node in g.reachable([new.sink], g.ESTIMATOR):
        if new_keys[node.id] in old_keys:
            reusable.append(node.label)
        else:
            stale.append(node.label)
    return RefitDiff(reusable=reusable, stale=stale)
