"""Incremental training: reuse fitted state across fits, sweeps, and data.

PR 5 gave every lowered op a content-addressed key; this package lifts
that to the training loop (ROADMAP open item 4), making "what actually
changed" a computed property instead of a human guess.  One primitive,
three consumers:

- :class:`FitStore` — a byte-budgeted, pickle-backed store of fitted
  operator state (and per-partition sufficient statistics) keyed by
  training key.
- :func:`refit` — warm retrain: splice stored state for the unchanged
  prefix of a modified pipeline, re-fit only downstream of the change.
- :class:`SweepPlanner` — deduped hyperparameter sweeps: merge a grid's
  candidate DAGs into one union program by key, execute each shared op
  once (:class:`~repro.core.tuning.GridSearch` scores the trials it
  slices out).
- streaming refit rides inside :func:`refit` on every backend:
  shardable estimators merge stored per-partition statistics with
  statistics of appended partitions instead of replaying old data (see
  :meth:`repro.core.backends.base.TrainingSession._stats_memo`).

Byte-identity to a cold :class:`~repro.core.backends.local.LocalBackend`
fit is the acceptance bar throughout: keys hash content, stored state
round-trips through pickle exactly, and stat merges replay the serial
reduction order.
"""

from repro.incremental.fitstore import FitStore
from repro.incremental.refit import RefitDiff, diff_pipelines, refit
from repro.incremental.sweep import SweepPlanner, SweepReport

__all__ = [
    "FitStore",
    "RefitDiff",
    "SweepPlanner",
    "SweepReport",
    "diff_pipelines",
    "refit",
]
