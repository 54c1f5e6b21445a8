"""Deduped hyperparameter sweeps: one union program, each shared op once.

The paper's Section 7 future work points hyperparameter search at the
optimizer (citing TuPAQ): candidate configurations of one pipeline share
most of their work, and a system that sees the whole grid can execute the
shared prefix once instead of once per trial.  :class:`SweepPlanner` does
exactly that with training keys (:func:`repro.core.program.training_keys`):

1. build every candidate pipeline from the grid,
2. key every node of every training DAG by content,
3. merge the DAGs into one *union* DAG with one canonical node per
   distinct key (the sweep-level common-subexpression elimination —
   stronger than the optimizer's structural CSE, because content
   addressing also merges nodes built independently by different
   ``builder`` calls over equal data),
4. gather the trial sinks under one union sink and fit that single
   pipeline once, on any execution backend,
5. slice one :class:`~repro.core.pipeline.FittedPipeline` per trial back
   out of the fitted union.

A sweep over solver hyperparameters thus featurizes and fits the shared
prefix once, and only the estimators actually distinguished by the grid
fit per trial — with predictions byte-identical to fitting every
configuration independently, because the union executes the identical
operators over the identical data and merging was *by content key*.

:class:`~repro.core.tuning.GridSearch` is a scorer over this planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import graph as g
from repro.core import program as prog
from repro.core.pipeline import FittedPipeline, Pipeline


@dataclass
class SweepReport:
    """What deduplication bought: op counts and measured execution time."""

    #: the configurations, in trial order
    configs: List[Dict[str, Any]] = field(default_factory=list)
    #: sum over trials of each trial's distinct training keys — the op
    #: count independent fits would execute
    total_ops: int = 0
    #: distinct training keys across the whole sweep — the op count the
    #: union program executes
    unique_ops: int = 0
    #: wall-clock seconds of the single union fit (optimize + execute)
    fit_seconds: float = 0.0
    #: per trial, in trial order: the operator selections (estimator node
    #: id in the optimized union -> physical operator) of the estimators
    #: that trial's sink depends on
    selections: List[Dict[int, str]] = field(default_factory=list)

    @property
    def shared_ops(self) -> int:
        """Ops the union executes once that independent fits would repeat."""
        return self.total_ops - self.unique_ops

    @property
    def dedup_ratio(self) -> float:
        """``total_ops / unique_ops`` (1.0 means nothing was shared)."""
        return self.total_ops / self.unique_ops if self.unique_ops else 1.0


class SweepPlanner:
    """Plan and execute a deduplicated sweep over pipeline configurations.

    ``builder(params) -> Pipeline`` constructs one candidate per
    configuration — the same contract as
    :class:`~repro.core.tuning.GridSearch`.  Sharing across trials is by
    training key, so a builder that binds the *same* dataset objects (or
    rebuilds equal content) shares its featurization prefix; operators
    built from lambdas must come from a shared factory to key equal (the
    ``core/serde.py`` caveat).

    ``fit_kwargs`` configure the single union fit exactly like
    :meth:`Pipeline.fit` (a ``fit_store`` makes the sweep *also* warm
    across calls).  They apply to the union as a whole, so a
    ``mem_budget_bytes`` caps the whole union, not each trial.  On the
    serial schedule (:meth:`~repro.core.backends.TrainingSession.run_serial`)
    each trial's cached data is released once its estimators have
    fitted, so peak memory stays near the largest trial's; a multi-worker
    actor fit keeps every trial's until the union fit ends.  Every
    trial's fitted operators stay alive until :meth:`run` returns.
    """

    def __init__(
        self,
        builder: Callable[[Dict[str, Any]], Pipeline],
        configs: Sequence[Dict[str, Any]],
        fit_kwargs: Optional[Dict[str, Any]] = None,
    ):
        self.builder = builder
        self.configs = [dict(c) for c in configs]
        self.fit_kwargs = dict(fit_kwargs or {})

    # ------------------------------------------------------------------
    # Union construction
    # ------------------------------------------------------------------
    def union_pipeline(self) -> Tuple[Pipeline, SweepReport]:
        """Merge every configuration's DAG into one key-deduped pipeline.

        The union pipeline's sink is a GATHER over one inference sink per
        trial (in configuration order); at fit time the gather is inert —
        only the estimators reachable through it train — and after fit it
        is where :meth:`run` slices the per-trial pipelines back out.
        """
        if not self.configs:
            raise ValueError("sweep requires at least one configuration")
        dataset_memo: Dict[int, str] = {}
        union_input = g.pipeline_input()
        canon: Dict[str, g.OpNode] = {prog.INPUT_KEY: union_input}
        trial_sinks: List[g.OpNode] = []
        # The memo is keyed by id(dataset): every built pipeline (and so
        # every dataset it binds) must outlive the loop, or a later
        # dataset could reuse a freed id and inherit its digest.
        built: List[Pipeline] = []
        total_ops = 0
        for params in self.configs:
            pipeline = self.builder(params)
            built.append(pipeline)
            keys = prog.training_keys([pipeline.sink], dataset_memo)
            total_ops += len(set(keys.values()))
            for node in g.reachable([pipeline.sink]):
                key = keys[node.id]
                if key in canon:
                    continue
                parents = tuple(canon[keys[p.id]] for p in node.parents)
                canon[key] = g.OpNode(node.kind, node.op, parents, node.label)
            trial_sinks.append(canon[keys[pipeline.sink.id]])
        sink = g.OpNode(g.GATHER, None, tuple(trial_sinks), label="sweep")
        report = SweepReport(
            configs=[dict(c) for c in self.configs],
            total_ops=total_ops,
            unique_ops=len(canon),
        )
        return Pipeline(union_input, sink), report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Tuple[List[FittedPipeline], SweepReport]:
        """Fit the union once; return one fitted pipeline per trial.

        Every backend works — shared ops fit exactly once regardless of
        scheduling, because they are one node in the union DAG.  The
        per-trial pipelines share fitted operator objects and all carry
        the union fit's :class:`~repro.core.executor.TrainingReport`;
        each trial's own operator selections are in
        ``SweepReport.selections``.
        """
        from repro.core.executor import plan_pipeline

        union, report = self.union_pipeline()
        kwargs = dict(self.fit_kwargs)
        execute = {
            k: kwargs.pop(k) for k in ("ctx", "backend", "fit_store") if k in kwargs
        }
        plan = plan_pipeline(union, **kwargs)
        fitted = plan.execute(**execute)
        report.fit_seconds = fitted.training_report.total_seconds
        selections = plan.selections
        report.selections = [
            {n.id: selections[n.id] for n in g.ancestors([s]) if n.id in selections}
            for s in plan.sink.parents
        ]
        training_report = fitted.training_report
        trials = [
            FittedPipeline(
                fitted.input_node,
                trial_sink,
                training_report=training_report,
            )
            for trial_sink in fitted.sink.parents
        ]
        return trials, report
