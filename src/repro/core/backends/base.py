"""The ExecutionBackend protocol and the shared training machinery.

A backend owns *how* an optimized :class:`~repro.core.plan.PhysicalPlan`
turns into a trained :class:`~repro.core.pipeline.FittedPipeline`.  The plan
owns *what* to execute (the rewritten DAG, the cache set, the memory
budget); backends must not change the semantics — every backend trains to
identical predictions.  Backends only train: inference is the fitted
pipeline's own (:meth:`~repro.core.pipeline.FittedPipeline.apply` /
``apply_dataset``) or the serving tier's.

The protocol is one method, :meth:`ExecutionBackend.execute`: train the
plan's DAG, fill the :class:`~repro.core.executor.TrainingReport`, return
a ``FittedPipeline``.

:class:`TrainingSession` holds the training semantics shared by every
backend: estimators fit in dependency order (``run_serial``), each reading
its flow as a :class:`~repro.core.interp.PartitionView` under the plan's
cache set, and an :class:`~repro.core.executor.ExclusiveTimer` attributes
per-node wall time.  Backends differ only in how one estimator fits:
in-process, or first on actor worker processes.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core import graph as g
from repro.core import program as prog
from repro.core.executor import ExclusiveTimer, TrainingReport
from repro.core.interp import PartitionView
from repro.obs import trace as obs_trace
from repro.core.operators import (
    Round,
    ShardableEstimator,
    Transformer,
    fit_by_rounds,
    serial_round,
)
from repro.dataset.cache import AdmissionControlledLRUPolicy, PinnedPolicy
from repro.dataset.context import Context
from repro.dataset.dataset import Dataset, _StoredPartitions
from repro.dataset.sizing import estimate_size

if TYPE_CHECKING:
    from repro.core.pipeline import FittedPipeline
    from repro.core.plan import PhysicalPlan


class ExecutionBackend:
    """How a physical plan trains: subclasses say how :meth:`execute`
    schedules the estimator fits of a :class:`TrainingSession`."""

    #: registry key; also recorded in ``TrainingReport.backend``
    name: str = "backend"

    def execute(
        self, plan: "PhysicalPlan", ctx: Optional[Context] = None
    ) -> "FittedPipeline":
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def recursive_apply_item(fitted: "FittedPipeline", item: Any) -> Any:
    """Reference single-item inference: recursive DAG walk, fresh memo.

    This was the hot path before inference plans were compiled; it is kept
    as the executable specification the compiled path must match
    byte-for-byte (the serving tests enforce it) and as the naive baseline
    ``benchmarks/bench_serving.py`` measures against.
    """
    memo: Dict[int, Any] = {fitted.input_node.id: item}

    def eval_node(node: g.OpNode) -> Any:
        if node.id in memo:
            return memo[node.id]
        if node.kind == g.TRANSFORMER:
            value = node.op.apply(eval_node(node.parents[0]))
        elif node.kind == g.GATHER:
            value = [eval_node(p) for p in node.parents]
        elif node.kind == g.SOURCE:
            raise ValueError("fitted pipeline contains an unbound source")
        else:
            raise ValueError(f"unexpected node kind {node.kind} in fitted pipeline")
        memo[node.id] = value
        return value

    return eval_node(fitted.sink)


def resident(ds: Dataset) -> bool:
    """Whether every partition of ``ds`` is already held."""
    return all(ds.holds_partition(i) for i in range(ds.num_partitions))


def _op_timer(timer: ExclusiveTimer) -> Callable[[prog.Op, float, list], None]:
    """The views' ``on_op``: time (and trace) each transform.  It holds
    no session, so a finished session is freed without the gc."""

    def on_op(op: prog.Op, seconds: float, _values: list) -> None:
        if op.kind != prog.TRANSFORM:
            return
        # Evaluated inside a reader's timed frame, which then excludes it.
        timer.add(op.node_id, seconds)
        tracer = obs_trace.active()
        if tracer is not None:
            tracer.record(op.label, seconds=seconds, args={"node_id": op.node_id})

    return on_op


class TrainingSession:
    """One training execution of a physical plan: shared backend machinery.

    Owns the execution context, the caching policy, the per-node timer and
    the report.  Backends call :meth:`fit_estimator` for every estimator
    reachable from the sink (in any dependency-respecting order, from any
    number of threads) and then :meth:`finish` to extract the
    inference-only DAG.

    Thread-safety contract: building views is serialized under an
    internal lock (it is cheap — views are lazy); ``op.fit`` and the
    partition evaluations it triggers run outside the lock.  Callers
    fitting estimators concurrently must fit an estimator's
    estimator-ancestors first (both shipped backends fit in topological
    order on one thread); ``fit_estimator`` does not deduplicate
    concurrent fits of the *same* node.
    """

    def __init__(
        self, plan: "PhysicalPlan", ctx: Optional[Context], backend_name: str = "local"
    ):
        state = plan.state
        self.plan = plan
        self.sink = state.sink
        self.cache_ids = state.cache_ids
        self.use_lru = state.use_lru

        stale = self.cache_ids - {n.id for n in g.ancestors([self.sink])}
        if stale:
            raise ValueError(
                "cache set is stale: the DAG was rewritten after "
                "MaterializationPass, so the chosen cache set no longer "
                "matches any node; order rewrite passes before "
                f"MaterializationPass (unmatched ids: {sorted(stale)[:5]})"
            )

        report = TrainingReport(level=plan.level)
        report.backend = backend_name
        report.cse_nodes_removed = state.cse_nodes_removed
        report.fused_nodes_removed = state.fused_nodes_removed
        report.selections = dict(state.selections)
        report.profile = state.profile
        report.cache_set = set(self.cache_ids)
        report.cache_set_labels = plan.cache_set_labels
        report.optimize_seconds = plan.optimize_seconds
        report.passes = plan.passes
        self.report = report

        self._exec_start = time.perf_counter()
        self.owns_ctx = ctx is None
        if ctx is None:
            ctx = Context(cache_budget_bytes=state.mem_budget_bytes)
        if self.use_lru:
            ctx.set_policy(AdmissionControlledLRUPolicy(), state.mem_budget_bytes)
        else:
            ctx.set_policy(PinnedPolicy(set()), state.mem_budget_bytes)
        self.ctx = ctx

        self.timer = ExclusiveTimer()
        self.on_op = _op_timer(self.timer)
        self.env: Dict[int, Dataset] = {}
        self.fitted: Dict[int, Transformer] = {}
        self._lock = threading.RLock()
        # Root every source now, while still single-threaded: re-rooting a
        # foreign dataset collects it eagerly, which must not happen under
        # the session lock once backend threads are running.
        for node in g.reachable([self.sink], g.SOURCE):
            if not node.is_pipeline_input:
                self.dataset_of(node)

        # Incremental training (repro.incremental): with a FitStore on the
        # plan, key the training DAG by content and splice stored fitted
        # state for every estimator whose key hits — all backends then skip
        # those fits through the ``self.fitted`` memo.  Key computation
        # hashes the bound datasets; any failure degrades to a cold fit
        # (the store must never turn a working fit into a crash).
        self.fit_store = getattr(state, "fit_store", None)
        self.training_key: Dict[int, str] = {}
        if self.fit_store is not None:
            try:
                self.training_key = prog.training_keys([self.sink], {})
            except Exception:
                self.fit_store = None
            else:
                for node in g.reachable([self.sink], g.ESTIMATOR):
                    model = self.fit_store.get_fit(self.training_key[node.id])
                    if model is not None:
                        self.fitted[node.id] = model
                        report.reused_ops.append(node.label)

    # ------------------------------------------------------------------
    # DAG -> datasets
    # ------------------------------------------------------------------
    def dataset_of(self, node: g.OpNode) -> Dataset:
        """The dataset realizing ``node``'s training flow (memoized): a
        bound source re-rooted into the execution context, else a
        :class:`~repro.core.interp.PartitionView` of the flow's lowered
        program, reading each upstream cache-set node as that node's view."""
        with self._lock:
            ds = self.env.get(node.id)
            if ds is not None:
                return ds
            if node.kind == g.SOURCE and not node.is_pipeline_input:
                ds = node.op
                if ds.ctx is not self.ctx:
                    # Re-root foreign datasets into the execution context
                    # so the caching policy applies uniformly.
                    ds = self.ctx.parallelize(ds.collect(), ds.num_partitions)
            else:
                program, sources = prog.lower_training_program(
                    [node],
                    source_of=lambda n: self.source_of(n, root=node),
                    model_of=self.fit_estimator,
                )
                ds = PartitionView(self.ctx, program, sources, self.on_op)
            if node.id in self.cache_ids:
                ds.cache()
                if not self.use_lru:
                    self.ctx.cache.policy.cache_set.add(ds.id)
            self.env[node.id] = ds
            return ds

    def source_of(
        self, node: g.OpNode, root: Optional[g.OpNode] = None
    ) -> Optional[Dataset]:
        """The dataset a lowering reads ``node`` from: a bound source's,
        or, lowering ``root``'s view, another cache-set node's view."""
        if (node.kind == g.SOURCE and not node.is_pipeline_input) or (
            root is not None and node is not root and node.id in self.cache_ids
        ):
            return self.dataset_of(node)
        return None

    def collected_inputs(self, rows: Dict[int, List[list]]) -> Dict[int, Dataset]:
        """:meth:`fit_estimator` ``inputs`` from rows computed elsewhere
        (root node id -> partitions): a cache-set root's enter ``ctx.cache``;
        a root not then wholly resident feeds this fit only."""
        inputs = {}
        for node_id, parts in rows.items():
            ds = self.env[node_id]
            if ds.should_cache:
                for i, part in enumerate(parts):
                    self.ctx.cache.put((ds.id, i), part, estimate_size(part))
            # Checked after every put: one may have evicted an earlier one.
            if not resident(ds):
                inputs[node_id] = Dataset(
                    self.ctx, len(parts), _StoredPartitions(parts)
                )
        return inputs

    # ------------------------------------------------------------------
    # Estimator fitting
    # ------------------------------------------------------------------
    def fit_estimator(
        self,
        node: g.OpNode,
        inputs: Optional[Dict[int, Dataset]] = None,
        run_round: Optional[Round] = None,
    ) -> Transformer:
        """Fit one estimator node (memoized); the pipeline-breaker step.
        ``inputs`` stand in for some parents' datasets in this fit only;
        ``run_round`` replaces the in-process round of a statistics fit
        (:func:`~repro.core.operators.fit_by_rounds`)."""
        inputs = inputs or {}
        with self._lock:
            if node.id in self.fitted:
                return self.fitted[node.id]
            args = [
                inputs[p.id] if p.id in inputs else self.dataset_of(p)
                for p in node.parents
            ]
        # Heavy work outside the lock: op.fit pulls its training flow
        # through the partition views (possibly concurrently with other
        # estimators on other threads).
        op = node.op
        timed = partial(self.timer.time_block, node.id)
        with obs_trace.span(
            f"fit:{node.label}",
            cat="fit",
            key=self.training_key.get(node.id),
            args={"node_id": node.id},
        ):
            run_round = self._stats_memo(node, args, run_round, timed)
            if run_round is None:
                with timed():
                    model = op.fit(*args)
            else:
                model = fit_by_rounds(op, run_round, args[0].num_partitions, timed)
        with self._lock:
            self.fitted[node.id] = model
            self.report.estimator_seconds[node.id] = self.timer.times[node.id]
            self.report.refit_ops.append(node.label)
            if self.fit_store is not None and node.id in self.training_key:
                self.fit_store.put_fit(self.training_key[node.id], model)
        return model

    def _stats_memo(
        self,
        node: g.OpNode,
        args: List[Dataset],
        run_round: Optional[Round],
        timed: Callable,
    ) -> Optional[Round]:
        """The round of a one-shot fit (``run_round``, else the in-process
        one over ``args``) with its statistics read from and written to the
        FitStore, one entry per partition.

        Each partition's statistic is keyed by the partition's content
        flow (:func:`repro.core.program.partition_flow_keys`): a stored
        one skips pulling and featurizing that partition, so a refit
        after appending partitions computes only the new ones, and the
        merge is the estimator's own, byte-identical to a cold fit.
        Without a store, for any other estimator or for a flow that cannot
        be keyed partition-wise, ``run_round`` is returned as is (``None``:
        ``op.fit`` runs the fit).
        """
        store, op, roots = self.fit_store, node.op, list(node.parents)
        if store is None or not isinstance(op, ShardableEstimator):
            return run_round
        try:
            keys = []
            for i in range(args[0].num_partitions):
                flow_keys = prog.partition_flow_keys(
                    roots, i, model_of=lambda n: self.fitted.get(n.id)
                )
                root_keys = tuple(flow_keys[r.id] for r in roots)
                keys.append(prog.op_key("pstats", op, root_keys))
        except Exception:
            # Unkeyable flow (unbound input, partition-count mismatch
            # between raw sources and the featurized view, unfitted
            # upstream): cold fit, never a crash.
            return run_round
        inner = run_round or serial_round(op, args, timed)

        def memo_round(indices, payload):
            stats = [store.get_stats(keys[i]) for i in indices]
            missed = [i for i, stat in zip(indices, stats) if stat is None]
            if missed:
                fresh = dict(zip(missed, inner(missed, payload)))
                for i, stat in fresh.items():
                    store.put_stats(keys[i], stat)
                stats = [fresh.get(i, stat) for i, stat in zip(indices, stats)]
            with self._lock:
                self.report.stat_partitions_reused += len(indices) - len(missed)
                self.report.stat_partitions_computed += len(missed)
            return stats

        return memo_round

    def estimator_nodes(self) -> list:
        """Estimators reachable from the sink, dependency order first."""
        return g.reachable([self.sink], g.ESTIMATOR)

    def run_serial(self, fit: Optional[Callable[[g.OpNode], Any]] = None) -> None:
        """Fit every estimator in dependency order, one at a time, with
        ``fit`` (default :meth:`fit_estimator`; the actor backend passes
        its parallel fit).

        When the session owns its context (``ctx=None``), each cached
        node is released once the last estimator whose training flow
        reads it has fitted.  A union of independent trials (a
        :class:`~repro.incremental.SweepPlanner` sweep) thus holds about
        one trial's cached data at a time, not the whole grid's.
        """
        fit = fit or self.fit_estimator
        estimators = self.estimator_nodes()
        last_reader: Dict[int, int] = {}
        for est in estimators:
            stack, seen = list(est.parents), set()
            while stack:
                node = stack.pop()
                if node.id in seen:
                    continue
                seen.add(node.id)
                if node.id in self.cache_ids:
                    last_reader[node.id] = est.id
                if node.kind != g.ESTIMATOR:
                    stack.extend(node.parents)
        for est in estimators:
            fit(est)
            if not self.owns_ctx:
                continue
            for node_id, reader in last_reader.items():
                if reader == est.id and node_id in self.env:
                    self.env[node_id].unpersist()

    # ------------------------------------------------------------------
    # Wrap-up
    # ------------------------------------------------------------------
    def finish(self) -> "FittedPipeline":
        """Close the report and extract the inference-only pipeline."""
        from repro.core.pipeline import FittedPipeline

        state = self.plan.state
        report = self.report
        report.execute_seconds = time.perf_counter() - self._exec_start
        report.node_seconds = dict(self.timer.times)
        report.node_labels = state.node_labels()
        report.recomputations = self.ctx.stats.total_computations()

        fitted = self.fitted

        def inference_node(node: g.OpNode, memo: Dict[int, g.OpNode]) -> g.OpNode:
            if node.id in memo:
                return memo[node.id]
            if node.kind == g.APPLY:
                data_parent = inference_node(node.parents[1], memo)
                out = g.OpNode(
                    g.TRANSFORMER,
                    fitted[node.parents[0].id],
                    (data_parent,),
                    label=node.label,
                )
            elif node.kind == g.TRANSFORMER:
                out = g.OpNode(
                    g.TRANSFORMER,
                    node.op,
                    (inference_node(node.parents[0], memo),),
                    label=node.label,
                )
            elif node.kind == g.GATHER:
                parents = tuple(inference_node(p, memo) for p in node.parents)
                out = g.OpNode(g.GATHER, None, parents, label="gather")
            elif node.is_pipeline_input:
                out = node
            else:
                raise ValueError(f"node {node} cannot appear on the inference path")
            memo[node.id] = out
            return out

        memo: Dict[int, g.OpNode] = {}
        inference_sink = inference_node(self.sink, memo)
        new_input = memo.get(state.input_node.id, state.input_node)
        return FittedPipeline(
            new_input,
            inference_sink,
            training_report=report,
        )
