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

:class:`TrainingSession` holds the depth-first training semantics shared by
every backend (estimators are pipeline breakers; the plan's caching policy
is honoured; an :class:`~repro.core.executor.ExclusiveTimer` attributes
per-node wall time).  Backends differ only in *where* the training flow
runs: the serial backend fits estimators one by one in-process, the actor
backend computes shards in worker processes and fits in the parent.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core import graph as g
from repro.core import program as prog
from repro.core.executor import ExclusiveTimer, TrainingReport
from repro.obs import trace as obs_trace
from repro.core.operators import Transformer
from repro.dataset.cache import AdmissionControlledLRUPolicy, PinnedPolicy
from repro.dataset.context import Context
from repro.dataset.dataset import Dataset

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


class TrainingSession:
    """One training execution of a physical plan: shared backend machinery.

    Owns the execution context, the caching policy, the per-node timer and
    the report.  Backends call :meth:`fit_estimator` for every estimator
    reachable from the sink (in any dependency-respecting order, from any
    number of threads) and then :meth:`finish` to extract the
    inference-only DAG.

    Thread-safety contract: graph-to-dataset construction is serialized
    under an internal lock (it is cheap — datasets are lazy); the heavy
    work (``op.fit`` and the partition computations it triggers) runs
    outside the lock.  Callers scheduling estimators concurrently must
    ensure an estimator's estimator-ancestors are fitted before it starts
    (both shipped backends fit in topological order on one thread; a
    custom backend fitting on a thread pool must wait on dependencies) —
    ``fit_estimator`` itself does not deduplicate concurrent fits of the
    *same* node.
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
        self.env: Dict[int, Dataset] = {}
        self.fitted: Dict[int, Transformer] = {}
        self._lock = threading.RLock()
        # Root every source now, while still single-threaded: re-rooting a
        # foreign dataset collects it eagerly, which must not happen under
        # the session lock once backend threads are running.
        for node in g.reachable([self.sink], g.SOURCE):
            if not node.is_pipeline_input:
                self._dataset_of(node)

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
        """Lazy dataset realizing ``node``'s training flow (memoized)."""
        with self._lock:
            return self._dataset_of(node)

    def _dataset_of(self, node: g.OpNode) -> Dataset:
        if node.id in self.env:
            return self.env[node.id]
        ctx, timer = self.ctx, self.timer
        if node.kind == g.SOURCE:
            if node.is_pipeline_input:
                raise ValueError(
                    "training execution reached the pipeline input "
                    "placeholder; estimator training data must be "
                    "bound via and_then(est, data)"
                )
            ds = node.op
            if ds.ctx is not ctx:
                # Re-root foreign datasets into the execution context so
                # the caching policy applies uniformly.
                ds = ctx.parallelize(ds.collect(), ds.num_partitions)
        elif node.kind == g.TRANSFORMER:
            parent = self._dataset_of(node.parents[0])
            ds = parent.map_partitions(
                obs_trace.instrument(
                    node.label,
                    timer.wrap(node.id, node.op.apply_partition),
                    node_id=node.id,
                ),
                name=node.label,
            )
        elif node.kind == g.APPLY:
            est_node, data_node = node.parents
            model = self.fit_estimator(est_node)
            parent = self._dataset_of(data_node)
            ds = parent.map_partitions(
                obs_trace.instrument(
                    node.label,
                    timer.wrap(node.id, model.apply_partition),
                    node_id=node.id,
                ),
                name=node.label,
            )
        elif node.kind == g.GATHER:
            ds = g.zip_gather([self._dataset_of(p) for p in node.parents])
        else:
            raise ValueError(f"cannot execute node kind {node.kind}")
        if node.id in self.cache_ids:
            ds.cache()
            if not self.use_lru:
                ctx.cache.policy.cache_set.add(ds.id)
        self.env[node.id] = ds
        return ds

    # ------------------------------------------------------------------
    # Estimator fitting
    # ------------------------------------------------------------------
    def fit_estimator(self, node: g.OpNode) -> Transformer:
        """Fit one estimator node (memoized); the pipeline-breaker step."""
        with self._lock:
            if node.id in self.fitted:
                return self.fitted[node.id]
            data = self._dataset_of(node.parents[0])
            labels = (
                self._dataset_of(node.parents[1]) if len(node.parents) == 2 else None
            )
        # Heavy work outside the lock: op.fit pulls its training flow
        # through the lazy datasets (possibly concurrently with other
        # estimators on other threads).
        with obs_trace.span(
            f"fit:{node.label}",
            cat="fit",
            key=self.training_key.get(node.id),
            args={"node_id": node.id},
        ):
            model = self._fit_streaming(node, data, labels)
            if model is None:
                with self.timer.time_block(node.id):
                    if labels is not None:
                        model = node.op.fit(data, labels)
                    else:
                        model = node.op.fit(data)
        with self._lock:
            self.fitted[node.id] = model
            self.report.estimator_seconds[node.id] = self.timer.times[node.id]
            self.store_fit(node, model)
        return model

    def store_fit(self, node: g.OpNode, model: Transformer) -> None:
        """Record a freshly fitted model in the FitStore (if attached).

        Called under the session lock by every path that fits an
        estimator this run (``fit_estimator`` and the actor backend's
        stat-merge and in-worker paths); also the single place
        ``refit_ops`` is recorded.
        """
        self.report.refit_ops.append(node.label)
        if self.fit_store is not None and node.id in self.training_key:
            self.fit_store.put_fit(self.training_key[node.id], model)

    def _fit_streaming(self, node: g.OpNode, data: Dataset, labels: Optional[Dataset]):
        """Fit a shardable estimator through stored per-partition stats.

        Returns the fitted model, or ``None`` to fall through to the
        plain ``op.fit`` path (no store attached, the estimator is not
        shardable, or the flow cannot be keyed partition-wise).  Each
        partition's sufficient statistic is keyed by the partition's
        content flow (:func:`repro.core.program.partition_flow_keys`):
        stats hit in the store skip pulling and featurizing that
        partition entirely — a refit with appended partitions computes
        only the new ones — and the final merge runs the estimator's own
        ``fit_from_stats`` (the serial reduction order), so the model is
        byte-identical to a cold fit by the
        :class:`~repro.core.operators.ShardableEstimator` contract.
        """
        store, op = self.fit_store, node.op
        if (
            store is None
            or not hasattr(op, "partition_stats")
            or not hasattr(op, "fit_from_stats")
        ):
            return None
        if labels is not None and labels.num_partitions != data.num_partitions:
            return None
        roots = list(node.parents)
        pkeys = []
        try:
            for i in range(data.num_partitions):
                flow_keys = prog.partition_flow_keys(
                    roots, i, model_of=lambda n: self.fitted.get(n.id)
                )
                root_keys = tuple(flow_keys[r.id] for r in roots)
                pkeys.append(prog.op_key("pstats", op, root_keys))
        except Exception:
            # Unkeyable flow (unbound input, partition-count mismatch
            # between raw sources and the featurized view, unfitted
            # upstream): cold fit, never a crash.
            return None
        reused = computed = 0
        with self.timer.time_block(node.id):
            partials = []
            for i, pkey in enumerate(pkeys):
                stat = store.get_stats(pkey)
                if stat is None:
                    if labels is None:
                        stat = op.partition_stats(data.partition(i))
                    else:
                        stat = op.partition_stats(
                            data.partition(i), labels.partition(i)
                        )
                    store.put_stats(pkey, stat)
                    computed += 1
                else:
                    reused += 1
                partials.append(stat)
            model = op.fit_from_stats(partials)
        with self._lock:
            self.report.stat_partitions_reused += reused
            self.report.stat_partitions_computed += computed
        return model

    def estimator_nodes(self) -> list:
        """Estimators reachable from the sink, dependency order first."""
        return g.reachable([self.sink], g.ESTIMATOR)

    def run_serial(self) -> None:
        """Reference schedule: fit every estimator depth-first, in order.

        When the session owns its context (``ctx=None``), each cached
        dataset is released once the last estimator whose training flow
        reads it has fitted; nothing reads it after that.  A union of
        independent trials (a :class:`~repro.incremental.SweepPlanner`
        sweep) thus holds about one trial's cached data at a time, not
        the whole grid's.
        """
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
            self.fit_estimator(est)
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
