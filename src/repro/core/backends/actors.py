"""ActorBackend: multi-process training on the persistent actor runtime.

The sharded backend *prices* shards on a simulated cluster while training
serially in-process; this backend actually executes them — it is the one
multi-process training runtime (``backend="process"`` is a registry
alias for it).  The training data is split into contiguous chunks of
partitions (one per worker), the flow feeding each estimator is lowered
into a picklable *shard program* — the same
:class:`~repro.core.program.OpProgram` IR the serving compiler executes,
lowered by the same :func:`repro.core.program.lower_training_program`
walk — and :class:`~repro.runtime.pool.ActorPool` workers run the
program over their chunk, dodging the GIL for the numpy-light
featurization operators that dominate the paper's pipelines.  The
workers *keep* what they compute:

- programs are lowered with content-addressed keys (sources keyed by
  dataset content), so a featurized shard cached in a worker is reused
  by every later estimator and every later fit sharing the flow prefix
  — the parent's mirror of each worker's cache lets it skip shipping
  data the worker already holds;
- estimators implementing
  :class:`~repro.core.operators.IterativeShardableEstimator` (k-means,
  GMM, L-BFGS logistic) run their per-pass sufficient-stat reductions
  *in-worker*: the featurized shard stays staged in the pool, and only
  the broadcast payload and the per-partition statistics cross the
  process boundary — never the data;
- one-shot :class:`~repro.core.operators.ShardableEstimator` fits have
  workers compute per-partition sufficient statistics that the parent
  merges in the estimator's own serial reduction order; everything else
  gathers featurized rows and runs the unmodified serial fit over them;
- batch inference (:meth:`ActorBackend.apply_batch`) is one unkeyed
  "collect" wave over the same pool;
- partitions ship zero-copy (:mod:`repro.runtime.transport`); worker
  deaths respawn bounded, and restarts / cache hit rates / bytes
  shipped vs. mapped land in the :class:`~repro.core.executor.TrainingReport`.

Byte-identity holds by the same construction as every other backend:
workers run the identical ``apply_partition`` chains over the identical
partition boundaries, one-shot merges replay the estimator's serial
reduction, and iterative fits drive the exact
:meth:`~repro.core.operators.IterativeShardableEstimator.fit_via_passes`
state machine with per-partition statistics computed on identical rows.

Everything shipped must pickle — operators carrying small user functions
pack them via :mod:`repro.core.serde`.  An estimator whose flow cannot be
pickled falls back to serial in-parent execution (recorded in
``TrainingReport.process_fallback``) rather than failing the run.
"""

from __future__ import annotations

import itertools
import os
import pickle
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core import graph as g
from repro.core import interp
from repro.core import program as prog
from repro.core.backends.base import ExecutionBackend, TrainingSession
from repro.core.operators import IterativeShardableEstimator
from repro.core.program import UnshippableFlow
from repro.dataset.context import Context
from repro.dataset.dataset import Dataset, _StoredPartitions
from repro.obs import trace as obs_trace
from repro.runtime import transport
from repro.runtime.pool import ActorPool, _Msg, shared_actor_pool
from repro.runtime.worker import DEFAULT_STATE_BUDGET, shard_key

if TYPE_CHECKING:
    from repro.core.pipeline import FittedPipeline
    from repro.core.plan import PhysicalPlan

#: unique task ids across every backend instance sharing a pool
_TASK_IDS = itertools.count(1)

#: errors that mean "this flow cannot cross the process boundary" — the
#: backend degrades to serial in-parent execution instead of failing
_SHIP_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


def resolve_workers(plan: Optional["PhysicalPlan"], explicit: Optional[int]) -> int:
    """Worker count: explicit, else the plan's
    :class:`~repro.core.passes.ShardingPass` decision, else the CPU count."""
    if explicit is not None:
        return explicit
    if plan is not None and plan.state.shard_workers is not None:
        return plan.state.shard_workers
    return os.cpu_count() or 1


# A shard program is an OpProgram (repro.core.program) lowered from the
# flow feeding the estimator(s) being fitted: a topologically ordered
# list of ops, op i's output living in slot i.  Source ops are fed
# per-partition from the parent; transform ops cover transformer nodes
# and apply nodes (whose op is the already-fitted model).  Estimator
# nodes never ship.  Materialized intermediates are re-shipped (instead
# of recomputed) only when the optimizer's materialization pass chose to
# cache them — the cache-set decision doubles as the ship-vs-recompute
# policy.


def _lower_shard_program(
    roots: List[g.OpNode],
    *,
    session=None,
    materialized=None,
    virtual_sources=None,
    program_passes=None,
    dataset_memo=None,
):
    """Lower the flow feeding ``roots`` through the shared OpProgram IR.

    Returns ``(program, sources)``; any lowering passes registered on
    the plan (:class:`~repro.core.passes.LoweringPass`) — or passed
    explicitly via ``program_passes`` for sessionless inference — are
    applied before the program ships, and ``sources`` is re-filtered to
    the ops that survived them.  Passing a ``dataset_memo`` dict makes
    ops carry content-addressed keys, claimed sources keyed by dataset
    *content* (the fingerprint memo is shared across estimators of one
    run) — which is what lets workers re-address cached shard state from
    a later fit; without it the program is unkeyed and caches nothing.
    """
    materialized = materialized or {}
    virtual_sources = virtual_sources or {}
    cache_ids = session.cache_ids if session is not None else set()

    def source_of(node: g.OpNode) -> Optional[Dataset]:
        if node.id in virtual_sources:
            return virtual_sources[node.id]
        bound = node.kind == g.SOURCE and not node.is_pipeline_input
        if bound and session is not None:
            return session.dataset_of(node)
        if node.id in materialized and node.id in cache_ids:
            return materialized[node.id]
        return None

    def model_of(est_node: g.OpNode):
        return session.fitted.get(est_node.id) if session is not None else None

    source_key_of = None
    if dataset_memo is not None:

        def source_key_of(node: g.OpNode) -> str:
            fingerprint = prog.dataset_fingerprint(source_of(node), dataset_memo)
            return prog.op_key("source", None, (fingerprint,))

    program, sources = prog.lower_training_program(
        roots,
        source_of=source_of,
        model_of=model_of,
        compute_keys=dataset_memo is not None,
        source_key_of=source_key_of,
    )
    if program_passes is None and session is not None:
        program_passes = session.plan.state.program_passes
    if program_passes:
        program = prog.run_program_passes(program, program_passes)
        sources = {nid: ds for nid, ds in sources.items() if nid in program.node_ids}
    return program, sources


def _make_pass_builder(task_id: int, payload):
    def builder(actor) -> _Msg:
        msg = ("pass", task_id, payload)
        if obs_trace.enabled():
            msg += (True,)
        return _Msg(msg)

    return builder


class ActorBackend(ExecutionBackend):
    """Execute training on a pool of persistent stateful workers.

    ``workers`` resolves through :func:`resolve_workers` (explicit, then
    the plan's :class:`~repro.core.passes.ShardingPass` decision, then
    the CPU count); ``workers=1`` degenerates to the serial reference
    execution.  ``task_timeout`` bounds each message round-trip — a
    wedged worker raises instead of hanging the fit; ``max_restarts``
    bounds respawns per worker; ``state_budget_bytes`` caps each
    worker's shard-state cache.  ``merge_stats=False`` disables the
    sufficient-statistics path (one-shot estimators then gather and fit
    in the parent).  ``start_method`` defaults to ``"spawn"``:
    fork-safety is not assumed anywhere.  ``reuse_pool=True`` (the
    default) shares pools per configuration across instances — the
    cross-fit cache requires the same workers to serve both fits.
    """

    name = "actors"

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        start_method: str = "spawn",
        max_restarts: int = 2,
        state_budget_bytes: int = DEFAULT_STATE_BUDGET,
        merge_stats: bool = True,
        reuse_pool: bool = True,
        shm_threshold: int = transport.SHM_THRESHOLD,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.task_timeout = task_timeout
        self.start_method = start_method
        self.max_restarts = max_restarts
        self.state_budget_bytes = state_budget_bytes
        self.merge_stats = merge_stats
        self.reuse_pool = reuse_pool
        self.shm_threshold = shm_threshold
        self._private_pool: Optional[ActorPool] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _pool(self, workers: int) -> ActorPool:
        config = dict(
            start_method=self.start_method,
            task_timeout=self.task_timeout,
            max_restarts=self.max_restarts,
            state_budget_bytes=self.state_budget_bytes,
        )
        if self.reuse_pool:
            return shared_actor_pool(workers, **config)
        if self._private_pool is None:
            self._private_pool = ActorPool(workers, **config)
        return self._private_pool

    def close(self) -> None:
        """Shut down the private pool (shared pools stay warm)."""
        if self._private_pool is not None:
            self._private_pool.shutdown()
            self._private_pool = None

    def __enter__(self) -> "ActorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def execute(
        self, plan: "PhysicalPlan", ctx: Optional[Context] = None
    ) -> "FittedPipeline":
        workers = resolve_workers(plan, self.workers)
        session = TrainingSession(
            plan, ctx, backend_name=f"{self.name}[workers={workers}]"
        )
        session.report.process_workers = workers
        if workers <= 1:
            session.run_serial()
            return session.finish()
        pool = self._pool(workers)
        snapshot = dict(pool.counters)
        materialized: Dict[int, Dataset] = {}
        dataset_memo: Dict[int, str] = {}
        try:
            for node in session.estimator_nodes():
                self._fit_parallel(session, pool, node, materialized, dataset_memo)
        finally:
            report = session.report
            deltas = {k: v - snapshot[k] for k, v in pool.counters.items()}
            report.worker_restarts += deltas["restarts"]
            report.shard_state_hits += deltas["hits"]
            report.shard_state_misses += deltas["misses"]
            report.bytes_shipped += deltas["shipped_bytes"]
            report.bytes_mapped += deltas["mapped_bytes"]
        return session.finish()

    def _fit_parallel(
        self,
        session: TrainingSession,
        pool: ActorPool,
        node: g.OpNode,
        materialized: Dict[int, Dataset],
        dataset_memo: Dict[int, str],
    ) -> None:
        report = session.report
        if node.id in session.fitted:
            # Spliced from the session's FitStore by training key (warm
            # retrain): nothing to ship, no wave to run.
            return
        op = node.op
        roots = list(node.parents)
        try:
            program, sources = _lower_shard_program(
                roots,
                session=session,
                materialized=materialized,
                dataset_memo=dataset_memo,
            )
        except UnshippableFlow as exc:
            session.fit_estimator(node)
            report.process_fallback.append(f"{node.label}: {exc}")
            return

        if not any(step.kind == prog.TRANSFORM for step in program):
            # Pure-source flow: nothing to parallelize, no IPC to pay.
            session.fit_estimator(node)
            return

        iterative_ok = isinstance(op, IterativeShardableEstimator)
        stats_ok = (
            self.merge_stats
            and hasattr(op, "partition_stats")
            and hasattr(op, "fit_from_stats")
        )
        # Only shipping work may fall back: an error raised by the
        # estimator's own math must surface as-is (ship-shaped errors
        # from in-worker fits re-raise identically from the serial
        # fallback).
        model = None
        fallback = None
        try:
            if iterative_ok:
                with obs_trace.span(
                    f"fit:{node.label}",
                    cat="fit",
                    args={"node_id": node.id},
                ):
                    model = self._fit_iterative(
                        session, pool, node, program, sources, roots
                    )
            elif stats_ok:
                spec = (node.id, op, tuple(program.slot_of(r.id) for r in roots))
                result = self._run_wave(session, pool, program, sources, [], spec)
            else:
                outputs = [
                    (str(r.id), r)
                    for r in roots
                    if r.kind != g.SOURCE and r.id not in materialized
                ]
                result = None
                if outputs:
                    out_slots = [(name, program.slot_of(r.id)) for name, r in outputs]
                    result = self._run_wave(
                        session, pool, program, sources, out_slots, None
                    )
        except (UnshippableFlow,) + _SHIP_ERRORS as exc:
            fallback = type(exc).__name__
        if fallback is not None:
            session.fit_estimator(node)
            report.process_fallback.append(f"{node.label}: {fallback}")
            return

        if iterative_ok or stats_ok:
            if not iterative_ok:
                with obs_trace.span(
                    f"fit:{node.label}", cat="fit", args={"node_id": node.id}
                ):
                    with session.timer.time_block(node.id):
                        model = op.fit_from_stats(result["stats"])
            with session._lock:
                session.fitted[node.id] = model
                report.estimator_seconds[node.id] = session.timer.times[node.id]
                session.store_fit(node, model)
            if iterative_ok:
                report.actor_iterative.append(node.label)
            else:
                report.process_stat_merged.append(node.label)
            return
        if result is not None:
            for name, root in outputs:
                rows = result["rows"][name]
                ds = Dataset(
                    session.ctx,
                    len(rows),
                    _StoredPartitions(rows),
                    name=f"actors({root.label})",
                )
                with session._lock:
                    session.env[root.id] = ds
                materialized[root.id] = ds
        session.fit_estimator(node)
        report.process_gathered.append(node.label)

    # ------------------------------------------------------------------
    # Iterative fits: passes in-worker, state in the driver
    # ------------------------------------------------------------------
    def _fit_iterative(
        self,
        session: TrainingSession,
        pool: ActorPool,
        node: g.OpNode,
        program: prog.OpProgram,
        sources,
        roots: List[g.OpNode],
    ):
        """Drive ``fit_via_passes``'s state machine over staged workers.

        The featurized shard is staged in-worker by the "init" wave and
        never moves again: every pass broadcasts
        ``pass_payload(state)`` and reduces the per-partition
        statistics, flattened in chunk order — which *is* partition
        order, chunks being contiguous and ascending — through
        ``update_from_stats`` exactly as the serial driver does.
        """
        op = node.op
        spec = (node.id, op, tuple(program.slot_of(r.id) for r in roots))
        task_id, builders, wave_key = self._run_builders(
            pool, program, sources, [], spec, "init"
        )
        indices = [index for index, _builder in builders]
        state = None
        timer = session.timer
        try:
            with obs_trace.span(
                "actors.wave[init]",
                cat="wave",
                key=wave_key,
                args={"shards": len(builders), "node_id": node.id},
            ):
                replies = pool.wave(builders, setup=True)
            self._absorb_times(session, replies)
            partials = [s for result, _meta in replies for s in result["stats"]]
            with timer.time_block(node.id):
                state = op.init_state(partials)
                done = op.converged(state)
                payload = None if done else op.pass_payload(state)
            pass_no = 0
            while not done:
                pass_no += 1
                pass_builders = [
                    (i, _make_pass_builder(task_id, payload)) for i in indices
                ]
                with obs_trace.span(
                    "actors.wave[pass]",
                    cat="wave",
                    key=wave_key,
                    args={"node_id": node.id, "pass": pass_no},
                ):
                    replies = pool.wave(pass_builders)
                self._absorb_times(session, replies)
                partials = [s for result, _meta in replies for s in result]
                with timer.time_block(node.id):
                    state = op.update_from_stats(state, partials)
                    done = op.converged(state)
                    payload = None if done else op.pass_payload(state)
            with timer.time_block(node.id):
                model = op.finalize(state)
            state = None
            return model
        except BaseException:
            if state is not None:
                try:
                    op.abort_state(state)
                except Exception:
                    pass
            raise
        finally:
            pool.end_task(task_id, indices)

    # ------------------------------------------------------------------
    # Waves: "run" message builders, one-shot stats / collect
    # ------------------------------------------------------------------
    def _run_builders(
        self, pool: ActorPool, program: prog.OpProgram, sources, out_slots, spec, mode
    ):
        """One "run" message builder per chunk, builder ``i`` for actor ``i``.

        Returns ``(task_id, builders, wave_key)``; ``spec`` is the
        ``(estimator node id, estimator, stat slots)`` triple of a
        "stats"/"init" wave, ``None`` for a "collect" wave.  Builders
        are evaluated against the actor's mirror at send time and ship
        only the source partitions the worker will actually read: the
        same backward liveness walk the worker runs
        (:func:`repro.core.interp.liveness`), with the parent-side
        mirror standing in for the cache — a source whose downstream
        transform is already held ships nothing at all.
        """
        ops = program.ops
        blob = pickle.dumps((ops, out_slots, spec), protocol=pickle.HIGHEST_PROTOCOL)
        task_id = next(_TASK_IDS)
        targets = [slot for _name, slot in out_slots]
        if spec is not None:
            targets.extend(spec[2])
        source_ops = [op for op in ops if op.kind == prog.SOURCE]

        def make_builder(start: int, stop: int):
            chunk = (start, stop)

            def builder(actor) -> _Msg:
                def mirror(op: prog.Op, _row: int):
                    return shard_key(op, chunk) in actor.holds, None

                todo, _ = interp.liveness(ops, targets, 1, mirror)
                ship = {}
                for op in source_ops:
                    if todo[op.slot]:
                        ship[op.node_id] = [
                            sources[op.node_id].partition(i) for i in range(start, stop)
                        ]
                packed = transport.pack(ship, shm_threshold=self.shm_threshold)
                produced = [
                    key
                    for op in ops
                    if todo[op.slot] is not None and (key := shard_key(op, chunk))
                ]
                # The trailing trace flag is appended only while tracing
                # is active (builders re-evaluate at send time, so a
                # retry after a respawn stays consistent); untraced runs
                # keep the original wire format.
                payload = ("run", task_id, blob, chunk, packed.payload, mode)
                if obs_trace.enabled():
                    payload += (True,)
                return _Msg(
                    payload,
                    ships=[packed],
                    produced=produced,
                    shipped_bytes=len(blob) + packed.shipped_bytes,
                    mapped_bytes=packed.mapped_bytes,
                )

            return builder

        chunks, _ = _plan_chunks(sources, pool.workers)
        builders = [(i, make_builder(*chunk)) for i, chunk in enumerate(chunks)]
        wave_key = ops[targets[-1]].key if targets else None
        return task_id, builders, wave_key or None

    def _run_wave(
        self,
        session: Optional[TrainingSession],
        pool: ActorPool,
        program: prog.OpProgram,
        sources,
        out_slots,
        stats_spec,
    ):
        mode = "collect" if stats_spec is None else "stats"
        _task_id, builders, wave_key = self._run_builders(
            pool, program, sources, out_slots, stats_spec, mode
        )
        with obs_trace.span(
            f"actors.wave[{mode}]",
            cat="wave",
            key=wave_key,
            args={"shards": len(builders)},
        ):
            replies = pool.wave(builders)
        self._absorb_times(session, replies)
        merged = {"rows": {name: [] for name, _ in out_slots}, "stats": []}
        for result, _meta in replies:
            for name, parts in result.get("rows", {}).items():
                merged["rows"][name].extend(parts)
            merged["stats"].extend(result.get("stats", []))
        return merged

    def _absorb_times(self, session: Optional[TrainingSession], replies) -> None:
        for _result, meta in replies:
            if session is not None:
                for node_id, seconds in meta.get("times", {}).items():
                    session.timer.add(node_id, seconds)
            # Worker span buffers piggyback on reply meta; the recording
            # process name ("repro-actor-N") is the worker attribution.
            obs_trace.absorb(meta.get("spans"))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def apply_batch(self, fitted: "FittedPipeline", data: Dataset) -> Dataset:
        """Batch inference with partitions computed in the pool's workers.

        One "collect" wave over an *unkeyed* program: request data is
        not training state, so nothing is cached worker-side.  Falls
        back to the serial reference path for single-partition inputs,
        ``workers=1``, or unshippable pipelines; results are
        byte-identical either way (same ``apply_partition`` chain over
        the same partitions).
        """
        workers = resolve_workers(None, self.workers)
        if workers <= 1 or data.num_partitions < 2:
            return super().apply_batch(fitted, data)
        try:
            program, sources = _lower_shard_program(
                [fitted.sink],
                virtual_sources={fitted.input_node.id: data},
                program_passes=getattr(fitted, "program_passes", ()),
            )
            if not any(step.kind == prog.TRANSFORM for step in program):
                return super().apply_batch(fitted, data)
            out_slots = [("out", program.slot_of(fitted.sink.id))]
            pool = self._pool(workers)
            result = self._run_wave(None, pool, program, sources, out_slots, None)
        except (UnshippableFlow,) + _SHIP_ERRORS:
            return super().apply_batch(fitted, data)
        return Dataset(
            data.ctx,
            data.num_partitions,
            _StoredPartitions(result["rows"]["out"]),
            name=f"{self.name}({data.name})",
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"task_timeout={self.task_timeout}, "
            f"max_restarts={self.max_restarts})"
        )


class ProcessPoolBackend(ActorBackend):
    """``backend="process"``: the historical name of the multi-process
    backend, kept as a registry alias of :class:`ActorBackend`."""

    name = "process"


def _plan_chunks(sources, workers: int):
    """Contiguous partition chunks, one per worker, in partition order."""
    counts = {ds.num_partitions for ds in sources.values()}
    if len(counts) != 1:
        raise UnshippableFlow(f"sources disagree on partitioning: {sorted(counts)}")
    num_partitions = counts.pop()
    shards = min(workers, num_partitions)
    bounds = [round(j * num_partitions / shards) for j in range(shards + 1)]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    return chunks, num_partitions
