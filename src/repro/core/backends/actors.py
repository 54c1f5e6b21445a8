"""ActorBackend: multi-process training on the persistent actor runtime.

The one multi-process training runtime (``backend="process"`` is a
registry alias for it).  The training data is split into contiguous
chunks of partitions, one per worker; the flow feeding each estimator is
lowered by :func:`repro.core.program.lower_training_program` — the walk
that lowers the parent's own training views — into a picklable *shard
program*, and :class:`~repro.runtime.pool.ActorPool` workers run it over
their chunk through :func:`repro.core.interp.evaluate`, dodging the GIL
for the numpy-light featurization that dominates the paper's pipelines.
The workers *keep* what they compute:

- programs carry content-addressed keys (sources keyed by dataset
  content), so a featurized shard cached in a worker serves every later
  estimator and fit sharing the flow prefix; the parent's mirror of each
  worker's cache (the keys it reported holding after its last run) lets
  it skip shipping data the worker already holds;
- shardable estimators fit by :func:`~repro.core.operators.fit_by_rounds`
  with a wave as its round: a one-shot fit is one wave of per-partition
  statistics, and iterative fits (k-means, GMM, L-BFGS logistic) stage
  their shards in-worker, so a pass ships only the broadcast payload
  and the statistics, never the data;
- everything else collects featurized rows and fits in the parent
  (:meth:`TrainingSession.collected_inputs`: rows of a cache-set node
  enter the parent's budgeted cache, other rows live for that fit only);
- partitions ship zero-copy (:mod:`repro.runtime.transport`); worker
  deaths respawn bounded, and restarts / cache hit rates / bytes shipped
  vs. mapped land in the :class:`~repro.core.executor.TrainingReport`.

Byte identity holds by construction: workers evaluate the same ops over
the same partition boundaries as the parent's views, and every
statistics fit runs the same driver as the serial one.  A flow that
cannot be pickled fits in the parent instead (recorded in
``TrainingReport.process_fallback``), never failing the run.
"""

from __future__ import annotations

import itertools
import os
import pickle
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core import graph as g
from repro.core import interp
from repro.core import program as prog
from repro.core.backends.base import ExecutionBackend, TrainingSession, resident
from repro.core.operators import IterativeShardableEstimator, ShardableEstimator
from repro.core.program import UnshippableFlow
from repro.dataset.context import Context
from repro.obs import trace as obs_trace
from repro.runtime import transport
from repro.runtime.pool import ActorPool, _Msg, shared_actor_pool
from repro.runtime.worker import shard_key

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
# flow feeding the estimator being fitted: a topologically ordered list
# of ops, op i's output living in slot i.  Source ops are fed
# per-partition from the parent; transform ops cover transformer nodes
# and apply nodes (whose op is the already-fitted model).  Estimator
# nodes never ship.  The parent's own view of the same flow
# (TrainingSession.dataset_of) is lowered by the same walk, without
# content keys, and evaluated by the same interpreter.


def _lower_shard_program(
    roots: List[g.OpNode],
    session: TrainingSession,
    dataset_memo: Dict[int, str],
):
    """Lower the flow feeding ``roots`` through the shared OpProgram IR.

    Returns ``(program, sources)``: the flow's live ops only, so an
    upstream estimator's training flow never ships.  Ops carry
    content-addressed keys, sources keyed by dataset *content*
    (``dataset_memo`` is shared across estimators of one run) — which
    is what lets workers re-address cached shard state from a later fit.
    """

    def source_key_of(node: g.OpNode) -> str:
        fingerprint = prog.dataset_fingerprint(session.dataset_of(node), dataset_memo)
        return prog.op_key("source", None, (fingerprint,))

    return prog.lower_training_program(
        roots,
        source_of=session.source_of,
        model_of=lambda est_node: session.fitted.get(est_node.id),
        compute_keys=True,
        source_key_of=source_key_of,
    )


class ActorBackend(ExecutionBackend):
    """Execute training on a pool of persistent stateful workers.

    ``workers`` resolves through :func:`resolve_workers` (explicit, then
    the plan's :class:`~repro.core.passes.ShardingPass` decision, then
    the CPU count); ``workers=1`` degenerates to the serial reference
    execution.  ``task_timeout`` bounds each message round-trip — a
    wedged worker raises instead of hanging the fit; ``max_restarts``
    bounds respawns per worker.  ``reuse_pool=True`` (the default)
    shares pools per configuration across instances — the cross-fit
    cache requires the same workers to serve both fits.
    A message whose array buffers total at least ``shm_threshold``
    bytes ships them through shared memory.  Workers always start with
    ``"spawn"`` (fork-safety is not assumed anywhere).  Each keeps shard
    state in a :class:`~repro.dataset.cache.CacheManager` under LRU and
    :data:`~repro.runtime.worker.DEFAULT_STATE_BUDGET` bytes, sized by
    :func:`~repro.dataset.sizing.estimate_size`, and reports the keys it
    holds after every run; that report is the parent's mirror.
    """

    name = "actors"

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_restarts: int = 2,
        reuse_pool: bool = True,
        shm_threshold: int = transport.SHM_THRESHOLD,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.task_timeout = task_timeout
        self.max_restarts = max_restarts
        self.reuse_pool = reuse_pool
        self.shm_threshold = shm_threshold
        self._private_pool: Optional[ActorPool] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _pool(self, workers: int) -> ActorPool:
        config = dict(task_timeout=self.task_timeout, max_restarts=self.max_restarts)
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
        dataset_memo: Dict[int, str] = {}
        try:
            session.run_serial(
                lambda node: self._fit_parallel(session, pool, node, dataset_memo)
            )
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
        dataset_memo: Dict[int, str],
    ) -> None:
        """Fit one estimator by the statistics driver over actor rounds or
        by a parent fit over collected rows; else by the session's own fit."""
        report = session.report
        if node.id in session.fitted:
            # Spliced from the session's FitStore by training key (warm
            # retrain): nothing to ship, no wave to run.
            return
        roots = list(node.parents)
        try:
            program, sources = _lower_shard_program(roots, session, dataset_memo)
        except UnshippableFlow as exc:
            session.fit_estimator(node)
            report.process_fallback.append(f"{node.label}: {exc}")
            return

        if not any(step.kind == prog.TRANSFORM for step in program):
            # Pure-source flow: nothing to parallelize, no IPC to pay.
            session.fit_estimator(node)
            return

        by_rounds = isinstance(
            node.op, (ShardableEstimator, IterativeShardableEstimator)
        )
        rows: Dict[int, list] = {}
        # Only shipping work may fall back: an error raised by the
        # estimator's own math must surface as-is (ship-shaped errors
        # from in-worker fits re-raise identically from the serial
        # fallback).
        try:
            if by_rounds:
                with self._stats_round(session, pool, node, program, sources) as run:
                    session.fit_estimator(node, run_round=run)
            else:
                # Collect the roots the parent's cache does not hold whole.
                out_slots = [
                    (r.id, program.slot_of(r.id))
                    for r in roots
                    if r.kind != g.SOURCE and not resident(session.dataset_of(r))
                ]
                if out_slots:
                    rows = {name: [] for name, _slot in out_slots}
                    _task, builders, key = self._run_builders(
                        pool, program, sources, out_slots, None
                    )
                    replies = self._wave(session, pool, builders, "collect", key)
                    for result, _meta in replies:
                        for name, parts in result["rows"].items():
                            rows[name].extend(parts)
        except (UnshippableFlow,) + _SHIP_ERRORS as exc:
            session.fit_estimator(node)
            report.process_fallback.append(f"{node.label}: {type(exc).__name__}")
            return

        if not by_rounds:
            session.fit_estimator(node, session.collected_inputs(rows))
            report.process_gathered.append(node.label)
        elif isinstance(node.op, IterativeShardableEstimator):
            report.actor_iterative.append(node.label)
        else:
            report.process_stat_merged.append(node.label)

    @contextmanager
    def _stats_round(
        self,
        session: TrainingSession,
        pool: ActorPool,
        node: g.OpNode,
        program: prog.OpProgram,
        sources,
    ):
        """The actor round of :func:`~repro.core.operators.fit_by_rounds`.

        The first round is one "run" wave over the chunks of the smallest
        partition range holding the partitions asked for; the workers of
        an iterative fit stage their featurized partitions, so every pass
        broadcasts only the payload.  Statistics come back flattened in
        chunk order, which *is* partition order (chunks are contiguous and
        ascending).  Staged partitions are dropped on exit.
        """
        slots = tuple(program.slot_of(r.id) for r in node.parents)
        spec = (node.id, node.op, slots)
        staging = isinstance(node.op, IterativeShardableEstimator)
        task_id, staged, key = None, [], None

        def run_round(indices, payload):
            nonlocal task_id, key
            if indices is None:
                msg = ("pass", task_id, payload)
                if obs_trace.enabled():
                    msg += (True,)
                builders = [(i, lambda _actor: _Msg(msg)) for i in staged]
                replies = self._wave(session, pool, builders, "pass", key)
                return [s for result, _meta in replies for s in result["stats"]]
            lo = indices[0]
            task_id, builders, key = self._run_builders(
                pool, program, sources, [], spec, (lo, indices[-1] + 1)
            )
            if staging:
                staged.extend(i for i, _builder in builders)
            replies = self._wave(session, pool, builders, "stats", key, staging)
            partials = [s for result, _meta in replies for s in result["stats"]]
            return [partials[i - lo] for i in indices]

        try:
            yield run_round
        finally:
            if staged:
                pool.end_task(task_id, staged)

    # ------------------------------------------------------------------
    # Waves: "run" message builders, one wave
    # ------------------------------------------------------------------
    def _run_builders(
        self,
        pool: ActorPool,
        program: prog.OpProgram,
        sources,
        out_slots,
        spec,
        span=None,
    ):
        """One "run" message builder per chunk, builder ``i`` for actor ``i``.

        Returns ``(task_id, builders, wave_key)``; ``spec`` is the
        ``(estimator node id, estimator, stat slots)`` triple of a
        statistics wave, ``None`` for a collect wave, and ``span`` the
        ``(start, stop)`` partition range to cover (default: all).
        Builders are evaluated against the actor's mirror at send time
        and ship only the source partitions the worker will actually
        read: the same backward liveness walk the worker runs
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
                # The trailing trace flag is appended only while tracing
                # is active (builders re-evaluate at send time, so a
                # retry after a respawn stays consistent); untraced runs
                # keep the original wire format.
                payload = ("run", task_id, blob, chunk, packed.payload)
                if obs_trace.enabled():
                    payload += (True,)
                return _Msg(
                    payload,
                    ships=[packed],
                    shipped_bytes=len(blob) + packed.shipped_bytes,
                    mapped_bytes=packed.mapped_bytes,
                )

            return builder

        chunks, _ = _plan_chunks(sources, pool.workers, span)
        builders = [(i, make_builder(*chunk)) for i, chunk in enumerate(chunks)]
        wave_key = ops[targets[-1]].key if targets else None
        return task_id, builders, wave_key or None

    def _wave(
        self,
        session: TrainingSession,
        pool: ActorPool,
        builders,
        kind: str,
        key,
        setup: bool = False,
    ):
        """Run one wave (``kind`` names its trace span) and credit the
        workers' reported seconds and spans to the session."""
        with obs_trace.span(
            f"actors.wave[{kind}]", cat="wave", key=key, args={"shards": len(builders)}
        ):
            replies = pool.wave(builders, setup=setup)
        for _result, meta in replies:
            for node_id, seconds in meta.get("times", {}).items():
                session.timer.add(node_id, seconds)
            # Worker span buffers piggyback on reply meta; the recording
            # process name ("repro-actor-N") is the worker attribution.
            obs_trace.absorb(meta.get("spans"))
        return replies

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


def _plan_chunks(sources, workers: int, span=None):
    """Contiguous chunks of the partitions in ``span`` (``(start, stop)``,
    default all), one per worker, in partition order."""
    counts = {ds.num_partitions for ds in sources.values()}
    if len(counts) != 1:
        raise UnshippableFlow(f"sources disagree on partitioning: {sorted(counts)}")
    num_partitions = counts.pop()
    lo, hi = span or (0, num_partitions)
    shards = min(workers, hi - lo)
    bounds = [lo + round(j * (hi - lo) / shards) for j in range(shards + 1)]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    return chunks, num_partitions
