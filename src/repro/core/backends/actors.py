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
- :class:`~repro.core.operators.IterativeShardableEstimator` fits
  (k-means, GMM, L-BFGS logistic) run their per-pass reductions
  in-worker: only broadcast payloads and per-partition statistics cross
  the process boundary, never the data;
- one-shot :class:`~repro.core.operators.ShardableEstimator` fits merge
  per-partition statistics in the estimator's serial reduction order;
  everything else collects featurized rows and fits in the parent
  (:meth:`TrainingSession.collected_inputs`: rows of a cache-set node
  enter the parent's budgeted cache, other rows live for that fit only);
- partitions ship zero-copy (:mod:`repro.runtime.transport`); worker
  deaths respawn bounded, and restarts / cache hit rates / bytes shipped
  vs. mapped land in the :class:`~repro.core.executor.TrainingReport`.

Byte identity holds by construction: workers evaluate the same ops over
the same partition boundaries as the parent's views, merges replay the
serial reduction, and iterative fits drive the exact
:meth:`~repro.core.operators.IterativeShardableEstimator.fit_via_passes`
state machine.  A flow that cannot be pickled fits in the parent instead
(recorded in ``TrainingReport.process_fallback``), never failing the run.
"""

from __future__ import annotations

import itertools
import os
import pickle
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core import graph as g
from repro.core import interp
from repro.core import program as prog
from repro.core.backends.base import ExecutionBackend, TrainingSession, resident
from repro.core.operators import IterativeShardableEstimator
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
        """Fit one estimator by in-worker passes, a stats merge or a
        parent fit over collected rows; else by the session's own fit."""
        report = session.report
        if node.id in session.fitted:
            # Spliced from the session's FitStore by training key (warm
            # retrain): nothing to ship, no wave to run.
            return
        op = node.op
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

        iterative_ok = isinstance(op, IterativeShardableEstimator)
        stats_ok = hasattr(op, "partition_stats") and hasattr(op, "fit_from_stats")
        # Only shipping work may fall back: an error raised by the
        # estimator's own math must surface as-is (ship-shaped errors
        # from in-worker fits re-raise identically from the serial
        # fallback).
        model = None
        fallback = None
        rows: Dict[int, list] = {}
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
                # Collect the roots the parent's cache does not hold whole.
                out_slots = [
                    (r.id, program.slot_of(r.id))
                    for r in roots
                    if r.kind != g.SOURCE and not resident(session.dataset_of(r))
                ]
                if out_slots:
                    result = self._run_wave(
                        session, pool, program, sources, out_slots, None
                    )
                    rows = result["rows"]
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
            session.store_fit(node, model)
            if iterative_ok:
                report.actor_iterative.append(node.label)
            else:
                report.process_stat_merged.append(node.label)
            return
        session.fit_estimator(node, session.collected_inputs(rows))
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
        session: TrainingSession,
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

    def _absorb_times(self, session: TrainingSession, replies) -> None:
        for _result, meta in replies:
            for node_id, seconds in meta.get("times", {}).items():
                session.timer.add(node_id, seconds)
            # Worker span buffers piggyback on reply meta; the recording
            # process name ("repro-actor-N") is the worker attribution.
            obs_trace.absorb(meta.get("spans"))

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
