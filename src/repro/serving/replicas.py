"""Multi-process serving replicas: compiled plans in persistent workers.

One `ModelServer` process tops out at whatever a single GIL allows; the
paper's serving story ("heavy traffic from millions of users") needs the
server itself to shard.  This module reuses the actor-pool runtime from
training — :class:`~repro.runtime.pool.ActorPool` with a serving-specific
worker entry point — so the serving tier inherits the pool's whole fault
story for free: death detection, bounded respawn, setup replay, and a
single in-flight retry.

The division of labour:

- **Replica workers** (:func:`replica_main`) hold compiled
  :class:`~repro.serving.compiler.InferencePlan`\\ s keyed by *slot* (the
  server uses ``"name:version"``) and execute micro-batches through the
  vectorized ``run_batch`` path.  Plans arrive as pickled
  :class:`~repro.core.program.OpProgram` blobs — the same
  process-independent IR the training backends ship to shard workers.
- **The parent** (:class:`ReplicaSet`) load-balances batches over free
  replicas through :meth:`~repro.runtime.pool.ActorPool.call` (per-actor
  locking, so batches overlap across replicas) and keeps the
  content-addressed serving cache *parent-side*: op content keys are
  process-independent by construction, so a result computed on any
  replica answers fleet-wide repeats through the server's pre-queue
  ``cached_result`` fast path.

Model loads are registered as pool *setup* messages: a respawned replica
replays every load before the failed batch retries, so replica death
mid-request recovers without dropping responses — the property
``tests/test_serving.py`` kills a replica to prove.

The message protocol (request/reply over one pipe per replica):

- ``("load", task_id, blob, slot)`` — unpickle an ``OpProgram``, compile
  the serving view, store it under ``slot``.
- ``("batch", task_id, slot, items)`` — run the micro-batch; reply
  carries the result rows plus ``{"batch": n}`` meta.
- ``("unload", task_id, slot)`` — drop a retired version's plan.
- ``("shutdown",)`` — exit.

Replies are ``("ok", task_id, result, meta)`` or ``("err", task_id,
exception)``, matching the training worker protocol so the pool's
collect/recover path applies unchanged.
"""

from __future__ import annotations

import itertools
import pickle
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runtime.pool import ActorPool, _Msg


def replica_main(conn) -> None:
    """Entry point of one serving replica process (spawn-safe).

    Replica memory is bounded by the loaded plans, not a shard cache.
    """
    # Imports happen inside the worker so a spawn start method pays them
    # once per process, after the interpreter is up.
    from repro.serving.compiler import InferencePlan

    plans: Dict[Any, InferencePlan] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt, OSError):
            break
        kind = msg[0]
        if kind == "shutdown":
            break
        task_id = msg[1]
        try:
            if kind == "load":
                _, _, blob, slot = msg
                program = pickle.loads(blob)
                plans[slot] = InferencePlan(program)
                result: Any = {"ops": len(program.ops)}
                meta: Dict[str, Any] = {}
            elif kind == "batch":
                _, _, slot, items = msg
                plan = plans.get(slot)
                if plan is None:
                    raise KeyError(f"replica has no plan loaded under slot {slot!r}")
                result = plan.run_batch(items)
                meta = {"batch": len(items)}
            elif kind == "unload":
                _, _, slot = msg
                result = plans.pop(slot, None) is not None
                meta = {}
            else:
                raise ValueError(f"unknown replica message kind {kind!r}")
            conn.send(("ok", task_id, result, meta))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            try:
                conn.send(("err", task_id, exc))
            except Exception:
                conn.send(
                    ("err", task_id, RuntimeError(f"{type(exc).__name__}: {exc}"))
                )


class ReplicaSet:
    """A fixed fleet of replica processes serving compiled plans.

    Thin serving facade over an :class:`~repro.runtime.pool.ActorPool`
    running :func:`replica_main`.  :meth:`run_batch` picks a *free*
    replica (a blocking free-index queue: least-loaded scheduling with
    natural concurrency equal to the fleet size) and issues the batch as
    a single pool call; callers from multiple dispatch threads overlap
    across replicas.  :meth:`load` broadcasts a model to every replica
    as a replayed setup message, which is what makes respawn transparent.
    """

    def __init__(
        self,
        replicas: int,
        *,
        task_timeout: Optional[float] = None,
        max_restarts: int = 2,
        name: str = "serving",
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self.pool = ActorPool(
            replicas,
            task_timeout=task_timeout,
            max_restarts=max_restarts,
            main=replica_main,
            name=f"repro-replica-{name}",
        )
        self._free: "queue.Queue[int]" = queue.Queue()
        for index in range(replicas):
            self._free.put(index)
        self._ids = itertools.count(1)
        self._loads: Dict[Any, Callable] = {}
        self._lock = threading.Lock()
        self.batches = 0
        self.batched_items = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def load(self, slot: Any, program) -> None:
        """Ship a compiled ``OpProgram`` to every replica under ``slot``.

        Pickled once, broadcast to the fleet, and registered for setup
        replay so respawned replicas reload it before retrying work.
        """
        blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)

        def builder(actor) -> _Msg:
            return _Msg(("load", next(self._ids), blob, slot))

        with self._lock:
            stale = self._loads.pop(slot, None)
        if stale is not None:
            # Re-registering a slot: the old load must not be replayed
            # over the new one after a respawn.
            for actor in self.pool.actors:
                with actor.lock:
                    actor.setup = [b for b in actor.setup if b is not stale]
        for index in range(self.replicas):
            self.pool.call(index, builder, setup=True)
        with self._lock:
            self._loads[slot] = builder

    def unload(self, slot: Any) -> None:
        """Drop a retired version fleet-wide and stop replaying its load."""
        with self._lock:
            builder = self._loads.pop(slot, None)
        if builder is not None:
            for actor in self.pool.actors:
                with actor.lock:
                    actor.setup = [b for b in actor.setup if b is not builder]

        def unload_builder(actor) -> _Msg:
            return _Msg(("unload", next(self._ids), slot))

        for index in range(self.replicas):
            try:
                self.pool.call(index, unload_builder)
            except Exception:
                pass  # hygiene only; a dead replica reloads nothing anyway

    @property
    def slots(self) -> List[Any]:
        with self._lock:
            return list(self._loads)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run_batch(self, slot: Any, items: Sequence[Any]) -> List[Any]:
        """Run one micro-batch on the next free replica.

        Blocks while the whole fleet is busy — upstream of this sits the
        batcher's bounded queue, which is where overload turns into
        explicit backpressure instead of unbounded waiting.
        """
        payload = list(items)

        def builder(actor) -> _Msg:
            return _Msg(("batch", next(self._ids), slot, payload))

        index = self._free.get()
        try:
            result, _meta = self.pool.call(index, builder)
        finally:
            self._free.put(index)
        with self._lock:
            self.batches += 1
            self.batched_items += len(payload)
        return result

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def restarts(self) -> int:
        return self.pool.counters["restarts"]

    def stats(self) -> Dict[str, float]:
        with self._lock:
            batches, items = self.batches, self.batched_items
        return {
            "replicas": float(self.replicas),
            "replica_batches": float(batches),
            "replica_items": float(items),
            "replica_restarts": float(self.restarts),
        }

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown()

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(replicas={self.replicas}, "
            f"slots={len(self._loads)}, batches={self.batches})"
        )
