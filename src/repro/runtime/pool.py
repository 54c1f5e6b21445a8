"""ActorPool: long-lived stateful workers with bounded fault recovery.

The only process-pool manager in the tree (training backends and the
serving replica tier both run on it).  Where a stateless executor pool
gives anonymous task slots, the actor pool gives *named* workers that
keep shard state between tasks — the parent addresses worker ``i``
deliberately because worker ``i`` holds chunk ``i``'s featurized
partitions.  That changes
the failure story: a dead stateless worker is replaced invisibly, but a
dead actor takes its cache and any staged iterative state with it.  The
pool therefore:

- mirrors every actor's cache contents parent-side (``holds``): each
  "run" reply reports the keys the actor's cache holds, and the mirror
  is set to that report, so message builders can skip re-shipping data
  an actor already has;
- detects death (pipe EOF / liveness poll) and a wedged task (per-task
  timeout), respawns the process bounded by ``max_restarts`` per actor,
  clears the mirror, replays the registered *setup* messages (rebuilding
  staged iterative state), and retries the in-flight message once —
  message builders are closures over the mirror, so a retry after a
  respawn automatically ships everything again;
- accounts restarts, cache hits/misses, and bytes shipped vs. mapped in
  :attr:`counters` for the :class:`~repro.core.executor.TrainingReport`.

Message builders are functions ``builder(actor) -> _Msg`` evaluated at
send time (and re-evaluated on retry) so they can consult the actor's
current mirror.  Pools are shared per configuration across backend
instances — persistent workers are the whole point — and torn down via
:func:`shutdown_actor_pools`.

Two driving styles share one fault-recovery path:

- :meth:`ActorPool.wave` — lockstep: one message per actor, collect all
  replies before returning.  The training backends use it (a shard wave
  is a barrier by nature).
- :meth:`ActorPool.call` — one request/reply against one actor, locked
  per actor so calls against *different* actors proceed concurrently.
  The serving replica tier uses it (batches overlap across replicas).

The worker entry point is pluggable (``main=``): the training backends
run :func:`repro.runtime.worker.actor_main`, the serving tier runs
:func:`repro.serving.replicas.replica_main` — same pool, same respawn
and setup-replay machinery, different message vocabulary.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import trace as obs_trace
from repro.runtime.worker import MissingShardState, actor_main


class _WorkerDied(Exception):
    """Internal: the actor process died or wedged mid-task."""


@dataclass
class _Msg:
    """One built message: payload, shm lifecycle, and transport accounting."""

    payload: Tuple
    #: ShipResults whose segments must live until the actor replies
    ships: List[Any] = field(default_factory=list)
    shipped_bytes: int = 0
    mapped_bytes: int = 0

    def release(self) -> None:
        for ship in self.ships:
            ship.release()
        self.ships = []


class _Actor:
    """One worker process plus the parent's mirror of its state."""

    def __init__(
        self, index: int, ctx, main: Callable = actor_main, name: str = "repro-actor"
    ):
        self.index = index
        self._ctx = ctx
        self._main = main
        self._name = name
        #: serializes per-actor request/reply cycles issued via call()
        self.lock = threading.Lock()
        #: keys ((op key, start, stop)) the actor last reported holding
        self.holds: Set[Tuple] = set()
        #: builders replayed after a respawn to rebuild staged state
        self.setup: List[Callable[["_Actor"], _Msg]] = []
        self.restarts = 0
        self.inflight: Optional[_Msg] = None
        self.proc = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.proc = self._ctx.Process(
            target=self._main,
            args=(child_conn,),
            name=f"{self._name}-{self.index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.holds.clear()

    def kill(self) -> None:
        if self.inflight is not None:
            self.inflight.release()
            self.inflight = None
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join(timeout=5.0)
            self.proc = None


class ActorPool:
    """A fixed-size pool of :class:`_Actor` workers (see module docs)."""

    def __init__(
        self,
        workers: int,
        *,
        task_timeout: Optional[float] = None,
        max_restarts: int = 2,
        main: Callable = actor_main,
        name: str = "repro-actor",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.task_timeout = task_timeout
        self.max_restarts = max_restarts
        self.counters: Dict[str, int] = {
            "restarts": 0,
            "hits": 0,
            "misses": 0,
            "shipped_bytes": 0,
            "mapped_bytes": 0,
        }
        # Always spawn: fork-safety is not assumed anywhere.
        ctx = multiprocessing.get_context("spawn")
        self.actors = [_Actor(i, ctx, main=main, name=name) for i in range(workers)]
        self._lock = threading.Lock()
        # call() runs concurrently across actors; counter increments in
        # _finish must not race (dict += is not atomic).
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Waves
    # ------------------------------------------------------------------
    def wave(
        self,
        tasks: Sequence[Tuple[int, Callable[[_Actor], _Msg]]],
        setup: bool = False,
    ) -> List[Tuple[Any, Dict]]:
        """Send one message per ``(actor index, builder)``, collect replies.

        Returns ``(result, meta)`` pairs in task order.  ``setup=True``
        registers each builder on its actor for replay after a respawn —
        use it for messages that create staged state later messages
        depend on (the first "run" wave of an iterative fit).  Worker-side task
        errors re-raise in the parent; worker death and timeouts recover
        through bounded respawn, surfacing ``RuntimeError`` only once an
        actor exhausts ``max_restarts``.

        Holds the pool lock (one wave at a time) plus each involved
        actor's lock in index order, so a wave never interleaves with
        concurrent :meth:`call` traffic against the same actors.
        """
        with ExitStack() as stack:
            stack.enter_context(self._lock)
            for index in sorted({index for index, _ in tasks}):
                stack.enter_context(self.actors[index].lock)
            dispatched = []
            try:
                for index, builder in tasks:
                    actor = self.actors[index]
                    if setup:
                        actor.setup.append(builder)
                    try:
                        self._send(actor, builder)
                        sent = True
                    except _WorkerDied:
                        sent = False  # recovered at collect time
                    dispatched.append((actor, builder, sent))
            except BaseException:
                # A builder or the payload pickling failed mid-dispatch
                # (ship error): drain the actors already sent to, or the
                # next wave would read their stale replies.
                self._drain(dispatched)
                raise
            results = []
            try:
                for actor, builder, sent in dispatched:
                    if not sent:
                        self._recover(actor, builder)
                    results.append(self._collect(actor, builder))
            except BaseException:
                self._drain(dispatched[len(results) + 1 :])
                raise
            return results

    def _drain(self, dispatched) -> None:
        """Best-effort consume outstanding replies after a wave failure."""
        for actor, _builder, sent in dispatched:
            if actor.inflight is None:
                continue
            if not sent:  # send failed: no reply coming, just release shm
                actor.inflight.release()
                actor.inflight = None
                continue
            try:
                self._finish(actor, self._recv(actor))
            except Exception:
                pass

    def end_task(self, task_id: int, indices: Sequence[int]) -> None:
        """Drop staged state for ``task_id`` (best effort) and the
        actors' replayable setup — the task is over either way."""

        def end_builder(actor: _Actor) -> _Msg:
            return _Msg(("end", task_id))

        with self._lock:
            for index in indices:
                actor = self.actors[index]
                with actor.lock:
                    actor.setup = []
                    try:
                        self._send(actor, end_builder)
                        self._finish(actor, self._recv(actor))
                    except Exception:
                        pass

    # ------------------------------------------------------------------
    # Single-actor calls
    # ------------------------------------------------------------------
    def call(
        self,
        index: int,
        builder: Callable[[_Actor], _Msg],
        setup: bool = False,
    ) -> Tuple[Any, Dict]:
        """One request/reply against actor ``index``; concurrency-safe.

        Unlike :meth:`wave`, only the *target actor's* lock is held, so
        calls against different actors from different threads overlap —
        the dispatch model of the serving replica tier, where batch N
        runs on replica A while batch N+1 runs on replica B.  The
        fault story is wave's: death/wedge recovers through bounded
        respawn with setup replay (``setup=True`` messages — e.g. a
        replica's model loads — are re-sent to a respawned worker before
        the failed message retries once).
        """
        actor = self.actors[index]
        with actor.lock:
            if setup:
                actor.setup.append(builder)
            try:
                self._send(actor, builder)
            except _WorkerDied:
                self._recover(actor, builder)
            return self._collect(actor, builder)

    # ------------------------------------------------------------------
    # Send / receive / recovery
    # ------------------------------------------------------------------
    def _send(self, actor: _Actor, builder) -> None:
        msg = builder(actor)
        actor.inflight = msg
        try:
            actor.conn.send(msg.payload)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise _WorkerDied(str(exc)) from None

    def _recv(self, actor: _Actor) -> Tuple:
        try:
            if self.task_timeout is not None:
                if not actor.conn.poll(self.task_timeout):
                    raise _WorkerDied(f"task timed out after {self.task_timeout}s")
            return actor.conn.recv()
        except (EOFError, ConnectionError, OSError) as exc:
            raise _WorkerDied(str(exc)) from None

    def _finish(self, actor: _Actor, reply: Tuple) -> Tuple[Any, Dict]:
        msg, actor.inflight = actor.inflight, None
        with self._counters_lock:
            self.counters["shipped_bytes"] += msg.shipped_bytes
            self.counters["mapped_bytes"] += msg.mapped_bytes
        msg.release()
        expected = msg.payload[1] if len(msg.payload) > 1 else None
        if expected is not None and reply[1] != expected:
            # A reply for a message we gave up on: the pipe is out of
            # sync with the protocol; only a respawn makes it clean.
            raise _WorkerDied(
                f"protocol desync (reply for task {reply[1]}, expected {expected})"
            )
        if reply[0] == "err":
            raise reply[2]
        _, _, result, meta = reply
        if "held" in meta:
            actor.holds = set(meta["held"])
        with self._counters_lock:
            self.counters["hits"] += meta.get("hits", 0)
            self.counters["misses"] += meta.get("misses", 0)
        return result, meta

    def _collect(self, actor: _Actor, builder) -> Tuple[Any, Dict]:
        try:
            return self._finish(actor, self._recv(actor))
        except _WorkerDied:
            self._recover(actor, builder)
        except MissingShardState:
            # The mirror drifted: clear it and retry with a full ship.
            actor.holds.clear()
            try:
                self._send(actor, builder)
            except _WorkerDied:
                self._recover(actor, builder)
        try:
            return self._finish(actor, self._recv(actor))
        except _WorkerDied as exc:
            actor.kill()
            raise RuntimeError(
                f"actor worker {actor.index} failed again after respawn: {exc}"
            ) from None

    def _recover(self, actor: _Actor, builder) -> None:
        """Respawn a dead/wedged actor, replay its setup, resend.

        Leaves the retried message in flight; the caller collects it.
        Raises ``RuntimeError`` when the actor is out of restarts or
        dies again while replaying.
        """
        with self._counters_lock:
            self.counters["restarts"] += 1
        actor.restarts += 1
        obs_trace.event(
            "worker_restart",
            cat="fault",
            args={"worker": actor.index, "restarts": actor.restarts},
        )
        if actor.restarts > self.max_restarts:
            actor.kill()
            raise RuntimeError(
                f"actor worker {actor.index} exceeded "
                f"max_restarts={self.max_restarts}; giving up"
            )
        actor.kill()
        actor.spawn()
        try:
            for setup_builder in actor.setup:
                if setup_builder is builder:
                    continue  # the failed message itself: resent below
                self._send(actor, setup_builder)
                self._finish(actor, self._recv(actor))
            self._send(actor, builder)
        except _WorkerDied as exc:
            actor.kill()
            raise RuntimeError(
                f"actor worker {actor.index} died again during recovery: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for actor in self.actors:
            try:
                if actor.conn is not None:
                    actor.conn.send(("shutdown",))
            except Exception:
                pass
        for actor in self.actors:
            actor.kill()

    def __repr__(self) -> str:
        return (
            f"ActorPool(workers={self.workers}, "
            f"task_timeout={self.task_timeout}, "
            f"max_restarts={self.max_restarts})"
        )


# ----------------------------------------------------------------------
# Shared pools
# ----------------------------------------------------------------------
#
# Cross-fit shard-state reuse only happens if the *same* workers serve
# both fits, so pools are shared per configuration across backend
# instances (process spawn + numpy import per worker is also too
# expensive to pay per fit).

_POOL_LOCK = threading.Lock()
_POOLS: Dict[Tuple, ActorPool] = {}


def shared_actor_pool(
    workers: int, *, task_timeout: Optional[float] = None, max_restarts: int = 2
) -> ActorPool:
    key = (workers, task_timeout, max_restarts)
    with _POOL_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = ActorPool(
                workers, task_timeout=task_timeout, max_restarts=max_restarts
            )
            _POOLS[key] = pool
        return pool


def shutdown_actor_pools() -> None:
    """Shut down every shared actor pool (tests, interpreter teardown)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()
