"""The actor worker: a long-lived process holding content-keyed shard state.

One actor owns one contiguous chunk of training partitions per wave and
keeps everything it computes in a :class:`ShardStateCache` keyed by
``(op content key, chunk)`` — the content-addressed keys from
:mod:`repro.core.program` folded with the partition range.  Because op
keys digest the whole flow (dataset content through every operator's
fitted state), a cached shard is exactly reusable whenever *any* later
estimator — in this fit or the next one — lowers to the same flow
prefix over the same chunk: the parent ships nothing and the worker
recomputes nothing.

The message protocol (one pipe per actor, strictly request/reply):

- ``("run", task_id, blob, chunk, packed_sources, mode)`` — execute a
  pickled shard program over ``chunk``, serving ops from the cache where
  keys hit.  ``mode`` is ``"collect"`` (return featurized rows),
  ``"stats"`` (one-shot ``partition_stats`` per partition) or ``"init"``
  (stage the featurized partitions for iterative passes and return
  ``init_stats`` partials).
- ``("pass", task_id, payload)`` — one iterative pass: run
  ``partition_pass_stats(payload, ...)`` over the staged partitions.
- ``("end", task_id)`` — drop the staging area for a finished fit.
- ``("shutdown",)`` — exit the loop.

Replies are ``("ok", task_id, result, meta)`` or ``("err", task_id,
exception)``; ``meta`` carries per-node compute seconds, cache
hit/miss counts and the keys evicted since the last reply (the parent
mirrors the cache so it can skip re-shipping held sources).
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import interp
from repro.core import program as prog
from repro.obs import trace as obs_trace
from repro.runtime import transport

#: default worker-side budget for cached shard state
DEFAULT_STATE_BUDGET = 256 * 1024 * 1024


class MissingShardState(KeyError):
    """The parent assumed a shard was cached but the worker lacks it.

    Raised when a program needs a source the message did not ship and
    the cache does not hold — the parent's mirror drifted (e.g. an
    unreported eviction).  The pool recovers by clearing its mirror for
    the actor and re-sending with a full ship; it never fails the fit.
    """


def _rows_nbytes(parts: Sequence[list]) -> int:
    """Cheap size estimate of a chunk's partitions for the cache budget."""
    total = 0
    for rows in parts:
        for row in rows:
            total += getattr(row, "nbytes", 64)
    return total


class ShardStateCache:
    """LRU cache of computed shards, keyed ``(op key, start, stop)``.

    Eviction frees the Python row objects only: rows may be views into
    shared-memory segments that stay mapped for the process lifetime
    (see :mod:`repro.runtime.transport`), so the budget bounds *heap*
    growth, not address space.  Evicted keys accumulate in
    :attr:`evicted` until the reply loop drains them back to the parent.
    """

    def __init__(self, budget_bytes: int = DEFAULT_STATE_BUDGET):
        self.budget_bytes = budget_bytes
        self.hits = 0
        self.misses = 0
        self.evicted: List[Tuple] = []
        self._entries: OrderedDict[Tuple, Tuple[List[list], int]] = OrderedDict()
        self._bytes = 0

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def get(self, key: Tuple) -> List[list]:
        parts, _ = self._entries[key]
        self._entries.move_to_end(key)
        self.hits += 1
        return parts

    def put(self, key: Tuple, parts: List[list]) -> None:
        self.misses += 1
        if key in self._entries:
            _, old = self._entries.pop(key)
            self._bytes -= old
        size = _rows_nbytes(parts)
        self._entries[key] = (parts, size)
        self._bytes += size
        while self._bytes > self.budget_bytes and len(self._entries) > 1:
            old_key, (_, old_size) = self._entries.popitem(last=False)
            self._bytes -= old_size
            self.evicted.append(old_key)

    def drain_evicted(self) -> List[Tuple]:
        out, self.evicted = self.evicted, []
        return out


def shard_key(op: prog.Op, chunk: Tuple[int, int]) -> Optional[Tuple]:
    """Shard-cache key of ``op`` over ``chunk``; ``None`` if never cached.

    Unkeyed ops have no content identity and gathers are never cached
    (their zip is cheaper than the copy).  Both the parent (deciding what
    to ship, against its mirror) and the worker (deciding what to run,
    against the cache) probe :func:`repro.core.interp.liveness` with this
    key, so they agree whenever the parent's mirror is accurate.
    """
    if op.key and op.kind != prog.GATHER:
        return (op.key, *chunk)
    return None


def _run_task(
    blob: bytes,
    chunk: Tuple[int, int],
    sources: Dict[int, List[list]],
    mode: str,
    cache: ShardStateCache,
    staging: Dict[int, Tuple[Any, int, List[tuple]]],
    task_id: int,
    tracer: "obs_trace.Tracer | None" = None,
) -> Tuple[Dict[str, Any], Dict[int, float]]:
    """Execute one "run" message; returns ``(result, times)``.

    The shard program runs through :func:`repro.core.interp.evaluate` with
    the chunk as its single row (``CHUNK`` grain); this function supplies
    the shard-cache policy and the ``times``/span hook.  ``sources`` maps
    source node ids to their shipped partitions (only the ones the parent
    believed were not already cached); with a ``tracer``, each computed
    transform records one content-keyed span.
    """
    ops, out_slots, est_spec = pickle.loads(blob)
    start, stop = chunk
    count = stop - start
    targets = [slot for _, slot in out_slots]
    if est_spec is not None:
        targets.extend(est_spec[2])
    times: Dict[int, float] = {}

    def leaf(op: prog.Op) -> List[List[list]]:
        if op.node_id not in sources:
            raise MissingShardState(
                f"source {op.label!r} chunk {chunk} neither shipped nor cached"
            )
        return [sources[op.node_id]]

    def probe(op: prog.Op, _row: int) -> Tuple[bool, Any]:
        key = shard_key(op, chunk)
        if key is None or key not in cache:
            return False, None
        if tracer is not None:
            tracer.event(
                "shard_cache_hit",
                cat="cache",
                key=op.key,
                args={"node_id": op.node_id},
            )
        return True, cache.get(key)

    def store(op: prog.Op, _rows: Sequence[int], values: List[List[list]]) -> None:
        key = shard_key(op, chunk)
        if key is not None:
            cache.put(key, values[0])

    def on_op(op: prog.Op, seconds: float, _values: List[List[list]]) -> None:
        if op.kind != prog.TRANSFORM:
            return
        times[op.node_id] = times.get(op.node_id, 0.0) + seconds
        if tracer is not None:
            tracer.record(
                op.label,
                seconds=seconds,
                key=op.key or None,
                args={"node_id": op.node_id, "chunk": [start, stop]},
            )

    columns = interp.evaluate(ops, targets, 1, leaf, interp.CHUNK, probe, store, on_op)
    env = {slot: columns[slot][0] for slot in targets}
    result: Dict[str, Any] = {}
    if out_slots:
        result["rows"] = {name: env[slot] for name, slot in out_slots}
    if est_spec is not None:
        est_id, est_op, stat_slots = est_spec
        parts = [tuple(env[s][i] for s in stat_slots) for i in range(count)]
        if len(stat_slots) == 2:
            # The serial driver (fit_via_passes) validates feature/label
            # partition alignment row by row; raise its exact error here
            # so a misaligned flow fails identically on every backend.
            for offset, args in enumerate(parts):
                if len(args[0]) != len(args[1]):
                    raise ValueError(
                        f"partition {start + offset}: {len(args[0])} "
                        f"feature rows vs {len(args[1])} label rows"
                    )
        t0 = time.perf_counter()
        if mode == "init":
            staging[task_id] = (est_op, est_id, parts)
            result["stats"] = [est_op.init_stats(*args) for args in parts]
        else:
            result["stats"] = [est_op.partition_stats(*args) for args in parts]
        elapsed = time.perf_counter() - t0
        times[est_id] = times.get(est_id, 0.0) + elapsed
        if tracer is not None:
            tracer.record(
                f"{mode}:{type(est_op).__name__}",
                seconds=elapsed,
                args={"node_id": est_id},
            )
    return result, times


def actor_main(conn, state_budget_bytes: int = DEFAULT_STATE_BUDGET) -> None:
    """Actor process entry point (module-level, spawn-safe).

    Serves the message protocol until shutdown or pipe close.  Shared
    memory segments attached while unpacking sources are parked in
    ``segments`` for the process lifetime — cached rows may be views
    into them (the zero-copy contract of
    :mod:`repro.runtime.transport`).
    """
    segments: List[Any] = []
    _serve(conn, ShardStateCache(state_budget_bytes), segments)
    # Every row that can view a segment (cache, staging, the last
    # message) lived in _serve's frame and died with it, so the mappings
    # close cleanly here; left to SharedMemory.__del__ at exit they print
    # "BufferError: cannot close exported pointers exist".
    for segment in segments:
        segment.close()
    conn.close()


def _serve(conn, cache: ShardStateCache, segments: List[Any]) -> None:
    """The actor's request/reply loop; returns on shutdown or pipe close."""
    staging: Dict[int, Tuple[Any, int, List[tuple]]] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "shutdown":
            break
        task_id = msg[1]
        try:
            if msg[0] == "run":
                blob, chunk, packed_sources, mode = msg[2:6]
                # Optional trailing trace flag: parents only append it
                # when tracing is active, so the wire format is
                # unchanged for untraced runs.
                tracer = obs_trace.Tracer() if len(msg) > 6 and msg[6] else None
                sources, segs = transport.unpack(packed_sources)
                segments.extend(segs)
                result, times = _run_task(
                    blob, tuple(chunk), sources, mode, cache, staging, task_id, tracer
                )
                meta = {
                    "times": times,
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "evicted": cache.drain_evicted(),
                }
                if tracer is not None:
                    meta["spans"] = tracer.drain()
                cache.hits = cache.misses = 0
                conn.send(("ok", task_id, result, meta))
            elif msg[0] == "pass":
                payload = msg[2]
                tracer = obs_trace.Tracer() if len(msg) > 3 and msg[3] else None
                est_op, est_id, parts = staging[task_id]
                t0 = time.perf_counter()
                stats = [est_op.partition_pass_stats(payload, *args) for args in parts]
                elapsed = time.perf_counter() - t0
                meta = {
                    "times": {est_id: elapsed},
                    "hits": 0,
                    "misses": 0,
                    "evicted": cache.drain_evicted(),
                }
                if tracer is not None:
                    tracer.record(
                        f"pass:{type(est_op).__name__}",
                        seconds=elapsed,
                        args={"node_id": est_id},
                    )
                    meta["spans"] = tracer.drain()
                conn.send(("ok", task_id, stats, meta))
            elif msg[0] == "end":
                staging.pop(task_id, None)
                conn.send(("ok", task_id, None, {}))
            else:
                raise RuntimeError(f"unknown actor message {msg[0]!r}")
        except BaseException as exc:  # reply, never die on a task error
            try:
                conn.send(("err", task_id, exc))
            except Exception:
                safe_exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                conn.send(("err", task_id, safe_exc))
