"""ModelServer: online inference over compiled plans.

The server owns a registry of named models with explicit versions.  Each
registered version is compiled once (:mod:`repro.serving.compiler`),
optionally warmed (op micro-profile + cost-model cache selection), and
given its own micro-batcher — so :meth:`deploy` is a *warm swap*: the new
version is already compiled and serving-ready before the default-version
pointer moves, and in-flight requests against the old version drain
unaffected.

Request path (:meth:`submit` / :meth:`predict`) — there is one:

1. resolve the model version (default or pinned),
2. fingerprint the item when a serving cache is configured; a cached
   sink output answers immediately without touching the queue,
3. otherwise enqueue into the version's micro-batcher, whose flushes
   run the kernel-lowered plan (``VectorizePass``) — byte-identical to
   ``fitted.apply`` per item, raw score vectors included,
4. a completion callback records end-to-end latency and errors, and
   feeds the SLO controller when one is configured.

Three scale-out layers are opt-in on top of this path:

- ``replicas=N`` runs the compiled plans in N persistent worker
  *processes* (:mod:`repro.serving.replicas`): batches collected by each
  version's micro-batcher dispatch to free replicas, the serving cache
  stays parent-side (content keys are process-independent, so any
  replica's work answers fleet-wide repeats), and replica death recovers
  through the actor pool's bounded respawn with model-load replay.
- ``slo_target_p99_ms=X`` attaches an
  :class:`~repro.serving.batcher.SLOController` per registered version:
  batch limit and flush delay become a feedback loop on observed tail
  latency instead of static knobs.
- ``shed_watermarks={priority: queue fraction}`` degrades low-priority
  traffic (:class:`~repro.serving.batcher.RequestShedError`) before the
  queue fills for everyone; ``submit``/``predict`` take ``priority=``.

:meth:`stats` snapshots the whole fleet — per-model p50/p95/p99 latency,
throughput, queue depth, batch-size distribution, cache hit rate, shed
counts, replica health, and the controller's effective limits.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.program import INPUT
from repro.obs import trace as obs_trace
from repro.serving.batcher import (
    NORMAL,
    MicroBatcher,
    ServerOverloadedError,
    SLOController,
)
from repro.serving.cache import (
    ServingCache,
    choose_serving_cache_set,
    fingerprint,
)
from repro.serving.compiler import InferencePlan, compile_inference_plan
from repro.serving.metrics import LatencyRecorder, ModelStats, ServerStats


class ServedModel:
    """One registered (name, version): compiled plan + batcher + metrics."""

    def __init__(self, name: str, version: str, fitted,
                 plan: InferencePlan, batcher: MicroBatcher,
                 cache: Optional[ServingCache], replica_set=None):
        self.name = name
        self.version = version
        self.fitted = fitted
        self.plan = plan
        self.batcher = batcher
        self.cache = cache
        self.controller: Optional[SLOController] = batcher.controller
        #: the server-owned ReplicaSet executing this version's batches
        #: (None when serving in-process)
        self.replica_set = replica_set
        self.latency = LatencyRecorder()

    @property
    def key(self) -> str:
        return f"{self.name}@{self.version}"

    def stats(self) -> ModelStats:
        p50, p95, p99 = (self.latency.percentile(q) * 1000.0
                         for q in (0.50, 0.95, 0.99))
        batcher = self.batcher
        out = ModelStats(
            name=self.name, version=self.version,
            requests=self.latency.count, errors=self.latency.errors,
            throughput_rps=self.latency.throughput_rps,
            mean_ms=self.latency.mean_seconds * 1000.0,
            p50_ms=p50, p95_ms=p95, p99_ms=p99,
            queue_depth=batcher.queue_depth, batches=batcher.batches,
            mean_batch_size=batcher.mean_batch_size,
            max_batch_size=batcher.max_batch_seen,
            shed_requests=batcher.shed_requests,
            plan_ops=len(self.plan),
            cached_nodes=len(self.plan.cached_slots))
        if self.controller is not None:
            snap = self.controller.snapshot()
            out.slo_target_p99_ms = snap["target_p99_ms"]
            out.effective_batch = snap["batch_limit"]
            out.effective_delay_ms = snap["delay_ms"]
            out.slo_adjustments = int(snap["adjustments"])
            out.slo_pressure_events = int(snap["pressure_events"])
        if self.replica_set is not None:
            out.replicas = self.replica_set.replicas
            out.replica_batches = self.replica_set.batches
            out.replica_restarts = self.replica_set.restarts
        if self.cache is not None:
            out.cache_hits = self.cache.hits
            out.cache_misses = self.cache.misses
            out.cache_hit_rate = self.cache.hit_rate
            out.cache_entries = len(self.cache)
            out.cache_used_bytes = self.cache.used_bytes
        return out


class ModelServer:
    """Multi-model online serving with micro-batching and a serving cache.

    Every request is a pre-queue cache hit or a row of a micro-batch
    over the version's kernel-lowered plan
    (:class:`~repro.core.program.VectorizePass`): runs of kernel-capable
    ops execute as columnar numpy kernels, byte-identical to
    ``fitted.apply`` per item (raw score vectors included).

    Construction knobs (the cache pair is overridable per
    :meth:`register` call):

    - ``max_batch`` / ``max_delay_ms`` / ``max_queue`` — the dynamic
      micro-batching policy and the bounded-queue backpressure limit.
    - ``cache_budget_bytes`` — per-model serving-cache budget; 0 disables
      the cache.  With warmup items the cached ops are selected by the
      optimizer's greedy cost model (see :mod:`repro.serving.cache`);
      without warmup every op is cache-marked and the budgeted LRU
      decides what stays.  All versions registered under one name share
      one content-addressed cache (created with the first cache-enabled
      registration's budget), so versions sharing a featurization prefix
      share the prefix's entries — and the cache hit/miss counters.
    - ``expected_reuse`` — modelled requests per distinct input, the
      serving analogue of the materialization weight.
    - ``replicas`` — 0 serves in-process (the default); N >= 1 executes
      every version's batches on a fleet of N persistent worker
      processes; the processes spawn lazily at the first ``register()``.
    - ``slo_target_p99_ms`` — attach a per-version
      :class:`~repro.serving.batcher.SLOController` steering the
      effective batch limit and flush delay toward this p99 target
      (``max_batch``/``max_delay_ms`` stay hard bounds).
    - ``shed_watermarks`` — priority-tier load shedding map
      ``{priority: queue fraction}``; see :mod:`repro.serving.batcher`.
    """

    def __init__(self, max_batch: int = 32, max_delay_ms: float = 2.0,
                 max_queue: int = 1024, cache_budget_bytes: float = 0.0,
                 expected_reuse: float = 4.0, replicas: int = 0,
                 slo_target_p99_ms: Optional[float] = None,
                 shed_watermarks: Optional[Mapping[int, float]] = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0, got "
                             f"{cache_budget_bytes}")
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self.max_queue = max_queue
        self.cache_budget_bytes = cache_budget_bytes
        self.expected_reuse = expected_reuse
        self.replicas = replicas
        self.slo_target_p99_ms = slo_target_p99_ms
        self.shed_watermarks = (dict(shed_watermarks)
                                if shed_watermarks else None)
        self._replica_set = None  # lazy: spawned at first register()
        self._lock = threading.RLock()
        self._versions: Dict[str, Dict[str, ServedModel]] = {}
        self._default_version: Dict[str, str] = {}
        #: one content-addressed cache per model *name*, shared by all of
        #: its registered versions (the cross-version prefix reuse)
        self._caches: Dict[str, ServingCache] = {}
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, name: str, fitted, version: str = "v1",
                 warmup_items: Optional[Sequence[Any]] = None,
                 cache_budget_bytes: Optional[float] = None,
                 expected_reuse: Optional[float] = None,
                 deploy: Optional[bool] = None) -> ServedModel:
        """Compile and (optionally) warm a model version for serving.

        The first version registered under ``name`` becomes the default;
        later versions stay warm but undeployed until :meth:`deploy`
        (or ``deploy=True``) moves the pointer.  The served plan is
        always kernel-lowered; replicas inherit the rewritten program
        automatically (the pickled ``OpProgram`` carries the kernel
        stages).
        """
        budget = (self.cache_budget_bytes if cache_budget_bytes is None
                  else cache_budget_bytes)
        reuse = (self.expected_reuse if expected_reuse is None
                 else expected_reuse)
        plan = compile_inference_plan(fitted, vectorize=budget <= 0)

        node_ids = set()
        if budget > 0:
            # Select the cache set on the interpreter plan: the cost
            # model ranks *individual* ops, and the selection must see
            # every intermediate before any folding hides it.
            if warmup_items:
                plan.profile_ops(warmup_items)
                node_ids = choose_serving_cache_set(
                    fitted, plan, budget, expected_reuse=reuse)
            else:
                # No measurements to rank ops: mark everything and let
                # the budgeted LRU keep what earns its bytes.
                node_ids = {op.node_id for op in plan.ops
                            if op.kind != INPUT}
            # Re-lower with every cache-marked op pinned as a stage
            # boundary: a marked op may end a kernel stage (the stage
            # output is its value, under its key) but never disappears
            # into one — so the cache, including prefix entries shared
            # with sibling versions, keeps its read and write points
            # after the rewrite.
            plan = compile_inference_plan(
                fitted, vectorize=True,
                vectorize_boundaries={plan.key_of(nid) for nid in node_ids})

        replica_set = None
        if self.replicas:
            replica_set = self._ensure_replicas()
            slot = f"{name}:{version}"
            # Ship the lowered, process-independent program to the fleet
            # (registered as a setup message: respawned replicas reload
            # every model before retrying work).
            replica_set.load(slot, plan.program)

            def run(payloads: List[Any], _plan=plan, _slot=slot,
                    _fleet=replica_set) -> List[Any]:
                items = [item for item, _fp in payloads]
                results = _fleet.run_batch(_slot, items)
                # The serving cache lives parent-side; insert sink
                # outputs so any replica's work answers fleet-wide
                # repeats through the pre-queue fast path.
                cache = _plan.cache
                if cache is not None and _plan.sink_slot in _plan.cached_slots:
                    sink_key = _plan.ops[_plan.sink_slot].key
                    for (_item, fp), value in zip(payloads, results):
                        if fp is not None:
                            cache.put(sink_key, fp, value)
                return results
        else:
            def run(payloads: List[Any], _plan=plan) -> List[Any]:
                items = [item for item, _fp in payloads]
                fps = ([fp for _item, fp in payloads]
                       if _plan.cache is not None else None)
                # submit() already counted each payload's sink probe.
                return _plan.run_batch(items, fps, sink_probed=True)

        controller = None
        if self.slo_target_p99_ms is not None:
            controller = SLOController(
                self.slo_target_p99_ms,
                max_batch=self.max_batch,
                max_delay_ms=self.max_delay_ms)
        batcher = MicroBatcher(
            run, max_batch=self.max_batch,
            max_delay_ms=self.max_delay_ms, max_queue=self.max_queue,
            name=f"{name}@{version}",
            controller=controller,
            shed_watermarks=self.shed_watermarks,
            # one in-flight batch per replica saturates the fleet
            concurrency=max(self.replicas, 1))

        model = ServedModel(name, version, fitted, plan, batcher, None,
                            replica_set=replica_set)
        # One critical section covers the sibling scan, the cache attach
        # and the registry insertion: two concurrent register() calls for
        # one name must see each other, or the shared featurization
        # prefix would never be cross-marked.
        with self._lock:
            if budget > 0:
                # A lowering pass may have rewritten the compiled plan:
                # only surviving ops have addressable keys.
                known = plan.program.node_ids
                keys = {plan.key_of(nid) for nid in node_ids
                        if nid in known}
                # Ops whose content keys also appear in a sibling
                # version's plan are shared work (the featurization
                # prefix): they have cross-version reuse the
                # single-version cost model cannot see, so mark them in
                # the shared cache regardless of the greedy selection.
                siblings = [m for m in self._versions.get(name, {}).values()
                            if m.version != version and m.cache is not None]
                if siblings:
                    own = {op.key for op in plan.ops
                           if op.kind != INPUT}
                    for sibling in siblings:
                        keys |= own & {op.key for op in sibling.plan.ops}
                if keys:
                    # Versions of one name share one content-addressed
                    # cache: equal op keys answer across versions;
                    # version-specific ops never collide.
                    cache = self._caches.get(name)
                    if cache is None:
                        cache = ServingCache(budget, keys)
                        self._caches[name] = cache
                    else:
                        cache.add_keys(keys)
                    # Siblings re-attach so newly shared keys are marked
                    # on their compiled plans too.
                    for sibling in siblings:
                        if sibling.cache is cache:
                            sibling.plan.attach_cache(cache)
                    plan.attach_cache(cache)
                    model.cache = cache
            versions = self._versions.setdefault(name, {})
            displaced = versions.get(version)
            versions[version] = model
            make_default = (deploy if deploy is not None
                            else name not in self._default_version)
            if make_default:
                self._default_version[name] = version
            if self._started:
                batcher.start()
        if displaced is not None:
            # Re-registering a live (name, version) must not leak the old
            # worker thread; its queued requests drain first.
            displaced.batcher.stop()
        return model

    def _ensure_replicas(self):
        """Spawn the server-owned replica fleet on first use."""
        with self._lock:
            if self._replica_set is None:
                from repro.serving.replicas import ReplicaSet

                self._replica_set = ReplicaSet(self.replicas)
            return self._replica_set

    def deploy(self, name: str, version: str) -> ServedModel:
        """Warm-swap the default version of ``name`` (already compiled)."""
        with self._lock:
            model = self._resolve(name, version)
            self._default_version[name] = version
            return model

    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def versions(self, name: str) -> List[str]:
        with self._lock:
            if name not in self._versions:
                raise KeyError(f"no model registered under {name!r}")
            return sorted(self._versions[name])

    def default_version(self, name: str) -> str:
        with self._lock:
            if name not in self._default_version:
                raise KeyError(f"no model registered under {name!r}")
            return self._default_version[name]

    def _resolve(self, name: str,
                 version: Optional[str] = None) -> ServedModel:
        with self._lock:
            if name not in self._versions:
                raise KeyError(
                    f"no model registered under {name!r}; registered: "
                    f"{sorted(self._versions)}")
            version = version or self._default_version.get(name)
            if version is None:
                raise KeyError(
                    f"model {name!r} has no deployed version (all were "
                    f"registered with deploy=False); deploy() one of "
                    f"{sorted(self._versions[name])}")
            try:
                return self._versions[name][version]
            except KeyError:
                raise KeyError(
                    f"model {name!r} has no version {version!r}; "
                    f"registered: {sorted(self._versions[name])}") from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ModelServer":
        with self._lock:
            self._started = True
            self._stopped = False
            for versions in self._versions.values():
                for model in versions.values():
                    model.batcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        with self._lock:
            self._started = False
            self._stopped = True
            batchers = [model.batcher
                        for versions in self._versions.values()
                        for model in versions.values()]
        for batcher in batchers:
            batcher.stop(drain=drain)

    def close(self) -> None:
        """Stop serving and shut the replica fleet down (terminal).

        :meth:`stop` keeps the server restartable (its batchers respawn
        on :meth:`start`); ``close`` additionally terminates the replica
        processes, so a replica server should always be closed when
        done.  Idempotent; in-process servers just stop.
        """
        self.stop()
        with self._lock:
            fleet, self._replica_set = self._replica_set, None
        if fleet is not None:
            fleet.shutdown()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self.replicas:
            self.close()
        else:
            self.stop()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def submit(self, name: str, item: Any,
               version: Optional[str] = None,
               priority: int = NORMAL) -> Future:
        """Enqueue one request; returns a Future of the prediction.

        A cached sink output resolves the Future before this returns;
        every other request joins the version's micro-batcher.
        ``priority`` (smaller = more important; see
        :data:`repro.serving.batcher.HIGH` / ``NORMAL`` / ``LOW``) only
        matters when the server was built with ``shed_watermarks``:
        above a tier's queue watermark its requests raise
        :class:`~repro.serving.batcher.RequestShedError` instead of
        queuing — cache hits are never shed.
        """
        if self._stopped:
            # Checked before the cache fast path too: a stopped server
            # must not keep answering hits while rejecting misses.
            raise ServerOverloadedError(
                "server is stopped; call start() to serve again")
        model = self._resolve(name, version)
        start = time.perf_counter()
        fp = None
        if model.cache is not None:
            fp = fingerprint(item)
            hit, value = model.plan.cached_result(fp)
            if hit:
                fut: Future = Future()
                fut.set_result(value)
                model.latency.record(time.perf_counter() - start)
                obs_trace.event(
                    "serve.cache_hit", cat="cache",
                    key=model.plan.ops[model.plan.sink_slot].key or None,
                    args={"model": model.key})
                return fut
        if not model.batcher.running:
            # Late start() on a never-started server is forgiven (an
            # unstarted batcher would park the request forever), but a
            # stopped server must reject, not resurrect its workers.
            with self._lock:
                if self._stopped:
                    raise ServerOverloadedError(
                        "server is stopped; call start() to serve again")
                model.batcher.start()
        fut = model.batcher.submit((item, fp), priority=priority)

        def _record(f: Future, _start=start, _model=model):
            seconds = time.perf_counter() - _start
            _model.latency.record(seconds,
                                  error=(not f.cancelled()
                                         and f.exception() is not None))
            if _model.controller is not None and not f.cancelled():
                # The feedback signal: end-to-end latency plus the queue
                # depth left behind, observed once per completed request.
                _model.controller.observe(
                    seconds, _model.batcher.queue_depth)

        fut.add_done_callback(_record)
        return fut

    def predict(self, name: str, item: Any, version: Optional[str] = None,
                timeout: Optional[float] = 60.0,
                priority: int = NORMAL) -> Any:
        """Synchronous single prediction (submit + wait)."""
        return self.submit(name, item, version=version,
                           priority=priority).result(timeout)

    def predict_many(self, name: str, items: Sequence[Any],
                     version: Optional[str] = None,
                     timeout: Optional[float] = 60.0,
                     priority: int = NORMAL) -> List[Any]:
        """Open-loop convenience: submit all items, then gather."""
        futures = [self.submit(name, item, version=version,
                               priority=priority)
                   for item in items]
        return [fut.result(timeout) for fut in futures]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def stats(self, name: Optional[str] = None,
              version: Optional[str] = None) -> ServerStats:
        """Snapshot serving metrics for one model or the whole fleet."""
        with self._lock:
            if name is not None:
                models = [self._resolve(name, version)]
            else:
                models = [model for versions in self._versions.values()
                          for model in versions.values()]
        return ServerStats(models={m.key: m.stats() for m in models})

    def __repr__(self) -> str:
        with self._lock:
            n = sum(len(v) for v in self._versions.values())
        return (f"ModelServer(models={n}, max_batch={self.max_batch}, "
                f"max_delay_ms={self.max_delay_ms})")


__all__ = ["ModelServer", "ServedModel", "ServerOverloadedError"]
