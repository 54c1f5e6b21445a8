"""Online model serving: compiled plans, micro-batching, serving cache.

The training side of this repo optimizes pipelines for *fit* throughput;
this package is the inference side — the production path the ROADMAP's
"heavy traffic" north star needs:

- :mod:`repro.serving.compiler` — lower a trained
  :class:`~repro.core.pipeline.FittedPipeline` into a flat
  :class:`InferencePlan` (no per-request graph walks; fused stages stay
  fused).
- :mod:`repro.serving.batcher` — dynamic micro-batching (flush on
  ``max_batch`` or ``max_delay_ms``) over a bounded queue, with an
  optional SLO feedback controller (:class:`SLOController`) and
  priority-tier load shedding (:class:`RequestShedError`).
- :mod:`repro.serving.cache` — the paper's cost-model cache selection
  re-aimed at cross-request reuse, keyed by input fingerprint with LRU
  eviction under a byte budget.
- :mod:`repro.serving.server` — :class:`ModelServer`: a multi-model
  registry with named versions, warm swap, and ``stats()`` reporting
  latency percentiles, throughput, queue depth and cache hit rate.
- :mod:`repro.serving.replicas` — the multi-process tier:
  :class:`ReplicaSet` ships compiled programs to persistent worker
  processes (``ModelServer(replicas=N)``) over the actor-pool runtime.
- :mod:`repro.serving.async_server` — :class:`AsyncModelServer`, the
  asyncio front-end (in-flight requests cost coroutines, not threads).
- :mod:`repro.serving.metrics` — the counters behind ``stats()``.

Quickstart::

    from repro.serving import ModelServer

    server = ModelServer(max_batch=64, max_delay_ms=2.0,
                         cache_budget_bytes=256e6)
    with server:
        server.register("reviews", fitted, version="v1",
                        warmup_items=sample_docs)
        label = server.predict("reviews", "great product, love it")
        print(server.stats().describe())

``docs/SERVING.md`` has the full knob reference.
"""

from repro.serving.async_server import AsyncModelServer
from repro.serving.batcher import (
    HIGH,
    LOW,
    NORMAL,
    MicroBatcher,
    RequestShedError,
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
from repro.serving.replicas import ReplicaSet
from repro.serving.server import ModelServer, ServedModel

__all__ = [
    "HIGH",
    "LOW",
    "NORMAL",
    "AsyncModelServer",
    "InferencePlan",
    "LatencyRecorder",
    "MicroBatcher",
    "ModelServer",
    "ModelStats",
    "ReplicaSet",
    "RequestShedError",
    "SLOController",
    "ServedModel",
    "ServerOverloadedError",
    "ServerStats",
    "ServingCache",
    "choose_serving_cache_set",
    "compile_inference_plan",
    "fingerprint",
]
