"""Pluggable execution backends for :meth:`PhysicalPlan.execute`.

One logical plan, several execution strategies — the KeystoneML premise
(and SparkCL's: one programming model lowered onto heterogeneous engines).
The protocol lives in :mod:`repro.core.backends.base`; four backends
ship:

- :class:`LocalBackend` — serial depth-first training (the default; the
  reference semantics every other backend must reproduce byte-for-byte).
- :class:`PipelinedBackend` — thread-pool scheduling that overlaps
  featurization of independent branches with solver iterations.
- :class:`ShardedBackend` — partitions the training flow across N
  simulated workers and prices per-shard stage times through the cluster
  simulator, opening the strong-scaling axis to *real* plans.
- :class:`ActorBackend` — actually executes shards in separate worker
  processes (spawn-safe, GIL-free) on the persistent-worker runtime
  (:mod:`repro.runtime`): merges per-shard sufficient statistics where
  estimators support it and gathers featurized shards otherwise;
  long-lived actors cache content-addressed shard state across
  estimators and fits, run iterative solvers in-worker, and recover
  from worker deaths with bounded respawn.

:class:`ProcessPoolBackend` (``"process"``) and
:func:`shutdown_worker_pools` are the historical names of the
multi-process backend, kept as aliases of :class:`ActorBackend` and
:func:`shutdown_actor_pools`.

Selection threads through the public API: ``plan.execute(backend=...)``,
``Pipeline.fit(backend=...)`` and ``FittedPipeline.apply`` /
``apply_dataset`` all accept an instance, a registry name from
:data:`BACKENDS` (``"local" | "pipelined" | "sharded" | "process" |
"actors"``), or ``None`` for the default.
``plan.execute(backend="auto")`` additionally honours the backend a
``ShardingPass(workers="auto")`` recommended.
"""

from repro.core.backends.actors import ActorBackend, ProcessPoolBackend
from repro.core.backends.base import (
    ExecutionBackend,
    TrainingSession,
    recursive_apply_item,
)
from repro.core.backends.local import LocalBackend
from repro.core.backends.pipelined import PipelinedBackend
from repro.core.backends.sharded import ShardedBackend, plan_scaling_sweep
from repro.runtime.pool import shutdown_actor_pools

#: historical name: the actor pool is the only worker pool there is
shutdown_worker_pools = shutdown_actor_pools

#: registry of backend names accepted wherever ``backend=`` is
BACKENDS = {
    LocalBackend.name: LocalBackend,
    PipelinedBackend.name: PipelinedBackend,
    ShardedBackend.name: ShardedBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
    ActorBackend.name: ActorBackend,
}


#: stateless default shared by every ``backend=None`` call site
_DEFAULT_BACKEND = LocalBackend()


def resolve_backend(backend=None) -> ExecutionBackend:
    """Turn a ``backend=`` argument into an :class:`ExecutionBackend`.

    Accepts ``None`` (the default :class:`LocalBackend`), a backend
    instance, or a registry name from :data:`BACKENDS`.
    """
    if backend is None:
        return _DEFAULT_BACKEND
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]()
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
            ) from None
    raise TypeError(
        "backend must be None, a backend name, or an "
        f"ExecutionBackend instance; got {type(backend).__name__}"
    )


__all__ = [
    "ActorBackend",
    "BACKENDS",
    "ExecutionBackend",
    "LocalBackend",
    "PipelinedBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "TrainingSession",
    "plan_scaling_sweep",
    "recursive_apply_item",
    "resolve_backend",
    "shutdown_actor_pools",
    "shutdown_worker_pools",
]
