"""The actor runtime: persistent stateful workers for training execution.

The paper's cluster story (Fig. 12) keeps data resident on executors
while the driver coordinates cheap reductions.  This package is that
runtime layer in miniature:

- :mod:`repro.runtime.pool` — :class:`ActorPool`, long-lived spawn-safe
  worker processes with parent-side cache mirroring, death detection,
  bounded respawn and per-task timeout/retry;
- :mod:`repro.runtime.worker` — the in-worker loop: a byte-budgeted
  :class:`~repro.dataset.cache.CacheManager` of shard state keyed by the
  content-addressed op keys of :mod:`repro.core.program` (featurized
  shards reused across estimators *and across fits*), plus in-worker
  iterative solving through the
  :class:`~repro.core.operators.IterativeShardableEstimator` protocol;
- :mod:`repro.runtime.transport` — zero-copy numpy shipping via
  pickle-5 out-of-band buffers and ``multiprocessing.shared_memory``.

The :class:`~repro.core.backends.actors.ActorBackend` drives it from
``plan.execute(backend="actors")``.
"""

from repro.runtime.pool import (
    ActorPool,
    shared_actor_pool,
    shutdown_actor_pools,
)
from repro.runtime.worker import (
    DEFAULT_STATE_BUDGET,
    MissingShardState,
)

__all__ = [
    "ActorPool",
    "DEFAULT_STATE_BUDGET",
    "MissingShardState",
    "shared_actor_pool",
    "shutdown_actor_pools",
]
