"""Latency-aware serving cache: the paper's cache selection, re-aimed.

Training-time materialization (paper Section 4.3) asks "which intermediates
are worth RAM, given how often the DAG re-reads them?".  Serving asks the
same question across *requests*: a production stream repeats inputs
(trending items, hot queries, retried calls), so memoizing the right
intermediate answers repeats without recomputing the pipeline.

:func:`choose_serving_cache_set` reuses the optimizer's machinery
verbatim: per-op costs and sizes measured by
:meth:`~repro.serving.compiler.InferencePlan.profile_ops` become a
:class:`~repro.core.profiler.PipelineProfile` over the inference DAG, and
:class:`~repro.core.materialization.MaterializationProblem` — with
``sink_requests`` set to the expected request count per distinct input —
feeds the same greedy Algorithm 1 that picks training cache sets.  A node
is selected when memoizing it (one execution per distinct input instead of
one per request) buys more modelled time than its bytes cost under the
budget.

At runtime :class:`ServingCache` holds the selected ops' outputs keyed by
``(op key, input fingerprint)`` in a byte-budgeted
:class:`~repro.dataset.cache.CacheManager` with plain LRU eviction — the
budgeted-eviction machinery the dataset layer already ships.  The op key
is the **content-addressed** structural fingerprint each lowered
:class:`~repro.core.program.Op` carries (operator state folded with its
input keys), not a per-DAG node id: two registered versions of a model
that share a featurization prefix produce equal keys for the prefix ops,
so one :class:`ServingCache` shared across the versions of a registry
entry answers version B's requests from intermediates version A computed.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Iterable, Set, Tuple

from repro.core.program import feed_basic
from repro.dataset.cache import CacheManager, LRUPolicy
from repro.dataset.sizing import estimate_size


# ----------------------------------------------------------------------
# Input fingerprints
# ----------------------------------------------------------------------

def fingerprint(item: Any) -> bytes:
    """Stable content digest of a request item (cache key half).

    Covers the request types the pipelines consume: strings, bytes,
    numbers, numpy arrays, scipy sparse rows, and (nested) sequences.
    Type and shape are folded in, so ``b"1"``, ``1`` and ``np.int64(1)``
    do not collide.  Unknown types raise ``TypeError`` — hashing
    ``repr()`` would fold in memory addresses, and an address reused
    after garbage collection would alias two different requests to one
    cache entry (a silent wrong answer); disable the serving cache to
    serve opaque item types.
    """
    h = hashlib.blake2b(digest_size=16)
    _feed(h, item)
    return h.digest()


def _feed(h, item: Any, memo=None) -> None:
    # The value grammar is shared with the op-key fingerprints of the
    # lowered IR (one injective hashing grammar, maintained once); only
    # the fallback differs — request items must be *refused*, since an
    # identity-ish hash of an opaque request could alias two different
    # requests to one cache entry after address reuse.
    if not feed_basic(h, item, memo, _feed):
        raise TypeError(
            f"cannot fingerprint a {type(item).__name__}: supported "
            "request types are str, bytes, numbers, numpy arrays, scipy "
            "sparse rows, and (nested) lists/tuples/dicts of those; "
            "disable the serving cache (cache_budget_bytes=0) for "
            "opaque item types")


# ----------------------------------------------------------------------
# Runtime cache
# ----------------------------------------------------------------------

class ServingCache:
    """Cross-request, cross-version memo of selected ops, LRU-budgeted.

    ``keys`` is the selected cache set: the content-addressed op keys
    (see :mod:`repro.core.program`) worth memoizing.  ``budget_bytes``
    bounds the total bytes retained across all entries.  One instance
    may back several compiled plans — the model-version sharing story —
    and each registration extends the selected set via :meth:`add_keys`.
    Values are stored by reference — pipeline outputs are treated as
    immutable, the same contract batch inference already relies on.
    Thread-safe via the underlying :class:`CacheManager` (plus a small
    lock over the mutable key set).
    """

    def __init__(self, budget_bytes: float, keys: Iterable[str] = ()):
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be > 0, got {budget_bytes}")
        self.manager = CacheManager(budget_bytes, LRUPolicy())
        self._keys = set(keys)
        self._keys_lock = threading.Lock()

    @property
    def keys(self) -> frozenset:
        """The selected op keys (snapshot)."""
        with self._keys_lock:
            return frozenset(self._keys)

    def add_keys(self, keys: Iterable[str]) -> None:
        """Extend the selected set (a later model version's selection).

        Already-attached plans keep their marked slots; re-attach a plan
        (:meth:`InferencePlan.attach_cache`) to pick up additions.
        """
        with self._keys_lock:
            self._keys.update(keys)

    def lookup(self, key: str, fp: bytes,
               count: bool = True) -> Tuple[bool, Any]:
        """Return ``(hit, value)`` for ``(op key, input fingerprint)``.

        ``count=False`` performs the lookup without hit/miss accounting
        — for re-probes of a key the caller already counted once for
        this request (e.g. the server's pre-queue sink check followed by
        the batch path's backward pass).
        """
        entry = (key, fp)
        boxed = self.manager.get(entry) if count else self.manager.peek(entry)
        if boxed is None:
            return False, None
        return True, boxed[0]

    def put(self, key: str, fp: bytes, value: Any) -> bool:
        # Boxed so legitimately-falsy outputs round-trip unambiguously.
        return self.manager.put((key, fp), [value],
                                estimate_size(value))

    @property
    def hits(self) -> int:
        return self.manager.hits

    @property
    def misses(self) -> int:
        return self.manager.misses

    @property
    def hit_rate(self) -> float:
        return self.manager.hit_rate

    @property
    def used_bytes(self) -> int:
        return self.manager.used

    @property
    def budget_bytes(self) -> float:
        return self.manager.budget

    def __len__(self) -> int:
        return len(self.manager)

    def __repr__(self) -> str:
        return (f"ServingCache(keys={len(self.keys)}, "
                f"entries={len(self)}, used={self.used_bytes}, "
                f"hit_rate={self.hit_rate:.2f})")


# ----------------------------------------------------------------------
# Cost-model cache-set selection
# ----------------------------------------------------------------------

def choose_serving_cache_set(fitted, plan, budget_bytes: float,
                             expected_reuse: float = 4.0) -> Set[int]:
    """Pick the inference nodes worth memoizing under the byte budget.

    ``plan`` must carry an op micro-profile
    (:meth:`InferencePlan.profile_ops`); ``expected_reuse`` is the
    modelled number of requests per distinct input (the serving analogue
    of the materialization weight).  Returns node ids of the fitted DAG.
    """
    from repro.core import graph as g
    from repro.core.materialization import (
        MaterializationProblem,
        greedy_cache_set,
    )
    from repro.core.profiler import NodeProfile, PipelineProfile

    if not plan.op_seconds:
        raise ValueError("inference plan is unprofiled: call "
                         "plan.profile_ops(sample_items) first")
    if expected_reuse <= 1.0:
        return set()

    slot_of = {op.node_id: op.slot for op in plan.ops}
    profile = PipelineProfile()
    for node in g.ancestors([fitted.sink]):
        slot = slot_of[node.id]
        profile.nodes[node.id] = NodeProfile(
            node=node,
            t_seconds=plan.op_seconds.get(slot, 0.0),
            size_bytes=plan.op_bytes.get(slot, 0.0),
            stats=None,
            weight=1)
    problem = MaterializationProblem([fitted.sink], profile,
                                     sink_requests=expected_reuse)
    return greedy_cache_set(problem, budget_bytes)
