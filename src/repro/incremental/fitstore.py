"""FitStore: a byte-budgeted, pickle-backed store of fitted operator state.

The primitive under every consumer in :mod:`repro.incremental`: a
key-value store whose keys are the content-addressed *training keys* of
:func:`repro.core.program.training_keys` (fitted models, namespace
``fit:``) and the per-partition flow keys of
:func:`repro.core.program.partition_flow_keys` (sufficient statistics,
namespace ``pstats:``).  Because the keys digest operator structure and
training-data content, a hit is valid by construction — there is no
invalidation protocol, only lookup misses when anything upstream changed.

Values are stored as pickle blobs, not object references: the blob length
gives the exact byte cost charged against the budget, a ``get`` returns a
fresh unpickled copy (so a consumer mutating a fitted model or a merge
mutating a statistic can never corrupt the store), and persistence
(:meth:`save` / :meth:`load`) is the same bytes written to disk.  Budgeted
LRU eviction reuses the dataset layer's
:class:`~repro.dataset.cache.CacheManager` machinery: an over-budget
insert evicts least-recently-used entries first.

Degradation contract: a corrupt entry or a truncated/garbage store file
is *never* an error — a bad entry reads as a miss (and is dropped), a bad
file loads as an empty store — so the worst case of incremental training
is always a cold fit, never a crash or a stale splice.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.dataset.cache import CacheManager, LRUPolicy

PathLike = Union[str, Path]

#: on-disk format version written by :meth:`FitStore.save`
_FORMAT = 1

#: key namespaces: whole fitted models vs per-partition statistics
FIT_PREFIX = "fit:"
STATS_PREFIX = "pstats:"


class FitStore:
    """Byte-budgeted store of fitted operator state, keyed by training key.

    ``budget_bytes`` bounds the total pickled bytes retained; inserting
    past the budget evicts least-recently-used entries (an entry larger
    than the whole budget is rejected outright).  Thread-safe via the
    underlying :class:`~repro.dataset.cache.CacheManager` — fits running
    on different threads may share one store.
    """

    def __init__(self, budget_bytes: float = float("inf")):
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be > 0, got {budget_bytes}")
        self.manager = CacheManager(budget_bytes, LRUPolicy())

    # ------------------------------------------------------------------
    # Generic keyed access (pickle-blob values)
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """Return a fresh copy of the stored value, or ``None`` on miss.

        An entry whose blob no longer unpickles is dropped and reported
        as a miss — corruption degrades to recomputation, never to an
        error or a stale result.
        """
        boxed = self.manager.get(key)
        if boxed is None:
            return None
        try:
            return pickle.loads(boxed[0])
        except Exception:
            self.manager.invalidate(lambda k: k == key)
            return None

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; returns True when admitted.

        A value that cannot pickle is refused (returns False): the store
        only holds state it can also persist and copy out safely.
        """
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return self.manager.put(key, [blob], len(blob))

    def __contains__(self, key: str) -> bool:
        return self.manager.contains(key)

    # ------------------------------------------------------------------
    # Namespaced views: fitted models and per-partition statistics
    # ------------------------------------------------------------------
    def get_fit(self, training_key: str) -> Optional[Any]:
        """Stored fitted transformer for an estimator's training key."""
        return self.get(FIT_PREFIX + training_key)

    def put_fit(self, training_key: str, model: Any) -> bool:
        return self.put(FIT_PREFIX + training_key, model)

    def get_stats(self, partition_key: str) -> Optional[Any]:
        """Stored per-partition sufficient statistic (streaming refit)."""
        return self.get(STATS_PREFIX + partition_key)

    def put_stats(self, partition_key: str, stat: Any) -> bool:
        return self.put(STATS_PREFIX + partition_key, stat)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write every entry to ``path`` (LRU order preserved)."""
        with self.manager._lock:
            entries = [
                (entry.key, entry.value[0])
                for entry in self.manager.entries.values()
            ]
            budget = self.manager.budget
        doc = {"format": _FORMAT, "budget_bytes": budget, "entries": entries}
        with open(path, "wb") as f:
            pickle.dump(doc, f, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: PathLike, budget_bytes: Optional[float] = None) -> "FitStore":
        """Load a store saved by :meth:`save`; degrade to empty on damage.

        A missing, truncated or garbage file — or a file of the wrong
        shape entirely — returns an *empty* store (the caller's fits go
        cold), never raises.  Individual entries with non-string keys or
        non-bytes blobs are skipped.  ``budget_bytes`` overrides the
        saved budget.
        """
        entries: List[Tuple[str, bytes]] = []
        saved_budget: float = float("inf")
        try:
            with open(path, "rb") as f:
                doc = pickle.load(f)
            if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
                raise ValueError("unrecognized fit-store format")
            saved_budget = float(doc["budget_bytes"])
            for key, blob in doc["entries"]:
                if isinstance(key, str) and isinstance(blob, bytes):
                    entries.append((key, blob))
        except Exception:
            entries = []
            saved_budget = float("inf")
        store = cls(budget_bytes if budget_bytes is not None else saved_budget)
        for key, blob in entries:
            store.manager.put(key, [blob], len(blob))
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        with self.manager._lock:
            return iter(list(self.manager.entries))

    @property
    def hits(self) -> int:
        return self.manager.hits

    @property
    def misses(self) -> int:
        return self.manager.misses

    @property
    def evictions(self) -> int:
        return self.manager.evictions

    @property
    def used_bytes(self) -> int:
        return self.manager.used

    @property
    def budget_bytes(self) -> float:
        return self.manager.budget

    def __len__(self) -> int:
        return len(self.manager)

    def __repr__(self) -> str:
        return (
            f"FitStore(entries={len(self)}, used={self.used_bytes}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
