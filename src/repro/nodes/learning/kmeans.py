"""K-Means (Lloyd's algorithm) over dataset partitions.

Used by the CIFAR pipeline to learn convolution filters from whitened
patches (Coates & Ng) and as the initializer for the GMM estimator.  Each
iteration streams the partitions once, so it is :class:`Iterative` with
``weight = max_iter`` for the materialization cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.operators import (
    Estimator,
    Iterative,
    IterativeShardableEstimator,
    Transformer,
)
from repro.dataset.rows import rows_to_block


def _dense(block) -> np.ndarray:
    import scipy.sparse as sp

    return np.asarray(block.todense()) if sp.issparse(block) else block


def kmeans_fit_array(data: np.ndarray, k: int, max_iter: int,
                     seed: int = 0, tol: float = 1e-6) -> np.ndarray:
    """Plain in-memory Lloyd's iterations; returns k x d centroids."""
    n = data.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)
    centroids = data[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(max_iter):
        d2 = (np.sum(data ** 2, axis=1, keepdims=True)
              - 2.0 * data @ centroids.T
              + np.sum(centroids ** 2, axis=1))
        assign = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = data[assign == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < tol:
            break
    return centroids


class ClusterAssigner(Transformer):
    """Maps a vector (or descriptor matrix) to nearest-centroid ids."""

    def __init__(self, centroids: np.ndarray):
        self.centroids = np.asarray(centroids)

    def apply(self, row):
        arr = np.atleast_2d(np.asarray(row, dtype=np.float64))
        d2 = (np.sum(arr ** 2, axis=1, keepdims=True)
              - 2.0 * arr @ self.centroids.T
              + np.sum(self.centroids ** 2, axis=1))
        assign = np.argmin(d2, axis=1)
        return int(assign[0]) if np.asarray(row).ndim == 1 else assign


@dataclass
class _KMeansState:
    """Driver-side solver state between passes."""

    centroids: np.ndarray
    iteration: int
    shift: Optional[float]


class KMeansEstimator(IterativeShardableEstimator, Estimator, Iterative):
    """Distributed-style Lloyd's: per-partition sufficient statistics.

    Rows may be vectors or descriptor matrices (stacked).  The fitted
    transformer assigns cluster ids; the learned ``centroids_`` are also
    consumed directly by filter-learning pipelines.

    Implements :class:`~repro.core.operators.IterativeShardableEstimator`:
    every pass reduces per-partition ``(sums, counts)`` statistics
    against the broadcast centroids, and ``fit`` runs the same state
    machine serially, so the actor runtime's in-worker passes are
    byte-identical by construction.
    """

    def __init__(self, k: int, max_iter: int = 20, seed: int = 0,
                 tol: float = 1e-6, init_sample: int = 10_000):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.max_iter = max_iter
        self.seed = seed
        self.tol = tol
        self.init_sample = max(init_sample, k)
        self.weight = max_iter
        self.centroids_: Optional[np.ndarray] = None

    # -- IterativeShardableEstimator protocol ---------------------------
    def init_stats(self, rows: List, label_rows=None):
        """Initialization samples ``k`` centroids from the dataset's
        leading ``init_sample`` rows, so at most that prefix (plus the
        full partition row count) ever ships.  A block truncated here is
        alone past ``init_sample`` rows, so the final ``[:init_sample]``
        in :meth:`init_state` never reads across the cut."""
        if not rows:
            return None
        block = _dense(rows_to_block(rows))
        return (block.shape[0], block[:self.init_sample])

    def init_state(self, partials: List) -> _KMeansState:
        blocks: List[np.ndarray] = []
        seen = 0
        for partial in partials:
            if partial is None:
                continue
            count, block = partial
            blocks.append(np.asarray(block))
            seen += count
            if seen >= self.init_sample:
                break
        stacked = np.vstack(blocks) if blocks else np.zeros((0, 0))
        sample = stacked[:self.init_sample]
        if sample.shape[0] < self.k:
            raise ValueError(f"need at least k={self.k} rows, got "
                             f"{sample.shape[0]}")
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(sample.shape[0], size=self.k, replace=False)
        return _KMeansState(sample[idx].copy(), 0, None)

    def pass_payload(self, state: _KMeansState) -> np.ndarray:
        return state.centroids

    def partition_pass_stats(self, payload: np.ndarray, rows: List,
                             label_rows=None
                             ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if not rows:
            return None
        centroids = payload
        block = _dense(rows_to_block(rows))
        d2 = (np.sum(block ** 2, axis=1, keepdims=True)
              - 2.0 * block @ centroids.T
              + np.sum(centroids ** 2, axis=1))
        assign = np.argmin(d2, axis=1)
        sums = np.zeros_like(centroids)
        counts = np.zeros(self.k)
        np.add.at(sums, assign, block)
        np.add.at(counts, assign, 1.0)
        return (sums, counts)

    def update_from_stats(self, state: _KMeansState,
                          partials: List) -> _KMeansState:
        centroids = state.centroids
        sums = np.zeros_like(centroids)
        counts = np.zeros(self.k)
        for partial in partials:
            if partial is None:
                continue
            sums += partial[0]
            counts += partial[1]
        new_centroids = centroids.copy()
        nonzero = counts > 0
        new_centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
        shift = float(np.max(np.abs(new_centroids - centroids)))
        return _KMeansState(new_centroids, state.iteration + 1, shift)

    def converged(self, state: _KMeansState) -> bool:
        if state.iteration >= self.max_iter:
            return True
        return state.shift is not None and state.shift < self.tol

    def finalize(self, state: _KMeansState) -> ClusterAssigner:
        self.centroids_ = state.centroids
        return ClusterAssigner(state.centroids)
