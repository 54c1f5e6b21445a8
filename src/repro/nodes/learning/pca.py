"""PCA: one logical operator, four physical implementations (paper Table 2).

``PCAEstimator(k)`` produces a transformer projecting rows onto the top-k
principal components.  Physical options:

- ``LocalSVD`` — exact, collect + full SVD, O(n d^2).
- ``LocalTSVD`` — approximate randomized truncated SVD (Halko et al.),
  O(n d k).
- ``DistributedSVD`` — exact, Gram matrix via aggregation tree + local
  eigendecomposition, O(n d^2 / w) compute and O(d^2) network.
- ``DistributedTSVD`` — approximate randomized algorithm over partition
  blocks; O(n d k / w) compute and O(d k) network per pass.

The paper's Table 2 shows the crossovers: local wins small n, distributed
wins large n; truncated wins small k on wide data, exact wins when k
approaches d.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cost.model import CostModel
from repro.cost.profile import CostProfile
from repro.core.operators import (
    Estimator,
    Optimizable,
    ShardableEstimator,
    Transformer,
)
from repro.dataset.dataset import Dataset
from repro.dataset.rows import rows_to_block
from repro.nodes.learning._util import iter_blocks

DOUBLE = 8.0


class PCATransformer(Transformer):
    """Projects (centered) rows or descriptor matrices onto ``components``."""

    def __init__(self, components: np.ndarray, mean: np.ndarray):
        self.components = np.asarray(components)  # d x k
        self.mean = np.asarray(mean)

    def apply(self, row) -> np.ndarray:
        if sp.issparse(row):
            row = np.asarray(row.todense())
        arr = np.asarray(row, dtype=np.float64)
        if arr.ndim == 2:
            return (arr - self.mean) @ self.components
        return (arr - self.mean) @ self.components

    def apply_partition(self, items: List) -> List[np.ndarray]:
        return [self.apply(x) for x in items]

    def columnar_kernel(self):
        from repro.core.kernels import PCAKernel

        return PCAKernel(self.components, self.mean)


def _stack_rows(data: Dataset) -> np.ndarray:
    """Collect rows, flattening per-item descriptor matrices."""
    blocks = []
    for block in iter_blocks(data):
        blocks.append(np.asarray(block.todense()) if sp.issparse(block)
                      else block)
    if not blocks:
        raise ValueError("PCA input is empty")
    return np.vstack(blocks)


def _components_from_cov(cov: np.ndarray, k: int) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    return eigvecs[:, order]


class LocalSVD(Estimator):
    """Exact PCA by full SVD on the collected, centered matrix."""

    def __init__(self, k: int):
        self.k = k

    def fit(self, data: Dataset) -> PCATransformer:
        a = _stack_rows(data)
        mean = a.mean(axis=0)
        _u, _s, vt = np.linalg.svd(a - mean, full_matrices=False)
        return PCATransformer(vt[:self.k].T, mean)


class LocalTSVD(Estimator):
    """Approximate PCA by randomized truncated SVD (local)."""

    def __init__(self, k: int, oversample: int = 10, power_iters: int = 1,
                 seed: int = 0):
        self.k = k
        self.oversample = oversample
        self.power_iters = power_iters
        self.seed = seed

    def fit(self, data: Dataset) -> PCATransformer:
        a = _stack_rows(data)
        mean = a.mean(axis=0)
        centered = a - mean
        n, d = centered.shape
        ell = min(self.k + self.oversample, d)
        rng = np.random.default_rng(self.seed)
        omega = rng.standard_normal((d, ell))
        y = centered @ omega
        for _ in range(self.power_iters):
            y = centered @ (centered.T @ y)
        q, _ = np.linalg.qr(y)
        b = q.T @ centered
        _ub, _sb, vt = np.linalg.svd(b, full_matrices=False)
        return PCATransformer(vt[:self.k].T, mean)


class DistributedSVD(ShardableEstimator, Estimator):
    """Exact PCA from the Gram matrix computed with an aggregation tree.

    Per-partition (column sum, Gram matrix, row count) triples are the
    sufficient statistics; the parent accumulates them in partition order,
    exactly like the serial streamed fit, so components stay
    byte-identical when partials are computed in worker processes.
    """

    def __init__(self, k: int):
        self.k = k

    def partition_stats(self, rows):
        if not rows:
            return None
        block = rows_to_block(rows)
        block = np.asarray(block.todense()) if sp.issparse(block) else block
        return block.sum(axis=0), block.T @ block, block.shape[0]

    def fit_from_stats(self, partials) -> PCATransformer:
        total, gram, count = None, None, 0
        for partial in partials:
            if partial is None:
                continue
            p_total, p_gram, p_count = partial
            if total is None:
                d = p_total.shape[0]
                total = np.zeros(d)
                gram = np.zeros((d, d))
            total += p_total
            gram += p_gram
            count += p_count
        if count == 0:
            raise ValueError("PCA input is empty")
        mean = total / count
        cov = gram / count - np.outer(mean, mean)
        return PCATransformer(_components_from_cov(cov, self.k), mean)


class DistributedTSVD(Estimator):
    """Approximate PCA: randomized range finding over partition blocks.

    Each pass streams the partitions (like a distributed matrix product);
    only d x ell state crosses "the network".
    """

    def __init__(self, k: int, oversample: int = 10, power_iters: int = 1,
                 seed: int = 0):
        self.k = k
        self.oversample = oversample
        self.power_iters = power_iters
        self.seed = seed
        self.weight = 2 + 2 * power_iters

    def _mean(self, data: Dataset) -> Tuple[np.ndarray, int]:
        total, count = None, 0
        for block in iter_blocks(data):
            block = (np.asarray(block.todense()) if sp.issparse(block)
                     else block)
            total = block.sum(axis=0) if total is None else \
                total + block.sum(axis=0)
            count += block.shape[0]
        if count == 0:
            raise ValueError("PCA input is empty")
        return total / count, count

    def _matmul(self, data: Dataset, mean: np.ndarray,
                x: np.ndarray) -> np.ndarray:
        """Streamed ``(A - mean)^T ((A - mean) X)``."""
        d = mean.size
        out = np.zeros((d, x.shape[1]))
        for block in iter_blocks(data):
            block = (np.asarray(block.todense()) if sp.issparse(block)
                     else block)
            centered = block - mean
            out += centered.T @ (centered @ x)
        return out

    def fit(self, data: Dataset) -> PCATransformer:
        mean, _count = self._mean(data)
        d = mean.size
        ell = min(self.k + self.oversample, d)
        rng = np.random.default_rng(self.seed)
        y = rng.standard_normal((d, ell))
        for _ in range(self.power_iters + 1):
            y = self._matmul(data, mean, y)
            y, _ = np.linalg.qr(y)
        # Rayleigh–Ritz on the subspace: small eigenproblem.
        b = self._matmul(data, mean, y)
        small = y.T @ b
        eigvals, eigvecs = np.linalg.eigh((small + small.T) / 2)
        order = np.argsort(eigvals)[::-1][:self.k]
        return PCATransformer(y @ eigvecs[:, order], mean)


# ----------------------------------------------------------------------
# Cost models
# ----------------------------------------------------------------------

class LocalSVDCostModel(CostModel):
    name = "local-svd"

    def __init__(self, op: LocalSVD):
        self.op = op

    def cost(self, stats, workers: int) -> CostProfile:
        n, d = stats.n, stats.d
        flops = 4.0 * n * d * d
        return CostProfile(flops, DOUBLE * n * d, DOUBLE * n * d,
                           tasks=1.0)

    def feasible(self, stats, resources) -> bool:
        return DOUBLE * stats.n * stats.d <= 0.9 * resources.memory_bytes


class LocalTSVDCostModel(CostModel):
    name = "local-tsvd"

    def __init__(self, op: LocalTSVD):
        self.op = op

    def cost(self, stats, workers: int) -> CostProfile:
        n, d = stats.n, stats.d
        ell = self.op.k + self.op.oversample
        passes = 2 + 2 * self.op.power_iters
        flops = 2.0 * passes * n * d * ell
        return CostProfile(flops, DOUBLE * n * d, DOUBLE * n * d,
                           tasks=1.0)

    def feasible(self, stats, resources) -> bool:
        return DOUBLE * stats.n * stats.d <= 0.9 * resources.memory_bytes


class DistributedSVDCostModel(CostModel):
    name = "distributed-svd"

    def __init__(self, op: DistributedSVD):
        self.op = op

    def cost(self, stats, workers: int) -> CostProfile:
        n, d = stats.n, stats.d
        w = max(workers, 1)
        tree_depth = max(math.log2(w), 1.0) if w > 1 else 1.0
        flops = 2.0 * n * d * d / w + 10.0 * d ** 3
        network = DOUBLE * d * d * tree_depth
        return CostProfile(flops, DOUBLE * n * d / w, network, tasks=1.0)

    def feasible(self, stats, resources) -> bool:
        # Streams partitions; only the d x d Gram state must fit per node.
        return DOUBLE * stats.d ** 2 <= 0.9 * resources.memory_bytes


class DistributedTSVDCostModel(CostModel):
    name = "distributed-tsvd"

    def __init__(self, op: DistributedTSVD):
        self.op = op

    def cost(self, stats, workers: int) -> CostProfile:
        n, d = stats.n, stats.d
        w = max(workers, 1)
        tree_depth = max(math.log2(w), 1.0) if w > 1 else 1.0
        ell = self.op.k + self.op.oversample
        passes = 3 + 2 * self.op.power_iters
        flops = 4.0 * passes * n * d * ell / w
        network = DOUBLE * passes * d * ell * tree_depth
        return CostProfile(flops, DOUBLE * passes * n * d / w, network,
                           tasks=float(passes))

    def feasible(self, stats, resources) -> bool:
        # Streams partitions; only the d x ell sketch must fit per node.
        ell = self.op.k + self.op.oversample
        return DOUBLE * stats.d * ell <= 0.9 * resources.memory_bytes


class PCAEstimator(Estimator, Optimizable):
    """Logical PCA; the optimizer picks among the four implementations."""

    def __init__(self, k: int, seed: int = 0, default: str = "local-svd"):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.default = default

    def options(self) -> Sequence[Tuple[CostModel, Estimator]]:
        local_svd = LocalSVD(self.k)
        local_tsvd = LocalTSVD(self.k, seed=self.seed)
        dist_svd = DistributedSVD(self.k)
        dist_tsvd = DistributedTSVD(self.k, seed=self.seed)
        return [
            (LocalSVDCostModel(local_svd), local_svd),
            (LocalTSVDCostModel(local_tsvd), local_tsvd),
            (DistributedSVDCostModel(dist_svd), dist_svd),
            (DistributedTSVDCostModel(dist_tsvd), dist_tsvd),
        ]

    def fit(self, data: Dataset) -> PCATransformer:
        for model, op in self.options():
            if model.name == self.default:
                return op.fit(data)
        raise ValueError(f"unknown default PCA implementation "
                         f"{self.default!r}")
