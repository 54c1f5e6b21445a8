"""Numeric vector operators: scaling, normalization, labels, classifiers."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.operators import Estimator, ShardableEstimator, Transformer
from repro.dataset.dataset import Dataset, tree_combine


def as_dense_row(row) -> np.ndarray:
    """Coerce a (possibly sparse) row to a 1-D float array."""
    if sp.issparse(row):
        return np.asarray(row.todense()).ravel()
    return np.asarray(row, dtype=np.float64).ravel()


class Densify(Transformer):
    """Sparse row -> dense 1-D vector."""

    def apply(self, row) -> np.ndarray:
        return as_dense_row(row)

    def columnar_kernel(self):
        from repro.core.kernels import DensifyKernel

        return DensifyKernel()


class Sparsify(Transformer):
    """Dense 1-D vector -> 1 x d CSR row."""

    def apply(self, row) -> sp.csr_matrix:
        return sp.csr_matrix(np.asarray(row, dtype=np.float64).reshape(1, -1))


class Normalizer(Transformer):
    """L2-normalize each vector (or each row of a descriptor matrix)."""

    def __init__(self, eps: float = 1e-12):
        self.eps = eps

    def apply(self, row):
        if sp.issparse(row):
            norm = np.sqrt(row.multiply(row).sum())
            return row / (norm + self.eps)
        arr = np.asarray(row, dtype=np.float64)
        if arr.ndim == 2:
            norms = np.linalg.norm(arr, axis=1, keepdims=True)
            return arr / (norms + self.eps)
        return arr / (np.linalg.norm(arr) + self.eps)

    def columnar_kernel(self):
        from repro.core.kernels import NormalizerKernel

        return NormalizerKernel(self.eps)


class SignedPower(Transformer):
    """``sign(x) * |x|^p`` — the Fisher-vector power normalization."""

    def __init__(self, power: float = 0.5):
        self.power = power

    def apply(self, row):
        arr = np.asarray(row, dtype=np.float64)
        return np.sign(arr) * np.abs(arr) ** self.power

    def columnar_kernel(self):
        from repro.core.kernels import ElementwiseKernel

        return ElementwiseKernel(
            lambda X: np.sign(X) * np.abs(X) ** self.power
        )


def _add_moments(a, b):
    """Combine (count, sum, sum-of-squares) moment triples."""
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


class StandardScaler(Estimator, ShardableEstimator):
    """Fit per-column mean/std; transformer standardizes rows.

    The per-partition (count, sum, sum-of-squares) triples are exposed as
    sufficient statistics; the parent merges them with the same combining
    tree the serial fit uses, so the fitted moments are byte-identical.
    """

    def __init__(self, with_std: bool = True, eps: float = 1e-12):
        self.with_std = with_std
        self.eps = eps

    def partition_stats(self, rows):
        if not rows:
            return None
        first = as_dense_row(rows[0])
        count, total, sq = 0, np.zeros_like(first), np.zeros_like(first)
        for row in rows:
            arr = as_dense_row(row)
            count, total, sq = count + 1, total + arr, sq + arr * arr
        return count, total, sq

    def fit_from_stats(self, partials) -> "StandardScalerTransformer":
        present = [p for p in partials if p is not None]
        if not present:
            raise ValueError("StandardScaler input is empty")
        zeros = np.zeros_like(present[0][1])
        full = [(0, zeros, zeros) if p is None else p for p in partials]
        count, total, sq = _add_moments(
            (0, zeros, zeros), tree_combine(full, _add_moments))
        mean = total / count
        var = np.maximum(sq / count - mean * mean, 0.0)
        std = np.sqrt(var) if self.with_std else np.ones_like(mean)
        return StandardScalerTransformer(mean, std + self.eps)

    def fit(self, data: Dataset) -> "StandardScalerTransformer":
        return self.fit_from_stats(
            [self.partition_stats(part) for part in data.iter_partitions()])


class StandardScalerTransformer(Transformer):
    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = mean
        self.std = std

    def apply(self, row) -> np.ndarray:
        return (as_dense_row(row) - self.mean) / self.std

    def columnar_kernel(self):
        from repro.core.kernels import ElementwiseKernel

        return ElementwiseKernel(lambda X: (X - self.mean) / self.std,
                                 lipschitz=1.0 / self.std)


class ColumnSampler(Transformer):
    """Subsample rows of a per-item descriptor matrix.

    Image featurizers emit one descriptor matrix per image; downstream
    estimators (PCA, GMM) train on a sample of descriptors.  Deterministic
    per-item via hashing the matrix shape and a seed.
    """

    def __init__(self, num_samples: int, seed: int = 0):
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.num_samples = num_samples
        self.seed = seed

    def apply(self, descriptors: np.ndarray) -> np.ndarray:
        arr = np.asarray(descriptors)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D descriptor matrix, got shape "
                             f"{arr.shape}")
        n = arr.shape[0]
        if n <= self.num_samples:
            return arr
        rng = np.random.default_rng((self.seed, n, arr.shape[1]))
        idx = rng.choice(n, size=self.num_samples, replace=False)
        return arr[np.sort(idx)]


class VectorCombiner(Transformer):
    """Concatenate a gathered list of vectors into one (after ``gather``)."""

    def apply(self, vectors: Sequence) -> np.ndarray:
        return np.concatenate([as_dense_row(v) for v in vectors])

    def columnar_kernel(self):
        from repro.core.kernels import HStackKernel

        return HStackKernel()


class Flatten(Transformer):
    """Flatten any array-valued item to a 1-D vector."""

    def apply(self, item) -> np.ndarray:
        if sp.issparse(item):
            return np.asarray(item.todense()).ravel()
        return np.asarray(item, dtype=np.float64).ravel()


class ClassLabelIndicator(Transformer):
    """Integer class id -> one-hot (+1 / -1) indicator vector.

    The +/-1 encoding is what least-squares classification solvers expect.
    """

    def __init__(self, num_classes: int, negative: float = -1.0):
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = num_classes
        self.negative = negative

    def apply(self, label: int) -> np.ndarray:
        vec = np.full(self.num_classes, self.negative)
        vec[int(label)] = 1.0
        return vec


class MaxClassifier(Transformer):
    """Score vector -> argmax class id."""

    def apply(self, scores) -> int:
        return int(np.argmax(as_dense_row(scores)))

    def columnar_kernel(self):
        from repro.core.kernels import MaxClassKernel

        return MaxClassKernel()


class TopKClassifier(Transformer):
    """Score vector -> ids of the top-k classes (descending score)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def apply(self, scores) -> List[int]:
        arr = as_dense_row(scores)
        k = min(self.k, arr.size)
        idx = np.argpartition(-arr, k - 1)[:k]
        return [int(i) for i in idx[np.argsort(-arr[idx])]]


class Cacher(Transformer):
    """Identity marker node: a hint that its output is worth caching.

    KeystoneML exposes explicit caching hints; the automatic materializer
    usually makes them unnecessary, but the node is kept for parity.
    """

    def apply(self, item):
        return item


class MinMaxScaler(Estimator):
    """Fit per-column min/max; transformer rescales rows into [0, 1]."""

    def __init__(self, eps: float = 1e-12):
        self.eps = eps

    def fit(self, data: Dataset) -> "MinMaxScalerTransformer":
        def seq(acc, row):
            arr = as_dense_row(row)
            if acc is None:
                return [arr.copy(), arr.copy()]
            np.minimum(acc[0], arr, out=acc[0])
            np.maximum(acc[1], arr, out=acc[1])
            return acc

        def comb(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return [np.minimum(a[0], b[0]), np.maximum(a[1], b[1])]

        result = data.aggregate(None, seq, comb)
        if result is None:
            raise ValueError("MinMaxScaler input is empty")
        lo, hi = result
        return MinMaxScalerTransformer(lo, np.maximum(hi - lo, self.eps))


class MinMaxScalerTransformer(Transformer):
    def __init__(self, lo: np.ndarray, span: np.ndarray):
        self.lo = lo
        self.span = span

    def apply(self, row) -> np.ndarray:
        return (as_dense_row(row) - self.lo) / self.span

    def columnar_kernel(self):
        from repro.core.kernels import ElementwiseKernel

        return ElementwiseKernel(lambda X: (X - self.lo) / self.span,
                                 lipschitz=1.0 / self.span)


class InterceptAdder(Transformer):
    """Append a constant 1.0 feature (bias term) to each vector row."""

    def apply(self, row):
        if sp.issparse(row):
            one = sp.csr_matrix(np.ones((1, 1)))
            return sp.hstack([row, one]).tocsr()
        arr = np.asarray(row, dtype=np.float64).ravel()
        return np.concatenate([arr, [1.0]])

    def columnar_kernel(self):
        from repro.core.kernels import InterceptKernel

        return InterceptKernel()


class FeatureSelector(Transformer):
    """Keep only the given column indices of each vector row."""

    def __init__(self, indices):
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indices.size == 0:
            raise ValueError("FeatureSelector requires at least one index")

    def apply(self, row):
        if sp.issparse(row):
            return row.tocsr()[:, self.indices]
        return np.asarray(row, dtype=np.float64).ravel()[self.indices]

    def columnar_kernel(self):
        from repro.core.kernels import FeatureSelectorKernel

        return FeatureSelectorKernel(self.indices)


class ClipTransformer(Transformer):
    """Clamp vector entries into [lo, hi]."""

    def __init__(self, lo: float = -1.0, hi: float = 1.0):
        if lo > hi:
            raise ValueError(f"lo ({lo}) must be <= hi ({hi})")
        self.lo = lo
        self.hi = hi

    def apply(self, row) -> np.ndarray:
        return np.clip(as_dense_row(row), self.lo, self.hi)

    def columnar_kernel(self):
        from repro.core.kernels import ElementwiseKernel

        return ElementwiseKernel(lambda X: np.clip(X, self.lo, self.hi),
                                 lipschitz=1.0)
