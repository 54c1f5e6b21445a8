"""Random Fourier (cosine) features for kernel approximation.

Rahimi & Recht's random features approximate an RBF kernel:
``z(x) = sqrt(2/D) cos(W x + b)`` with ``W ~ N(0, gamma I)`` and uniform
phases.  The paper's TIMIT kernel-SVM pipeline gathers several random
feature blocks (``Pipeline.gather``) and solves a linear system on the
concatenation — approximating a kernel machine at scale.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.core.operators import Estimator, Transformer
from repro.dataset.dataset import Dataset
from repro.dataset.rows import is_sparse, rows_to_block
from repro.nodes.learning._util import feature_dim


class CosineRandomFeatures(Estimator):
    """Fit draws the random projection; transformer applies it."""

    def __init__(self, num_features: int, gamma: float = 1.0, seed: int = 0):
        if num_features < 1:
            raise ValueError(
                f"num_features must be >= 1, got {num_features}")
        self.num_features = num_features
        self.gamma = gamma
        self.seed = seed

    def fit(self, data: Dataset) -> "RandomFeaturesTransformer":
        d = feature_dim(data)
        rng = np.random.default_rng(self.seed)
        w = rng.standard_normal((d, self.num_features)) * np.sqrt(self.gamma)
        b = rng.uniform(0, 2 * np.pi, size=self.num_features)
        return RandomFeaturesTransformer(w, b)


class RandomFeaturesTransformer(Transformer):
    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w
        self.b = b
        self.scale = np.sqrt(2.0 / w.shape[1])

    def apply(self, row) -> np.ndarray:
        if sp.issparse(row):
            projected = np.asarray(row @ self.w).ravel()
        else:
            projected = np.asarray(row, dtype=np.float64) @ self.w
        return self.scale * np.cos(projected + self.b)

    def apply_partition(self, items: List) -> List[np.ndarray]:
        if not items:
            return []
        if is_sparse(items):
            stacked = rows_to_block(items, prefer_sparse=True)
            block = np.asarray((stacked @ self.w).todense()) \
                if sp.issparse(self.w) else np.asarray(stacked @ self.w)
        else:
            block = np.vstack([np.asarray(r).reshape(1, -1)
                               for r in items]) @ self.w
        out = self.scale * np.cos(block + self.b)
        return list(out)

    def columnar_kernel(self):
        from repro.core.kernels import RandomFeaturesKernel

        if sp.issparse(self.w):
            return None
        return RandomFeaturesKernel(self.w, self.b, self.scale)
