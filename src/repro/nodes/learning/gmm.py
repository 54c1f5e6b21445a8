"""Diagonal-covariance Gaussian mixture model fit by EM over partitions.

The image pipelines (VOC, ImageNet) fit a GMM on sampled SIFT/LCS
descriptors; the fitted model parameterizes the Fisher-vector encoder.
Each EM iteration streams the dataset once (``Iterative``).
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
from repro.nodes.learning.kmeans import kmeans_fit_array


def _dense(block) -> np.ndarray:
    import scipy.sparse as sp

    return np.asarray(block.todense()) if sp.issparse(block) else block


class GaussianMixtureModel(Transformer):
    """A fitted diagonal GMM; transforms points to responsibilities."""

    def __init__(self, weights: np.ndarray, means: np.ndarray,
                 variances: np.ndarray):
        self.weights = np.asarray(weights)        # (K,)
        self.means = np.asarray(means)            # (K, d)
        self.variances = np.asarray(variances)    # (K, d)

    @property
    def num_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Log posterior over components for each row of ``x`` (n x K)."""
        x = np.atleast_2d(x)
        log_det = np.sum(np.log(self.variances), axis=1)       # (K,)
        # (n, K): sum_j (x_j - mu_kj)^2 / var_kj
        diff = x[:, None, :] - self.means[None, :, :]
        maha = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        log_prob = (-0.5 * (maha + log_det
                            + self.dim * np.log(2 * np.pi))
                    + np.log(self.weights + 1e-300))
        log_norm = np.logaddexp.reduce(log_prob, axis=1, keepdims=True)
        return log_prob - log_norm

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_responsibilities(x))

    def apply(self, row) -> np.ndarray:
        arr = np.asarray(row, dtype=np.float64)
        resp = self.responsibilities(np.atleast_2d(arr))
        return resp[0] if arr.ndim == 1 else resp

    def log_likelihood(self, x: np.ndarray) -> float:
        x = np.atleast_2d(x)
        log_det = np.sum(np.log(self.variances), axis=1)
        diff = x[:, None, :] - self.means[None, :, :]
        maha = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        log_prob = (-0.5 * (maha + log_det + self.dim * np.log(2 * np.pi))
                    + np.log(self.weights + 1e-300))
        return float(np.sum(np.logaddexp.reduce(log_prob, axis=1)))


@dataclass
class _GMMState:
    """Driver-side EM state between passes."""

    model: GaussianMixtureModel
    iteration: int


class GMMEstimator(IterativeShardableEstimator, Estimator, Iterative):
    """Fit a diagonal GMM with EM; K-Means initialization.

    Rows may be vectors or per-item descriptor matrices.  ``min_variance``
    floors the variances for numerical robustness (standard practice for
    Fisher-vector GMMs).

    Implements :class:`~repro.core.operators.IterativeShardableEstimator`:
    each EM pass reduces per-partition responsibility moments against
    the broadcast mixture parameters; ``fit`` drives the same state
    machine serially, so distributed passes are byte-identical.
    """

    def __init__(self, num_components: int, max_iter: int = 15,
                 seed: int = 0, min_variance: float = 1e-4,
                 init_sample: int = 10_000):
        if num_components < 1:
            raise ValueError(
                f"num_components must be >= 1, got {num_components}")
        self.num_components = num_components
        self.max_iter = max_iter
        self.seed = seed
        self.min_variance = min_variance
        self.init_sample = init_sample
        self.weight = max_iter + 1

    # -- IterativeShardableEstimator protocol ---------------------------
    def init_stats(self, rows: List, label_rows=None):
        """K-Means initialization consumes whole blocks in partition
        order until ``init_sample`` rows are seen, then truncates; the
        per-partition prefix below reconstructs the identical sample
        (a block past ``init_sample`` rows is alone big enough that the
        final ``[:init_sample]`` never reads across it)."""
        if not rows:
            return None
        block = _dense(rows_to_block(rows))
        return (block.shape[0], block[:self.init_sample])

    def init_state(self, partials: List) -> _GMMState:
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
        if not blocks:
            raise ValueError("GMM input is empty")
        sample = np.vstack(blocks)[:self.init_sample]
        k = self.num_components
        means = kmeans_fit_array(sample, k, max_iter=5, seed=self.seed)
        var = np.maximum(sample.var(axis=0), self.min_variance)
        variances = np.tile(var, (k, 1))
        weights = np.full(k, 1.0 / k)
        return _GMMState(GaussianMixtureModel(weights, means, variances), 0)

    def pass_payload(self, state: _GMMState
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        model = state.model
        return (model.weights, model.means, model.variances)

    def partition_pass_stats(self, payload, rows: List, label_rows=None
                             ) -> Optional[Tuple]:
        if not rows:
            return None
        model = GaussianMixtureModel(*payload)
        block = _dense(rows_to_block(rows))
        resp = model.responsibilities(block)               # (n, K)
        return (resp.sum(axis=0), resp.T @ block,
                resp.T @ (block * block), block.shape[0])

    def update_from_stats(self, state: _GMMState,
                          partials: List) -> _GMMState:
        k, d = self.num_components, state.model.dim
        resp_sum = np.zeros(k)
        mean_sum = np.zeros((k, d))
        sq_sum = np.zeros((k, d))
        total = 0
        for partial in partials:
            if partial is None:
                continue
            resp_sum += partial[0]
            mean_sum += partial[1]
            sq_sum += partial[2]
            total += partial[3]
        if total == 0:
            raise ValueError("GMM input is empty")
        nk = np.maximum(resp_sum, 1e-10)
        means = mean_sum / nk[:, None]
        variances = np.maximum(sq_sum / nk[:, None] - means * means,
                               self.min_variance)
        weights = nk / total
        return _GMMState(GaussianMixtureModel(weights, means, variances),
                         state.iteration + 1)

    def converged(self, state: _GMMState) -> bool:
        return state.iteration >= self.max_iter

    def finalize(self, state: _GMMState) -> GaussianMixtureModel:
        return state.model
