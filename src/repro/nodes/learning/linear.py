"""Linear solvers: one logical operator, five physical implementations.

The logical :class:`LinearSolver` finds ``X`` minimizing
``||A X - B||_F^2 + l2 ||X||_F^2`` for features ``A`` (n x d) and one-hot
labels ``B`` (n x k).  Physical implementations and their cost models follow
the paper's Table 1:

==================  =====================  ==================  ================
Algorithm           Compute                Network             Memory
==================  =====================  ==================  ================
Local QR            O(nd(d+k))             O(n(d+k))           O(d(n+k))
Distributed QR      O(nd(d+k)/w)           O(d(d+k))           O(nd/w + d^2)
L-BFGS              O(i n s k / w)         O(i d k)            O(ns/w + dk)
Block solve         O(i n d (b+k) / w)     O(i d (b+k))        O(nb/w + dk)
==================  =====================  ==================  ================

(``w`` workers, ``i`` passes, ``s`` non-zeros/row, ``b`` block size.)

The cost-based optimizer reproduces the paper's selections: sparse data
favours L-BFGS (gradients cost ``nnz`` not ``n*d``); small dense problems
favour the exact solvers; large dense multi-class problems favour the block
solver.  The exact local solver becomes *infeasible* (not just slow) when
the design matrix exceeds node memory — the paper's crash at >4k sparse
features.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.cost.model import CostModel
from repro.cost.profile import CostProfile
from repro.core.operators import (
    Iterative,
    LabelEstimator,
    Optimizable,
    ShardableEstimator,
    Transformer,
)
from repro.dataset.dataset import Dataset
from repro.linalg.tsqr import tsqr_solve_from_factors
from repro.nodes.learning._util import (
    BlockMemo,
    collect_dense,
    feature_dim,
    iter_xy_blocks,
    label_dim,
    rows_to_block,
)

DOUBLE = 8.0  # bytes per float64


class LinearMapper(Transformer):
    """Applies a fitted linear model: ``row -> row @ X + intercept``."""

    def __init__(self, weights: np.ndarray,
                 intercept: Optional[np.ndarray] = None):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = (np.zeros(self.weights.shape[1])
                          if intercept is None else np.asarray(intercept))

    def apply(self, row) -> np.ndarray:
        if sp.issparse(row):
            return np.asarray(row @ self.weights).ravel() + self.intercept
        return np.asarray(row, dtype=np.float64) @ self.weights + self.intercept

    def apply_partition(self, items: List) -> List[np.ndarray]:
        if not items:
            return []
        if sp.issparse(items[0]):
            block = sp.vstack(items) @ self.weights
        else:
            block = np.vstack([np.asarray(r).reshape(1, -1)
                               for r in items]) @ self.weights
        block = np.asarray(block) + self.intercept
        return list(block)

    def columnar_kernel(self):
        from repro.core.kernels import LinearMapKernel

        return LinearMapKernel(self.weights, self.intercept)

    def training_loss(self, data: Dataset, labels: Dataset) -> float:
        """Mean squared residual over a dataset (for convergence checks)."""
        total, count = 0.0, 0
        for a, b in iter_xy_blocks(data, labels, prefer_sparse=True):
            resid = np.asarray(a @ self.weights) + self.intercept - b
            total += float(np.sum(resid * resid))
            count += b.shape[0]
        return total / max(count, 1)


# ----------------------------------------------------------------------
# Physical solvers
# ----------------------------------------------------------------------

class LocalQRSolver(LabelEstimator):
    """Exact least-squares on a single node (collect + dense factorization)."""

    def __init__(self, l2_reg: float = 1e-8):
        self.l2_reg = l2_reg

    def fit(self, data: Dataset, labels: Dataset) -> LinearMapper:
        from scipy.linalg import lstsq

        a = collect_dense(data)
        b = collect_dense(labels)
        d = a.shape[1]
        if self.l2_reg > 0:
            a = np.vstack([a, math.sqrt(self.l2_reg) * np.eye(d)])
            b = np.vstack([b, np.zeros((d, b.shape[1]))])
        # gelsy is QR-based: the cost the Local-QR model prices (the
        # default SVD driver is ~4x slower and would skew Figure 6).
        x, *_ = lstsq(a, b, lapack_driver="gelsy")
        return LinearMapper(x)


class DistributedQRSolver(LabelEstimator, ShardableEstimator):
    """Exact least-squares via TSQR over partition blocks.

    The local QR of each augmented ``[A_i | B_i]`` block is a sufficient
    statistic: workers factor their shard's blocks and the parent runs
    the same combining tree (:func:`repro.linalg.tsqr.tsqr_combine`), so
    the solution is bit-identical to the serial fit.
    """

    def __init__(self, l2_reg: float = 1e-8):
        self.l2_reg = l2_reg

    def _block_stats(self, a, b):
        a = np.asarray(a.todense()) if sp.issparse(a) else a
        return (np.linalg.qr(np.hstack([a, b]), mode="r"),
                a.shape[1], b.shape[1])

    def partition_stats(self, rows, label_rows=None):
        if not rows:
            return None
        if label_rows is None or len(rows) != len(label_rows):
            raise ValueError(
                f"{len(rows)} feature rows vs "
                f"{0 if label_rows is None else len(label_rows)} label rows")
        return self._block_stats(rows_to_block(rows),
                                 np.asarray(rows_to_block(label_rows)))

    def fit_from_stats(self, partials) -> LinearMapper:
        present = [p for p in partials if p is not None]
        if not present:
            raise ValueError("DistributedQRSolver input is empty")
        _factor, d, k = present[0]
        x = tsqr_solve_from_factors([f for f, _d, _k in present], d, k,
                                    self.l2_reg)
        return LinearMapper(x)

    def fit(self, data: Dataset, labels: Dataset) -> LinearMapper:
        return self.fit_from_stats(
            [self._block_stats(a, b)
             for a, b in iter_xy_blocks(data, labels)])


class LBFGSSolver(LabelEstimator, Iterative):
    """Iterative gradient solver; exploits sparse inputs.

    Each objective evaluation scans the feature dataset once (one "pass"
    in the materialization cost model), computing
    ``grad = 2 A^T (A X - B) / n + l2 X`` block by block — sparse blocks
    cost ``O(nnz * k)`` instead of ``O(n d k)``.  Every pass re-reads
    each partition, but a fit stacks a resident sparse partition's
    ``(A, B)`` block once and reuses it while its rows stay the same
    objects (see :func:`~repro.nodes.learning._util.iter_xy_blocks`), so
    a pass over cached or source input costs the products, not a
    re-stack of every row.
    """

    def __init__(self, max_iter: int = 50, l2_reg: float = 1e-8,
                 tol: float = 1e-7):
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.max_iter = max_iter
        self.l2_reg = l2_reg
        self.tol = tol
        self.weight = max_iter
        self.iterations_run = 0

    def fit(self, data: Dataset, labels: Dataset) -> LinearMapper:
        d = feature_dim(data)
        k = label_dim(labels)
        n = data.count()
        self.iterations_run = 0
        memo: BlockMemo = {}

        def objective(x_flat: np.ndarray) -> Tuple[float, np.ndarray]:
            x = x_flat.reshape(d, k)
            loss = 0.0
            grad = np.zeros((d, k))
            for a, b in iter_xy_blocks(data, labels, prefer_sparse=True,
                                       memo=memo):
                resid = np.asarray(a @ x) - b
                loss += float(np.sum(resid * resid))
                grad += np.asarray(a.T @ resid)
            loss = loss / n + self.l2_reg * float(np.sum(x * x))
            grad = 2.0 * grad / n + 2.0 * self.l2_reg * x
            self.iterations_run += 1
            return loss, grad.ravel()

        x0 = np.zeros(d * k)
        result = minimize(objective, x0, jac=True, method="L-BFGS-B",
                          tol=self.tol,
                          options={"maxiter": self.max_iter})
        return LinearMapper(result.x.reshape(d, k))


class BlockCoordinateSolver(LabelEstimator, Iterative):
    """Block Gauss–Seidel least squares (the paper's "Block Solver").

    Features are split into blocks of ``block_size`` columns; each epoch
    sweeps the blocks, exactly solving the least-squares subproblem for one
    block against the current residual.  Every block update scans the data
    once, so an epoch costs ``ceil(d / b)`` passes — the behaviour that
    makes this solver catastrophically slow on sparse text features
    (paper: 26-260x slower than L-BFGS) yet efficient for very wide dense
    problems where exact solves don't fit and gradient methods converge
    slowly.
    """

    def __init__(self, block_size: int = 1024, epochs: int = 3,
                 l2_reg: float = 1e-8):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.block_size = block_size
        self.epochs = epochs
        self.l2_reg = l2_reg
        self.weight = epochs  # refined per-fit: epochs * num_blocks

    def _blocks(self, d: int) -> List[Tuple[int, int]]:
        edges = list(range(0, d, self.block_size)) + [d]
        return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    def fit(self, data: Dataset, labels: Dataset) -> LinearMapper:
        d = feature_dim(data)
        k = label_dim(labels)
        col_blocks = self._blocks(d)
        self.weight = self.epochs * len(col_blocks)

        # Residual R = B - A X, kept in memory (n x k with small k).
        b_parts = [np.asarray(b) for _a, b in iter_xy_blocks(data, labels)]
        residual = [b.copy() for b in b_parts]
        x = np.zeros((d, k))

        for _epoch in range(self.epochs):
            for (lo, hi) in col_blocks:
                width = hi - lo
                gram = np.zeros((width, width))
                rhs = np.zeros((width, k))
                slices = []
                for part_idx, (a, _b) in enumerate(
                        iter_xy_blocks(data, labels, prefer_sparse=True)):
                    a_block = a[:, lo:hi]
                    a_block = (np.asarray(a_block.todense())
                               if sp.issparse(a_block) else a_block)
                    gram += a_block.T @ a_block
                    rhs += a_block.T @ residual[part_idx]
                    slices.append(a_block)
                gram += self.l2_reg * np.eye(width)
                # Solve for the update relative to the current block value.
                delta = np.linalg.solve(gram, rhs + gram @ x[lo:hi]
                                        - self.l2_reg * x[lo:hi]) - x[lo:hi]
                x[lo:hi] += delta
                for part_idx, a_block in enumerate(slices):
                    residual[part_idx] -= a_block @ delta
        return LinearMapper(x)


class SGDSolver(LabelEstimator, Iterative):
    """Mini-batch SGD on the least-squares objective (one fixed strategy).

    Provided both as a KeystoneML physical option and as the building block
    of the Vowpal-Wabbit-style baseline.
    """

    def __init__(self, epochs: int = 5, batch_size: int = 64,
                 learning_rate: float = 0.05, l2_reg: float = 1e-8,
                 seed: int = 0):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.l2_reg = l2_reg
        self.seed = seed
        self.weight = epochs

    def fit(self, data: Dataset, labels: Dataset) -> LinearMapper:
        d = feature_dim(data)
        k = label_dim(labels)
        x = np.zeros((d, k))
        step = self.learning_rate
        for epoch in range(self.epochs):
            for a, b in iter_xy_blocks(data, labels, prefer_sparse=True):
                n_rows = b.shape[0]
                for lo in range(0, n_rows, self.batch_size):
                    hi = min(lo + self.batch_size, n_rows)
                    a_batch = a[lo:hi]
                    resid = np.asarray(a_batch @ x) - b[lo:hi]
                    grad = (2.0 * np.asarray(a_batch.T @ resid) / (hi - lo)
                            + 2.0 * self.l2_reg * x)
                    x -= step * grad
            step *= 0.9
        return LinearMapper(x)


# ----------------------------------------------------------------------
# Cost models (Table 1, with calibration constants)
# ----------------------------------------------------------------------

class LocalQRCostModel(CostModel):
    name = "local-qr"

    def __init__(self, solver: LocalQRSolver):
        self.solver = solver

    def cost(self, stats, workers: int) -> CostProfile:
        n, d, k = stats.n, stats.d, stats.k
        # 4nd(d+k): QR factorization plus applying Q^T to the labels.
        flops = 4.0 * n * d * (d + k)
        local_bytes = DOUBLE * d * (n + k)
        network = DOUBLE * n * (d + k)  # gather all data to one node
        return CostProfile(flops, local_bytes, network, tasks=1.0)

    def feasible(self, stats, resources) -> bool:
        needed = DOUBLE * stats.d * (stats.n + stats.k)
        return needed <= 0.9 * resources.memory_bytes


class DistributedQRCostModel(CostModel):
    name = "distributed-qr"

    def __init__(self, solver: DistributedQRSolver):
        self.solver = solver

    def cost(self, stats, workers: int) -> CostProfile:
        n, d, k = stats.n, stats.d, stats.k
        w = max(workers, 1)
        tree_depth = max(math.log2(w), 1.0) if w > 1 else 1.0
        flops = 4.0 * n * d * (d + k) / w + 2.0 * d ** 2 * (d + k) * tree_depth
        local_bytes = DOUBLE * (n * d / w + d * d)
        network = DOUBLE * d * (d + k) * tree_depth
        return CostProfile(flops, local_bytes, network, tasks=1.0)

    def feasible(self, stats, resources) -> bool:
        w = max(resources.num_nodes, 1)
        per_node = DOUBLE * (stats.n * stats.d / w + stats.d ** 2)
        return per_node <= 0.9 * resources.memory_bytes


class LBFGSCostModel(CostModel):
    name = "lbfgs"

    def __init__(self, solver: LBFGSSolver):
        self.solver = solver

    def cost(self, stats, workers: int) -> CostProfile:
        n, d, k = stats.n, stats.d, stats.k
        s = max(stats.nnz_per_row, 1.0)
        i = self.solver.max_iter
        w = max(workers, 1)
        tree_depth = max(math.log2(w), 1.0) if w > 1 else 1.0
        # 6 flops per nnz per class: forward + backward products plus
        # line-search evaluations; 2 memory scans of the data per pass.
        flops = 6.0 * i * n * s * k / w
        local_bytes = DOUBLE * i * (2.0 * n * s / w + d * k)
        network = DOUBLE * i * d * k * tree_depth
        return CostProfile(flops, local_bytes, network, tasks=float(i))

    def feasible(self, stats, resources) -> bool:
        w = max(resources.num_nodes, 1)
        per_node = DOUBLE * (stats.n * max(stats.nnz_per_row, 1.0) / w
                             + stats.d * stats.k)
        return per_node <= 0.9 * resources.memory_bytes


class BlockSolverCostModel(CostModel):
    name = "block-solver"

    def __init__(self, solver: BlockCoordinateSolver):
        self.solver = solver

    def cost(self, stats, workers: int) -> CostProfile:
        n, d, k = stats.n, stats.d, stats.k
        b = min(self.solver.block_size, max(d, 1))
        i = self.solver.epochs
        w = max(workers, 1)
        tree_depth = max(math.log2(w), 1.0) if w > 1 else 1.0
        # Per epoch: every block update reads all of A (dense access
        # pattern regardless of sparsity) and solves a b x b system.
        num_blocks = math.ceil(d / b)
        flops = (2.0 * i * n * d * (b + k) / w
                 + i * num_blocks * (b ** 3) / 3.0)
        local_bytes = DOUBLE * i * num_blocks * (n * d / w)
        network = DOUBLE * i * d * (b + k) * tree_depth
        return CostProfile(flops, local_bytes, network,
                           tasks=float(i * num_blocks))

    def feasible(self, stats, resources) -> bool:
        w = max(resources.num_nodes, 1)
        b = self.solver.block_size
        per_node = DOUBLE * (stats.n * b / w + stats.d * stats.k)
        return per_node <= 0.9 * resources.memory_bytes


class SGDCostModel(CostModel):
    name = "sgd"

    def __init__(self, solver: SGDSolver):
        self.solver = solver

    def cost(self, stats, workers: int) -> CostProfile:
        n, d, k = stats.n, stats.d, stats.k
        s = max(stats.nnz_per_row, 1.0)
        i = self.solver.epochs
        w = max(workers, 1)
        batches_per_epoch = max(n / max(self.solver.batch_size, 1), 1.0)
        flops = 4.0 * i * n * s * k / w
        local_bytes = DOUBLE * i * n * s / w
        # Synchronous SGD coordinates the model every mini-batch.
        network = DOUBLE * i * batches_per_epoch * d * k
        return CostProfile(flops, local_bytes, network, tasks=float(i))


# ----------------------------------------------------------------------
# The logical operator
# ----------------------------------------------------------------------

class LinearSolver(LabelEstimator, Optimizable):
    """Logical least-squares solver; physical choice is cost-based.

    Fitting without prior optimization falls back to ``default``
    (L-BFGS, the same default the paper's unoptimized configuration runs),
    matching KeystoneML's behaviour of running whatever single
    implementation the developer picked when the optimizer is off.
    """

    def __init__(self, l2_reg: float = 1e-8, lbfgs_iters: int = 50,
                 block_size: int = 1024, block_epochs: int = 3,
                 default: str = "lbfgs"):
        self.l2_reg = l2_reg
        self.lbfgs_iters = lbfgs_iters
        self.block_size = block_size
        self.block_epochs = block_epochs
        self.default = default

    def options(self) -> Sequence[Tuple[CostModel, LabelEstimator]]:
        local_qr = LocalQRSolver(self.l2_reg)
        dist_qr = DistributedQRSolver(self.l2_reg)
        lbfgs = LBFGSSolver(self.lbfgs_iters, self.l2_reg)
        block = BlockCoordinateSolver(self.block_size, self.block_epochs,
                                      self.l2_reg)
        return [
            (LocalQRCostModel(local_qr), local_qr),
            (DistributedQRCostModel(dist_qr), dist_qr),
            (LBFGSCostModel(lbfgs), lbfgs),
            (BlockSolverCostModel(block), block),
        ]

    def _default_solver(self) -> LabelEstimator:
        for model, op in self.options():
            if model.name == self.default:
                return op
        raise ValueError(f"unknown default solver {self.default!r}")

    def fit(self, data: Dataset, labels: Dataset) -> LinearMapper:
        return self._default_solver().fit(data, labels)

    @property
    def weight(self) -> int:
        return self._default_solver().weight if hasattr(
            self._default_solver(), "weight") else 1
