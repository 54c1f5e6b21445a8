"""Tests for the linear solvers and their Table-1 cost models."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.resources import ResourceDescriptor, local_machine, \
    r3_4xlarge
from repro.core.stats import DataStats
from repro.dataset import Context
from repro.dataset.cache import LRUPolicy, PinnedPolicy
from repro.dataset.sizing import estimate_partition_size
from repro.nodes.learning import _util
from repro.nodes.learning.linear import (
    BlockCoordinateSolver,
    DistributedQRSolver,
    LBFGSSolver,
    LinearMapper,
    LinearSolver,
    LocalQRCostModel,
    LocalQRSolver,
    SGDSolver,
)


@pytest.fixture
def ctx():
    return Context(default_partitions=4)


def _planted_problem(ctx, n=200, d=10, k=3, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    x_true = rng.standard_normal((d, k))
    b = a @ x_true + noise * rng.standard_normal((n, k))
    data = ctx.parallelize(list(a), 4)
    labels = ctx.parallelize(list(b), 4)
    return data, labels, x_true


class TestSolverCorrectness:
    @pytest.mark.parametrize("solver_cls,atol", [
        (LocalQRSolver, 1e-6),
        (DistributedQRSolver, 1e-6),
        (LBFGSSolver, 1e-3),
        (BlockCoordinateSolver, 1e-4),
    ])
    def test_recovers_planted_model(self, ctx, solver_cls, atol):
        data, labels, x_true = _planted_problem(ctx)
        if solver_cls is BlockCoordinateSolver:
            model = solver_cls(block_size=4, epochs=20).fit(data, labels)
        elif solver_cls is LBFGSSolver:
            model = solver_cls(max_iter=200).fit(data, labels)
        else:
            model = solver_cls().fit(data, labels)
        np.testing.assert_allclose(model.weights, x_true, atol=atol)

    def test_sgd_reduces_loss(self, ctx):
        data, labels, x_true = _planted_problem(ctx, noise=0.1)
        model = SGDSolver(epochs=20, learning_rate=0.02).fit(data, labels)
        baseline = LinearMapper(np.zeros_like(model.weights))
        assert model.training_loss(data, labels) < \
            0.5 * baseline.training_loss(data, labels)

    def test_lbfgs_sparse_input(self, ctx):
        rng = np.random.default_rng(1)
        d, n = 50, 150
        x_true = rng.standard_normal((d, 2))
        rows, ys = [], []
        for _ in range(n):
            row = sp.random(1, d, density=0.2, format="csr",
                            random_state=rng.integers(1 << 31))
            rows.append(row)
            ys.append(np.asarray(row @ x_true).ravel())
        data = ctx.parallelize(rows, 4)
        labels = ctx.parallelize(ys, 4)
        model = LBFGSSolver(max_iter=300).fit(data, labels)
        assert model.training_loss(data, labels) < 1e-3

    def test_solvers_agree(self, ctx):
        data, labels, _ = _planted_problem(ctx, noise=0.2, seed=2)
        exact = LocalQRSolver().fit(data, labels)
        dist = DistributedQRSolver().fit(data, labels)
        np.testing.assert_allclose(exact.weights, dist.weights, atol=1e-6)

    def test_ridge_shrinks_weights(self, ctx):
        data, labels, _ = _planted_problem(ctx, seed=3)
        plain = LocalQRSolver(l2_reg=1e-10).fit(data, labels)
        ridge = LocalQRSolver(l2_reg=100.0).fit(data, labels)
        assert np.linalg.norm(ridge.weights) < np.linalg.norm(plain.weights)

    def test_iteration_counting(self, ctx):
        data, labels, _ = _planted_problem(ctx)
        solver = LBFGSSolver(max_iter=5)
        solver.fit(data, labels)
        assert 1 <= solver.iterations_run <= 5 + 22  # scipy may line-search

    def test_block_solver_weight_reflects_blocks(self, ctx):
        data, labels, _ = _planted_problem(ctx, d=10)
        solver = BlockCoordinateSolver(block_size=3, epochs=2)
        solver.fit(data, labels)
        assert solver.weight == 2 * 4  # ceil(10/3) = 4 blocks x 2 epochs


def _sparse_problem(ctx, n=160, d=40, k=2, seed=4):
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal((d, k))
    rows = [sp.random(1, d, density=0.15, format="csr",
                      random_state=int(rng.integers(1 << 31)))
            for _ in range(n)]
    ys = [np.asarray(r @ x_true).ravel() for r in rows]
    return ctx.parallelize(rows, 4), ctx.parallelize(ys, 4)


@pytest.fixture
def stack_calls(monkeypatch):
    """Count ``rows_to_block`` calls on sparse (feature) rows."""
    calls = []
    real = _util.rows_to_block

    def counting(rows, prefer_sparse=False):
        if sp.issparse(rows[0]):
            calls.append(len(rows))
        return real(rows, prefer_sparse)

    monkeypatch.setattr(_util, "rows_to_block", counting)
    return calls


class TestLBFGSBlockMemo:
    """One fit stacks each resident sparse partition once; every pass
    still re-reads every partition."""

    @pytest.mark.parametrize("budget_partitions", [None, 1.5])
    def test_weights_byte_equal_with_and_without_reuse(self, budget_partitions):
        # The cached copy is reused across passes (or, under an LRU
        # budget of 1.5 partitions, evicted and restacked each pass); the
        # uncached copy yields new row objects every pass.
        ctx = Context()
        src, labels = _sparse_problem(ctx)
        if budget_partitions is not None:
            part = estimate_partition_size(src.partition(0))
            ctx.set_policy(LRUPolicy(), budget_partitions * part)
        cached = src.map(lambda r: r.copy()).cache()
        uncached = src.map(lambda r: r.copy())
        w_cached = LBFGSSolver(max_iter=25).fit(cached, labels).weights
        w_uncached = LBFGSSolver(max_iter=25).fit(uncached, labels).weights
        assert w_cached.tobytes() == w_uncached.tobytes()

    def test_memo_lets_go_of_evicted_partitions(self):
        # Under an LRU budget of 1.5 partitions each read evicts the
        # previous partition; the memo must drop it too, never holding
        # rows (or blocks) the cache has let go of.
        ctx = Context()
        src, labels = _sparse_problem(ctx)
        ctx.set_policy(LRUPolicy(),
                       1.5 * estimate_partition_size(src.partition(0)))
        data = src.map(lambda r: r.copy()).cache()
        memo = {}
        for _ in range(3):
            for _block in _util.iter_xy_blocks(data, labels,
                                               prefer_sparse=True, memo=memo):
                resident = {i for i in range(data.num_partitions)
                            if data.holds_partition(i)}
                assert memo and set(memo) <= resident
            assert len(memo) <= len(resident) < data.num_partitions

    def test_uncached_input_recomputed_every_pass(self):
        ctx = Context()
        src, labels = _sparse_problem(ctx)
        data = src.map(lambda r: r.copy())
        solver = LBFGSSolver(max_iter=10)
        solver.fit(data, labels)
        # first() reads partition 0, count() all 4, each objective call all 4
        expected = 1 + 4 + 4 * solver.iterations_run
        assert ctx.stats.compute_counts[data.id] == expected
        assert ctx.stats.compute_counts[src.id] == expected

    def test_cached_sparse_input_stacked_once_per_partition(self, stack_calls):
        ctx = Context()
        src, labels = _sparse_problem(ctx)
        data = src.map(lambda r: r.copy()).cache()
        solver = LBFGSSolver(max_iter=10)
        solver.fit(data, labels)
        assert solver.iterations_run > 1
        assert len(stack_calls) <= data.num_partitions
        assert ctx.stats.compute_counts[data.id] == data.num_partitions

    def test_eviction_between_passes_forces_restack(self, stack_calls):
        ctx = Context()
        src, labels = _sparse_problem(ctx)
        data = src.map(lambda r: r.copy()).cache()
        memo = {}

        def one_pass():
            return [a for a, _b in _util.iter_xy_blocks(
                data, labels, prefer_sparse=True, memo=memo)]

        first = one_pass()
        assert len(stack_calls) == 4 and len(memo) == 4
        assert all(a is b for a, b in zip(one_pass(), first))
        assert len(stack_calls) == 4
        ctx.cache.invalidate(lambda key: key[0] == data.id)
        restacked = one_pass()
        assert len(stack_calls) == 8
        assert all(a is not b for a, b in zip(restacked, first))
        assert all((a != b).nnz == 0 for a, b in zip(restacked, first))

    def test_dense_and_non_resident_partitions_are_not_kept(self):
        ctx = Context()
        src, labels = _sparse_problem(ctx)
        dense, dense_labels, _x = _planted_problem(ctx)
        pinned_none = Context(policy=PinnedPolicy(set()))
        rejected, rejected_labels = _sparse_problem(pinned_none)
        cases = [
            (dense, dense_labels),                        # dense source
            (src.map(lambda r: r.copy()), labels),        # uncached input
            (src, labels.map(lambda y: y.copy())),        # uncached labels
            (rejected.map(lambda r: r).cache(),           # cache refused it
             rejected_labels),
        ]
        for data, y in cases:
            memo = {}
            for _ in range(2):
                for _block in _util.iter_xy_blocks(data, y, prefer_sparse=True,
                                                   memo=memo):
                    pass
            assert memo == {}


class TestLinearMapper:
    def test_apply_dense_and_sparse_rows(self):
        mapper = LinearMapper(np.eye(3))
        np.testing.assert_allclose(mapper.apply(np.array([1.0, 2.0, 3.0])),
                                   [1, 2, 3])
        row = sp.csr_matrix(np.array([[1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(mapper.apply(row), [1, 0, 2])

    def test_intercept(self):
        mapper = LinearMapper(np.eye(2), intercept=np.array([10.0, 20.0]))
        np.testing.assert_allclose(mapper.apply(np.array([1.0, 1.0])),
                                   [11.0, 21.0])

    def test_apply_partition_matches_apply(self, ctx):
        rng = np.random.default_rng(0)
        mapper = LinearMapper(rng.standard_normal((4, 2)))
        rows = [rng.standard_normal(4) for _ in range(5)]
        batch = mapper.apply_partition(rows)
        single = [mapper.apply(r) for r in rows]
        np.testing.assert_allclose(np.vstack(batch), np.vstack(single))


class TestParameterValidation:
    def test_lbfgs_bad_iters(self):
        with pytest.raises(ValueError, match="max_iter"):
            LBFGSSolver(max_iter=0)

    def test_block_bad_params(self):
        with pytest.raises(ValueError, match="block_size"):
            BlockCoordinateSolver(block_size=0)
        with pytest.raises(ValueError, match="epochs"):
            BlockCoordinateSolver(epochs=0)

    def test_sgd_bad_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            SGDSolver(epochs=0)


class TestCostModelSelection:
    """The paper's Figure 6 selection patterns."""

    def _choice(self, stats, res):
        solver = LinearSolver()
        return type(solver.optimize(stats, res)).__name__

    def test_sparse_features_choose_lbfgs(self):
        stats = DataStats(n=1_000_000, d=100_000, k=2, sparsity=0.001)
        assert self._choice(stats, r3_4xlarge(16)) == "LBFGSSolver"

    def test_small_dense_chooses_exact(self):
        stats = DataStats(n=2_000_000, d=1024, k=2, sparsity=1.0)
        assert self._choice(stats, r3_4xlarge(16)) in (
            "LocalQRSolver", "DistributedQRSolver")

    def test_wide_dense_multiclass_chooses_block(self):
        stats = DataStats(n=2_000_000, d=65_536, k=147, sparsity=1.0)
        assert self._choice(stats, r3_4xlarge(16)) == \
            "BlockCoordinateSolver"

    def test_exact_infeasible_when_memory_exceeded(self):
        """The paper's exact-solver crash beyond 4k sparse features."""
        stats = DataStats(n=65_000_000, d=8192, k=2, sparsity=0.001)
        model = LocalQRCostModel(LocalQRSolver())
        assert not model.feasible(stats, r3_4xlarge(16))

    def test_local_feasible_small(self):
        stats = DataStats(n=1000, d=10, k=2)
        model = LocalQRCostModel(LocalQRSolver())
        assert model.feasible(stats, local_machine())

    def test_cost_table_lists_all_options(self):
        solver = LinearSolver()
        table = solver.cost_table(DataStats(n=1000, d=10, k=2),
                                  local_machine())
        names = {name for name, _ in table}
        assert names == {"local-qr", "distributed-qr", "lbfgs",
                         "block-solver"}

    def test_no_feasible_option_raises(self):
        stats = DataStats(n=int(1e15), d=int(1e9), k=1000, sparsity=1.0)
        tiny = ResourceDescriptor(num_nodes=1, memory_bytes=1e6)
        with pytest.raises(RuntimeError, match="no feasible"):
            LinearSolver().optimize(stats, tiny)

    def test_unoptimized_default_solver(self, ctx):
        data, labels, x_true = _planted_problem(ctx)
        model = LinearSolver(lbfgs_iters=200).fit(data, labels)  # L-BFGS
        np.testing.assert_allclose(model.weights, x_true, atol=1e-3)

    def test_unknown_default_rejected(self, ctx):
        data, labels, _ = _planted_problem(ctx)
        with pytest.raises(ValueError, match="unknown default"):
            LinearSolver(default="quantum").fit(data, labels)
