"""Tests for the cost-model framework (CostProfile, Eq. 1 pricing)."""

import pytest

from repro.cluster.resources import ResourceDescriptor
from repro.core.stats import DataStats
from repro.cost import CostModel, CostProfile, estimate_cost, execution_seconds


class TestCostProfile:
    def test_addition(self):
        a = CostProfile(1, 2, 3)
        b = CostProfile(10, 20, 30)
        total = a + b
        assert (total.flops, total.bytes, total.network) == (11, 22, 33)

    def test_scaling(self):
        p = CostProfile(1, 2, 3) * 4
        assert (p.flops, p.bytes, p.network) == (4, 8, 12)

    def test_rmul(self):
        p = 2 * CostProfile(1, 1, 1)
        assert p.flops == 2

    def test_zero_identity(self):
        p = CostProfile(5, 6, 7)
        total = p + CostProfile.zero()
        assert total == p

    def test_frozen(self):
        p = CostProfile(1, 2, 3)
        with pytest.raises(Exception):
            p.flops = 10


class TestPricing:
    def test_execution_seconds_components(self):
        res = ResourceDescriptor(cpu_flops=1e9, memory_bandwidth=1e9,
                                 network_bandwidth=1e8)
        p = CostProfile(flops=2e9, bytes=3e9, network=5e8)
        assert execution_seconds(p, res) == pytest.approx(2 + 3 + 5)

    def test_faster_cluster_cheaper(self):
        slow = ResourceDescriptor(cpu_flops=1e9)
        fast = ResourceDescriptor(cpu_flops=1e12)
        p = CostProfile(flops=1e12)
        assert execution_seconds(p, fast) < execution_seconds(p, slow)

    def test_estimate_cost_uses_workers(self):
        class PerWorkerModel(CostModel):
            name = "per-worker"

            def cost(self, stats, workers):
                return CostProfile(flops=1e9 / workers)

        res1 = ResourceDescriptor(num_nodes=1, cpu_flops=1e9)
        res8 = ResourceDescriptor(num_nodes=8, cpu_flops=1e9)
        stats = DataStats(n=100, d=10)
        model = PerWorkerModel()
        assert estimate_cost(model, stats, res8) == pytest.approx(
            estimate_cost(model, stats, res1) / 8)

    def test_default_feasible(self):
        class AnyModel(CostModel):
            def cost(self, stats, workers):
                return CostProfile()

        res = ResourceDescriptor()
        assert AnyModel().feasible(DataStats(n=1), res)


class TestDataStats:
    def test_nnz_per_row(self):
        stats = DataStats(n=100, d=1000, sparsity=0.01)
        assert stats.nnz_per_row == pytest.approx(10)

    def test_is_sparse(self):
        assert DataStats(n=1, d=10, sparsity=0.01).is_sparse
        assert not DataStats(n=1, d=10, sparsity=0.9).is_sparse

    def test_with_k(self):
        stats = DataStats(n=5, d=3).with_k(7)
        assert stats.k == 7
        assert stats.n == 5
