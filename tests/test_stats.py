"""Tests for dataset statistics measurement."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.stats import num_label_dims, stats_from_rows


class TestStatsFromRows:
    def test_dense_rows(self):
        rows = [np.ones(10) for _ in range(5)]
        stats = stats_from_rows(rows)
        assert stats.n == 5
        assert stats.d == 10
        assert stats.sparsity == pytest.approx(1.0)

    def test_sparse_rows(self):
        rows = [sp.csr_matrix(([1.0], ([0], [3])), shape=(1, 100))
                for _ in range(4)]
        stats = stats_from_rows(rows)
        assert stats.d == 100
        assert stats.sparsity == pytest.approx(0.01)

    def test_extrapolated_count(self):
        rows = [np.ones(3)] * 10
        stats = stats_from_rows(rows, full_n=1_000_000)
        assert stats.n == 1_000_000

    def test_text_rows_fallback(self):
        stats = stats_from_rows(["hello", "world"])
        assert stats.d == 1
        assert stats.sparsity == 1.0

    def test_empty(self):
        stats = stats_from_rows([], full_n=100)
        assert stats.n == 100
        assert stats.d == 0

    def test_partially_zero_dense(self):
        row = np.zeros(10)
        row[:2] = 1.0
        stats = stats_from_rows([row.copy() for _ in range(3)])
        assert stats.sparsity == pytest.approx(0.2)


class TestLabelDims:
    def test_one_hot(self):
        assert num_label_dims([np.array([1.0, -1.0, -1.0])]) == 3

    def test_scalar(self):
        assert num_label_dims([1]) == 1

    def test_sparse_label_row(self):
        assert num_label_dims([sp.csr_matrix((1, 7))]) == 7

    def test_empty(self):
        assert num_label_dims([]) == 1
