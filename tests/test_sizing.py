"""Tests for byte-size estimation of cached objects."""

import sys

import numpy as np
import scipy.sparse as sp

from repro.dataset import Context, sizing
from repro.dataset.sizing import estimate_size
from repro.nodes.text import LowerCase, TermFrequency, Tokenizer
from repro.workloads import amazon_reviews


class TestEstimateSize:
    def test_numpy_exact(self):
        arr = np.zeros((100, 10))
        assert estimate_size(arr) == arr.nbytes

    def test_sparse_counts_arrays(self):
        m = sp.random(100, 1000, density=0.01, format="csr")
        est = estimate_size(m)
        expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert est == expected

    def test_sparse_much_smaller_than_dense(self):
        m = sp.random(100, 10_000, density=0.001, format="csr")
        assert estimate_size(m) < estimate_size(m.toarray()) / 50

    def test_none_is_zero(self):
        assert estimate_size(None) == 0

    def test_string(self):
        assert estimate_size("hello") > 5

    def test_list_of_arrays(self):
        rows = [np.zeros(100) for _ in range(10)]
        est = estimate_size(rows)
        assert est >= 10 * 800

    def test_long_list_sampling_close_to_exact(self):
        rows = [np.zeros(50) for _ in range(10_000)]
        est = estimate_size(rows)
        exact = 10_000 * 400
        assert 0.8 * exact < est < 1.5 * exact

    def test_dict(self):
        d = {"a": np.zeros(100), "b": np.zeros(100)}
        assert estimate_size(d) >= 1600

    def test_nested_tuple(self):
        item = (np.zeros(10), "text", 3)
        assert estimate_size(item) >= 80

    def test_empty_list(self):
        assert estimate_size([]) > 0


def _walk(obj):
    """Exhaustive reference walk: every element of every container."""
    if isinstance(obj, dict):
        return sys.getsizeof(obj) + sum(_walk(k) + _walk(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(_walk(x) for x in obj)
    return estimate_size(obj)


class TestSampledRule:
    """A list longer than 16 elements is sized from 16 evenly spaced
    elements (first and last included), times its length."""

    def test_a_partition_is_sized_from_at_most_16_rows(self, monkeypatch):
        rows = [{f"t{i}-{j}": float(j) for j in range(20)} for i in range(150)]
        ids = {id(row): i for i, row in enumerate(rows)}
        visited = []
        real = sizing.estimate_size

        def counting(obj):
            if id(obj) in ids:
                visited.append(ids[id(obj)])
            return real(obj)

        monkeypatch.setattr(sizing, "estimate_size", counting)
        first = sizing.estimate_size(rows)
        # Evenly spaced, first (0) and last (149) included.
        assert visited == [round(j * 149 / 15) for j in range(16)]
        visited.clear()
        assert sizing.estimate_size(rows) == first  # deterministic
        assert len(visited) == 16

    def test_short_lists_are_walked(self):
        rows = [np.zeros(i + 1) for i in range(16)]
        assert estimate_size(rows) == _walk(rows)

    def test_text_rows_within_ten_percent_of_a_full_walk(self):
        # The amazon scenario's 120 training documents (tests/
        # workload_scenarios.py), raw and featurized, as one row list each.
        wl = amazon_reviews(120, 16, vocab_size=200, seed=0)
        texts = wl.train_data(Context()).collect()
        tokens = [Tokenizer().apply(LowerCase().apply(t)) for t in texts]
        terms = [TermFrequency(lambda c: 1.0).apply(t) for t in tokens]
        for rows in (texts, tokens, terms):
            exact = _walk(rows)
            assert abs(estimate_size(rows) - exact) <= 0.1 * exact
