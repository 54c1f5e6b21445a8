"""Sparse text features as one CSR block per partition.

``SparseFeatureVectorizer.apply_partition`` returns a
``dataset/rows.py::SparseRows``: one canonical CSR matrix whose rows are
byte-equal to the per-document ``apply``.  These tests pin its sequence
protocol, its transport and sizing, that content keys do not depend on
the form, and that no registry path falls back to walking its rows.
"""

import collections
import pickle
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from repro.core.backends import ActorBackend, LocalBackend
from repro.core.pipeline import Pipeline
from repro.core.program import dataset_fingerprint, partition_fingerprint
from repro.core.stats import stats_from_rows
from repro.dataset import Context, estimate_size
from repro.dataset.rows import SparseRows
from repro.nodes.learning.kmeans import KMeansEstimator
from repro.nodes.numeric import Densify
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    NGramsFeaturizer,
    SparseFeatureVectorizer,
    TermFrequency,
    Tokenizer,
    unit_weighting,
)
from repro.runtime import transport
from repro.workloads import amazon_reviews

sys.path.insert(0, str(Path(__file__).parent))
from workload_scenarios import SCENARIOS  # noqa: E402

VOCAB = {term: (3 * i) % 7 for i, term in enumerate("abcdefg")}
DOCS = [
    {"a": 1.0, "c": 2.5},
    {},  # empty document
    {"x": 1.0, "y": 4.0},  # every term out of vocabulary
    {"g": -1.0, "b": 0.0, "a": 3.0, "z": 9.0},
    {"d": 1.0},
    {term: float(i) for i, term in enumerate("gfedcba")},
]


SLICES = [
    slice(1, 4),
    slice(None, 2),
    slice(4, None),
    slice(3, 3),
    slice(None, None, -2),
]


def _vectorizer():
    return SparseFeatureVectorizer(VOCAB)


def _block():
    return _vectorizer().apply_partition(DOCS)


def _layout(row):
    return (
        type(row),
        row.shape,
        row.has_sorted_indices,
        [(a.dtype.str, a.tobytes()) for a in (row.data, row.indices, row.indptr)],
    )


class TestSequenceProtocol:
    def test_len_and_bool(self):
        rows = _block()
        assert len(rows) == len(DOCS)
        assert rows
        empty = _vectorizer().apply_partition([])
        assert len(empty) == 0
        assert not empty

    def test_negative_index_is_the_row_from_the_end(self):
        rows = _block()
        assert _layout(rows[-1]) == _layout(rows[len(DOCS) - 1])
        assert _layout(rows[-len(DOCS)]) == _layout(rows[0])
        with pytest.raises(IndexError):
            rows[len(DOCS)]
        with pytest.raises(IndexError):
            rows[-len(DOCS) - 1]

    @pytest.mark.parametrize("key", SLICES)
    def test_slice_is_sparse_rows(self, key):
        rows = _block()
        part = rows[key]
        assert isinstance(part, SparseRows)
        expected = [_layout(rows[i]) for i in range(len(DOCS))[key]]
        assert [_layout(r) for r in part] == expected

    def test_iteration_yields_every_row_in_order(self):
        rows = _block()
        by_index = [_layout(rows[i]) for i in range(len(DOCS))]
        assert [_layout(r) for r in rows] == by_index


class TestRowsMatchPerDocumentApply:
    @pytest.mark.parametrize("i", range(len(DOCS)))
    def test_row_is_byte_equal_to_apply(self, i):
        vectorizer = _vectorizer()
        assert _layout(_block()[i]) == _layout(vectorizer.apply(DOCS[i]))

    def test_rows_are_independent_of_the_block(self):
        rows = _block()
        row = rows[0]
        row.data[:] = 0.0
        assert rows[0].data.tolist() == [1.0, 2.5]

    def test_matrix_is_the_stack_of_the_rows(self):
        vectorizer = _vectorizer()
        stacked = sp.vstack([vectorizer.apply(d) for d in DOCS]).tocsr()
        matrix = _block().matrix
        for name in ("data", "indices", "indptr"):
            assert getattr(matrix, name).tobytes() == getattr(stacked, name).tobytes()
            assert getattr(matrix, name).dtype == getattr(stacked, name).dtype


class TestTransportAndSizing:
    def test_pack_unpack_ships_one_matrix(self):
        rows = _block()
        shipped = transport.pack(rows, shm_threshold=1 << 30)
        kind, _body, buffers = shipped.payload
        assert kind == "inline"
        # data, indices and indptr: three buffers however many rows
        assert len(buffers) == 3
        as_list = transport.pack(list(rows), shm_threshold=1 << 30)
        assert len(as_list.payload[2]) == 3 * len(DOCS)
        back, segments = transport.unpack(shipped.payload)
        assert segments == []
        assert isinstance(back, SparseRows)
        assert [_layout(r) for r in back] == [_layout(r) for r in rows]

    def test_pickles_as_the_matrix(self):
        rows = _block()
        back = pickle.loads(pickle.dumps(rows))
        assert isinstance(back, SparseRows)
        assert (back.matrix != rows.matrix).nnz == 0

    def test_estimate_size_is_nbytes(self):
        rows = _block()
        m = rows.matrix
        buffers = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert rows.nbytes == buffers
        assert estimate_size(rows) == buffers

    def test_stats_equal_the_row_walk(self):
        rows = _block()
        walked = list(rows)
        assert stats_from_rows(rows) == stats_from_rows(walked)
        assert stats_from_rows(rows, full_n=600) == stats_from_rows(walked, full_n=600)


class TestSourcesAndKeys:
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_parallelize_splits_by_slicing(self, partitions):
        rows = _block()
        ctx = Context()
        ds = ctx.parallelize(rows, partitions)
        parts = [ds.partition(i) for i in range(partitions)]
        assert all(isinstance(p, SparseRows) for p in parts)
        as_list = ctx.parallelize(list(rows), partitions)
        sizes = [len(as_list.partition(i)) for i in range(partitions)]
        assert [len(p) for p in parts] == sizes
        assert [_layout(r) for r in ds.collect()] == [_layout(r) for r in rows]

    @pytest.mark.parametrize("key", [slice(None), slice(1, 3), slice(2, 2)])
    def test_partition_fingerprint_equals_the_row_list(self, key):
        rows = _block()[key]
        assert partition_fingerprint(rows) == partition_fingerprint(list(rows))

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_dataset_fingerprint_equals_the_row_list(self, partitions):
        rows = _block()
        ctx = Context()
        block = dataset_fingerprint(ctx.parallelize(rows, partitions))
        walked = dataset_fingerprint(ctx.parallelize(list(rows), partitions))
        assert block == walked


@pytest.fixture
def per_row_calls(monkeypatch):
    """Count sparse row stacks, per-row reads of a ``SparseRows`` and
    vectorizer partitions in this process."""
    calls = collections.Counter()
    real_vstack, real_row = sp.vstack, SparseRows._row
    real_apply = SparseFeatureVectorizer.apply_partition

    def vstack(blocks, *args, **kwargs):
        calls["vstack"] += 1
        return real_vstack(blocks, *args, **kwargs)

    def row(self, i):
        calls["row"] += 1
        return real_row(self, i)

    def apply_partition(self, docs):
        calls["blocks"] += 1
        return real_apply(self, docs)

    monkeypatch.setattr(sp, "vstack", vstack)
    monkeypatch.setattr(SparseRows, "_row", row)
    monkeypatch.setattr(SparseFeatureVectorizer, "apply_partition", apply_partition)
    return calls


class TestNoPerRowFallback:
    """Registry paths read a vectorizer partition as its block: neither
    a fit nor ``apply_dataset`` stacks its rows or walks them."""

    def test_amazon_on_the_local_backend(self, per_row_calls):
        ctx = Context()
        pipe, items = SCENARIOS["amazon"](ctx)
        fitted = pipe.fit(backend=LocalBackend())
        predictions = fitted.apply_dataset(ctx.parallelize(items, 2)).collect()
        assert len(predictions) == len(items)
        assert per_row_calls["blocks"] > 0
        assert per_row_calls["vstack"] == 0
        assert per_row_calls["row"] == 0

    def test_kmeans_text_plan_on_two_actor_workers(self, per_row_calls):
        wl = amazon_reviews(160, 16, vocab_size=200, seed=0)
        ctx = Context()
        data = wl.train_data(ctx)
        pipe = (
            Pipeline.identity()
            .and_then(LowerCase())
            .and_then(Tokenizer())
            .and_then(NGramsFeaturizer(1, 2))
            .and_then(TermFrequency(unit_weighting()))
            .and_then(CommonSparseFeatures(64), data)
            .and_then(Densify())
            .and_then(KMeansEstimator(3, max_iter=3, seed=7), data)
        )
        with ActorBackend(workers=2, task_timeout=300.0, reuse_pool=False) as backend:
            fitted = pipe.fit(backend=backend)
        report = fitted.training_report
        assert report.bytes_shipped > 0 and not report.process_fallback
        items = wl.test_items
        predictions = fitted.apply_dataset(ctx.parallelize(items, 2)).collect()
        assert len(predictions) == len(items)
        assert per_row_calls["blocks"] > 0
        assert per_row_calls["vstack"] == 0
        assert per_row_calls["row"] == 0
