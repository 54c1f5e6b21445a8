"""Text rows built straight into canonical CSR, and term counting fused
into the served stage.

``core/kernels.py::term_rows`` is the one builder behind the per-document
``SparseFeatureVectorizer.apply`` and the batched
``SparseVectorizeKernel``; ``TermFrequency``'s kernel hands its counts
to that builder with the weighting still pending.  The references here
are test-local copies of the COO construction both paths used before,
and the per-item operator chain — never the builder itself.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    COUNTS,
    SPARSE,
    KernelStage,
    SparseVectorizeKernel,
    TermCountKernel,
    presence_rows,
    term_rows,
)
from repro.core.pipeline import Pipeline
from repro.dataset import Context
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.numeric import MaxClassifier
from repro.nodes.text import (
    CommonSparseFeatures,
    LowerCase,
    NGramsFeaturizer,
    SparseFeatureVectorizer,
    TermFrequency,
    Tokenizer,
    unit_weighting,
)
from repro.serving import compile_inference_plan
from repro.workloads import amazon_reviews

TERMS = [f"t{i}" for i in range(9)]
OOV = ["x0", "x1", "x2"]
#: vocabulary order is a permutation of the terms' listing order
VOCAB = {term: (5 * i) % len(TERMS) for i, term in enumerate(TERMS)}
DIM = len(TERMS)


def _shifted_weight(count):
    """A non-constant weighting: negative, zero and positive floats."""
    return (count - 2) * 0.5


def _coo_rows(vocabulary, rows, dim):
    """The COO construction ``SparseVectorizeKernel`` used before."""
    rows_idx, cols, vals = [], [], []
    for i, term_weights in enumerate(rows):
        for term, weight in term_weights.items():
            idx = vocabulary.get(term)
            if idx is not None:
                rows_idx.append(i)
                cols.append(idx)
                vals.append(weight)
    return sp.csr_matrix(
        (
            np.asarray(vals, dtype=np.float64),
            (np.asarray(rows_idx, dtype=np.int32), np.asarray(cols, dtype=np.int32)),
        ),
        shape=(len(rows), dim),
    )


def _reference(vocabulary, docs, dim, weighting):
    """Per-item ``TermFrequency`` dicts, then the COO build."""
    if weighting is not None:
        docs = [{t: weighting(c) for t, c in doc.items()} for doc in docs]
    return _coo_rows(vocabulary, docs, dim)


def _layout(block):
    return (
        block.shape,
        block.has_sorted_indices,
        [(a.dtype.str, a.tobytes()) for a in (block.data, block.indices, block.indptr)],
    )


WEIGHTINGS = [None, float, _shifted_weight]
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.5, 1.0, 2.0, 0, -3, 7]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    b=st.sampled_from([1, 2, 7]),
    weighting=st.sampled_from(WEIGHTINGS),
    data=st.data(),
)
def test_term_rows_matches_the_coo_build(b, weighting, data):
    values = st.integers(1, 6) if weighting is not None else WEIGHTS
    docs = data.draw(
        st.lists(
            st.dictionaries(st.sampled_from(TERMS + OOV), values, max_size=len(TERMS)),
            min_size=b,
            max_size=b,
        )
    )
    got = term_rows(VOCAB, docs, DIM, weighting)
    assert _layout(got) == _layout(_reference(VOCAB, docs, DIM, weighting))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    docs=st.lists(
        st.lists(st.sampled_from(TERMS + OOV), max_size=2 * len(TERMS)), max_size=7
    )
)
def test_presence_rows_match_the_coo_build_of_presence_dicts(docs):
    # The Counter path's binary-presence dicts, then the COO build.
    dicts = [TermFrequency(lambda c: 1.0).apply(terms) for terms in docs]
    got = presence_rows(VOCAB, docs, DIM)
    assert _layout(got) == _layout(_reference(VOCAB, dicts, DIM, None))


EDGE_DOCS = {
    "empty": [{}],
    "all-oov": [{t: 1.0 for t in OOV}],
    "single-term": [{"t3": 2.0}],
    "reverse-vocab-order": [
        {t: float(i + 1) for t, i in sorted(VOCAB.items(), key=lambda kv: -kv[1])}
    ],
    "zero-negative-int": [{"t0": 0.0, "t1": -2.5, "t2": 4, "t4": -0.0}],
    "mixed-batch": [{}, {"x1": 1.0}, {"t8": 1.0, "t0": 3.0}, {}, {"t5": -1.0},
                    {t: 1.0 for t in reversed(TERMS)}, {"t2": 0}],
}


@pytest.mark.parametrize("weighting", WEIGHTINGS, ids=["none", "float", "function"])
@pytest.mark.parametrize("name", sorted(EDGE_DOCS))
def test_term_rows_edge_cases(name, weighting):
    docs = EDGE_DOCS[name]
    if weighting is not None:  # counts, as TermFrequency would see them
        docs = [{t: int(abs(v)) + 1 for t, v in doc.items()} for doc in docs]
    got = term_rows(VOCAB, docs, DIM, weighting)
    assert _layout(got) == _layout(_reference(VOCAB, docs, DIM, weighting))


def test_per_document_apply_and_batched_kernel_share_bytes():
    vec = SparseFeatureVectorizer(VOCAB)
    docs = EDGE_DOCS["mixed-batch"]
    form, block = SparseVectorizeKernel(VOCAB, DIM).run("rows", docs)
    assert form == SPARSE
    for i, doc in enumerate(docs):
        row = vec.apply(doc)
        assert _layout(row) == _layout(_coo_rows(VOCAB, [doc], DIM))
        assert _layout(block[i]) == _layout(row)


def test_vectorize_kernel_declines_non_dict_rows():
    assert SparseVectorizeKernel(VOCAB, DIM).run("rows", [{"t0": 1.0}, ["t0"]]) is None


class TestTermCountKernel:
    def test_declines_every_form_but_rows(self):
        kernel = TermCountKernel(float)
        for form in ("dense", "sparse", "gathered", COUNTS):
            assert kernel.run(form, [["a"]]) is None

    @pytest.mark.parametrize(
        "weighting",
        [float, lambda c: c, lambda c: 1.0, _shifted_weight, unit_weighting()],
        ids=["float", "int", "unit", "function", "presence"],
    )
    def test_stage_ending_at_term_frequency_returns_the_reference_dicts(
        self, weighting
    ):
        tf = TermFrequency(weighting)
        stage = KernelStage([tf], ["TermFrequency"])
        docs = [["b", "a", "b"], [], ["z"], ["c", "a", "c", "c", "b"]]
        got = stage.apply_partition(docs)
        expected = [tf.apply(doc) for doc in docs]

        def typed(rows):
            return [[(t, type(v), v) for t, v in row.items()] for row in rows]

        assert typed(got) == typed(expected)

    def test_fused_path_weights_only_kept_terms(self):
        calls = []

        def weighting(count):
            calls.append(count)
            return float(count)

        vocab = {"a": 1, "c": 0}
        stage = KernelStage(
            [TermFrequency(weighting), SparseFeatureVectorizer(vocab)],
            ["TermFrequency", "vectorize"],
        )
        docs = [["a", "b", "a"], ["b", "d"], ["c", "a", "e", "c"]]
        block = stage.apply_partition(docs)
        assert calls == [2, 2, 1]
        expected = [
            SparseFeatureVectorizer(vocab).apply(TermFrequency(float).apply(d))
            for d in docs
        ]
        assert [_layout(r) for r in block] == [_layout(r) for r in expected]


def _text_model(weighting, head):
    wl = amazon_reviews(120, 16, vocab_size=200, seed=0)
    ctx = Context()
    data, labels = wl.train_data(ctx), wl.train_label_vectors(ctx)
    pipe = (
        Pipeline.identity()
        .and_then(LowerCase())
        .and_then(Tokenizer())
        .and_then(NGramsFeaturizer(1, 2))
        .and_then(TermFrequency(weighting))
        .and_then(CommonSparseFeatures(120), data)
        .and_then(LinearSolver(), data, labels)
    )
    if head:
        pipe = pipe.and_then(MaxClassifier())
    return pipe.fit(level="none"), wl.test_items


def _bytes(rows):
    return [(np.asarray(r).dtype.str, np.asarray(r).tobytes()) for r in rows]


class TestFusedTextStage:
    @pytest.mark.parametrize("head", [True, False], ids=["argmax", "raw"])
    @pytest.mark.parametrize(
        "weighting", [unit_weighting(), float], ids=["amazon", "float"]
    )
    def test_fused_stage_equals_the_per_item_chain(self, weighting, head):
        fitted, items = _text_model(weighting, head)
        plan = compile_inference_plan(fitted, vectorize=True)
        stage = next(op.op for op in plan.program if isinstance(op.op, KernelStage))
        assert type(stage.members[0]) is TermFrequency
        assert stage.certified == head
        expected = _bytes([fitted.apply(x) for x in items])
        for size in (1, 2, 7, len(items)):
            got = []
            for start in range(0, len(items), size):
                got.extend(plan.run_batch(items[start : start + size]))
            assert _bytes(got) == expected
