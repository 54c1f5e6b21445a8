"""Tests for the text featurization operators."""

import os
import pickle
import subprocess
import sys
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.dataset import Context
from repro.nodes import text
from repro.nodes.text import (
    CommonSparseFeatures,
    HashingTF,
    LowerCase,
    NGramsFeaturizer,
    SparseFeatureVectorizer,
    TermFrequency,
    Tokenizer,
    Trim,
    unit_weighting,
)


class TestBasicTransforms:
    def test_trim(self):
        assert Trim().apply("  hello \n") == "hello"

    def test_lowercase(self):
        assert LowerCase().apply("HeLLo") == "hello"

    def test_tokenizer_splits_punctuation(self):
        assert Tokenizer().apply("Hello, world! 42") == \
            ["Hello", "world", "42"]

    def test_tokenizer_keeps_apostrophes(self):
        assert Tokenizer().apply("don't stop") == ["don't", "stop"]

    def test_tokenizer_empty(self):
        assert Tokenizer().apply("...") == []


class TestNGrams:
    def test_unigrams_and_bigrams(self):
        out = NGramsFeaturizer(1, 2).apply(["a", "b", "c"])
        assert out == ["a", "b", "c", "a b", "b c"]

    def test_bigrams_only(self):
        assert NGramsFeaturizer(2, 2).apply(["a", "b", "c"]) == ["a b", "b c"]

    def test_short_input(self):
        assert NGramsFeaturizer(1, 3).apply(["x"]) == ["x"]

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            NGramsFeaturizer(3, 2)

    @staticmethod
    def _sliced(tokens, lo, hi):
        """The per-index slicing loop ``apply`` used before."""
        out = []
        for n in range(lo, hi + 1):
            if n == 1:
                out.extend(tokens)
                continue
            for i in range(len(tokens) - n + 1):
                out.append(" ".join(tokens[i:i + n]))
        return out

    @pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (2, 3)])
    @pytest.mark.parametrize("length", range(6))
    def test_matches_the_sliced_loop(self, lo, hi, length):
        tokens = ["the", "b", "the", "cat's", "b", "x"][:length]
        assert NGramsFeaturizer(lo, hi).apply(tokens) == \
            self._sliced(tokens, lo, hi)


class TestTermFrequency:
    def test_counts(self):
        tf = TermFrequency()
        assert tf.apply(["a", "b", "a"]) == {"a": 2.0, "b": 1.0}

    def test_binary_weighting(self):
        tf = TermFrequency(lambda c: 1.0)
        assert tf.apply(["a", "a", "a"]) == {"a": 1.0}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(terms=st.lists(st.sampled_from(["a", "b", "a b", "", "é", "1"]),
                          max_size=12))
    def test_unit_weighting_equals_the_counter_path(self, terms):
        # unit_weighting() takes the dict.fromkeys path; an equal lambda
        # takes the Counter path.  Same keys, order, values and types.
        fast = TermFrequency(unit_weighting()).apply(terms)
        slow = TermFrequency(lambda c: 1.0).apply(terms)
        assert list(fast.items()) == list(slow.items())
        assert [type(v) for v in fast.values()] == \
            [type(v) for v in slow.values()]

    def test_unit_weighting_survives_a_pickle_round_trip(self, monkeypatch):
        tf = pickle.loads(pickle.dumps(TermFrequency(unit_weighting())))
        assert tf.weighting is unit_weighting()

        def no_counter(*_args):
            raise AssertionError("Counter path taken")

        monkeypatch.setattr(text, "Counter", no_counter)
        assert tf.apply(["b", "a", "b"]) == {"b": 1.0, "a": 1.0}
        with pytest.raises(AssertionError, match="Counter path"):
            TermFrequency(lambda c: 1.0).apply(["a"])


class TestCommonSparseFeatures:
    def _corpus(self, ctx):
        docs = [{"common": 1.0, f"rare{i}": 1.0} for i in range(20)]
        return ctx.parallelize(docs, 4)

    def test_selects_most_frequent(self):
        ctx = Context()
        vec = CommonSparseFeatures(1).fit(self._corpus(ctx))
        assert list(vec.vocabulary) == ["common"]

    def test_vector_shape_and_content(self):
        ctx = Context()
        vec = CommonSparseFeatures(5).fit(self._corpus(ctx))
        row = vec.apply({"common": 2.0, "unknown": 1.0})
        assert row.shape == (1, 5)
        assert row[0, vec.vocabulary["common"]] == 2.0
        assert row.nnz == 1

    def test_oov_terms_dropped(self):
        vec = SparseFeatureVectorizer({"a": 0})
        row = vec.apply({"zzz": 5.0})
        assert row.nnz == 0

    def test_invalid_num_features(self):
        with pytest.raises(ValueError, match="num_features"):
            CommonSparseFeatures(0)

    def test_deterministic_vocabulary_size(self):
        ctx = Context()
        vec = CommonSparseFeatures(3).fit(self._corpus(ctx))
        assert len(vec.vocabulary) == 3


class TestHashingTF:
    def test_shape(self):
        row = HashingTF(64).apply({"a": 1.0, "b": 2.0})
        assert row.shape == (1, 64)
        assert row.sum() == pytest.approx(3.0)

    def test_collision_accumulates(self):
        tf = HashingTF(1)  # everything collides
        row = tf.apply({"a": 1.0, "b": 2.0})
        assert row[0, 0] == pytest.approx(3.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="num_features"):
            HashingTF(0)

    def test_collisions_sum_in_term_order(self):
        row = HashingTF(1).apply({"a": 1e16, "b": 1.0, "c": -1e16})
        assert row.data.tolist() == [0.0]  # (1e16 + 1) - 1e16, in order

    def test_columns_are_crc32_of_utf8_bytes(self):
        terms = {"good": 1.0, "bad": 2.0, "movie": 3.0, "café": 4.0}
        row = HashingTF(64).apply(terms)
        cols = {zlib.crc32(t.encode("utf-8")) % 64: w for t, w in terms.items()}
        assert row.has_sorted_indices
        assert row.indices.dtype == np.int32 and row.indptr.dtype == np.int32
        assert row.indices.tolist() == sorted(cols)
        assert row.data.tolist() == [cols[c] for c in sorted(cols)]

    def test_same_bytes_under_every_hash_seed(self):
        """Spawned workers, replicas and reloaded models hash alike."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.nodes.text import HashingTF\n"
            "row = HashingTF(64).apply({'good': 1.0, 'bad': 2.0, 'movie': 1.0})\n"
            "print(row.indices.tobytes().hex(), row.data.tobytes().hex(),"
            " row.indptr.tobytes().hex())\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0] == outputs[1]


class TestPipelineIntegration:
    def test_text_chain_produces_sparse_rows(self):
        ctx = Context()
        docs = ["Great product, love it", "terrible waste of money",
                "great great great"] * 5
        data = ctx.parallelize(docs, 2)
        from repro.core.pipeline import Pipeline

        pipe = (Pipeline.identity()
                .and_then(Trim()).and_then(LowerCase())
                .and_then(Tokenizer())
                .and_then(NGramsFeaturizer(1, 2))
                .and_then(TermFrequency())
                .and_then(CommonSparseFeatures(10), data))
        fitted = pipe.fit(level="none")
        row = fitted.apply("great product")
        assert sp.issparse(row)
        assert row.shape == (1, 10)
        assert row.nnz > 0
