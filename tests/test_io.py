"""Tests for data loading and pipeline persistence."""

import numpy as np
import pytest

from repro.core.operators import Transformer
from repro.core.pipeline import Pipeline
from repro.dataset import Context
from repro.io import (
    load_pipeline,
    read_csv_vectors,
    read_text,
    save_pipeline,
    write_text,
)


class AddOne(Transformer):
    def apply(self, x):
        return x + 1


class TestTextIO:
    def test_roundtrip(self, tmp_path):
        ctx = Context()
        path = tmp_path / "lines.txt"
        data = ctx.parallelize(["alpha", "beta", "gamma"], 2)
        assert write_text(data, path) == 3
        loaded = read_text(ctx, path, 2)
        assert loaded.collect() == ["alpha", "beta", "gamma"]

    def test_read_strips_newlines(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("one\ntwo\n")
        ctx = Context()
        assert read_text(ctx, path).collect() == ["one", "two"]


class TestCSV:
    def test_vectors_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        ctx = Context()
        data = read_csv_vectors(ctx, path)
        rows = data.collect()
        np.testing.assert_allclose(rows[1], [3.0, 4.0])

    def test_label_column_split(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        ctx = Context()
        data, labels = read_csv_vectors(ctx, path, label_column=2)
        np.testing.assert_allclose(data.collect()[0], [1.0, 2.0])
        assert labels.collect() == [0.0, 1.0]

    def test_skip_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,2.0\n")
        ctx = Context()
        assert read_csv_vectors(ctx, path, skip_header=True).count() == 1

    def test_non_numeric_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\noops,4.0\n")
        ctx = Context()
        with pytest.raises(ValueError, match="bad.csv:2"):
            read_csv_vectors(ctx, path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\n\n2.0\n")
        ctx = Context()
        assert read_csv_vectors(ctx, path).count() == 2


class TestPipelinePersistence:
    def test_roundtrip(self, tmp_path):
        fitted = Pipeline.identity().and_then(AddOne()).fit(level="none")
        path = tmp_path / "pipe.pkl"
        save_pipeline(fitted, path)
        loaded = load_pipeline(path)
        assert loaded.apply(41) == 42

    def test_report_stripped(self, tmp_path):
        fitted = Pipeline.identity().and_then(AddOne()).fit(level="none")
        path = tmp_path / "pipe.pkl"
        save_pipeline(fitted, path)
        assert load_pipeline(path).training_report is None

    def test_rejects_unfitted(self, tmp_path):
        with pytest.raises(TypeError, match="fitted"):
            save_pipeline(Pipeline.identity(), tmp_path / "x.pkl")

    def test_rejects_foreign_pickle(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        with open(path, "wb") as f:
            pickle.dump({"not": "a pipeline"}, f)
        with pytest.raises(TypeError, match="FittedPipeline"):
            load_pipeline(path)

    def test_fitted_text_pipeline_roundtrip(self, tmp_path):
        """A real fitted pipeline (with vocabulary state) survives."""
        from repro.nodes.text import CommonSparseFeatures, TermFrequency, \
            Tokenizer

        ctx = Context()
        docs = ["a b c", "a b", "a"] * 5
        data = ctx.parallelize(docs, 2)
        pipe = (Pipeline.identity().and_then(Tokenizer())
                .and_then(TermFrequency())
                .and_then(CommonSparseFeatures(2), data))
        fitted = pipe.fit(level="none")
        path = tmp_path / "text.pkl"
        save_pipeline(fitted, path)
        loaded = load_pipeline(path)
        original = fitted.apply("a b").toarray()
        np.testing.assert_allclose(loaded.apply("a b").toarray(), original)
