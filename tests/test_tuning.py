"""Tests for hyperparameter grid search over pipelines."""

import pytest

from repro.core.pipeline import Pipeline
from repro.core.tuning import GridSearch, SearchResult, TrialResult, \
    expand_grid
from repro.dataset import Context
from repro.evaluation import accuracy
from repro.nodes.learning.linear import LinearSolver
from repro.nodes.learning.random_features import CosineRandomFeatures
from repro.nodes.numeric import MaxClassifier
from repro.workloads import dense_vectors, timit_frames


class TestExpandGrid:
    def test_cartesian_product(self):
        combos = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert len(combos) == 4
        assert {"a": 2, "b": "x"} in combos

    def test_empty_grid(self):
        assert expand_grid({}) == [{}]

    def test_single_axis(self):
        assert expand_grid({"k": [1, 2, 3]}) == [{"k": 1}, {"k": 2},
                                                 {"k": 3}]


class TestSearchResult:
    def test_best_by_score(self):
        result = SearchResult([
            TrialResult({"a": 1}, 0.5, 1.0),
            TrialResult({"a": 2}, 0.9, 1.0),
        ])
        assert result.best.params == {"a": 2}

    def test_ranked_descending(self):
        result = SearchResult([
            TrialResult({}, 0.2, 0.0), TrialResult({}, 0.8, 0.0),
            TrialResult({}, 0.5, 0.0)])
        assert [t.score for t in result.ranked()] == [0.8, 0.5, 0.2]

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no trials"):
            SearchResult([]).best


class TestGridSearch:
    def test_tunes_random_feature_count(self):
        wl = dense_vectors(300, 100, dim=16, num_classes=3,
                           class_separation=1.5, seed=0)

        def builder(params):
            ctx = Context()
            data = wl.train_data(ctx)
            labels = wl.train_label_vectors(ctx)
            return (Pipeline.identity()
                    .and_then(CosineRandomFeatures(
                        params["num_features"], gamma=params["gamma"],
                        seed=0), data)
                    .and_then(LinearSolver(), data, labels))

        def scorer(fitted):
            ctx = Context()
            preds = [MaxClassifier().apply(s) for s in
                     fitted.apply_dataset(wl.test_data(ctx)).collect()]
            return accuracy(preds, wl.test_labels)

        search = GridSearch(
            builder, scorer,
            grid={"num_features": [8, 64], "gamma": [0.05]},
            fit_kwargs={"sample_sizes": (20, 40)})
        result = search.run()
        assert len(result.trials) == 2
        # More random features approximate the kernel better.
        by_features = {t.params["num_features"]: t.score
                       for t in result.trials}
        assert by_features[64] >= by_features[8]
        assert result.best.fit_seconds > 0

    def test_max_trials_subsamples_deterministically(self):
        calls = []

        def builder(params):
            calls.append(params)
            return Pipeline.identity()

        search = GridSearch(builder, lambda f: 0.0,
                            grid={"a": list(range(10))}, max_trials=3,
                            seed=1, fit_kwargs={"level": "none"})
        configs_a = search.configurations()
        configs_b = search.configurations()
        assert configs_a == configs_b
        assert len(configs_a) == 3

    def test_selections_recorded(self):
        wl = dense_vectors(200, 50, dim=8, num_classes=2, seed=0)

        def builder(params):
            ctx = Context()
            return Pipeline.identity().and_then(
                LinearSolver(), wl.train_data(ctx),
                wl.train_label_vectors(ctx))

        search = GridSearch(builder, lambda f: 1.0, grid={},
                            fit_kwargs={"sample_sizes": (20, 40)})
        result = search.run()
        assert len(result.trials) == 1
        assert result.trials[0].selections  # optimizer decisions captured

    def test_keep_pipelines(self):
        def builder(params):
            return Pipeline.identity()

        search = GridSearch(builder, lambda f: 0.0, grid={},
                            fit_kwargs={"level": "none"},
                            keep_pipelines=True)
        assert search.run().trials[0].pipeline is not None

    def test_each_trial_reports_its_own_selections(self):
        """A narrow and a wide featurization select different solvers;
        each trial reports the one its independent fit selects, not the
        union's."""
        wl = timit_frames(800, 10, dim=64, num_classes=8, seed=0)

        def builder(params):
            ctx = Context()
            data = wl.train_data(ctx)
            labels = wl.train_label_vectors(ctx)
            return (Pipeline.identity()
                    .and_then(CosineRandomFeatures(
                        params["num_features"], gamma=0.02, seed=0), data)
                    .and_then(LinearSolver(), data, labels))

        fit_kwargs = {"sample_sizes": (40, 80)}
        search = GridSearch(builder, lambda f: 0.0,
                            grid={"num_features": [32, 2048]},
                            fit_kwargs=fit_kwargs)
        result = search.run()
        names = [sorted(t.selections.values()) for t in result.trials]
        independent = [
            sorted(builder(p).fit(**fit_kwargs)
                   .training_report.selections.values())
            for p in search.configurations()]
        assert names == independent
        assert names[0] != names[1]
