"""Hyperparameter tuning over pipelines (paper §7 future work).

The paper plans to integrate hyperparameter search with the optimizer
(citing TuPAQ [56]).  This module is the scoring half: a grid (or random
subsample of a grid) over pipeline-builder parameters is fitted as one
deduplicated union by :class:`~repro.incremental.SweepPlanner`, and each
sliced trial is scored on validation data, with its own optimizer
decisions recorded so search results explain themselves.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.pipeline import FittedPipeline, Pipeline


@dataclass
class TrialResult:
    """One evaluated configuration."""

    params: Dict[str, Any]
    score: float
    fit_seconds: float
    selections: Dict[int, str] = field(default_factory=dict)
    pipeline: Optional[FittedPipeline] = None


@dataclass
class SearchResult:
    trials: List[TrialResult]
    #: the SweepPlanner's dedup report (op counts shared vs executed)
    sweep_report: Optional[Any] = None

    @property
    def best(self) -> TrialResult:
        if not self.trials:
            raise ValueError("no trials were run")
        return max(self.trials, key=lambda t: t.score)

    def ranked(self) -> List[TrialResult]:
        return sorted(self.trials, key=lambda t: t.score, reverse=True)


def expand_grid(grid: Dict[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of parameter values, as a list of dicts."""
    if not grid:
        return [{}]
    keys = sorted(grid)
    combos = itertools.product(*(grid[k] for k in keys))
    return [dict(zip(keys, values)) for values in combos]


class GridSearch:
    """Fit-and-score a pipeline builder across a parameter grid.

    ``builder(params) -> Pipeline`` constructs an unfitted pipeline;
    ``scorer(fitted) -> float`` evaluates it (higher is better).  Set
    ``max_trials`` to randomly subsample large grids (seeded).

    :meth:`run` fits the whole grid once through
    :class:`~repro.incremental.SweepPlanner`: all configurations merge
    into one union program deduplicated by training key, each shared op
    executes once, and predictions are byte-identical to fitting every
    configuration independently.  ``fit_kwargs`` configure that union fit
    like :meth:`Pipeline.fit` (a ``fit_store`` lets repeated searches
    warm-start from each other's fitted state); a ``mem_budget_bytes``
    caps the whole grid, not each trial.  Peak memory is the union's, as
    described on :class:`~repro.incremental.SweepPlanner`.

    Per-trial ``fit_seconds`` is the union fit amortized evenly over the
    trials (build, optimize and execute, divided by the trial count):
    once work is shared, attributing it to one trial is meaningless.
    ``selections`` are the trial's own, and ``result.sweep_report`` is
    the planner's :class:`~repro.incremental.SweepReport`.
    """

    def __init__(self, builder: Callable[[Dict[str, Any]], Pipeline],
                 scorer: Callable[[FittedPipeline], float],
                 grid: Dict[str, Sequence[Any]],
                 max_trials: Optional[int] = None, seed: int = 0,
                 fit_kwargs: Optional[Dict[str, Any]] = None,
                 keep_pipelines: bool = False):
        self.builder = builder
        self.scorer = scorer
        self.grid = grid
        self.max_trials = max_trials
        self.seed = seed
        self.fit_kwargs = fit_kwargs or {}
        self.keep_pipelines = keep_pipelines

    def configurations(self) -> List[Dict[str, Any]]:
        configs = expand_grid(self.grid)
        if self.max_trials is not None and len(configs) > self.max_trials:
            rng = random.Random(self.seed)
            configs = rng.sample(configs, self.max_trials)
        return configs

    def run(self) -> SearchResult:
        from repro.incremental.sweep import SweepPlanner

        configs = self.configurations()
        start = time.perf_counter()
        fitted_trials, report = SweepPlanner(
            self.builder, configs, fit_kwargs=self.fit_kwargs).run()
        per_trial = (time.perf_counter() - start) / len(configs)
        trials = [
            TrialResult(params=params, score=self.scorer(fitted),
                        fit_seconds=per_trial, selections=selections,
                        pipeline=fitted if self.keep_pipelines else None)
            for params, fitted, selections in zip(
                configs, fitted_trials, report.selections)]
        return SearchResult(trials, sweep_report=report)
