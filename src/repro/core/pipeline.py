"""Pipeline construction API (paper Section 2).

A :class:`Pipeline` is a function ``A => B`` represented as an operator DAG
with a distinguished *pipeline input* placeholder.  ``and_then`` chains
transformers and estimators (binding training data at construction, exactly
like the Scala API's ``andThen (Est, data, labels)``), and ``gather`` joins
branches.  Calling :meth:`Pipeline.fit` optimizes and trains the DAG,
returning a :class:`FittedPipeline` usable on new data.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence, Union

from repro.core import graph as g
from repro.core.operators import (
    Estimator,
    LabelEstimator,
    Transformer,
)
from repro.dataset.dataset import Dataset


class Pipeline:
    """An unfitted pipeline: an operator DAG from input placeholder to sink."""

    def __init__(self, input_node: g.OpNode, sink: g.OpNode):
        if not input_node.is_pipeline_input:
            raise ValueError("input_node must be a pipeline-input placeholder")
        self.input_node = input_node
        self.sink = sink

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls) -> "Pipeline":
        node = g.pipeline_input()
        return cls(node, node)

    @classmethod
    def from_transformer(cls, transformer: Transformer) -> "Pipeline":
        inp = g.pipeline_input()
        sink = g.OpNode(g.TRANSFORMER, transformer, (inp,))
        return cls(inp, sink)

    def and_then(self, nxt: Union[Transformer, Estimator, LabelEstimator,
                                  "Pipeline"],
                 data: Optional[Dataset] = None,
                 labels: Optional[Dataset] = None) -> "Pipeline":
        """Chain the next stage onto this pipeline.

        - ``and_then(transformer)`` appends a transformer.
        - ``and_then(estimator, data)`` fits the estimator on this pipeline
          applied to ``data`` and appends the resulting transformer.
        - ``and_then(label_estimator, data, labels)`` additionally provides
          a labels dataset.
        - ``and_then(other_pipeline)`` splices another pipeline after this
          one.
        """
        if isinstance(nxt, Pipeline):
            if data is not None or labels is not None:
                raise TypeError("data/labels are not accepted when chaining "
                                "a Pipeline")
            spliced = g.substitute(nxt.sink, {nxt.input_node.id: self.sink})
            return Pipeline(self.input_node, spliced)

        if isinstance(nxt, Transformer):
            if data is not None or labels is not None:
                raise TypeError("data/labels are not accepted when chaining "
                                "a Transformer")
            sink = g.OpNode(g.TRANSFORMER, nxt, (self.sink,))
            return Pipeline(self.input_node, sink)

        if isinstance(nxt, LabelEstimator):
            if data is None or labels is None:
                raise TypeError(f"{type(nxt).__name__} requires data and "
                                "labels datasets")
            train_flow = g.substitute(
                self.sink, {self.input_node.id: g.source(data)})
            est = g.OpNode(g.ESTIMATOR, nxt,
                           (train_flow, g.source(labels, label="labels")))
            sink = g.OpNode(g.APPLY, None, (est, self.sink),
                            label=f"apply({type(nxt).__name__})")
            return Pipeline(self.input_node, sink)

        if isinstance(nxt, Estimator):
            if data is None:
                raise TypeError(f"{type(nxt).__name__} requires a data "
                                "dataset")
            if labels is not None:
                raise TypeError(f"{type(nxt).__name__} is unsupervised and "
                                "takes no labels")
            train_flow = g.substitute(
                self.sink, {self.input_node.id: g.source(data)})
            est = g.OpNode(g.ESTIMATOR, nxt, (train_flow,))
            sink = g.OpNode(g.APPLY, None, (est, self.sink),
                            label=f"apply({type(nxt).__name__})")
            return Pipeline(self.input_node, sink)

        raise TypeError(f"cannot chain object of type {type(nxt).__name__}")

    def and_then_trained_on(self, est: Union[Estimator, LabelEstimator],
                            train_pipeline: "Pipeline", data: Dataset,
                            labels: Optional[Dataset] = None) -> "Pipeline":
        """Append an estimator trained on a *different* prefix.

        The estimator is fit on ``train_pipeline`` applied to ``data``
        (e.g. the main featurization followed by a ``ColumnSampler``), and
        the fitted transformer is appended to *this* pipeline — the
        branch structure of the paper's Figure 5, where PCA and GMM train
        on sampled descriptor columns while the main flow keeps all
        descriptors.  Shared prefixes merge under CSE.
        """
        train_flow = g.substitute(
            train_pipeline.sink,
            {train_pipeline.input_node.id: g.source(data)})
        if isinstance(est, LabelEstimator):
            if labels is None:
                raise TypeError(f"{type(est).__name__} requires labels")
            est_node = g.OpNode(g.ESTIMATOR, est,
                                (train_flow, g.source(labels, label="labels")))
        elif isinstance(est, Estimator):
            if labels is not None:
                raise TypeError(f"{type(est).__name__} takes no labels")
            est_node = g.OpNode(g.ESTIMATOR, est, (train_flow,))
        else:
            raise TypeError(f"expected an estimator, got {type(est).__name__}")
        sink = g.OpNode(g.APPLY, None, (est_node, self.sink),
                        label=f"apply({type(est).__name__})")
        return Pipeline(self.input_node, sink)

    @staticmethod
    def gather(branches: Sequence["Pipeline"]) -> "Pipeline":
        """Join branch outputs element-wise into a list (paper Figure 4).

        All branches are re-rooted onto a fresh shared input placeholder, so
        branches built from the same prefix keep their shared structure.
        """
        if not branches:
            raise ValueError("gather requires at least one branch")
        common = g.pipeline_input()
        sinks = []
        for b in branches:
            sinks.append(g.substitute(b.sink, {b.input_node.id: common}))
        sink = g.OpNode(g.GATHER, None, tuple(sinks), label="gather")
        return Pipeline(common, sink)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, **kwargs) -> "FittedPipeline":
        """Optimize and train; see :func:`repro.core.executor.fit_pipeline`.

        Keyword arguments configure optimization (resources, optimization
        level, memory budget, sample sizes, or an explicit ``passes``
        list) and execution (``backend=`` selects an
        :class:`~repro.core.backends.ExecutionBackend` or a name from
        ``repro.core.backends.BACKENDS``; ``fit_store=`` attaches a
        :class:`~repro.incremental.FitStore` so fitted estimator state is
        spliced from / written back to the store — see :meth:`refit`);
        defaults run the full KeystoneML optimization stack on a local
        resource descriptor with serial execution.  For an inspectable
        plan before training, use
        :meth:`repro.core.optimizer.Optimizer.optimize` instead —
        ``fit(level=...)`` is a shim over the same pass pipeline.
        """
        from repro.core.executor import fit_pipeline

        return fit_pipeline(self, **kwargs)

    def refit(self, store, **kwargs) -> "FittedPipeline":
        """Warm retrain against a :class:`~repro.incremental.FitStore`.

        Sugar for :func:`repro.incremental.refit`: estimators whose
        training keys hit the store are spliced in fitted, everything
        else fits cold (and is stored for next time).  ``kwargs`` are
        :meth:`fit` keyword arguments.
        """
        from repro.incremental.refit import refit

        return refit(self, store, **kwargs)

    def __repr__(self) -> str:
        n = len(g.ancestors([self.sink]))
        return f"Pipeline(nodes={n}, sink={self.sink.label!r})"


class FittedPipeline(Transformer):
    """A trained pipeline: transformers only, applicable to new data.

    Also a :class:`Transformer`, so fitted pipelines compose with further
    ``and_then`` chaining (paper Figure 1: "The trained pipeline is used to
    make predictions on new data").
    """

    def __init__(self, input_node: g.OpNode, sink: g.OpNode,
                 training_report: Optional["TrainingReport"] = None):
        self.input_node = input_node
        self.sink = sink
        self.training_report = training_report
        self._compiled_plan = None
        self._compile_lock = threading.Lock()

    def __getstate__(self):
        # The compiled plan (and its lock) is a cache over the DAG;
        # recompiled on demand after unpickling.
        state = self.__dict__.copy()
        state["_compiled_plan"] = None
        del state["_compile_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Pickles written before the compiled-plan cache existed lack
        # the attribute; default it instead of crashing on apply.
        self.__dict__.setdefault("_compiled_plan", None)
        self._compile_lock = threading.Lock()

    def inference_plan(self):
        """The compiled flat op program for this pipeline (cached).

        Compiled once on first use and reused by every subsequent
        single-item apply — the inference DAG is immutable after fit, so
        the per-request graph walk the recursive path paid is pure
        overhead.  See :mod:`repro.serving.compiler`.
        """
        plan = self._compiled_plan
        if plan is None:
            from repro.serving.compiler import compile_inference_plan

            with self._compile_lock:
                if self._compiled_plan is None:
                    # No content keys: nothing on the plain apply path
                    # reads them, and hashing every operator's fitted
                    # state is not free.  ModelServer.register compiles
                    # its own keyed plan.
                    self._compiled_plan = compile_inference_plan(
                        self, compute_keys=False)
                plan = self._compiled_plan
        return plan

    def apply(self, item: Any) -> Any:
        """Apply to one item through the cached compiled
        :class:`~repro.serving.compiler.InferencePlan` — same operators,
        same order, same numerics as the recursive walk
        (:func:`~repro.core.backends.recursive_apply_item`), without
        rebuilding the closure and memo per call."""
        return self.inference_plan().run_item(item)

    def apply_dataset(self, data: Dataset) -> Dataset:
        """Batch inference: a lazy :class:`~repro.core.interp.PartitionView`
        of the compiled inference program over ``data``."""
        from repro.core.interp import PartitionView

        program = self.inference_plan().program
        input_id = program.ops[program.input_slot].node_id
        return PartitionView(data.ctx, program, {input_id: data})

    def __repr__(self) -> str:
        n = len(g.ancestors([self.sink]))
        return f"FittedPipeline(nodes={n})"
