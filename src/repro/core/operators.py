"""Logical operator types: Transformer, Estimator, and optimization mixins.

These mirror the paper's Figure 3 API:

- :class:`Transformer` — a deterministic, side-effect-free unary function,
  applicable to single items or whole datasets.
- :class:`Estimator` / :class:`LabelEstimator` — functions from data(+labels)
  to a fitted :class:`Transformer`.
- :class:`Optimizable` — a *logical* operator with several physical
  implementations, each priced by a :class:`~repro.cost.CostModel`.
- :class:`Iterative` — marker carrying ``weight``, the number of passes the
  operator makes over its input (drives the materialization cost model).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.cost.model import CostModel, estimate_cost

if TYPE_CHECKING:
    from repro.cluster.resources import ResourceDescriptor
    from repro.core.stats import DataStats
    from repro.dataset.dataset import Dataset


class Transformer:
    """Deterministic item-level function; maps datasets element-wise.

    Subclasses implement :meth:`apply`.  Bulk application defaults to a
    per-element map; operators with a faster batched path (BLAS over a whole
    partition) override :meth:`apply_partition`.
    """

    #: passes over the input per execution (1 for ordinary transformers)
    weight: int = 1

    def apply(self, item: Any) -> Any:
        raise NotImplementedError

    def apply_partition(self, items: List[Any]) -> List[Any]:
        return [self.apply(x) for x in items]

    def apply_dataset(self, data: "Dataset") -> "Dataset":
        return data.map_partitions(self.apply_partition,
                                   name=type(self).__name__)

    def columnar_kernel(self):
        """Batch-invariant columnar kernel for this transformer, or None.

        Operators that can execute a whole micro-batch as one columnar
        block *with per-row results byte-identical to* :meth:`apply`
        return a :class:`repro.core.kernels.Kernel` here;
        ``VectorizePass`` groups runs of such ops into a single
        :class:`repro.core.kernels.KernelStage`.  ``None`` (the default)
        keeps the op on the per-op interpreter path.
        """
        return None

    def __call__(self, item: Any) -> Any:
        return self.apply(item)

    # -- pipeline sugar -------------------------------------------------
    def and_then(self, nxt, data=None, labels=None):
        """Chain into a :class:`~repro.core.pipeline.Pipeline`."""
        from repro.core.pipeline import Pipeline

        return Pipeline.from_transformer(self).and_then(nxt, data, labels)

    def to_pipeline(self):
        from repro.core.pipeline import Pipeline

        return Pipeline.from_transformer(self)


class Estimator:
    """Unsupervised operator: fit(data) -> Transformer."""

    weight: int = 1

    def fit(self, data: "Dataset") -> Transformer:
        raise NotImplementedError


class LabelEstimator:
    """Supervised operator: fit(data, labels) -> Transformer."""

    weight: int = 1

    def fit(self, data: "Dataset", labels: "Dataset") -> Transformer:
        raise NotImplementedError


class Optimizable:
    """Mixin for logical operators with multiple physical implementations.

    ``options`` returns ``(cost_model, physical_operator)`` pairs; the
    default :meth:`optimize` picks the feasible option with the lowest
    estimated cost, mirroring the paper's per-operator optimizer.
    """

    def options(self) -> Sequence[Tuple[CostModel, Any]]:
        raise NotImplementedError

    def optimize(self, stats: "DataStats",
                 resources: "ResourceDescriptor") -> Any:
        best: Optional[Any] = None
        best_cost = float("inf")
        for model, op in self.options():
            if not model.feasible(stats, resources):
                continue
            cost = estimate_cost(model, stats, resources)
            if cost < best_cost:
                best, best_cost = op, cost
        if best is None:
            raise RuntimeError(
                f"{type(self).__name__}: no feasible physical operator "
                f"for stats {stats}")
        return best

    def cost_table(self, stats: "DataStats",
                   resources: "ResourceDescriptor") -> List[Tuple[str, float]]:
        """Per-option estimated costs (for debugging and the benches)."""
        out = []
        for model, _op in self.options():
            cost = (estimate_cost(model, stats, resources)
                    if model.feasible(stats, resources) else float("inf"))
            out.append((model.name, cost))
        return out


class Iterative:
    """Marker: the operator makes ``weight`` passes over its input."""

    weight: int = 1


class ShardableEstimator:
    """Protocol marker: fit decomposes into per-partition statistics.

    Estimators whose training reduces partition-wise sufficient
    statistics (frequency counters, moment sums, Gram matrices, local QR
    factors) implement two methods, and
    :class:`~repro.core.backends.actors.ActorBackend` then computes
    the statistics inside worker processes and merges them in the parent
    instead of gathering the featurized rows:

    - ``partition_stats(rows)`` (estimators) or
      ``partition_stats(rows, label_rows)`` (label estimators) — the
      statistic of one partition's rows, or ``None`` for partitions the
      serial fit would skip (e.g. empty ones).  Must be picklable.
    - ``fit_from_stats(partials)`` — one partial per partition, in
      partition order, merged into the fitted :class:`Transformer`.

    Byte-identity contract: ``fit(data)`` must itself route through the
    same two methods, so the merged result is bit-for-bit the serial one
    by construction — implementations must preserve the serial reduction
    order (use :func:`repro.dataset.dataset.tree_combine` for
    tree-aggregated statistics, left-to-right accumulation otherwise).
    """

    def partition_stats(self, rows, label_rows=None):
        raise NotImplementedError

    def fit_from_stats(self, partials: List[Any]) -> Transformer:
        raise NotImplementedError


class IterativeShardableEstimator:
    """Protocol: an iterative fit decomposes into per-pass partition stats.

    The iterative analogue of :class:`ShardableEstimator`.  One-shot
    shardable estimators reduce each partition once; iterative solvers
    (k-means, EM, gradient methods) make many passes, each reducing a
    small sufficient statistic against the current solver state.  The
    actor runtime (:mod:`repro.runtime`) keeps the featurized shard
    resident in long-lived workers and runs
    :meth:`partition_pass_stats` in-worker every pass, so only the
    broadcast payload and the per-partition statistics cross the process
    boundary — never the data.

    The driver-side state machine:

    - ``init_stats(rows[, label_rows])`` — per-partition statistic for
      initialization (``None`` for partitions initialization ignores).
      Must be picklable.
    - ``init_state(partials)`` — initial solver state from the init
      statistics, in partition order.  The state may hold unpicklable
      driver-side machinery; it never crosses a process boundary.
    - ``pass_payload(state)`` — the small picklable broadcast one pass
      needs (current centroids / mixture parameters / weight vector).
    - ``partition_pass_stats(payload, rows[, label_rows])`` — one
      pass's statistic for one partition (``None`` for partitions the
      serial pass would skip).  Must be picklable and a deterministic
      function of ``(payload, rows)`` alone.
    - ``update_from_stats(state, partials)`` — fold one pass's
      statistics (partition order, left-to-right) into the next state.
    - ``converged(state)`` — whether to stop iterating.
    - ``finalize(state)`` — extract the fitted :class:`Transformer`.
    - ``abort_state(state)`` — release driver-side resources when a fit
      dies between passes (default: nothing).

    Byte-identity contract: ``fit`` must itself route through
    :meth:`fit_via_passes`, so every backend — serial or actor —
    replays the identical per-partition statistics and the identical
    left-to-right merge, making the fitted state bit-for-bit equal by
    construction.
    """

    def init_stats(self, rows, label_rows=None):
        raise NotImplementedError

    def init_state(self, partials: List[Any]):
        raise NotImplementedError

    def pass_payload(self, state) -> Any:
        return state

    def partition_pass_stats(self, payload, rows, label_rows=None):
        raise NotImplementedError

    def update_from_stats(self, state, partials: List[Any]):
        raise NotImplementedError

    def converged(self, state) -> bool:
        raise NotImplementedError

    def finalize(self, state) -> Transformer:
        raise NotImplementedError

    def abort_state(self, state) -> None:
        """Release driver-side state after a failed fit (best effort)."""

    def fit_via_passes(self, data: "Dataset",
                       labels: Optional["Dataset"] = None) -> Transformer:
        """The serial reference driver every ``fit`` routes through."""
        if labels is not None and labels.num_partitions != data.num_partitions:
            raise ValueError(
                "features and labels must be identically partitioned: "
                f"{data.num_partitions} vs {labels.num_partitions}")

        def partition(i: int):
            rows = data.partition(i)
            if labels is None:
                return (rows,)
            label_rows = labels.partition(i)
            if len(rows) != len(label_rows):
                raise ValueError(
                    f"partition {i}: {len(rows)} feature rows vs "
                    f"{len(label_rows)} label rows")
            return (rows, label_rows)

        indices = range(data.num_partitions)
        state = self.init_state(
            [self.init_stats(*partition(i)) for i in indices])
        try:
            while not self.converged(state):
                payload = self.pass_payload(state)
                state = self.update_from_stats(
                    state,
                    [self.partition_pass_stats(payload, *partition(i))
                     for i in indices])
        except BaseException:
            self.abort_state(state)
            raise
        return self.finalize(state)


class IdentityTransformer(Transformer):
    """Passes items through unchanged; useful as a pipeline seed."""

    def apply(self, item: Any) -> Any:
        return item


class FunctionTransformer(Transformer):
    """Wraps a plain function as a Transformer.

    ``name`` is used in DAG labels; the function must be deterministic and
    side-effect-free, as required by the execution model.
    """

    def __init__(self, fn, name: str = ""):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "fn")

    def apply(self, item: Any) -> Any:
        return self.fn(item)

    def __getstate__(self):
        # Lambdas are common here; pack the function so the transformer
        # survives pickling (worker processes, model persistence).
        from repro.core.serde import pack_callable

        state = self.__dict__.copy()
        state["fn"] = pack_callable(self.fn)
        return state

    def __setstate__(self, state):
        from repro.core.serde import unpack_callable

        state["fn"] = unpack_callable(state["fn"])
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return f"FunctionTransformer({self.name})"
