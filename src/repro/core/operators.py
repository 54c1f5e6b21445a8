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
- :class:`ShardableEstimator` / :class:`IterativeShardableEstimator` —
  fits that reduce per-partition statistics, all driven by
  :func:`fit_by_rounds` over a round the backend supplies.
"""

from __future__ import annotations

from contextlib import nullcontext, suppress
from typing import (TYPE_CHECKING, Any, Callable, ContextManager, List,
                    Optional, Sequence, Tuple)

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
    default :meth:`select` picks the feasible option with the lowest
    estimated cost, mirroring the paper's per-operator optimizer.
    """

    def options(self) -> Sequence[Tuple[CostModel, Any]]:
        raise NotImplementedError

    def select(self, stats: "DataStats",
               resources: "ResourceDescriptor") -> Tuple[CostModel, Any]:
        """The cheapest feasible option as its ``(cost_model, op)`` pair."""
        best: Optional[Tuple[CostModel, Any]] = None
        best_cost = float("inf")
        for model, op in self.options():
            if not model.feasible(stats, resources):
                continue
            cost = estimate_cost(model, stats, resources)
            if cost < best_cost:
                best, best_cost = (model, op), cost
        if best is None:
            raise RuntimeError(
                f"{type(self).__name__}: no feasible physical operator "
                f"for stats {stats}")
        return best

    def optimize(self, stats: "DataStats",
                 resources: "ResourceDescriptor") -> Any:
        return self.select(stats, resources)[1]

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


class _FitByRounds:
    """``fit`` of both statistics protocols: :func:`fit_by_rounds` over
    in-process rounds.  List the protocol before ``Estimator`` /
    ``LabelEstimator`` among the bases so this ``fit`` is the one found."""

    def fit(self, data: "Dataset", labels: Optional["Dataset"] = None) -> Transformer:
        inputs = [data] if labels is None else [data, labels]
        return fit_by_rounds(self, serial_round(self, inputs), data.num_partitions)


class ShardableEstimator(_FitByRounds):
    """Protocol: fit decomposes into per-partition statistics.

    Estimators whose training reduces partition-wise sufficient
    statistics (frequency counters, moment sums, Gram matrices, local QR
    factors) implement two methods and inherit ``fit``:

    - ``partition_stats(rows)`` (estimators) or
      ``partition_stats(rows, label_rows)`` (label estimators) — the
      statistic of one partition's rows, or ``None`` for partitions the
      fit skips (e.g. empty ones).  Must be picklable.
    - ``fit_from_stats(partials)`` — one partial per partition, in
      partition order, merged into the fitted :class:`Transformer`.

    It is the zero-pass case of :func:`fit_by_rounds`, which every
    backend runs (statistics computed in-process or in actor workers, or
    read from a :class:`~repro.incremental.FitStore`), so the merged
    result is bit-for-bit the serial one by construction —
    implementations must preserve the serial reduction order (use
    :func:`repro.dataset.dataset.tree_combine` for tree-aggregated
    statistics, left-to-right accumulation otherwise).
    """

    def partition_stats(self, rows, label_rows=None):
        raise NotImplementedError

    def fit_from_stats(self, partials: List[Any]) -> Transformer:
        raise NotImplementedError


class IterativeShardableEstimator(_FitByRounds):
    """Protocol: an iterative fit decomposes into per-pass partition stats.

    The iterative analogue of :class:`ShardableEstimator`: iterative
    solvers (k-means, EM, gradient methods) make many passes, each
    reducing a small sufficient statistic against the current solver
    state.  The actor runtime (:mod:`repro.runtime`) keeps the
    featurized shard resident in long-lived workers and runs
    :meth:`partition_pass_stats` in-worker every pass, so only the
    broadcast payload and the per-partition statistics cross the process
    boundary — never the data.

    The state machine :func:`fit_by_rounds` drives:

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

    Every backend replays the identical per-partition statistics and
    the identical left-to-right merge, so the fitted state is
    bit-for-bit equal by construction.
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


#: a round of :func:`fit_by_rounds`: ``run_round(indices, None)`` returns
#: the first-round statistics of those partitions, ``run_round(None,
#: payload)`` one pass's statistics of every partition; both in
#: partition order
Round = Callable[[Optional[Sequence[int]], Any], List[Any]]


def fit_by_rounds(
    op: _FitByRounds,
    run_round: Round,
    num_partitions: int,
    timed: Callable[[], ContextManager] = nullcontext,
) -> Transformer:
    """The one driver of :class:`ShardableEstimator` and
    :class:`IterativeShardableEstimator` fits, on every backend.

    The backend supplies ``run_round`` (in-process reads, or an actor
    wave); ``timed`` wraps every step the driver itself computes.  A
    one-shot estimator merges its single round; an iterative one runs
    passes until ``converged``, and a failure after ``init_state``
    releases the state through ``abort_state`` before re-raising.
    """
    partials = run_round(range(num_partitions), None)
    if not isinstance(op, IterativeShardableEstimator):
        with timed():
            return op.fit_from_stats(partials)
    with timed():
        state = op.init_state(partials)
    try:
        while True:
            with timed():
                if op.converged(state):
                    return op.finalize(state)
                payload = op.pass_payload(state)
            partials = run_round(None, payload)
            with timed():
                state = op.update_from_stats(state, partials)
    except BaseException:
        with suppress(Exception):
            op.abort_state(state)
        raise


def first_round_stats(op: _FitByRounds, args: Sequence[list]) -> Any:
    """One partition's statistic in the first round of a fit."""
    if isinstance(op, IterativeShardableEstimator):
        return op.init_stats(*args)
    return op.partition_stats(*args)


def check_aligned(index: int, args: Sequence[list]) -> None:
    """Raise when partition ``index``'s feature and label rows differ in
    number (``args`` is ``(rows,)`` or ``(rows, label_rows)``)."""
    if len(args) == 2 and len(args[0]) != len(args[1]):
        raise ValueError(
            f"partition {index}: {len(args[0])} feature rows vs "
            f"{len(args[1])} label rows"
        )


def serial_round(
    op: _FitByRounds,
    inputs: Sequence["Dataset"],
    timed: Callable[[], ContextManager] = nullcontext,
) -> Round:
    """The in-process round over ``inputs`` (features, then labels for a
    label estimator): it reads each partition it needs anew."""
    counts = [ds.num_partitions for ds in inputs]
    if len(set(counts)) != 1:
        raise ValueError(
            "features and labels must be identically partitioned: "
            + " vs ".join(map(str, counts))
        )

    def partition(i: int) -> List[list]:
        args = [ds.partition(i) for ds in inputs]
        check_aligned(i, args)
        return args

    def run_round(indices, payload):
        with timed():
            if indices is not None:
                return [first_round_stats(op, partition(i)) for i in indices]
            return [
                op.partition_pass_stats(payload, *partition(i))
                for i in range(counts[0])
            ]

    return run_round


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
