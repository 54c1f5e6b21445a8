"""Execution subsampling and pipeline profiling (paper Section 4.1).

The optimizer needs, for every node: input statistics ``A_s`` (to choose
physical operators), per-execution local runtime ``t(v)`` and output size
``size(v)`` (to choose what to materialize).  Following the paper, we run
the pipeline on two samples of the input (``ProfilingPass`` uses 256 and
512 records unless told otherwise), measure each node, and extrapolate to
full scale with a linear fit through the two measurements.

Operator selection is interleaved with profiling: a node is optimized using
statistics from its (already profiled) inputs, then executed on the sample
so downstream nodes can be optimized in turn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core import graph as g
from repro.core.operators import Optimizable
from repro.core.stats import DataStats, num_label_dims, stats_from_rows
from repro.dataset.context import Context
from repro.dataset.sizing import estimate_size

@dataclass
class NodeProfile:
    """Full-scale estimates for one DAG node."""

    node: g.OpNode
    #: wall seconds for one full execution of the node's local work
    #: (all iterations included), extrapolated to full data scale
    t_seconds: float
    #: bytes of the node's materialized output at full scale
    size_bytes: float
    #: statistics of the node's *output* at full scale
    stats: DataStats
    #: passes over the node's inputs per execution
    weight: int = 1

    @property
    def node_id(self) -> int:
        return self.node.id


@dataclass
class PipelineProfile:
    """Per-node profiles plus bookkeeping from the profiling run."""

    nodes: Dict[int, NodeProfile] = field(default_factory=dict)
    profiling_seconds: float = 0.0
    sample_sizes: Tuple[int, ...] = ()
    selections: Dict[int, str] = field(default_factory=dict)

    def t(self, node_id: int) -> float:
        return self.nodes[node_id].t_seconds

    def size(self, node_id: int) -> float:
        return self.nodes[node_id].size_bytes


@dataclass
class _Measurement:
    sample_in: int
    sample_out: int
    seconds: float
    out_bytes: float
    out_rows: List[Any]


def _extrapolate(n1: float, y1: float, n2: float, y2: float,
                 target: float) -> float:
    """Linear fit through two measurements, clamped to be non-decreasing."""
    if n2 == n1:
        return y2 * (target / max(n2, 1.0))
    slope = max((y2 - y1) / (n2 - n1), 0.0)
    intercept = max(y2 - slope * n2, 0.0)
    return intercept + slope * target


def _source_rows(node: g.OpNode, sample_size: int) -> Tuple[List[Any], int]:
    dataset = node.op
    rows = dataset.take(sample_size)
    return rows, dataset.count()


class _ProfilePass:
    """One execution of the DAG on samples of a given size."""

    def __init__(self, sample_size: int, resources, select_operators: bool,
                 selections: Dict[int, str]):
        self.sample_size = sample_size
        self.resources = resources
        self.select_operators = select_operators
        self.selections = selections
        self.measurements: Dict[int, _Measurement] = {}
        self.full_counts: Dict[int, float] = {}
        self._outputs: Dict[int, Any] = {}

    def run(self, sinks: List[g.OpNode]) -> None:
        for node in g.ancestors(sinks):
            self._profile_node(node)

    # -- helpers --------------------------------------------------------
    def _rows_of(self, node: g.OpNode) -> List[Any]:
        out = self._outputs[node.id]
        if not isinstance(out, list):
            raise TypeError(f"node {node} does not produce rows")
        return out

    def _record(self, node: g.OpNode, sample_in: int, rows: List[Any],
                seconds: float) -> None:
        self.measurements[node.id] = _Measurement(
            sample_in=sample_in, sample_out=len(rows), seconds=seconds,
            out_bytes=float(estimate_size(rows)), out_rows=rows)
        self._outputs[node.id] = rows

    def _full_count(self, node: g.OpNode) -> float:
        return self.full_counts[node.id]

    def _input_stats(self, node: g.OpNode) -> DataStats:
        """Full-scale statistics of the node's data input."""
        parent = node.parents[0]
        rows = self._rows_of(parent)
        stats = stats_from_rows(rows, full_n=int(self._full_count(parent)))
        if node.kind == g.ESTIMATOR and len(node.parents) == 2:
            label_rows = self._rows_of(node.parents[1])
            stats = stats.with_k(num_label_dims(label_rows))
        return stats

    def _maybe_select(self, node: g.OpNode) -> None:
        if not (self.select_operators and isinstance(node.op, Optimizable)):
            return
        if node.id in self.selections:
            return  # selected in an earlier pass; op already swapped
        stats = self._input_stats(node)
        physical = node.op.optimize(stats, self.resources)
        self.selections[node.id] = type(physical).__name__
        node.op = physical

    # -- per-kind profiling ----------------------------------------------
    def _profile_node(self, node: g.OpNode) -> None:
        if node.kind == g.SOURCE:
            if node.is_pipeline_input:
                # Not executed at fit time; profile as empty.
                self._outputs[node.id] = []
                self.full_counts[node.id] = 0.0
                self.measurements[node.id] = _Measurement(0, 0, 0.0, 0.0, [])
                return
            rows, full_n = _source_rows(node, self.sample_size)
            self.full_counts[node.id] = float(full_n)
            self._record(node, len(rows), rows, 0.0)
            return

        if node.kind == g.GATHER:
            branch_rows = [self._rows_of(p) for p in node.parents]
            n = min(len(r) for r in branch_rows)
            rows = [list(items) for items in zip(*(r[:n] for r in branch_rows))]
            self.full_counts[node.id] = min(
                self._full_count(p) for p in node.parents)
            self._record(node, n, rows, 0.0)
            return

        if node.kind == g.TRANSFORMER:
            self._maybe_select(node)
            parent_rows = self._rows_of(node.parents[0])
            start = time.perf_counter()
            rows = node.op.apply_partition(list(parent_rows))
            seconds = time.perf_counter() - start
            ratio = len(rows) / max(len(parent_rows), 1)
            self.full_counts[node.id] = self._full_count(node.parents[0]) * ratio
            self._record(node, len(parent_rows), rows, seconds)
            return

        if node.kind == g.ESTIMATOR:
            self._maybe_select(node)
            ctx = Context(default_partitions=1)
            data = ctx.parallelize(self._rows_of(node.parents[0]), 1)
            start = time.perf_counter()
            if len(node.parents) == 2:
                labels = ctx.parallelize(self._rows_of(node.parents[1]), 1)
                fitted = node.op.fit(data, labels)
            else:
                fitted = node.op.fit(data)
            seconds = time.perf_counter() - start
            self._outputs[node.id] = fitted
            self.full_counts[node.id] = 1.0
            self.measurements[node.id] = _Measurement(
                sample_in=len(self._rows_of(node.parents[0])), sample_out=1,
                seconds=seconds, out_bytes=float(estimate_size(fitted)),
                out_rows=[])
            return

        if node.kind == g.APPLY:
            est_node, data_node = node.parents
            fitted = self._outputs[est_node.id]
            parent_rows = self._rows_of(data_node)
            start = time.perf_counter()
            rows = fitted.apply_partition(list(parent_rows))
            seconds = time.perf_counter() - start
            ratio = len(rows) / max(len(parent_rows), 1)
            self.full_counts[node.id] = self._full_count(data_node) * ratio
            self._record(node, len(parent_rows), rows, seconds)
            return

        raise ValueError(f"cannot profile node kind {node.kind}")


def profile_pipeline(sinks: List[g.OpNode], resources,
                     sample_sizes: Tuple[int, int],
                     select_operators: bool = True) -> PipelineProfile:
    """Profile the DAG on two samples and extrapolate to full scale.

    Mutates ``Optimizable`` nodes in place when ``select_operators`` is set,
    replacing logical operators with the chosen physical implementation
    (paper Section 3); the selections are recorded in the returned profile.
    """
    start = time.perf_counter()
    n1, n2 = sorted(sample_sizes)
    selections: Dict[int, str] = {}

    pass1 = _ProfilePass(n1, resources, select_operators, selections)
    pass1.run(sinks)
    pass2 = _ProfilePass(n2, resources, select_operators, selections)
    pass2.run(sinks)

    profile = PipelineProfile(sample_sizes=(n1, n2), selections=selections)
    for node in g.ancestors(sinks):
        m1 = pass1.measurements[node.id]
        m2 = pass2.measurements[node.id]
        if node.kind == g.ESTIMATOR:
            # Estimator input count scales with the data parent's full count.
            full_in = pass2.full_counts[node.parents[0].id]
            t_full = _extrapolate(m1.sample_in, m1.seconds,
                                  m2.sample_in, m2.seconds, full_in)
            size_full = m2.out_bytes  # fitted models don't grow with n
            stats = stats_from_rows(pass2._outputs.get(node.parents[0].id, []),
                                    full_n=int(full_in))
        else:
            full_out = pass2.full_counts[node.id]
            t_full = _extrapolate(m1.sample_out, m1.seconds,
                                  m2.sample_out, m2.seconds, full_out)
            size_full = _extrapolate(m1.sample_out, m1.out_bytes,
                                     m2.sample_out, m2.out_bytes, full_out)
            stats = stats_from_rows(m2.out_rows, full_n=int(full_out))
        profile.nodes[node.id] = NodeProfile(
            node=node, t_seconds=t_full, size_bytes=size_full,
            stats=stats, weight=node.weight)
    profile.profiling_seconds = time.perf_counter() - start
    return profile
