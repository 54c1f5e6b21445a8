"""Execution subsampling and pipeline profiling (paper Section 4.1).

The optimizer needs, for every node: input statistics ``A_s`` (to choose
physical operators), per-execution local runtime ``t(v)`` and output size
``size(v)`` (to choose what to materialize).  Following the paper, we run
the pipeline on two samples of the input (``ProfilingPass`` uses 256 and
512 records unless told otherwise), measure each node, and extrapolate to
full scale with a linear fit through the two measurements.

Operator selection is interleaved with profiling: a node is optimized using
statistics from its (already profiled) inputs, then executed on the sample
so downstream nodes can be optimized in turn.  Sample fits run on a shallow
copy of the estimator, so whatever a fit records on itself (iteration
counts) never reaches the DAG's operator or its content key.

Decision-driven pruning: a sample fit is worth its cost only through what
later decisions read.  An estimator is *not* sample-fitted when

- its physical operator was selected in this profile, so the selected
  option's :class:`~repro.cost.model.CostModel` is known, and
- everything downstream of it is one chain to a sink: each node a weight-1
  transformer or an apply of that estimator, with exactly one consumer,
  and none of them an estimator, an ``Optimizable`` or a gather.  The
  chain may also end in a sink ``GATHER`` with no consumer (the union
  sink of a :class:`~repro.incremental.SweepPlanner` sweep); a gather
  that feeds anything blocks pruning.

Every node of such a chain is requested at most once under any cache set,
so its time and size cannot move a materialization choice, and no
selection downstream reads its sampled statistics.  The profile entries of
the estimator and its chain are then cost-model estimates, not
measurements, and ``PipelineProfile.pruned`` lists their node ids:

- the estimator's ``t_seconds`` is the selected option's modelled seconds
  at the selection-time input statistics (with ``k``), its size the
  fitted linear map's ``d * k * 8`` bytes;
- each chain node gets ``n`` rows of ``d = k`` (``n`` the full count of
  the data flowing into the chain), ``n * k * 8`` bytes and zero seconds.

A sink gather over a pruned chain is not executed either.  Its entry is
derived from its parents' entries: zero seconds (what a measured gather
records), ``n`` the minimum of their counts, their summed size and
width.  It is not listed in ``pruned``: a sink requested once cannot
move a decision, measured or not.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import graph as g
from repro.core.operators import Optimizable
from repro.core.stats import DataStats, num_label_dims, stats_from_rows
from repro.cost.model import CostModel, estimate_cost
from repro.dataset.context import Context
from repro.dataset.rows import SparseRows, copy_rows
from repro.dataset.sizing import estimate_size
from repro.obs import trace as obs_trace

DOUBLE = 8.0  # bytes per float64


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
    #: ids of nodes whose entry is a cost-model estimate, not a
    #: measurement: estimators whose sample fit was pruned, and the chain
    #: below each (see the module docstring)
    pruned: List[int] = field(default_factory=list)

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


def _unread_chain(est: g.OpNode, succ: Dict[int, List[g.OpNode]],
                  sink_ids: Set[int]) -> Optional[List[g.OpNode]]:
    """The nodes below ``est`` if no decision reads them, else ``None``.

    They must form one single-consumer chain of weight-1 transformers
    (not ``Optimizable``) and applies of ``est``, ending at a sink or at
    a sink gather with no consumer (which is not part of the chain).
    """
    chain: List[g.OpNode] = []
    node = est
    while succ[node.id]:
        if node.id in sink_ids or len(succ[node.id]) != 1:
            return None
        node = succ[node.id][0]
        if node.kind == g.GATHER and node.id in sink_ids and not succ[node.id]:
            return chain
        if node.kind == g.APPLY:
            if node.parents[0] is not est:
                return None
        elif node.kind != g.TRANSFORMER or isinstance(node.op, Optimizable):
            return None
        if node.weight != 1:
            return None
        chain.append(node)
    return chain if node.id in sink_ids else None


class _ProfilePass:
    """One execution of the DAG on samples of a given size.

    ``selected`` (node id -> physical operator name, its option's cost
    model and the input statistics it was priced at) is shared by the
    passes of one profile; nodes in ``skip`` are pruned, never executed.
    """

    def __init__(self, sample_size: int, resources, select_operators: bool,
                 selected: Dict[int, Tuple[str, CostModel, DataStats]],
                 skip: Set[int]):
        self.sample_size = sample_size
        self.resources = resources
        self.select_operators = select_operators
        self.selected = selected
        self.skip = skip
        self.measurements: Dict[int, _Measurement] = {}
        self.full_counts: Dict[int, float] = {}
        self._outputs: Dict[int, Any] = {}

    def run(self, sinks: List[g.OpNode]) -> None:
        for node in g.ancestors(sinks):
            self._profile_node(node)

    # -- helpers --------------------------------------------------------
    def _rows_of(self, node: g.OpNode) -> List[Any]:
        out = self._outputs[node.id]
        if not isinstance(out, (list, SparseRows)):
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
        if node.id in self.selected:
            return  # selected in an earlier pass; op already swapped
        stats = self._input_stats(node)
        model, physical = node.op.select(stats, self.resources)
        self.selected[node.id] = (type(physical).__name__, model, stats)
        node.op = physical

    # -- per-kind profiling ----------------------------------------------
    def _profile_node(self, node: g.OpNode) -> None:
        if node.id in self.skip:
            if node.kind == g.ESTIMATOR:
                self._maybe_select(node)
                self.full_counts[node.id] = 1.0
            elif node.kind == g.GATHER:  # a sink gather over a chain
                self.full_counts[node.id] = min(
                    self._full_count(p) for p in node.parents)
            else:  # a chain node: an apply's or a transformer's data count
                data = node.parents[-1]
                self.full_counts[node.id] = self._full_count(data)
            return

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
            rows = node.op.apply_partition(copy_rows(parent_rows))
            seconds = time.perf_counter() - start
            ratio = len(rows) / max(len(parent_rows), 1)
            self.full_counts[node.id] = self._full_count(node.parents[0]) * ratio
            self._record(node, len(parent_rows), rows, seconds)
            return

        if node.kind == g.ESTIMATOR:
            self._maybe_select(node)
            ctx = Context(default_partitions=1)
            data = ctx.parallelize(self._rows_of(node.parents[0]), 1)
            op = copy.copy(node.op)
            start = time.perf_counter()
            if len(node.parents) == 2:
                labels = ctx.parallelize(self._rows_of(node.parents[1]), 1)
                fitted = op.fit(data, labels)
            else:
                fitted = op.fit(data)
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
            rows = fitted.apply_partition(copy_rows(parent_rows))
            seconds = time.perf_counter() - start
            ratio = len(rows) / max(len(parent_rows), 1)
            self.full_counts[node.id] = self._full_count(data_node) * ratio
            self._record(node, len(parent_rows), rows, seconds)
            return

        raise ValueError(f"cannot profile node kind {node.kind}")


def _estimate(chain: List[g.OpNode], model: CostModel, stats: DataStats,
              full_counts: Dict[int, float], resources) -> List[NodeProfile]:
    """Cost-model entries for a pruned estimator and the chain below it."""
    est, below = chain[0], chain[1:]
    k = stats.k
    entries = [NodeProfile(node=est,
                           t_seconds=estimate_cost(model, stats, resources),
                           size_bytes=DOUBLE * stats.d * k, stats=stats,
                           weight=est.weight)]
    for node in below:
        n = int(full_counts[node.id])
        entries.append(NodeProfile(node=node, t_seconds=0.0,
                                   size_bytes=DOUBLE * n * k,
                                   stats=DataStats(n=n, d=k),
                                   weight=node.weight))
    return entries


def profile_pipeline(sinks: List[g.OpNode], resources,
                     sample_sizes: Tuple[int, int],
                     select_operators: bool = True) -> PipelineProfile:
    """Profile the DAG on two samples and extrapolate to full scale.

    Mutates ``Optimizable`` nodes in place when ``select_operators`` is set,
    replacing logical operators with the chosen physical implementation
    (paper Section 3); the selections are recorded in the returned profile.
    Estimators selected here whose output no decision reads are not
    sample-fitted (see the module docstring).
    """
    start = time.perf_counter()
    n1, n2 = sorted(sample_sizes)
    selected: Dict[int, Tuple[str, CostModel, DataStats]] = {}

    chains: Dict[int, List[g.OpNode]] = {}
    if select_operators:
        succ = g.successors_map(sinks)
        sink_ids = {s.id for s in sinks}
        for node in g.ancestors(sinks):
            if node.kind == g.ESTIMATOR and isinstance(node.op, Optimizable):
                below = _unread_chain(node, succ, sink_ids)
                if below is not None:
                    chains[node.id] = [node] + below
    skip = {n.id for chain in chains.values() for n in chain}
    gathers = {s.id for s in sinks if s.kind == g.GATHER
               and any(p.id in skip for p in s.parents)}
    skip |= gathers

    pass1 = _ProfilePass(n1, resources, select_operators, selected, skip)
    pass1.run(sinks)
    pass2 = _ProfilePass(n2, resources, select_operators, selected, skip)
    pass2.run(sinks)

    estimates: Dict[int, NodeProfile] = {}
    for est_id, chain in chains.items():
        name, model, stats = selected[est_id]
        entries = _estimate(chain, model, stats, pass2.full_counts, resources)
        estimates.update((e.node_id, e) for e in entries)
        obs_trace.event("profile.skip", args={
            "node": chain[0].label, "operator": name,
            "estimated_seconds": entries[0].t_seconds})

    profile = PipelineProfile(
        sample_sizes=(n1, n2),
        selections={nid: name for nid, (name, _m, _s) in selected.items()})
    for node in g.ancestors(sinks):
        if node.id in estimates:
            profile.nodes[node.id] = estimates[node.id]
            profile.pruned.append(node.id)
            continue
        if node.id in gathers:
            parents = [profile.nodes[p.id] for p in node.parents]
            n = int(pass2.full_counts[node.id])
            profile.nodes[node.id] = NodeProfile(
                node=node, t_seconds=0.0,
                size_bytes=sum(p.size_bytes for p in parents),
                stats=DataStats(n=n, d=sum(p.stats.d for p in parents)),
                weight=node.weight)
            continue
        m1 = pass1.measurements[node.id]
        m2 = pass2.measurements[node.id]
        if node.kind == g.ESTIMATOR:
            # Estimator input count scales with the data parent's full count.
            full_in = pass2.full_counts[node.parents[0].id]
            t_full = _extrapolate(m1.sample_in, m1.seconds,
                                  m2.sample_in, m2.seconds, full_in)
            size_full = m2.out_bytes  # fitted models don't grow with n
            # The data parent's entry: its sample rows at count full_in.
            stats = profile.nodes[node.parents[0].id].stats
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
